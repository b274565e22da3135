"""Minimax lower bounds over the two-point family, in closed form.

The pipeline mirrors the standard mixing argument.  A per-comparison
separation constant alpha controls how far family members with different
on/off bits sit apart in squared spectral norm per Hamming step.  The
closeness of the two bit-anchored mixtures is measured through a chi-square
distance: at k = 1 its exact value is a sum over one index, and at any k a
Gershgorin envelope over the overlap law of two random row patterns
dominates it.  Both mixtures average, with common weights, per-completion
pairs whose total variation is at most half the root of their chi-square
(Tsybakov 2009, section 2.4).  Total variation is jointly convex and the
root concave, so any chi-square at least the exact average certifies

    affinity >= 1 - sqrt(chi-square) / 2,

and that certified affinity feeds the assembled bound

    (1/4) * alpha * (r / 2) * affinity,

which is compared against the closed-form rate target c^2 (log p / n)^(1-q).
:func:`certify` computes every one of these numbers once and returns them
together as one :class:`Certificate`.  Nothing here walks or counts the
family: both chi-squares sum a law over one index, walked out from its peak
only while a weight stays within ``exp``'s range, so every value costs O(r)
at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .model_spaces import LeastFavorableConfig, _fewest_free_columns

CHI_SQUARE_TARGET = 0.75

# exp(x) is exactly 0.0 for every x below -745.14, where the true value
# falls under half the smallest subnormal double.
_EXP_UNDERFLOW = 746.0


# ---------------------------------------------------------------------------
# one-index laws, walked out from their peak


def _walk(ratio, peak: int, lo: int, hi: int):
    """The weights w_t / w_peak of a law on t = lo..hi with one peak, walked
    out from ``peak``.

    ``ratio(t)`` is w_t / w_(t-1) as a numerator and a denominator.  The
    log-weights are accumulated from the ratios outward from the peak, where
    the log-weight is 0, and exponentiated.  A weight more than
    ``_EXP_UNDERFLOW`` below the peak is exactly 0.0 after ``exp``, so each
    side's walk stops at the first such weight.  Returns the two sides, each
    a ``(range, weights)`` pair: t = peak up, then t = peak - 1 down.
    """
    below, above = [], [1.0]  # w_t / w_peak from t = peak - 1 down and from t = peak up
    for side, step, stop in ((below, -1, lo - 1), (above, 1, hi + 1)):
        log_w = 0.0
        for t in range(peak + step, stop, step):
            # w_t from its neighbour toward the peak, through the ratio of the upper one
            num, den = ratio(max(t, t - step))
            log_w += step * math.log(num / den)
            if log_w < -_EXP_UNDERFLOW:
                break  # every weight farther out lies lower still
            side.append(math.exp(log_w))
    return (range(peak, hi + 1), above), (range(peak - 1, lo - 1, -1), below)


def _weighted(sides, f) -> float:
    """The sum of w_t f(t) over :func:`_walk`'s ``sides``, taken from the
    peak outward: math.fsum adds falling terms many times faster than rising
    ones."""
    return math.fsum(w_t * f(t) for ts, side in sides for t, w_t in zip(ts, side))


def _overlap_law(k: int, p_lambda: int):
    """:func:`_walk`'s sides of the overlap law of two uniform k-subsets of
    p_lambda columns, P(J = j) = C(k, j) C(p_lambda - k, k - j) / C(p_lambda, k).

    Its ratio

        P(J = j) / P(J = j - 1) = (k - j + 1)^2 / (j (p_lambda - 2k + j))

    falls in j on J's range max(0, 2k - p_lambda)..k, so the law rises to
    its mode floor((k + 1)^2 / (p_lambda + 2)) and then falls.  The weights
    are relative to the mode's; normalising them is the caller's.
    """
    lo, mode = max(0, 2 * k - p_lambda), (k + 1) ** 2 // (p_lambda + 2)
    return _walk(lambda j: ((k - j + 1) ** 2, j * (p_lambda - 2 * k + j)), mode, lo, k)


# ---------------------------------------------------------------------------
# chi-square distance: Gershgorin envelope, closed form at k = 1


def chi_square_mixture_bound(cfg: LeastFavorableConfig) -> float:
    """Envelope for the chi-square distance between the bit-anchored mixtures.

    Anchor the first row's bit, fix the other rows' bits and patterns, and
    let B be the incidence matrix of the active rows' patterns on the
    support columns.  With a_i the 0/1 indicator of a first-row pattern and
    W = (I - eps^2 B'B)^-1, the completion's chi-square is the mean over
    first-row pattern pairs of (1 - eps^2 a_i' W a_j)^(-n), minus 1.

    - Each column is in at most 2k patterns of k columns each, so every
      row of B'B sums to at most 2k^2, and Gershgorin gives
      lambda_max(eps^2 B'B) <= rho = 2 k^2 eps^2.  ``build_config`` keeps
      k eps < 1/6, so rho < 1/18.
    - W - I then has its spectrum in [0, delta], delta = rho / (1 - rho),
      so |a_i' (W - I) a_j| <= |a_i| |a_j| delta = k delta.
    - The pair term grows with a_i' W a_j <= J + k delta, where
      J = a_i' a_j is the overlap of the two patterns.
    - The two patterns are uniform k-subsets of the columns the other rows
      leave under the cap, and their overlap J is stochastically largest on
      the fewest such columns, ``_fewest_free_columns``.

    Every completion, and so their weighted average, therefore has

        chi^2 <= sum_j P(J = j) * (1 - eps^2 (j + k delta))^(-n) - 1,

    with P from :func:`_overlap_law` at the fewest free columns, p_lambda.
    The pair terms grow with j, so only the largest, at j = k, can
    overflow.  At k = 0 the envelope is 0.

    Raises
    ------
    ConfigError
        If the family is empty (k > r), where fewer than k columns are free.
    DomainError
        If rho >= 1, if some base 1 - eps^2 (j + k delta) is not positive, or
        if a term base^(-n) overflows a float, where no finite envelope
        follows.
    """
    k, eps2, n = cfg.k, cfg.epsilon**2, cfg.n
    p_lambda = _fewest_free_columns(cfg.r, k)
    if p_lambda < k:
        raise ConfigError(f"need p_lambda >= k, got p_lambda={p_lambda}, k={k}")
    rho = 2.0 * k * k * eps2
    if rho >= 1.0:
        raise DomainError(f"rho = 2 k^2 epsilon^2 = {rho:.6g} >= 1; envelope diverges")
    delta = rho / (1.0 - rho)
    top = 1.0 - eps2 * (k + k * delta)
    if top <= 0.0:
        raise DomainError(f"1 - epsilon^2 (k + k delta) = {top:.6g} <= 0; envelope diverges")

    def pair(j: int) -> float:
        """base_j^(-n) - 1; the P(J = j) sum to 1, so the envelope sums P(J = j) pair(j)."""
        return math.expm1(-n * math.log1p(-eps2 * (j + k * delta)))

    try:
        pair(k)
    except OverflowError as exc:
        raise DomainError(
            f"(1 - epsilon^2 (k + k delta))^(-n) overflows at n = {n}, "
            f"base {top:.6g}; envelope diverges"
        ) from exc
    sides = _overlap_law(k, p_lambda)
    return _weighted(sides, pair) / _weighted(sides, lambda j: 1.0)


def _k_one_usage(r: int) -> tuple[float, float]:
    """E[a0 + a1] and E[a1 / (a0 + a1)] over the valid k = 1 tuples of the
    r - 1 rows besides row 0, with a0 the columns they leave unused and a1
    the columns they use once.

    A tuple that uses t columns twice uses s = r - 1 - 2t once and leaves
    a0 = t + 1 unused, and r! / (t! s! a0!) * (r - 1)! / 2^t tuples share
    that t.  So successive weights have the ratio

        w_t / w_(t-1) = (s + 2)(s + 1) / (2 t (t + 1)),

    and both expectations are sums over t alone.  The ratio falls in t, so
    the weights rise to one peak t*, the largest t whose ratio is at least
    1, and then fall.  The ratio is 1 at the smaller root of
    2t^2 - 4(r + 1)t + r(r + 1) = 0, t = r + 1 - sqrt((r + 1)(r + 2) / 2),
    so ``r - isqrt((r + 1)(r + 2) // 2)`` is t* or one below it, and one
    exact test of the next ratio settles which.  :func:`_walk` walks the
    weights out from t*, and each sum is taken with ``math.fsum``.
    """
    m = (r - 1) // 2

    def ratio(t: int) -> tuple[int, int]:
        """w_t / w_(t-1) as its numerator (s + 2)(s + 1) and denominator."""
        return (r + 1 - 2 * t) * (r - 2 * t), 2 * t * (t + 1)

    peak = min(m, r - math.isqrt((r + 1) * (r + 2) // 2))
    if peak < m and ratio(peak + 1)[0] >= ratio(peak + 1)[1]:
        peak += 1
    sides = _walk(ratio, peak, 0, m)
    total = _weighted(sides, lambda t: 1.0)
    # a0 + a1 = r - t and a1 = r - 1 - 2t
    free = _weighted(sides, lambda t: r - t) / total
    once = _weighted(sides, lambda t: (r - 1 - 2 * t) / (r - t)) / total
    return free, once


def closed_form_chi_square(cfg: LeastFavorableConfig) -> float:
    """The exact bit-anchored chi-square at k = 1, in closed form.

    At k = 1 each row pattern is one column, so on the support columns
    W = (I - eps^2 B'B)^-1 is diagonal, with 1 / (1 - eps^2 u) for a column
    that u rows with their bit on use.  Only the pairs of one first-row
    column with itself then differ from 1, each by

        f(u) = (1 - eps^2 / (1 - eps^2 u))^(-n) - 1.

    A completion whose other r - 1 rows leave a0 columns unused and a1 used
    once scores [a0 f(0) + a1 (f(0) + f(1)) / 2] / (a0 + a1) averaged over
    its bits, with weight a0 + a1, so

        chi^2 = (f(0) + E[a1 / (a0 + a1)] (f(1) - f(0)) / 2) / E[a0 + a1],

    with both expectations from :func:`_k_one_usage`, a sum over one index.

    Raises
    ------
    ConfigError
        If k is not 1.
    DomainError
        If 1 - eps^2 u <= 0 or 1 - eps^2 / (1 - eps^2 u) <= 0 for a usage u
        the family reaches: a cross-product integral is then not finite.
        Also if (1 - eps^2 / (1 - eps^2 u))^(-n) overflows a float.
    """
    if cfg.k != 1:
        raise ConfigError(f"the closed-form chi-square needs k = 1, got k = {cfg.k}")
    eps2 = cfg.epsilon**2
    free, once = _k_one_usage(cfg.r)

    def f(u: int) -> float:
        base = 1.0 - eps2 * u
        if base <= 0.0 or 1.0 - eps2 / base <= 0.0:
            raise DomainError(
                f"cross-product integral diverges at column usage {u}: "
                f"eps^2 = {eps2:.6g}"
            )
        try:
            return math.expm1(-cfg.n * math.log1p(-eps2 / base))
        except OverflowError as exc:
            raise DomainError(
                f"cross-product integral overflows at column usage {u}: "
                f"n = {cfg.n}, base {1.0 - eps2 / base:.6g}"
            ) from exc

    f0 = f(0)
    f1 = f(1) if once > 0.0 else f0
    return (f0 + once * (f1 - f0) / 2.0) / free


# ---------------------------------------------------------------------------
# the certificate


@dataclass(frozen=True)
class Certificate:
    """The two-point lower bound at one configuration and every number
    behind it.

    ``alpha`` is the separation constant ``(k epsilon)^2 / p``; ``envelope``
    is :func:`chi_square_mixture_bound`, evaluated at the fewest free columns
    ``p_lambda_min``; ``exact`` is :func:`closed_form_chi_square` at k = 1 and
    None at other k.  ``affinity`` is ``1 - sqrt(chi^2) / 2`` floored at 0,
    with chi^2 the exact value where there is one and the envelope otherwise,
    and ``lower_bound`` is ``(1/4) * alpha * (r / 2) * affinity``, next to the
    rate target ``c^2 (log p / n)^(1-q)``.
    """

    config: LeastFavorableConfig
    alpha: float
    envelope: float
    p_lambda_min: int
    exact: float | None
    affinity: float
    lower_bound: float
    rate_target: float


def certify(cfg: LeastFavorableConfig) -> Certificate:
    """Certify the two-point minimax lower bound at ``cfg``.

    Both bit-anchored mixtures average, with common weights, per-completion
    pairs whose total variation is at most sqrt(chi^2)/2 each.  TV is jointly
    convex and the root concave, so by Jensen the mixtures' affinity 1 - TV
    is at least ``1 - sqrt(chi^2) / 2`` for any chi^2 at least the exact
    average: the exact value at k = 1, the envelope otherwise.

    Raises
    ------
    ConfigError
        If the family is empty (k > r).
    DomainError
        If a cross-product integral, or the envelope, is not finite.
    """
    alpha = (cfg.k * cfg.epsilon) ** 2 / cfg.p
    envelope = chi_square_mixture_bound(cfg)
    exact = closed_form_chi_square(cfg) if cfg.k == 1 else None
    affinity = max(0.0, 1.0 - 0.5 * math.sqrt(envelope if exact is None else exact))
    return Certificate(
        config=cfg,
        alpha=alpha,
        envelope=envelope,
        p_lambda_min=_fewest_free_columns(cfg.r, cfg.k),
        exact=exact,
        affinity=affinity,
        lower_bound=0.25 * alpha * (cfg.r / 2.0) * affinity,
        rate_target=cfg.c**2 * (math.log(cfg.p) / cfg.n) ** (1.0 - cfg.q),
    )
