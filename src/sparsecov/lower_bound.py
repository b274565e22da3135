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
family, so every value costs O(r) at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, DomainError
from .model_spaces import LeastFavorableConfig, _fewest_free_columns

CHI_SQUARE_TARGET = 0.75


# ---------------------------------------------------------------------------
# overlap law


def overlap_fractions(k: int, p_lambda: int) -> list[Fraction]:
    """Exact overlap law of two uniform k-subsets of p_lambda columns.

    Entry j is P(J = j) = C(k, j) C(p_lambda - k, k - j) / C(p_lambda, k),
    returned as exact rationals summing to one.
    """
    if k < 0:
        raise ConfigError(f"k must be nonnegative, got {k}")
    if p_lambda < k:
        raise ConfigError(f"need p_lambda >= k, got p_lambda={p_lambda}, k={k}")
    if k == 0:
        return [Fraction(1)]
    denom = math.comb(p_lambda, k)
    return [
        Fraction(math.comb(k, j) * math.comb(p_lambda - k, k - j), denom)
        for j in range(k + 1)
    ]


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

    with P from :func:`overlap_fractions` at the fewest free columns.  At
    k = 0 the envelope is 0.

    Raises
    ------
    ConfigError
        If the family is empty (k > r).
    DomainError
        If rho >= 1, if some base 1 - eps^2 (j + k delta) is not positive, or
        if a term base^(-n) overflows a float, where no finite envelope
        follows.
    """
    k, eps2, n = cfg.k, cfg.epsilon**2, cfg.n
    p_lambda_min = _fewest_free_columns(cfg.r, k)
    # overlap_fractions refuses p_lambda_min < k, which only an empty family reaches
    pmf = overlap_fractions(k, p_lambda_min)
    rho = 2.0 * k * k * eps2
    if rho >= 1.0:
        raise DomainError(f"rho = 2 k^2 epsilon^2 = {rho:.6g} >= 1; envelope diverges")
    delta = rho / (1.0 - rho)
    bases = [1.0 - eps2 * (j + k * delta) for j in range(k + 1)]
    if min(bases) <= 0.0:
        raise DomainError(
            f"1 - epsilon^2 (k + k delta) = {min(bases):.6g} <= 0; envelope diverges"
        )
    try:
        return math.fsum(float(pj) * base ** (-n) for pj, base in zip(pmf, bases)) - 1.0
    except OverflowError as exc:
        raise DomainError(
            f"(1 - epsilon^2 (k + k delta))^(-n) overflows at n = {n}, "
            f"base {min(bases):.6g}; envelope diverges"
        ) from exc


def _k_one_usage(r: int) -> tuple[float, float]:
    """E[a0 + a1] and E[a1 / (a0 + a1)] over the valid k = 1 tuples of the
    r - 1 rows besides row 0, with a0 the columns they leave unused and a1
    the columns they use once.

    A tuple that uses t columns twice uses s = r - 1 - 2t once and leaves
    a0 = t + 1 unused, and r! / (t! s! a0!) * (r - 1)! / 2^t tuples share
    that t.  So successive weights have the ratio

        w_t / w_(t-1) = (s + 2)(s + 1) / (2 t (t + 1)),

    and both expectations are sums over t alone: the log-weights are
    accumulated from the ratios, shifted by their maximum and exponentiated,
    and each sum is taken with ``math.fsum``.
    """
    log_w = [0.0]
    for t in range(1, (r - 1) // 2 + 1):
        s = r - 1 - 2 * t
        log_w.append(log_w[-1] + math.log((s + 2) * (s + 1) / (2 * t * (t + 1))))
    top = max(log_w)
    w = [math.exp(v - top) for v in log_w]
    total = math.fsum(w)
    # a0 + a1 = r - t and a1 = r - 1 - 2t
    free = math.fsum(w_t * (r - t) for t, w_t in enumerate(w)) / total
    once = math.fsum(w_t * (r - 1 - 2 * t) / (r - t) for t, w_t in enumerate(w)) / total
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
            return (1.0 - eps2 / base) ** (-cfg.n) - 1.0
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
