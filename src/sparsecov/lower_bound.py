"""Numerical laboratory for minimax lower bounds over the two-point family.

The pipeline mirrors the standard mixing argument.  A per-comparison
separation constant alpha controls how far family members with different
on/off bits sit apart in squared spectral norm per Hamming step.  The
closeness of the two bit-anchored mixtures is measured through a chi-square
distance: an explicit envelope built from the overlap law of two random row
patterns dominates it, and its exact value comes in closed form at k = 1
and by enumeration at small scale otherwise.  Both mixtures average, with
common weights, per-completion pairs whose total variation is at most half
the root of their chi-square (Tsybakov 2009, section 2.4).  Total variation
is jointly convex and the root concave, so the exact chi-square certifies

    affinity >= 1 - sqrt(chi-square) / 2,

and that certified affinity feeds the assembled bound

    (1/4) * alpha * (r / 2) * affinity,

which is compared against the closed-form rate target c^2 (log p / n)^(1-q).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, ConfigError, DivergenceError
from .model_spaces import (
    LeastFavorableConfig,
    _column_cap,
    _fewest_free_columns,
    _iter_lambda,
    _sigma_stack,
    _usage_profiles,
    count_theta,
)

CHI_SQUARE_TARGET = 0.75
DEFAULT_ENUMERATION_BUDGET = 10**6


# ---------------------------------------------------------------------------
# per-comparison separation


def _alpha_bound(cfg: LeastFavorableConfig) -> float:
    """The closed-form separation constant ``(k epsilon)^2 / p``."""
    return (cfg.k * cfg.epsilon) ** 2 / cfg.p


@dataclass(frozen=True)
class AlphaResult:
    """Closed-form bound, optional exact minimum, and the pair count behind it."""

    bound: float
    exact: float | None
    pair_count: int


def per_comparison_alpha(
    cfg: LeastFavorableConfig, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> AlphaResult:
    """Separation constant of the family under squared spectral distance.

    The bound is ``(k * epsilon)^2 / p``.  When the number of member pairs
    fits ``budget`` the exact minimum of
    ``|||Sigma(theta) - Sigma(theta')|||_2^2 / H(gamma, gamma')`` over pairs
    with different bit vectors is computed by full enumeration; otherwise
    ``exact`` is None and only the bound is returned.

    Raises
    ------
    ConfigError
        If the family is empty (k > r).
    """
    bound = _alpha_bound(cfg)
    total = count_theta(cfg)
    if total == 0:
        raise ConfigError(
            f"no admissible row patterns for k = {cfg.k}, r = {cfg.r}; family is empty"
        )
    pair_count = total * (total - 1) // 2
    if pair_count > budget:
        return AlphaResult(bound=bound, exact=None, pair_count=pair_count)
    # every member in (gamma, rows) order: bit vectors lexicographically,
    # then row-pattern tuples in _iter_lambda order, as a (tuples, r, k)
    # column array; the explicit count keeps the shape when k = 0
    lambdas = list(_iter_lambda(cfg, cfg.r))
    cols = np.array(lambdas, dtype=np.intp).reshape(len(lambdas), cfg.r, cfg.k)
    gammas = np.repeat(list(itertools.product((0, 1), repeat=cfg.r)), len(cols), axis=0)
    sigmas = _sigma_stack(cfg, gammas, np.tile(cols, (2**cfg.r, 1, 1)))
    best = math.inf
    for i in range(len(sigmas)):
        ham = np.sum(gammas[i + 1 :] != gammas[i], axis=1)
        apart = ham > 0
        if not np.any(apart):
            continue
        # one stacked eigensolve over every later member with other bits
        spectra = np.linalg.eigvalsh(sigmas[i] - sigmas[i + 1 :][apart])
        norms = np.max(np.abs(spectra), axis=1)
        best = min(best, float(np.min(norms**2 / ham[apart])))
    exact = 0.0 if best is math.inf else float(best)
    return AlphaResult(bound=bound, exact=exact, pair_count=pair_count)


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
# chi-square distance: envelope, exact enumeration, closed form at k = 1


@dataclass(frozen=True)
class ChiSquareEnvelope:
    """Dominating value for the bit-anchored chi-square distance.

    ``value`` evaluates the overlap-law form of the bound at the most
    pessimistic admissible number of free columns ``p_lambda_min``:

        sum_j P(J = j) * ((1 - j eps^2)^(-n) * 3/2 - 1).

    ``series_value`` is the cruder geometric majorant that replaces the
    overlap law by the ratio k^2 / (p/4 - 1 - k) and each log factor by
    exp(2 j upsilon^2 log p); it is reported for reference whenever it
    converges and flagged as divergent otherwise (which happens at small p
    where p/4 - 1 <= k even though the overlap-law value is finite).
    """

    value: float
    below_target: bool
    p_lambda_min: int
    series_value: float | None
    series_ratio: float | None
    series_diverged: bool
    target: float = CHI_SQUARE_TARGET


def chi_square_mixture_bound(cfg: LeastFavorableConfig) -> ChiSquareEnvelope:
    """Envelope for the chi-square distance between the bit-anchored mixtures.

    Raises
    ------
    ConfigError
        If the family is empty (k > r).
    DivergenceError
        If ``k * epsilon^2 >= 1``, where the per-term integrals themselves
        diverge and no finite envelope exists.
    """
    k, eps, n = cfg.k, cfg.epsilon, cfg.n
    p_lambda_min = _fewest_free_columns(cfg.r, k)
    # overlap_fractions refuses p_lambda_min < k, which only an empty family reaches
    pmf = np.array([float(f) for f in overlap_fractions(k, p_lambda_min)])
    if k * eps**2 >= 1.0:
        raise DivergenceError(f"k * epsilon^2 = {k * eps**2:.6g} >= 1; envelope diverges")
    js = np.arange(k + 1)
    value = float(np.sum(pmf * ((1.0 - js * eps**2) ** (-n) * 1.5 - 1.0)))

    denom = cfg.p / 4.0 - 1.0 - k
    series_value: float | None = None
    series_ratio: float | None = None
    series_diverged = False
    if k == 0:
        series_ratio = 0.0
        series_value = 0.5
    elif denom <= 0.0:
        series_diverged = True
    else:
        ratio = (k**2 / denom) * math.exp(2.0 * cfg.upsilon**2 * math.log(cfg.p))
        series_ratio = ratio
        if ratio >= 1.0:
            series_diverged = True
        else:
            # 1/2 + sum_{t >= 1} (3/2) ratio^t in closed form
            series_value = 0.5 + 1.5 * ratio / (1.0 - ratio)
    return ChiSquareEnvelope(
        value=value,
        below_target=value < CHI_SQUARE_TARGET,
        p_lambda_min=p_lambda_min,
        series_value=series_value,
        series_ratio=series_ratio,
        series_diverged=series_diverged,
    )


def exact_chi_square_small(
    cfg: LeastFavorableConfig, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> float:
    """Exact chi-square distance anchored at the first bit, by enumeration.

    Averages, over all completions (remaining bits, remaining row patterns)
    with their induced weights, the quantity

        mean over pattern pairs of [cross-product integral]^n  -  1.

    Feasible only at tiny scale; the amount of pair work is checked against
    ``budget`` first.

    Raises
    ------
    BudgetError
        If the number of integral evaluations would exceed the budget.
    ConfigError
        If the family is empty (k > r).
    DivergenceError
        If a cross-product integral is not finite.
    """
    r, k, eps, p = cfg.r, cfg.k, cfg.epsilon, cfg.p
    if k == 0 or eps == 0.0:
        return 0.0

    # one integral per bit vector of the other rows, per valid tuple of
    # their patterns and per pair of first rows on the columns they leave
    work = 2 ** (r - 1) * sum(
        ways * math.comb(sum(profile[: _column_cap(k)]), k) ** 2
        for profile, ways in _usage_profiles(r, k).items()
    )
    if work > budget:
        raise BudgetError(
            f"exact chi-square needs {work} integral evaluations, budget is {budget}",
            count=work,
        )
    if work == 0:
        raise ConfigError("no admissible completions; family is empty")
    # one row per remaining bit vector, in lexicographic order; the first
    # row's bit is off in every base covariance
    bits = np.array([(0,) + rest for rest in itertools.product((0, 1), repeat=r - 1)])
    acc = 0.0
    weight_sum = 0.0
    for rows in _iter_lambda(cfg, r - 1):
        used = Counter(j for pat in rows for j in pat)
        # k <= r here (work is 0 otherwise), so k or more columns stay under the cap
        avail = [j for j in cfg.support_columns if used[j] < _column_cap(k)]
        lam1 = list(itertools.combinations(avail, k))
        d_c = len(lam1)
        # 0/1 indicator per candidate first-row pattern, rows are patterns
        a_mat = np.zeros((d_c, p))
        for idx, pat in enumerate(lam1):
            a_mat[idx, list(pat)] = 1.0
        # one base covariance S0 per bit vector; the first row's pattern is
        # unused, since its bit is off
        w = np.linalg.inv(_sigma_stack(cfg, bits, np.array((lam1[0],) + rows)))
        # Row 0's bit is off and column 0 is no support column, so S0 e0 = e0
        # and W e0 = e0.  With S1 - S0 = eps (e0 a_i' + a_i e0') and S2 - S0
        # likewise for a_j, the p x p determinant reduces by the matrix
        # determinant lemma to (1 - eps^2 gram_ij)^2, gram_ij = a_i' W a_j.
        # By the same lemma det(S1) / det(S0) = 1 - eps^2 gram_ii, and by
        # Cauchy-Schwarz in W a nonpositive root for any pair means one for a
        # diagonal pair: then some S1 is not positive definite and the
        # integral is not finite.  The square det2 cannot show that.
        root = 1.0 - eps**2 * (a_mat @ w @ a_mat.T)
        if np.any(root <= 0.0):
            raise DivergenceError(
                "cross-product integral diverges inside exact enumeration: "
                "1 - eps^2 a_i' W a_j <= 0"
            )
        det2 = root**2
        cells = np.mean(det2 ** (-0.5 * cfg.n), axis=(1, 2)) - 1.0
        for cell in cells.tolist():
            acc += d_c * cell
        weight_sum += d_c * len(cells)
    return acc / weight_sum


def closed_form_chi_square(cfg: LeastFavorableConfig) -> float:
    """The exact chi-square of :func:`exact_chi_square_small` at k = 1, in closed form.

    At k = 1 each row pattern is one column, so on the support columns
    W = (I - eps^2 B'B)^-1 is diagonal, with 1 / (1 - eps^2 u) for a column
    that u rows with their bit on use.  Only the pairs of one first-row
    column with itself then differ from 1, each by

        f(u) = (1 - eps^2 / (1 - eps^2 u))^(-n) - 1.

    A completion whose other r - 1 rows leave a0 columns unused and a1 used
    once scores [a0 f(0) + a1 (f(0) + f(1)) / 2] / (a0 + a1) averaged over
    its bits, with weight a0 + a1, so the value depends on the usage profile
    alone:

        chi^2 = (f(0) + E[a1 / (a0 + a1)] (f(1) - f(0)) / 2) / E[a0 + a1],

    expectations over the profiles of :func:`_usage_profiles`, weighted by
    their exact count over the total, so no count needs to fit in a float.
    The other r - 1 rows use at most r - 1 of the r columns, so a0 >= 1.

    Raises
    ------
    ConfigError
        If k is not 1.
    DivergenceError
        If 1 - eps^2 u <= 0 or 1 - eps^2 / (1 - eps^2 u) <= 0 for a usage u
        the family reaches: a cross-product integral is then not finite.
    """
    if cfg.k != 1:
        raise ConfigError(f"the closed-form chi-square needs k = 1, got k = {cfg.k}")
    eps2 = cfg.epsilon**2
    profiles = _usage_profiles(cfg.r, 1)
    total = sum(profiles.values())
    free = once = 0.0
    for profile, ways in profiles.items():
        avail = profile[0] + profile[1]
        free += ways / total * avail
        once += ways / total * profile[1] / avail

    def f(u: int) -> float:
        base = 1.0 - eps2 * u
        if base <= 0.0 or 1.0 - eps2 / base <= 0.0:
            raise DivergenceError(
                f"cross-product integral diverges at column usage {u}: "
                f"eps^2 = {eps2:.6g}"
            )
        return (1.0 - eps2 / base) ** (-cfg.n) - 1.0

    f0 = f(0)
    f1 = f(1) if once > 0.0 else f0
    return (f0 + once * (f1 - f0) / 2.0) / free


@dataclass(frozen=True)
class CertifiedAffinity:
    """Affinity lower bound ``1 - sqrt(chi_square) / 2`` and its chi-square.

    ``formula`` names how the exact chi-square was computed: ``"closed-form"``
    (k = 1) or ``"enumeration"``.
    """

    value: float
    chi_square: float
    formula: str


def certified_affinity(
    cfg: LeastFavorableConfig, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> CertifiedAffinity:
    """Certified lower bound on the affinity of the two bit-anchored mixtures.

    Both mixtures average, with common weights, the per-completion pairs
    that :func:`exact_chi_square_small` scores.  Per pair TV <= sqrt(chi^2)/2;
    TV is jointly convex and the root concave, so by Jensen the mixtures'
    affinity 1 - TV is at least ``1 - sqrt(chi^2) / 2`` with chi^2 the exact
    average.  It comes from
    :func:`closed_form_chi_square` at k = 1 and from enumeration within
    ``budget`` otherwise; the value is floored at 0.

    Raises
    ------
    BudgetError
        If k >= 2 and the enumeration would exceed ``budget``.
    ConfigError
        If the family is empty (k > r).
    DivergenceError
        If a cross-product integral is not finite.
    """
    if cfg.k == 1:
        chi2, formula = closed_form_chi_square(cfg), "closed-form"
    else:
        chi2, formula = exact_chi_square_small(cfg, budget=budget), "enumeration"
    return CertifiedAffinity(
        value=max(0.0, 1.0 - 0.5 * math.sqrt(chi2)), chi_square=chi2, formula=formula
    )


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True)
class LowerBoundResult:
    """Assembled minimax lower bound next to the closed-form rate target."""

    lower_bound: float
    alpha_bound: float
    affinity: float
    rate_target: float


def assemble_lower_bound(
    cfg: LeastFavorableConfig, affinity: float
) -> LowerBoundResult:
    """Combine the separation constant and an affinity into the risk bound.

    The bound is ``(1/4) * alpha * (r/2) * affinity`` with alpha the
    closed-form separation :func:`_alpha_bound`; the rate target
    ``c^2 (log p / n)^(1-q)`` is attached for comparison.
    """
    if not 0.0 <= affinity <= 1.0 + 1e-9:
        raise ValueError(f"affinity must lie in [0, 1], got {affinity}")
    alpha = _alpha_bound(cfg)
    bound = 0.25 * alpha * (cfg.r / 2.0) * min(affinity, 1.0)
    target = cfg.c**2 * (math.log(cfg.p) / cfg.n) ** (1.0 - cfg.q)
    return LowerBoundResult(
        lower_bound=bound, alpha_bound=alpha, affinity=affinity, rate_target=target
    )
