"""Numerical laboratory for minimax lower bounds over the two-point family.

The pipeline mirrors the standard mixing argument.  A per-comparison
separation constant alpha controls how far family members with different
on/off bits sit apart in squared spectral norm per Hamming step.  The
closeness of the two bit-anchored mixtures is measured through a chi-square
distance, which at small scale can be enumerated exactly and is otherwise
dominated by an explicit envelope built from the overlap law of two random
row patterns.  A Monte Carlo total-variation affinity estimate then feeds the
assembled bound

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

from .errors import (
    BudgetError,
    ConfigError,
    DivergenceError,
    DomainError,
    NumericalError,
    StructureError,
)
from .matrices import _from_eigen, as_symmetric
from .model_spaces import (
    DEFAULT_ENUMERATION_BUDGET,
    LeastFavorableConfig,
    _count_lambda,
    _iter_lambda,
    count_theta,
    enumerate_theta,
    materialize_sigma,
)
from .rng import RngSeed

CHI_SQUARE_TARGET = 0.75
_EIG_TOL = 1e-10
# Samples scored per GEMM in tv_affinity_mc; bounds its working memory.
_TILE = 256


# ---------------------------------------------------------------------------
# per-comparison separation


@dataclass(frozen=True)
class AlphaResult:
    """Closed-form bound, optional exact minimum, and the pair count behind it."""

    bound: float
    exact: float | None
    pair_count: int


def per_comparison_alpha(
    cfg: LeastFavorableConfig, exact_budget: int = 2_000_000
) -> AlphaResult:
    """Separation constant of the family under squared spectral distance.

    The bound is ``(k * epsilon)^2 / p``.  When the number of member pairs
    fits ``exact_budget`` the exact minimum of
    ``|||Sigma(theta) - Sigma(theta')|||_2^2 / H(gamma, gamma')`` over pairs
    with different bit vectors is computed by full enumeration; otherwise
    ``exact`` is None and only the bound is returned.
    """
    bound = (cfg.k * cfg.epsilon) ** 2 / cfg.p
    total = count_theta(cfg)
    pair_count = total * (total - 1) // 2
    if pair_count > exact_budget:
        return AlphaResult(bound=bound, exact=None, pair_count=pair_count)
    thetas = enumerate_theta(cfg, budget=max(total, 1))
    sigmas = np.stack([materialize_sigma(cfg, th) for th in thetas])
    gammas = np.array([th.gamma for th in thetas], dtype=int)
    best = math.inf
    for i in range(len(thetas)):
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
# cross-product integral and overlap structure


def cross_product_integral(s0, s1, s2) -> float:
    """Gaussian cross-product integral of two densities against a base.

    For centered Gaussians with covariances S0, S1, S2 this equals

        det(I - S0^-1 (S1 - S0) S0^-1 (S2 - S0))^(-1/2).

    It is the integral of f1 f2 / f0, which equals
    det S0^(1/2) (det S1 det S2)^(-1/2) det(M)^(-1/2) with
    M = S1^-1 + S2^-1 - S0^-1, and it is finite exactly when M is positive
    definite.  Since I - Q = S0^-1 S1 M S2, the determinant above is then
    positive; its sign alone does not show convergence, because M can have
    an even number of negative eigenvalues.

    Raises
    ------
    DomainError
        If S0, S1 or S2 is not positive definite.
    DivergenceError
        If M is not positive definite (integral diverges).
    """
    m0 = as_symmetric(s0)
    m1 = as_symmetric(s1)
    m2 = as_symmetric(s2)
    if m0.shape != m1.shape or m0.shape != m2.shape:
        raise ValueError("all three matrices must share one shape")
    for label, m in (("base", m0), ("S1", m1), ("S2", m2)):
        if float(np.min(np.linalg.eigvalsh(m))) <= 0.0:
            raise DomainError(f"{label} covariance must be positive definite")
    inv0 = np.linalg.inv(m0)
    mid = np.linalg.inv(m1) + np.linalg.inv(m2) - inv0
    if float(np.min(np.linalg.eigvalsh(mid))) <= 0.0:
        raise DivergenceError(
            "cross-product integral diverges: S1^-1 + S2^-1 - S0^-1 is not "
            "positive definite"
        )
    q = inv0 @ (m1 - m0) @ inv0 @ (m2 - m0)
    sign, logdet = np.linalg.slogdet(np.eye(m0.shape[0]) - q)
    if sign <= 0.0:
        raise DivergenceError(
            "cross-product integral diverges: det(I - Q) is not positive"
        )
    return math.exp(-0.5 * logdet)


@dataclass(frozen=True)
class OverlapResult:
    """Overlap count and the nonzero eigenvalues of the difference product."""

    j: int
    epsilon: float
    nonzero_eigenvalues: tuple[float, ...]


def overlap_structure(s0, s1, s2, *, tol: float = _EIG_TOL) -> OverlapResult:
    """Verify the rank-two eigenstructure of (S0 - S1)(S0 - S2).

    S1 and S2 must differ from S0 only in the first row and column, by a
    common value epsilon on equally sized index patterns, and S0's first row
    must be the first basis vector.  The product then has at most rank two,
    and when the patterns overlap in J > 0 places its only nonzero
    eigenvalues are J * epsilon^2, twice.

    Raises
    ------
    StructureError
        If the inputs violate the required shape, or the verified
        eigenstructure fails to hold within ``tol``.
    """
    m0 = as_symmetric(s0)
    m1 = as_symmetric(s1)
    m2 = as_symmetric(s2)
    p = m0.shape[0]
    if m1.shape != m0.shape or m2.shape != m0.shape:
        raise StructureError("matrices must share one dimension")
    e1 = np.zeros(p)
    e1[0] = 1.0
    if not np.allclose(m0[0], e1, atol=tol):
        raise StructureError("first row of the base matrix must be the basis vector")
    patterns = []
    eps_values = []
    for label, m in (("S1", m1), ("S2", m2)):
        diff = m - m0
        body = diff[1:, 1:]
        if float(np.max(np.abs(body))) > tol or abs(diff[0, 0]) > tol:
            raise StructureError(
                f"{label} may differ from S0 only off-diagonally in row/column 1"
            )
        row = diff[0, 1:]
        support = np.flatnonzero(np.abs(row) > tol)
        if support.size == 0:
            raise StructureError(f"{label} has an empty first-row pattern")
        vals = row[support]
        if float(np.max(vals) - np.min(vals)) > tol or float(vals[0]) <= 0.0:
            raise StructureError(
                f"{label} first-row entries must share one positive value"
            )
        patterns.append(set(int(i) for i in support))
        eps_values.append(float(vals.mean()))
    if abs(eps_values[0] - eps_values[1]) > tol:
        raise StructureError("S1 and S2 must use a common epsilon")
    if len(patterns[0]) != len(patterns[1]):
        raise StructureError("first-row patterns must have equal size")
    epsilon = eps_values[0]
    j = len(patterns[0] & patterns[1])
    product = (m0 - m1) @ (m0 - m2)
    eigs = np.linalg.eigvals(product)
    if float(np.max(np.abs(eigs.imag))) > tol:
        raise StructureError("difference product has materially complex eigenvalues")
    re = np.sort(eigs.real)[::-1]
    target = j * epsilon**2
    nonzero = re[np.abs(re) > tol]
    if j > 0:
        if nonzero.size != 2 or np.max(np.abs(nonzero - target)) > tol:
            raise StructureError(
                f"expected two nonzero eigenvalues at {target:.3e}, got {nonzero}"
            )
    else:
        if nonzero.size != 0:
            raise StructureError(
                f"expected a nilpotent product for J=0, got eigenvalues {nonzero}"
            )
        if np.linalg.matrix_rank(product, tol=tol) > 2:
            raise StructureError("difference product exceeds rank two")
    return OverlapResult(
        j=j, epsilon=epsilon, nonzero_eigenvalues=tuple(float(v) for v in nonzero)
    )


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


def overlap_distribution(k: int, p_lambda: int) -> np.ndarray:
    """Float image of :func:`overlap_fractions`."""
    return np.array([float(f) for f in overlap_fractions(k, p_lambda)])


# ---------------------------------------------------------------------------
# chi-square distance: envelope and exact tiny-scale enumeration


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
    DivergenceError
        If ``k * epsilon^2 >= 1``, where the per-term integrals themselves
        diverge and no finite envelope exists.
    """
    r, k, eps, n = cfg.r, cfg.k, cfg.epsilon, cfg.n
    p_lambda_min = r - (r - 1) // 2
    if p_lambda_min < k:
        raise ConfigError(
            f"worst-case free column count {p_lambda_min} is below k={k}; "
            "the completion set can be empty"
        )
    if k * eps**2 >= 1.0:
        raise DivergenceError(
            f"k * epsilon^2 = {k * eps**2:.6g} >= 1; envelope diverges",
            ratio=k * eps**2,
        )
    pmf = overlap_distribution(k, p_lambda_min)
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


def _completion_work_total(cfg: LeastFavorableConfig) -> int:
    """Integral evaluations exact_chi_square_small would perform, without
    enumerating completions: walk the usage profiles of the other r - 1 rows
    like the family counter does, weighting each by the squared number of
    admissible first rows."""
    k, cap = cfg.k, 2 * cfg.k

    def first_row_pairs(profile: tuple[int, ...]) -> int:
        avail = sum(profile[:cap])
        return math.comb(avail, k) ** 2 if avail >= k else 0

    return 2 ** (cfg.r - 1) * _count_lambda(cfg.r, k, cfg.r - 1, first_row_pairs)


def exact_chi_square_small(
    cfg: LeastFavorableConfig,
    n: int | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
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
    """
    if n is None:
        n = cfg.n
    if n < 0:
        raise ConfigError(f"n must be nonnegative, got {n}")
    r, k, eps, p = cfg.r, cfg.k, cfg.epsilon, cfg.p
    if k == 0 or eps == 0.0:
        return 0.0

    work = _completion_work_total(cfg)
    if work > budget:
        raise BudgetError(
            f"exact chi-square needs {work} integral evaluations, budget is {budget}",
            count=work,
        )
    # entry (b, m - 1): the bump on row m under the b-th remaining bit vector,
    # bit vectors in lexicographic order
    bumps = eps * np.array(
        list(itertools.product((0.0, 1.0), repeat=r - 1))
    ).reshape(2 ** (r - 1), r - 1)
    acc = 0.0
    weight_sum = 0.0
    for rows in _iter_lambda(cfg, r - 1):
        used = Counter(j for pat in rows for j in pat)
        avail = [j for j in cfg.support_columns if used[j] < 2 * k]
        if len(avail) < k:
            continue
        lam1 = list(itertools.combinations(avail, k))
        d_c = len(lam1)
        # 0/1 indicator per candidate first-row pattern, rows are patterns
        a_mat = np.zeros((d_c, p))
        for idx, pat in enumerate(lam1):
            a_mat[idx, list(pat)] = 1.0
        # one base covariance S0 per bit vector; rows m < r and support
        # columns >= p - r never meet, so each bumped entry is written once
        s0 = np.tile(np.eye(p), (len(bumps), 1, 1))
        for m, pat in enumerate(rows, start=1):
            s0[:, m, list(pat)] = bumps[:, m - 1, None]
            s0[:, list(pat), m] = bumps[:, m - 1, None]
        w = np.linalg.inv(s0)
        # S1 - S0 = eps U J U' with U = [e0, a_i] and J = [[0, 1], [1, 0]],
        # likewise S2 - S0 with V = [e0, a_j], so the p x p determinant
        # reduces to det(I_2 - eps^2 J G J G') with G = U' W V, whose
        # entries are w00, g_i = a_i' W e0 and gram_ij = a_i' W a_j.
        w00 = w[:, :1, :1]
        g = a_mat @ w[:, :, :1]
        gram = a_mat @ w @ a_mat.T
        gg = g * g.transpose(0, 2, 1)
        det2 = (1.0 - eps**2 * (w00 * gram + gg)) ** 2 - (
            4.0 * eps**4 * w00 * gram * gg
        )
        if np.any(det2 <= 0.0):
            raise DivergenceError(
                "cross-product integral diverges inside exact enumeration"
            )
        cells = np.mean(det2 ** (-0.5 * n), axis=(1, 2)) - 1.0
        for cell in cells.tolist():
            acc += d_c * cell
        weight_sum += d_c * len(cells)
    if weight_sum == 0.0:
        raise ConfigError("no admissible completions; family is empty")
    return acc / weight_sum


# ---------------------------------------------------------------------------
# mixtures and Monte Carlo affinity


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Finite mixture of n-fold product Gaussians on matching dimensions.

    Each component contributes the n-fold product of N(mean_c, cov_c); the
    sample space is the full (n, p) data matrix.  Means default to zero.
    """

    weights: np.ndarray
    covariances: np.ndarray
    means: np.ndarray
    n: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        means = np.asarray(self.means, dtype=float)
        if w.ndim != 1 or covs.ndim != 3 or means.ndim != 2:
            raise ValueError("weights (C,), covariances (C,p,p), means (C,p)")
        c = w.size
        if covs.shape[0] != c or means.shape[0] != c:
            raise ValueError("component count mismatch across fields")
        if covs.shape[1] != covs.shape[2] or covs.shape[1] != means.shape[1]:
            raise ValueError("covariance blocks must be p x p matching means")
        if self.n < 1:
            raise ValueError(f"product length n must be >= 1, got {self.n}")
        if np.any(w <= 0.0):
            raise ValueError("component weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("component weights must sum to one")
        asym = np.max(np.abs(covs - covs.transpose(0, 2, 1)), axis=(1, 2))
        asym_bad = asym > 1e-12 * (1.0 + np.max(np.abs(covs), axis=(1, 2)))
        lows = np.linalg.eigvalsh(covs)[:, 0]
        bad = np.flatnonzero(asym_bad | (lows <= 0.0))
        if bad.size:
            idx = int(bad[0])
            if asym_bad[idx]:
                raise ValueError(f"component {idx} covariance is not symmetric")
            raise ValueError(
                f"component {idx} covariance must be positive definite "
                f"for density evaluation (min eigenvalue {lows[idx]:.3e})"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "means", means)

    @property
    def dim(self) -> int:
        return self.covariances.shape[1]

    @classmethod
    def from_components(cls, components, n: int, means=None) -> "GaussianMixture":
        """Build from (weight, covariance) pairs; means optional, default zero."""
        weights = np.array([w for w, _ in components], dtype=float)
        covs = np.stack([np.asarray(c, dtype=float) for _, c in components])
        if means is None:
            mu = np.zeros((covs.shape[0], covs.shape[1]))
        else:
            mu = np.asarray(means, dtype=float)
        return cls(weights=weights, covariances=covs, means=mu, n=n)


def gamma1_mixture(
    cfg: LeastFavorableConfig, anchor_bit: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> GaussianMixture:
    """Uniform mixture over family members whose first bit equals anchor_bit.

    Members sharing one covariance are merged, so the component list is the
    set of distinct matrices, each weighted by its member count over the
    number of members with the anchor bit.  Sigma(theta) depends only on the
    bits and on the row patterns of the rows whose bit is on, so members with
    different bits never coincide (unless k = 0 or epsilon = 0, where every
    member is the identity), and within one bit vector the distinct
    components are the distinct active pattern tuples.  Components come in
    the order their first member has in :func:`enumerate_theta`: bit vectors
    lexicographically, then row-pattern tuples in ``_iter_lambda`` order.

    Raises
    ------
    BudgetError
        If the family has more than ``budget`` members (anchor bits of both
        values counted); the error carries the count.
    """
    if anchor_bit not in (0, 1):
        raise ConfigError(f"anchor bit must be 0 or 1, got {anchor_bit}")
    total = count_theta(cfg)
    if total > budget:
        raise BudgetError(
            f"family has {total} members, budget is {budget}", count=total
        )
    if total == 0:
        raise ConfigError("no family members with the requested anchor bit")
    p, r, eps = cfg.p, cfg.r, cfg.epsilon
    if cfg.k == 0 or eps == 0.0:
        covs, weights = np.eye(p)[None], np.ones(1)
    else:
        patterns = list(itertools.combinations(cfg.support_columns, cfg.k))
        pattern_id = {pat: i for i, pat in enumerate(patterns)}
        columns = np.array(patterns, dtype=np.intp)
        # row-pattern ids of every valid tuple, one row per tuple
        lam = np.array(
            [[pattern_id[pat] for pat in rows] for rows in _iter_lambda(cfg, r)],
            dtype=np.intp,
        )
        blocks, counts = [], []
        for rest in itertools.product((0, 1), repeat=r - 1):
            active = np.flatnonzero((anchor_bit,) + rest)
            keys, first, count = np.unique(
                lam[:, active], axis=0, return_index=True, return_counts=True
            )
            order = np.argsort(first)
            keys, count = keys[order], count[order]
            block = np.tile(np.eye(p), (len(keys), 1, 1))
            comp = np.arange(len(keys))[:, None]
            # rows m < r and support columns >= p - r never meet, so each
            # bumped entry is written once, from zero
            for m, ids in zip(active, keys.T):
                cols = columns[ids]
                block[comp, m, cols] = eps
                block[comp, cols, m] = eps
            blocks.append(block)
            counts.append(count)
        covs = np.concatenate(blocks)
        weights = np.concatenate(counts) / float(total // 2)
    return GaussianMixture(
        weights=weights,
        covariances=covs,
        means=np.zeros((covs.shape[0], p)),
        n=cfg.n,
    )


@dataclass(frozen=True)
class AffinityEstimate:
    """Monte Carlo estimate of the total-variation affinity with its error."""

    value: float
    std_error: float
    samples: int
    seed: RngSeed


class _MixtureDensity:
    """Folded per-component constants for evaluating and sampling one mixture.

    The log of component c's n-fold product density at a data matrix X is
    linear in the sufficient statistics s(X) = (upper triangle of X'X, column
    sums of X):

        log w_c + s(X) . coef[:, c] + offset[c].

    The first p(p+1)/2 rows of ``coef`` hold -P_c / 2 on the upper triangle
    with the off-diagonal entries doubled, the last p rows hold P_c mu_c, and
    ``offset`` folds in the weight, the normalizer and mu_c' P_c mu_c.  One
    GEMM then scores a tile of samples against every component.
    """

    def __init__(self, mix: GaussianMixture):
        covs = mix.covariances
        n, p = mix.n, mix.dim
        signs, logdets = np.linalg.slogdet(covs)
        if np.any(signs <= 0.0):
            raise ValueError("component covariance with nonpositive determinant")
        precisions = np.linalg.inv(covs)
        # sqrt_psd of each component, bit for bit; tiles keep temporaries (and peak RSS) small
        self.roots = np.empty_like(covs)
        for lo in range(0, len(covs), _TILE):
            block = covs[lo : lo + _TILE]
            w, v = np.linalg.eigh((block + block.transpose(0, 2, 1)) / 2.0)
            v = np.ascontiguousarray(v[:, :, ::-1])
            self.roots[lo : lo + _TILE] = _from_eigen(v, np.sqrt(np.clip(w[:, ::-1], 0.0, None)))
        rows, cols = np.triu_indices(p)
        quad = precisions[:, rows, cols] * np.where(rows == cols, -0.5, -1.0)
        a = np.einsum("cij,cj->ci", precisions, mix.means)
        b = np.einsum("ci,ci->c", a, mix.means)
        self.coef = np.ascontiguousarray(np.concatenate([quad, a], axis=1).T)
        self.offset = np.log(mix.weights) - 0.5 * n * (
            p * math.log(2.0 * math.pi) + logdets + b
        )

    def log_density(self, stats: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """Log mixture density of each sample from its sufficient statistics.

        ``stats`` holds one row of :func:`_sufficient_stats` per sample;
        ``buf`` is scratch of shape (samples, components), overwritten.
        """
        np.matmul(stats, self.coef, out=buf)
        buf += self.offset
        top = np.max(buf, axis=1)
        buf -= top[:, None]
        np.exp(buf, out=buf)
        return top + np.log(np.sum(buf, axis=1))


def _sufficient_stats(x: np.ndarray, out: np.ndarray) -> None:
    """Write the upper triangle of X'X and the column sums of X, per sample.

    ``x`` has shape (samples, n, p) and ``out`` (samples, p(p+1)/2 + p).
    """
    p = x.shape[2]
    rows, cols = np.triu_indices(p)
    gram = np.matmul(x.transpose(0, 2, 1), x)
    out[:, : rows.size] = gram[:, rows, cols]
    np.sum(x, axis=1, out=out[:, rows.size :])


def tv_affinity_mc(
    p_mix: GaussianMixture,
    q_mix: GaussianMixture,
    samples: int,
    seed: RngSeed,
    *,
    chunk_size: int = 4096,
) -> AffinityEstimate:
    """Estimate the total-variation affinity between two Gaussian mixtures.

    Importance-samples from the balanced mixture M = (P + Q) / 2 and averages
    min(p, q) / m, an unbiased estimator of the affinity that lives in [0, 1]
    pointwise.  Each chunk of draws uses its own sub-stream, so the estimate
    depends only on (samples, seed, chunk_size), never on evaluation order.

    A chunk first draws its side and component picks, then walks its samples
    in tiles of ``_TILE``: each tile draws its Gaussian block from the
    chunk's generator (the same variates, in the same order, as one draw for
    the whole chunk), forms its sufficient statistics, and scores them
    against both mixtures into preallocated (tile, components) buffers.
    Memory is therefore bounded by the tile, whatever ``chunk_size`` and n.

    Raises
    ------
    NumericalError
        If any log-density comes out non-finite.
    """
    if samples < 1000:
        raise ValueError(f"at least 1000 samples required, got {samples}")
    if p_mix.dim != q_mix.dim:
        raise ValueError(f"dimension mismatch: {p_mix.dim} vs {q_mix.dim}")
    if p_mix.n != q_mix.n:
        raise ValueError(f"product length mismatch: {p_mix.n} vs {q_mix.n}")
    dens_p = _MixtureDensity(p_mix)
    dens_q = _MixtureDensity(q_mix)
    n, p = p_mix.n, p_mix.dim
    stats = np.empty((_TILE, dens_p.coef.shape[0]))
    buf_p = np.empty((_TILE, p_mix.weights.size))
    buf_q = np.empty((_TILE, q_mix.weights.size))
    values = np.empty(samples)
    n_chunks = (samples + chunk_size - 1) // chunk_size
    for ci in range(n_chunks):
        lo = ci * chunk_size
        m = min(chunk_size, samples - lo)
        rng = seed.substream(ci).generator()
        from_p = rng.random(m) < 0.5
        pick_p = rng.choice(p_mix.weights.size, size=m, p=p_mix.weights)
        pick_q = rng.choice(q_mix.weights.size, size=m, p=q_mix.weights)
        for start in range(0, m, _TILE):
            t = min(_TILE, m - start)
            tile = slice(start, start + t)
            z = rng.standard_normal((t, n, p))
            side = from_p[tile]
            cp, cq = pick_p[tile], pick_q[tile]
            roots = np.where(side[:, None, None], dens_p.roots[cp], dens_q.roots[cq])
            means = np.where(side[:, None], p_mix.means[cp], q_mix.means[cq])
            x = np.matmul(z, roots)
            x += means[:, None, :]
            _sufficient_stats(x, stats[:t])
            lp = dens_p.log_density(stats[:t], buf_p[:t])
            lq = dens_q.log_density(stats[:t], buf_q[:t])
            if not (np.all(np.isfinite(lp)) and np.all(np.isfinite(lq))):
                raise NumericalError("non-finite log-density in affinity estimate")
            # min(p, q) / ((p + q) / 2) = 2 / (1 + exp|log p - log q|), always in [0, 1]
            with np.errstate(over="ignore"):
                values[lo + start : lo + start + t] = 2.0 / (
                    1.0 + np.exp(np.abs(lp - lq))
                )
    value = float(np.mean(values))
    spread = float(np.std(values, ddof=1)) if samples > 1 else 0.0
    return AffinityEstimate(
        value=value,
        std_error=spread / math.sqrt(samples),
        samples=samples,
        seed=seed,
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
    closed-form separation ``(k epsilon)^2 / p``; the rate target
    ``c^2 (log p / n)^(1-q)`` is attached for comparison.
    """
    if not 0.0 <= affinity <= 1.0 + 1e-9:
        raise ValueError(f"affinity must lie in [0, 1], got {affinity}")
    alpha = (cfg.k * cfg.epsilon) ** 2 / cfg.p
    bound = 0.25 * alpha * (cfg.r / 2.0) * min(affinity, 1.0)
    target = cfg.c**2 * (math.log(cfg.p) / cfg.n) ** (1.0 - cfg.q)
    return LowerBoundResult(
        lower_bound=bound, alpha_bound=alpha, affinity=affinity, rate_target=target
    )
