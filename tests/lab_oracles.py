"""Oracles for the lower-bound laboratory.

The two bit-anchored mixtures of the least-favourable family, built member
by member, and an importance-sampled estimate of their total-variation
affinity.  ``lowerbound`` certifies the affinity in closed form instead;
these oracles check that certificate from the sampling side.

The family's walkers and counters live here too, since only tests call
them: the usage-profile DP over valid row-pattern tuples and the exact
count built on it, the closed-form size floor, the lexicographic tuple
walker and the pattern-id walker, the exact separation constant by
enumerating every member pair, and the exact chi-square by enumerating
every completion.  So does the Gaussian cross-product integral on full
p x p matrices.  Each enumeration compares its work with a budget: past
it the exact separation is skipped, and the other enumerations refuse with
``BudgetError``.  The envelope's overlap law is given in exact rationals,
and the closed forms of ``sparsecov.lower_bound`` are repeated in 60-digit
decimal, term by term, as the reference their float walks and sums are
held to.
"""

from __future__ import annotations

import ctypes
import decimal
import glob
import itertools
import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from sparsecov.errors import (
    BudgetError,
    ConfigError,
    DomainError,
    SparseCovError,
)
from sparsecov.matrices import _from_eigen, as_symmetric
from sparsecov.model_spaces import (
    LeastFavorableConfig,
    _column_cap,
    _fewest_free_columns,
    _overused_column,
    _sigma_stack,
)
from sparsecov.rng import RngSeed

# Samples scored per GEMM by each tv_affinity_mc worker, and components per
# step when a mixture is built; bounds their working memory.  OpenBLAS picks
# its GEMM kernel by shape, so the tile can move the scores' last bits; below
# 128 rows it switches to its small-matrix kernel.
_TILE = 128
# Threads that score tv_affinity_mc's chunks, each with BLAS on one thread.
_WORKERS = 2
# Rows of a scored tile whose log-sum-exp runs at once, so each block of the
# (tile, components) buffer stays in cache.
_BLOCK = 32


# ---------------------------------------------------------------------------
# the family's walkers and counters


# Family size, member pairs and integral evaluations past which the
# enumerations below give up.
DEFAULT_ENUMERATION_BUDGET = 10**6


@lru_cache(maxsize=16)
def _usage_profiles(r: int, k: int) -> MappingProxyType:
    """Valid k-subset tuples of the r - 1 rows besides row 0, counted per usage profile.

    ``profile[u]`` is the number of columns used u times, u = 0..2k; columns
    are exchangeable, so the profile is all the usage cap needs.  The DP adds
    one layer per row: the row takes ``take[u]`` of its k columns from the
    ``profile[u]`` columns used u < 2k times, in prod C(profile[u], take[u])
    ways, and those columns move up one class.  Availability is read before
    the move, so one row never picks a column twice.  Returns
    {final profile: number of tuples}, built once per (r, k) and shared by
    every caller as a read-only view.
    """
    cap = _column_cap(k)
    takes = [Counter(c) for c in itertools.combinations_with_replacement(range(cap), k)]
    layer = Counter({(r,) + (0,) * cap: 1})
    for _ in range(r - 1):
        grown = Counter()
        for profile, ways in layer.items():
            for take in takes:
                new, mult = list(profile), ways
                for u, t in take.items():
                    mult *= math.comb(profile[u], t)
                    new[u] -= t
                    new[u + 1] += t
                if mult:
                    grown[tuple(new)] += mult
        layer = grown
    return MappingProxyType(layer)


def _count_lambda(r: int, k: int) -> int:
    """Exact number of r-tuples of k-subsets with every column used <= 2k times:
    each tuple of the other r - 1 rows takes any row 0 on its columns under the cap."""
    return sum(
        ways * math.comb(sum(profile[: _column_cap(k)]), k)
        for profile, ways in _usage_profiles(r, k).items()
    )


def count_theta(cfg: LeastFavorableConfig) -> int:
    """Exact cardinality of the family: 2^r times the number of valid tuples,
    counted by the iterative usage-profile DP, r - 1 layers and a closing sum."""
    return 2**cfg.r * _count_lambda(cfg.r, cfg.k)


def family_size_floor(cfg: LeastFavorableConfig) -> int:
    """2^r C(r, k), at most :func:`count_theta`: with the support columns
    numbered 0..r-1, rows taking the cyclic shifts S + m (mod r) of any k-set S
    use every column k <= 2k times, so each row-0 pattern S starts a valid tuple."""
    return 2**cfg.r * math.comb(cfg.r, cfg.k)


def _iter_lambda(cfg: LeastFavorableConfig, rows: int):
    """Yield valid tuples of ``rows`` row patterns in lexicographic order."""
    patterns = list(itertools.combinations(cfg.support_columns, cfg.k))
    for chosen in itertools.product(patterns, repeat=rows):
        if _overused_column(chosen, cfg.k) is None:
            yield chosen


# ---------------------------------------------------------------------------
# exact separation and chi-square by enumeration


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
    bound = (cfg.k * cfg.epsilon) ** 2 / cfg.p
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
    DomainError
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
            f"exact chi-square needs {work} integral evaluations, budget is {budget}"
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
            raise DomainError(
                "cross-product integral diverges inside exact enumeration: "
                "1 - eps^2 a_i' W a_j <= 0"
            )
        det2 = root**2
        cells = np.mean(det2 ** (-0.5 * cfg.n), axis=(1, 2)) - 1.0
        for cell in cells.tolist():
            acc += d_c * cell
        weight_sum += d_c * len(cells)
    return acc / weight_sum


# ---------------------------------------------------------------------------
# the overlap law in exact rationals, and the closed forms in 60-digit decimal


def overlap_fractions(k: int, p_lambda: int) -> list[Fraction]:
    """Exact overlap law of two uniform k-subsets of p_lambda columns, the
    law ``lower_bound._overlap_law`` walks in floats.

    Entry j is P(J = j) = C(k, j) C(p_lambda - k, k - j) / C(p_lambda, k),
    returned as exact rationals summing to one.
    """
    if k < 0:
        raise ConfigError(f"k must be nonnegative, got {k}")
    if p_lambda < k:
        raise ConfigError(f"need p_lambda >= k, got p_lambda={p_lambda}, k={k}")
    denom = math.comb(p_lambda, k)
    return [
        Fraction(math.comb(k, j) * math.comb(p_lambda - k, k - j), denom)
        for j in range(k + 1)
    ]


# 60 significant digits, in an exponent range wide enough for the k = 1
# weights, which pass decimal's default Emax of 999,999 by p = 10^7.
_DECIMAL = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@lru_cache(maxsize=4)
def k_one_usage_decimal(r: int) -> tuple[Decimal, Decimal]:
    """E[a0 + a1] and E[a1 / (a0 + a1)] of ``lower_bound._k_one_usage``.

    The sums run over every t = 0..(r - 1) // 2, up from w_0 = 1, each
    weight from the one before by its exact rational ratio
    (s + 2)(s + 1) / (2 t (t + 1)) with s = r - 1 - 2t.
    """
    with decimal.localcontext(_DECIMAL):
        w = total = free = once = Decimal(0)
        for t in range((r - 1) // 2 + 1):
            s = r - 1 - 2 * t
            w = w * ((s + 2) * (s + 1)) / (2 * t * (t + 1)) if t else Decimal(1)
            total += w
            free += w * (r - t)
            once += w * (r - 1 - 2 * t) / (r - t)
        return free / total, once / total


def closed_form_chi_square_decimal(cfg: LeastFavorableConfig) -> Decimal:
    """``lower_bound.closed_form_chi_square`` at k = 1, with the float
    epsilon of ``cfg`` taken exactly and the pair terms
    f(u) = (1 - eps^2 / (1 - eps^2 u))^(-n) - 1 in 60-digit decimal."""
    free, once = k_one_usage_decimal(cfg.r)
    with decimal.localcontext(_DECIMAL):
        eps2 = Decimal(cfg.epsilon) ** 2
        f0, f1 = ((1 - eps2 / (1 - eps2 * u)) ** -cfg.n - 1 for u in (0, 1))
        return (f0 + once * (f1 - f0) / 2) / free


def chi_square_mixture_bound_decimal(cfg: LeastFavorableConfig) -> Decimal:
    """``lower_bound.chi_square_mixture_bound``,
    sum_j P(J = j) (1 - eps^2 (j + k delta))^(-n) - 1, with the float
    epsilon of ``cfg`` taken exactly, the hypergeometric overlap law at the
    fewest free columns and every step in 60-digit decimal."""
    k = cfg.k
    pmf = overlap_fractions(k, _fewest_free_columns(cfg.r, k))
    with decimal.localcontext(_DECIMAL):
        eps2 = Decimal(cfg.epsilon) ** 2
        rho = 2 * k * k * eps2
        delta = rho / (1 - rho)
        total = sum(
            Decimal(pj.numerator) / pj.denominator * (1 - eps2 * (j + k * delta)) ** -cfg.n
            for j, pj in enumerate(pmf)
        )
        return total - 1


# ---------------------------------------------------------------------------
# mixtures and their affinity


class NumericalError(SparseCovError, ArithmeticError):
    """Non-finite intermediate value in a numerical routine."""


def _family_ids(cfg: LeastFavorableConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every valid row-pattern tuple of the family, as pattern ids.

    ``columns[i]`` holds the k columns of the i-th pattern in lexicographic
    order, and row t of ``ids`` is the t-th tuple ``_iter_lambda`` yields,
    one pattern id per row, so ``columns[ids]`` is its (tuples, r, k) column
    array.
    """
    patterns = list(itertools.combinations(cfg.support_columns, cfg.k))
    pattern_id = {pat: i for i, pat in enumerate(patterns)}
    ids = [[pattern_id[pat] for pat in rows] for rows in _iter_lambda(cfg, cfg.r)]
    return np.array(patterns, dtype=np.intp), np.array(ids, dtype=np.intp)


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
    DomainError
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
        raise DomainError(
            "cross-product integral diverges: S1^-1 + S2^-1 - S0^-1 is not "
            "positive definite"
        )
    q = inv0 @ (m1 - m0) @ inv0 @ (m2 - m0)
    sign, logdet = np.linalg.slogdet(np.eye(m0.shape[0]) - q)
    if sign <= 0.0:
        raise DomainError(
            "cross-product integral diverges: det(I - Q) is not positive"
        )
    return math.exp(-0.5 * logdet)


class GaussianMixture:
    """Finite mixture of n-fold product centred Gaussians on matching
    dimensions, validated and folded for evaluation and sampling.

    Each component contributes the n-fold product of N(0, cov_c); the sample
    space is the full (n, p) data matrix.  Every mixture of the lower bound
    is centred, so a component is its weight and covariance alone.  The log
    of component c's density at a data matrix X is linear in the sufficient
    statistics s(X), the upper triangle of X'X:

        s(X) . coef[:, c] + offset[c].

    The statistics carry -P_c / 2 on the upper triangle with the
    off-diagonal entries doubled, and ``offset`` folds in the weight and the
    normalizer.  ``features`` lists the statistics that some component
    weighs with a nonzero coefficient, in their original order, and ``coef``
    keeps only those rows: a dropped row would add exact zeros to every sum,
    so one GEMM over the kept rows scores a tile of samples against every
    component with the same result.  ``roots`` holds each component's
    ``sqrt_psd``, bit for bit.

    The constructor makes one pass over tiles of ``_TILE`` components: each
    tile is checked for symmetry; one ``eigh`` per component checks positive
    definiteness and gives its root, and one ``slogdet`` and ``inv`` give its
    offset and coefficients.  The kept coefficient rows are then moved to
    the front of the full array, which shrinks in place.  Memory is the kept
    arrays, the dropped coefficient rows and one tile.
    """

    def __init__(self, weights, covariances, n: int):
        w = np.asarray(weights, dtype=float)
        covs = np.asarray(covariances, dtype=float)
        if w.ndim != 1 or covs.ndim != 3:
            raise ValueError("weights (C,), covariances (C,p,p)")
        c = w.size
        if covs.shape[0] != c:
            raise ValueError("component count mismatch across fields")
        if covs.shape[1] != covs.shape[2]:
            raise ValueError("covariance blocks must be p x p")
        if n < 1:
            raise ValueError(f"product length n must be >= 1, got {n}")
        if np.any(w <= 0.0):
            raise ValueError("component weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("component weights must sum to one")
        p = covs.shape[1]
        rows, cols = np.triu_indices(p)
        scale = np.where(rows == cols, -0.5, -1.0)
        coef = np.empty((rows.size, c))
        logdets = np.empty(c)
        roots = np.empty_like(covs)
        for lo in range(0, c, _TILE):
            tile = slice(lo, lo + _TILE)
            block = covs[tile]
            asym = np.max(np.abs(block - block.transpose(0, 2, 1)), axis=(1, 2))
            asym_bad = asym > 1e-12 * (1.0 + np.max(np.abs(block), axis=(1, 2)))
            eigvals, v = np.linalg.eigh((block + block.transpose(0, 2, 1)) / 2.0)
            signs, logdets[tile] = np.linalg.slogdet(block)
            bad = np.flatnonzero(asym_bad | (eigvals[:, 0] <= 0.0) | (signs <= 0.0))
            if bad.size:
                idx = int(bad[0])
                if asym_bad[idx]:
                    raise ValueError(
                        f"component {lo + idx} covariance is not symmetric"
                    )
                if eigvals[idx, 0] <= 0.0:
                    raise ValueError(
                        f"component {lo + idx} covariance must be positive definite "
                        f"for density evaluation (min eigenvalue {eigvals[idx, 0]:.3e})"
                    )
                raise ValueError(
                    f"component {lo + idx} covariance with nonpositive determinant"
                )
            coef[:, tile] = (np.linalg.inv(block)[:, rows, cols] * scale).T
            # sqrt_psd of each component, bit for bit
            v = np.ascontiguousarray(v[:, :, ::-1])
            roots[tile] = _from_eigen(v, np.sqrt(np.clip(eigvals[:, ::-1], 0.0, None)))
        self.weights, self.covariances, self.n, self.roots = w, covs, n, roots
        self.features = np.flatnonzero(np.any(coef != 0.0, axis=1))
        # compact the kept rows to the front, in order, and shrink the buffer
        # in place, so no second copy of the coefficients is ever held
        for dst, src in enumerate(self.features):
            coef[dst] = coef[src]
        coef.resize((self.features.size, c), refcheck=False)
        self.coef = coef
        self.offset = np.log(w) - 0.5 * n * (p * math.log(2.0 * math.pi) + logdets)

    @property
    def dim(self) -> int:
        return self.covariances.shape[1]

    def _log_density(self, stats: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """Log mixture density of each sample from its sufficient statistics.

        ``stats`` holds one full row of :func:`_sufficient_stats` per sample;
        ``buf`` is scratch of shape (samples, components), overwritten.  One
        GEMM fills the whole of ``buf``; the per-row log-sum-exp then walks it
        in blocks of ``_BLOCK`` rows, which act on each row alone and so
        cannot change its bits.  Returns a fresh array.
        """
        np.matmul(stats[:, self.features], self.coef, out=buf)
        out = np.empty(len(buf))
        for lo in range(0, len(buf), _BLOCK):
            block = buf[lo : lo + _BLOCK]
            block += self.offset
            top = np.max(block, axis=1)
            block -= top[:, None]
            np.exp(block, out=block)
            out[lo : lo + _BLOCK] = top + np.log(np.sum(block, axis=1))
        return out


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
    the order of their first member: bit vectors lexicographically, then
    row-pattern tuples in ``_iter_lambda`` order.

    The first member of every distinct pattern tuple is found first, as
    pattern ids; the covariances are then built in one stack from those
    members, so the build holds no per-bit-vector blocks or concatenated
    copy beyond the returned arrays.

    Raises
    ------
    BudgetError
        If the family has more than ``budget`` members (anchor bits of both
        values counted); the message carries the count.
    """
    if anchor_bit not in (0, 1):
        raise ConfigError(f"anchor bit must be 0 or 1, got {anchor_bit}")
    total = count_theta(cfg)
    if total > budget:
        raise BudgetError(f"family has {total} members, budget is {budget}")
    if total == 0:
        raise ConfigError("no family members with the requested anchor bit")
    if cfg.k == 0 or cfg.epsilon == 0.0:
        covs, weights = np.eye(cfg.p)[None], np.ones(1)
    else:
        columns, ids = _family_ids(cfg)
        # per bit vector, the first member of each distinct active pattern
        # tuple and its member count, in member order
        bits, firsts, counts = [], [], []
        for rest in itertools.product((0, 1), repeat=cfg.r - 1):
            gamma = (anchor_bit,) + rest
            _, first, count = np.unique(
                ids[:, np.flatnonzero(gamma)], axis=0, return_index=True, return_counts=True
            )
            order = np.argsort(first)
            bits += [gamma] * len(first)
            firsts.append(first[order])
            counts.append(count[order])
        weights = np.concatenate(counts) / float(total // 2)
        covs = _sigma_stack(cfg, bits, columns[ids[np.concatenate(firsts)]])
    return GaussianMixture(weights=weights, covariances=covs, n=cfg.n)


@dataclass(frozen=True)
class AffinityEstimate:
    """Monte Carlo estimate of the total-variation affinity with its error.

    ``blas_threads`` is the BLAS thread count the scoring ran at: 1, or None
    when no OpenBLAS thread setter was found and BLAS ran as configured.
    """

    value: float
    std_error: float
    samples: int
    seed: RngSeed
    blas_threads: int | None


def _sufficient_stats(x: np.ndarray, out: np.ndarray, triu: tuple) -> None:
    """Write the upper triangle of X'X per sample.

    ``x`` has shape (samples, n, p), ``triu`` is ``np.triu_indices(p)`` and
    ``out`` has shape (samples, p(p+1)/2).
    """
    rows, cols = triu
    gram = np.matmul(x.transpose(0, 2, 1), x)
    out[:] = gram[:, rows, cols]


@contextmanager
def _one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread, restoring its count on exit.

    Yields 1, or None when no OpenBLAS with thread get/set symbols is found,
    in which case BLAS runs as configured.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            before = get()
            put(1)
            try:
                yield 1
            finally:
                put(before)
            return
    yield None


def tv_affinity_mc(
    p_mix: GaussianMixture,
    q_mix: GaussianMixture,
    samples: int,
    seed: RngSeed,
    *,
    chunk_size: int = 4096,
) -> AffinityEstimate:
    """Estimate the total-variation affinity between two centred Gaussian mixtures.

    Importance-samples from the balanced mixture M = (P + Q) / 2 and averages
    min(p, q) / m, an unbiased estimator of the affinity that lives in [0, 1]
    pointwise.  Each chunk of draws uses its own sub-stream and writes only
    its own slice of the per-sample values, so the estimate depends only on
    (samples, seed, chunk_size), never on evaluation order.

    The chunks are scored by ``_WORKERS`` threads, worker w taking chunks
    w, w + ``_WORKERS``, ...; for the duration the numpy-bundled OpenBLAS is
    pinned to one thread, so each GEMM runs on its caller's thread and its
    bits depend neither on the worker count nor on ``OPENBLAS_NUM_THREADS``.
    The previous BLAS thread count is restored on return and on error.  A
    worker that raises sets a shared flag, and the other stops before its
    next chunk.

    A chunk first draws its side and component picks, then walks its samples
    in tiles of ``_TILE``: each tile draws its Gaussian block from the
    chunk's generator (the same variates, in the same order, as one draw for
    the whole chunk), forms its sufficient statistics, and scores them
    against each mixture in turn through the worker's scoring buffer of
    ``_TILE`` x max(C_p, C_q) entries, shared by both.  Each sample's root
    is gathered from its own side into the worker's tile of roots.  The
    mixtures arrive folded, so they are scored and sampled as they are;
    beyond them, memory is bounded by the workers' tiles, whatever
    ``chunk_size`` and n.

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
    n, p = p_mix.n, p_mix.dim
    triu = np.triu_indices(p)
    c_p, c_q = p_mix.weights.size, q_mix.weights.size
    values = np.empty(samples)
    n_chunks = (samples + chunk_size - 1) // chunk_size
    failed = threading.Event()

    def score_chunks(worker: int) -> None:
        stats = np.empty((_TILE, triu[0].size))
        roots = np.empty((_TILE, p, p))
        # one scoring buffer for both mixtures: _log_density returns a fresh
        # array, so lp survives the reuse
        scratch = np.empty(_TILE * max(c_p, c_q))
        buf_p = scratch[: _TILE * c_p].reshape(_TILE, c_p)
        buf_q = scratch[: _TILE * c_q].reshape(_TILE, c_q)
        try:
            for ci in range(worker, n_chunks, _WORKERS):
                if failed.is_set():
                    return
                lo = ci * chunk_size
                m = min(chunk_size, samples - lo)
                rng = seed.substream(ci).generator()
                from_p = rng.random(m) < 0.5
                pick_p = rng.choice(c_p, size=m, p=p_mix.weights)
                pick_q = rng.choice(c_q, size=m, p=q_mix.weights)
                for start in range(0, m, _TILE):
                    t = min(_TILE, m - start)
                    tile = slice(start, start + t)
                    z = rng.standard_normal((t, n, p))
                    # each sample's root, gathered once from its own side
                    side, other = from_p[tile], ~from_p[tile]
                    roots[:t][side] = p_mix.roots[pick_p[tile][side]]
                    roots[:t][other] = q_mix.roots[pick_q[tile][other]]
                    x = np.matmul(z, roots[:t])
                    _sufficient_stats(x, stats[:t], triu)
                    lp = p_mix._log_density(stats[:t], buf_p[:t])
                    lq = q_mix._log_density(stats[:t], buf_q[:t])
                    if not (np.all(np.isfinite(lp)) and np.all(np.isfinite(lq))):
                        raise NumericalError("non-finite log-density in affinity estimate")
                    # min(p, q) / ((p + q) / 2) = 2 / (1 + exp|log p - log q|), always in [0, 1]
                    with np.errstate(over="ignore"):
                        values[lo + start : lo + start + t] = 2.0 / (
                            1.0 + np.exp(np.abs(lp - lq))
                        )
        except BaseException:
            # the other worker stops at its next chunk
            failed.set()
            raise

    with _one_blas_thread() as blas_threads, ThreadPoolExecutor(_WORKERS) as pool:
        # reading every result re-raises a worker's error here
        list(pool.map(score_chunks, range(_WORKERS)))
    value = float(np.mean(values))
    spread = float(np.std(values, ddof=1))
    return AffinityEstimate(
        value=value,
        std_error=spread / math.sqrt(samples),
        samples=samples,
        seed=seed,
        blas_threads=blas_threads,
    )
