import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sparsecov.errors import (
    BudgetError,
    ConfigError,
    DivergenceError,
    DomainError,
    StructureError,
)
from sparsecov.lower_bound import (
    GaussianMixture,
    _MixtureDensity,
    _sufficient_stats,
    assemble_lower_bound,
    chi_square_mixture_bound,
    cross_product_integral,
    exact_chi_square_small,
    gamma1_mixture,
    overlap_fractions,
    overlap_structure,
    per_comparison_alpha,
    tv_affinity_mc,
)
from sparsecov.model_spaces import (
    LeastFavorableConfig,
    _iter_lambda,
    build_config,
    count_theta,
    enumerate_theta,
    materialize_sigma,
)
from sparsecov.rng import RngSeed
from sparsecov.sampling import sqrt_psd


def criterion_config():
    return build_config(8, 20, 0.0, 4.0, 0.1)


# ---------------------------------------------------------------------------
# cross-product integral


def test_integral_one_dimensional_closed_form():
    # for scalars: det = 1 - (s1 - s0)(s2 - s0)/s0^2
    s0, s1, s2 = [[1.0]], [[1.2]], [[1.4]]
    expected = (1.0 - 0.2 * 0.4) ** -0.5
    assert abs(cross_product_integral(s0, s1, s2) - expected) < 1e-14


def test_integral_is_one_at_coincidence_and_symmetric():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    s0 = a @ a.T + 3.0 * np.eye(3)
    assert abs(cross_product_integral(s0, s0, s0) - 1.0) < 1e-12
    s1 = s0 + 0.1 * np.eye(3)
    s2 = s0 - 0.1 * np.eye(3)
    ab = cross_product_integral(s0, s1, s2)
    ba = cross_product_integral(s0, s2, s1)
    assert abs(ab - ba) < 1e-12


def test_integral_monte_carlo_cross_check():
    """The quantity is E_{x ~ N(0, S0)} [f1 f2 / f0^2](x); a direct sample
    average must agree to about a percent."""
    s0 = np.array([[1.0, 0.2], [0.2, 1.0]])
    s1 = np.array([[1.3, 0.1], [0.1, 0.9]])
    s2 = np.array([[0.9, 0.3], [0.3, 1.2]])
    value = cross_product_integral(s0, s1, s2)

    rng = RngSeed(77).generator()
    m = 400_000
    x = rng.multivariate_normal(np.zeros(2), s0, size=m, method="cholesky")

    def logpdf(pts, cov):
        inv = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        quad = np.einsum("ij,jk,ik->i", pts, inv, pts)
        return -0.5 * (quad + logdet + 2 * math.log(2 * math.pi))

    ratio = np.exp(logpdf(x, s1) + logpdf(x, s2) - 2.0 * logpdf(x, s0))
    mc = float(np.mean(ratio))
    assert abs(mc - value) < 0.02 * value


def integral_oracle(s0, s1, s2):
    """Integral of f1 f2 / f0 from determinants alone:
    det S0^(1/2) (det S1 det S2)^(-1/2) det(S1^-1 + S2^-1 - S0^-1)^(-1/2)."""
    inv = np.linalg.inv
    sign, mid = np.linalg.slogdet(inv(s1) + inv(s2) - inv(s0))
    if sign <= 0.0:
        return None
    logdets = [np.linalg.slogdet(m)[1] for m in (s0, s1, s2)]
    return math.exp(0.5 * logdets[0] - 0.5 * (logdets[1] + logdets[2]) - 0.5 * mid)


def test_integral_matches_determinant_oracle_on_non_identity_bases():
    # the S0^-2 shortcut is off by up to 58% on these 196 triples
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(200):
        p = 2 + trial % 3

        def sym(scale):
            m = rng.standard_normal((p, p)) * scale
            return (m + m.T) / 2.0

        s0 = np.eye(p) + sym(0.3)
        s1 = s0 + sym(0.1)
        s2 = s0 + sym(0.1)
        if min(float(np.min(np.linalg.eigvalsh(m))) for m in (s0, s1, s2)) <= 0.0:
            continue
        expected = integral_oracle(s0, s1, s2)
        if expected is None:
            continue
        assert cross_product_integral(s0, s1, s2) == pytest.approx(expected, rel=1e-10)
        checked += 1
    assert checked >= 150


def test_integral_divergence_error():
    with pytest.raises(DivergenceError):
        cross_product_integral([[1.0]], [[3.0]], [[2.0]])


def test_integral_diverges_even_when_the_determinant_is_positive():
    # det(I - Q) = det(I - 4 I) = 9 > 0, yet S1^-1 + S2^-1 - S0^-1 = -I/3
    eye = np.eye(2)
    with pytest.raises(DivergenceError):
        cross_product_integral(eye, 3.0 * eye, 3.0 * eye)


def test_integral_rejects_indefinite_perturbed_covariances():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DomainError):
        cross_product_integral(np.eye(2), indefinite, indefinite)
    with pytest.raises(DomainError):
        cross_product_integral(np.eye(2), np.eye(2), indefinite)


# ---------------------------------------------------------------------------
# overlap structure and law


def bump(p, eps, row, cols):
    s = np.eye(p)
    for j in cols:
        s[row, j] += eps
        s[j, row] += eps
    return s


def test_overlap_two_shared_columns():
    eps = 0.1
    s0 = np.eye(6)
    s1 = bump(6, eps, 0, (3, 4))
    s2 = bump(6, eps, 0, (3, 4))
    res = overlap_structure(s0, s1, s2)
    assert res.j == 2
    assert np.allclose(res.nonzero_eigenvalues, [0.02, 0.02], atol=1e-12)


def test_overlap_partial_and_disjoint():
    eps = 0.05
    s0 = np.eye(8)
    res = overlap_structure(s0, bump(8, eps, 0, (4, 5)), bump(8, eps, 0, (5, 6)))
    assert res.j == 1
    assert np.allclose(res.nonzero_eigenvalues, [eps**2], atol=1e-14)
    res0 = overlap_structure(s0, bump(8, eps, 0, (4, 5)), bump(8, eps, 0, (6, 7)))
    assert res0.j == 0
    assert len(res0.nonzero_eigenvalues) == 0


def test_overlap_rejects_wrong_shapes():
    s0 = np.eye(4)
    with pytest.raises(StructureError):
        overlap_structure(s0, bump(4, 0.1, 1, (2,)), bump(4, 0.1, 0, (2,)))
    with pytest.raises(StructureError):
        overlap_structure(s0, bump(4, 0.1, 0, (2,)), bump(4, 0.2, 0, (2,)))


def test_overlap_fractions_reference_values():
    fr = overlap_fractions(2, 4)
    assert fr[1] == Fraction(2, 3)
    assert sum(fr) == 1
    fr2 = overlap_fractions(2, 100)
    assert fr2[2] == Fraction(1, 4950)
    assert float(fr2[2]) <= (4.0 / 98.0) ** 2


def test_overlap_fractions_match_direct_enumeration():
    # count second patterns by their intersection with a fixed first pattern
    k, p_lambda = 3, 9
    fr = overlap_fractions(k, p_lambda)
    first = set(range(k))
    counts = [0] * (k + 1)
    for pat in itertools.combinations(range(p_lambda), k):
        counts[len(first & set(pat))] += 1
    total = math.comb(p_lambda, k)
    for j in range(k + 1):
        assert fr[j] == Fraction(counts[j], total)


def test_overlap_fractions_k_zero():
    assert overlap_fractions(0, 5) == [Fraction(1)]


# ---------------------------------------------------------------------------
# separation and chi-square control


def test_alpha_reference_values():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    res = per_comparison_alpha(cfg)
    assert abs(res.bound - (cfg.k * cfg.epsilon) ** 2 / cfg.p) < 1e-18
    assert res.pair_count == 18336
    assert res.exact == pytest.approx(2.0 * res.bound, rel=1e-12)
    assert res.exact >= res.bound


def alpha_by_pairwise_loop(cfg):
    """Exact alpha with one eigvalsh per member pair, the unbatched reference."""
    thetas = enumerate_theta(cfg, budget=count_theta(cfg))
    sigmas = [materialize_sigma(cfg, th) for th in thetas]
    best = math.inf
    for i, j in itertools.combinations(range(len(thetas)), 2):
        h = sum(a != b for a, b in zip(thetas[i].gamma, thetas[j].gamma))
        if h == 0:
            continue
        norm = float(np.max(np.abs(np.linalg.eigvalsh(sigmas[i] - sigmas[j]))))
        best = min(best, norm**2 / float(h))
    return 0.0 if best is math.inf else float(best)


@pytest.mark.parametrize(
    "args", [(6, 100, 0.0, 4.0, 0.1), (6, 20, 0.0, 4.0, 0.3), (7, 50, 0.0, 4.0, 0.1)]
)
def test_alpha_matches_pairwise_loop(args):
    cfg = build_config(*args)
    assert per_comparison_alpha(cfg).exact == alpha_by_pairwise_loop(cfg)


def test_alpha_falls_back_to_bound_only_over_budget():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    res = per_comparison_alpha(cfg, exact_budget=100)
    assert res.exact is None
    assert res.pair_count == 18336


def test_envelope_reference_configuration():
    env = chi_square_mixture_bound(criterion_config())
    assert env.value == pytest.approx(0.510511585380674, rel=1e-12)
    assert env.below_target
    assert env.p_lambda_min == 3
    # the plain geometric-series form has ratio denominator p/4 - 1 - k = 0 here
    assert env.series_diverged
    assert env.series_value is None


def test_envelope_k_zero_is_half():
    cfg = build_config(8, 20, 0.0, 1.0, 0.1)
    assert cfg.k == 0
    env = chi_square_mixture_bound(cfg)
    assert env.value == 0.5
    assert env.below_target


def test_envelope_series_majorant_sums_every_term_near_ratio_one():
    # k = 1 and ratio = 30^(2 upsilon^2) / 5.5, about 0.99993; a sum cut off
    # after 10^4 terms reaches less than half of the series
    cfg = build_config(30, 4000, 0.0, 4.0, 0.5006)
    env = chi_square_mixture_bound(cfg)
    r = env.series_ratio
    assert 0.999 <= r < 1.0
    assert env.series_value == pytest.approx(0.5 + 1.5 * r / (1.0 - r), rel=1e-12)


def test_exact_chi_square_is_below_envelope_on_enumerable_grid():
    checked = 0
    for p, n, q, c, upsilon in itertools.product(
        (6, 8, 10), (4, 20, 50), (0.0, 0.3, 0.6), (2.0, 4.0, 8.0), (0.1, 0.3, 0.6)
    ):
        try:
            cfg = build_config(p, n, q, c, upsilon)
            if cfg.k == 0:
                continue
            envelope = chi_square_mixture_bound(cfg).value
            exact = exact_chi_square_small(cfg)
        except (ConfigError, DivergenceError, BudgetError):
            continue
        assert exact <= envelope, (p, n, q, c, upsilon)
        checked += 1
    assert checked >= 30


def test_envelope_diverges_for_large_epsilon():
    cfg = LeastFavorableConfig(
        p=8, n=2, q=0.0, c=4.0, upsilon=3.0, r=4, k=1, epsilon=1.2
    )
    with pytest.raises(DivergenceError):
        chi_square_mixture_bound(cfg)


def test_exact_chi_square_reference_value():
    # brute-force enumeration with integral_oracle gives 0.006184912072560571
    cfg = criterion_config()
    value = exact_chi_square_small(cfg)
    assert value == pytest.approx(0.006184912072560571, rel=1e-10)
    assert value <= chi_square_mixture_bound(cfg).value
    assert value >= 0.0


def chi_square_by_determinant_oracle(cfg):
    """Exact chi-square from every completion and pattern pair, each scored
    with the p x p determinant oracle."""
    r, k, eps, p = cfg.r, cfg.k, cfg.epsilon, cfg.p

    def bump_first_row(s0, pat):
        s = s0.copy()
        s[0, list(pat)] += eps
        s[list(pat), 0] += eps
        return s

    acc = weight = 0.0
    for rows in _iter_lambda(cfg, r - 1):
        used = Counter(j for pat in rows for j in pat)
        avail = [j for j in cfg.support_columns if used[j] < 2 * k]
        firsts = list(itertools.combinations(avail, k))
        if not firsts:
            continue
        for bits in itertools.product((0, 1), repeat=r - 1):
            s0 = np.eye(p)
            for m, (bit, pat) in enumerate(zip(bits, rows), start=1):
                if bit:
                    s0[m, list(pat)] += eps
                    s0[list(pat), m] += eps
            perturbed = [bump_first_row(s0, pat) for pat in firsts]
            total = sum(
                integral_oracle(s0, s1, s2) ** cfg.n
                for s1 in perturbed
                for s2 in perturbed
            )
            acc += len(firsts) * (total / len(firsts) ** 2 - 1.0)
            weight += len(firsts)
    return acc / weight


def test_exact_chi_square_matches_brute_force_oracle():
    """At (8, 20, 0, 4, 0.3) the S0^-2 shortcut is off by 1.3e-3 relative;
    at p = 3 (r = 1) no rows or bits remain after the first."""
    for args in ((8, 20, 0.0, 4.0, 0.3), (3, 50, 0.0, 4.0, 0.3)):
        cfg = build_config(*args)
        expected = chi_square_by_determinant_oracle(cfg)
        assert exact_chi_square_small(cfg) == pytest.approx(expected, rel=1e-10)


def test_exact_chi_square_budget_counts_work():
    cfg = criterion_config()
    with pytest.raises(BudgetError) as err:
        exact_chi_square_small(cfg, budget=100)
    assert err.value.count == 5664


def test_exact_chi_square_zero_cases():
    cfg = build_config(8, 20, 0.0, 1.0, 0.1)  # k = 0
    assert exact_chi_square_small(cfg) == 0.0
    assert exact_chi_square_small(criterion_config(), n=0) == 0.0


# ---------------------------------------------------------------------------
# mixtures and affinity


def test_gamma1_mixture_weights_and_dedup():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    mix = gamma1_mixture(cfg, 0)
    assert abs(float(np.sum(mix.weights)) - 1.0) < 1e-12
    assert mix.n == cfg.n
    assert mix.dim == cfg.p
    # merged components are strictly fewer than raw family members
    assert mix.covariances.shape[0] < 96
    with pytest.raises(ConfigError):
        gamma1_mixture(cfg, 2)


def mixture_by_member_enumeration(cfg, anchor_bit):
    """Reference mixture: materialize every member with the anchor bit and
    merge equal covariances in first-seen order."""
    members = [th for th in enumerate_theta(cfg) if th.gamma[0] == anchor_bit]
    seen, covs, counts = {}, [], []
    for th in members:
        sigma = materialize_sigma(cfg, th)
        key = sigma.tobytes()
        if key in seen:
            counts[seen[key]] += 1
        else:
            seen[key] = len(covs)
            covs.append(sigma)
            counts.append(1)
    return np.stack(covs), np.array(counts, dtype=float) / float(len(members))


@pytest.mark.parametrize(
    "args",
    [
        (6, 100, 0.0, 4.0, 0.1),
        (8, 20, 0.0, 4.0, 0.1),
        (8, 50, 0.0, 8.0, 0.1),  # k = 3
        (10, 20, 0.0, 4.0, 0.1),
        (8, 20, 0.0, 1.0, 0.1),  # k = 0: every member is the identity
    ],
)
def test_gamma1_mixture_matches_member_enumeration(args):
    cfg = build_config(*args)
    for anchor_bit in (0, 1):
        mix = gamma1_mixture(cfg, anchor_bit)
        covs, weights = mixture_by_member_enumeration(cfg, anchor_bit)
        assert np.array_equal(mix.covariances, covs)
        assert np.array_equal(mix.weights, weights)


def test_gamma1_mixture_budget_counts_members():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    assert count_theta(cfg) == 192
    with pytest.raises(BudgetError) as err:
        gamma1_mixture(cfg, 0, budget=191)
    assert err.value.count == count_theta(cfg)
    assert gamma1_mixture(cfg, 0, budget=192).weights.size > 0


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture.from_components([(0.5, np.eye(2))], n=1)
    with pytest.raises(ValueError):
        GaussianMixture.from_components([(1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))], n=1)


def test_folded_log_density_matches_direct_evaluation():
    """The folded GEMM form against log sum_c w_c prod_i N(x_i; mu_c, S_c)
    evaluated from the raw data matrices."""
    rng = np.random.default_rng(5)
    p, n = 3, 4
    covs = []
    for _ in range(3):
        a = rng.standard_normal((p, p))
        covs.append(a @ a.T + 0.5 * np.eye(p))
    means = rng.standard_normal((3, p))
    weights = [0.2, 0.3, 0.5]
    mix = GaussianMixture.from_components(list(zip(weights, covs)), n=n, means=means)
    x = rng.standard_normal((7, n, p)) * 1.5
    stats = np.empty((7, p * (p + 1) // 2 + p))
    _sufficient_stats(x, stats)
    got = _MixtureDensity(mix).log_density(stats, np.empty((7, 3)))
    for s in range(7):
        terms = []
        for w, cov, mu in zip(weights, covs, means):
            resid = x[s] - mu
            quad = float(np.sum(resid * np.linalg.solve(cov, resid.T).T))
            logdet = np.linalg.slogdet(cov)[1]
            terms.append(
                math.log(w) - 0.5 * (quad + n * logdet + n * p * math.log(2 * math.pi))
            )
        top = max(terms)
        expected = top + math.log(sum(math.exp(t - top) for t in terms))
        assert got[s] == pytest.approx(expected, rel=1e-10)


def test_mixture_validation_names_first_failing_component():
    good = np.eye(2)
    asym = np.array([[1.0, 0.1], [0.0, 1.0]])
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="component 1 covariance is not symmetric"):
        GaussianMixture.from_components(
            [(0.25, good), (0.25, asym), (0.25, indefinite), (0.25, good)], n=1
        )
    with pytest.raises(ValueError, match="component 2 covariance must be positive"):
        GaussianMixture.from_components(
            [(0.25, good), (0.25, good), (0.25, indefinite), (0.25, asym)], n=1
        )


def test_mixture_roots_equal_per_component_sqrt_psd():
    # the stacked eigendecomposition must reproduce sqrt_psd bit for bit, or
    # every seeded affinity moves
    rng = np.random.default_rng(8)
    covs = []
    for _ in range(4):
        a = rng.standard_normal((4, 4))
        covs.append(a @ a.T + 0.1 * np.eye(4))
    random_mix = GaussianMixture.from_components([(0.25, c) for c in covs], n=2)
    cfg = build_config(10, 20, 0.0, 4.0, 0.1)
    for mix in (random_mix, gamma1_mixture(cfg, 0), gamma1_mixture(cfg, 1)):
        roots = _MixtureDensity(mix).roots
        assert roots.shape == mix.covariances.shape
        for cov, root in zip(mix.covariances, roots):
            assert np.array_equal(root, sqrt_psd(cov))


def test_affinity_memory_is_bounded_by_the_tile():
    # the untiled chunk held about ten (4096 x 5205) temporaries: 710 MB
    cfg = build_config(10, 20, 0.0, 4.0, 0.1)
    a = gamma1_mixture(cfg, 0)
    b = gamma1_mixture(cfg, 1)
    tracemalloc.start()
    try:
        tv_affinity_mc(a, b, 5000, RngSeed(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_affinity_identical_mixtures_is_exactly_one():
    mix = GaussianMixture.from_components([(1.0, np.eye(2))], n=3)
    est = tv_affinity_mc(mix, mix, 2000, RngSeed(1))
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_affinity_mean_shift_oracle():
    # affinity of N(0,1) vs N(1,1) is 2 Phi(-1/2)
    p_mix = GaussianMixture.from_components([(1.0, np.eye(1))], n=1)
    q_mix = GaussianMixture.from_components(
        [(1.0, np.eye(1))], n=1, means=[np.ones(1)]
    )
    est = tv_affinity_mc(p_mix, q_mix, 120_000, RngSeed(7))
    truth = 1.0 + math.erf(-0.5 / math.sqrt(2.0))
    assert abs(est.value - truth) < 3.0 * est.std_error + 1e-3


def test_affinity_is_seed_deterministic():
    # same seed, same chunk layout: bit-identical estimate
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    a = gamma1_mixture(cfg, 0)
    b = gamma1_mixture(cfg, 1)
    e1 = tv_affinity_mc(a, b, 5000, RngSeed(3))
    e2 = tv_affinity_mc(a, b, 5000, RngSeed(3))
    assert e1.value == e2.value
    assert e1.std_error == e2.std_error
    e3 = tv_affinity_mc(a, b, 5000, RngSeed(4))
    assert e3.value != e1.value


def test_affinity_input_validation():
    mix = GaussianMixture.from_components([(1.0, np.eye(2))], n=3)
    other = GaussianMixture.from_components([(1.0, np.eye(3))], n=3)
    with pytest.raises(ValueError):
        tv_affinity_mc(mix, mix, 100, RngSeed(0))
    with pytest.raises(ValueError):
        tv_affinity_mc(mix, other, 2000, RngSeed(0))


# ---------------------------------------------------------------------------
# final assembly


def test_assembled_bound_formula():
    cfg = criterion_config()
    res = assemble_lower_bound(cfg, 0.9)
    alpha = (cfg.k * cfg.epsilon) ** 2 / cfg.p
    assert res.lower_bound == pytest.approx(0.25 * alpha * (cfg.r / 2.0) * 0.9)
    assert res.rate_target == pytest.approx(
        cfg.c**2 * (math.log(cfg.p) / cfg.n) ** (1.0 - cfg.q)
    )
    with pytest.raises(ValueError):
        assemble_lower_bound(cfg, 1.2)
    # tiny overshoot from monte carlo noise is clipped, not fatal
    clipped = assemble_lower_bound(cfg, 1.0 + 5e-10)
    assert clipped.affinity <= 1.0 + 1e-9
