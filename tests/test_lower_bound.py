import ctypes
import glob
import itertools
import math
import os
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import lab_oracles
from lab_oracles import (
    GaussianMixture,
    NumericalError,
    _iter_lambda,
    _sigma_stack,
    _sufficient_stats,
    _usage_profiles,
    count_theta,
    cross_product_integral,
    every_member,
    exact_chi_square_small,
    gamma1_mixture,
    overlap_fractions,
    per_comparison_alpha,
    tv_affinity_mc,
)
from sparsecov.errors import BudgetError, ConfigError, DomainError
from sparsecov.lower_bound import (
    CHI_SQUARE_TARGET,
    _k_one_usage,
    _overlap_law,
    certify,
    chi_square_mixture_bound,
    closed_form_chi_square,
)
from sparsecov.model_spaces import (
    LeastFavorableConfig,
    build_config,
    materialize_sigma,
    sample_theta,
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
    with pytest.raises(DomainError, match="S1\\^-1 \\+ S2\\^-1 - S0\\^-1 is not positive"):
        cross_product_integral([[1.0]], [[3.0]], [[2.0]])


def test_integral_diverges_even_when_the_determinant_is_positive():
    # det(I - Q) = det(I - 4 I) = 9 > 0, yet S1^-1 + S2^-1 - S0^-1 = -I/3
    eye = np.eye(2)
    with pytest.raises(DomainError, match="S1\\^-1 \\+ S2\\^-1 - S0\\^-1 is not positive"):
        cross_product_integral(eye, 3.0 * eye, 3.0 * eye)


def test_integral_rejects_indefinite_perturbed_covariances():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DomainError):
        cross_product_integral(np.eye(2), indefinite, indefinite)
    with pytest.raises(DomainError):
        cross_product_integral(np.eye(2), np.eye(2), indefinite)


# ---------------------------------------------------------------------------
# overlap law


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


def walked_overlap_law(k, p_lambda):
    """{j: P(J = j)} from the envelope's walk, normalised; a j it drops is absent."""
    sides = _overlap_law(k, p_lambda)
    total = math.fsum(w for _, side in sides for w in side)
    return {j: w / total for js, side in sides for j, w in zip(js, side)}


@pytest.mark.parametrize(
    "k, p_lambda",
    [*((k, p_lambda) for k in range(1, 5) for p_lambda in range(2 * k, 13)),
     (3, 3), (3, 4), (3, 5), (1000, 5000), (2000, 10000)],
)
def test_walked_overlap_law_matches_the_exact_law_term_by_term(k, p_lambda):
    # the walk drops only terms that a float already rounds to 0; in the far
    # tails of k = 1000 and 2000 its accumulated log-ratios are up to 4.3e-13
    # off, and a subnormal term is within a few units of its last place
    got = walked_overlap_law(k, p_lambda)
    for j, exact in enumerate(overlap_fractions(k, p_lambda)):
        want = float(exact)
        if j not in got:
            assert want == 0.0, j
        else:
            assert math.isclose(got[j], want, rel_tol=1e-12, abs_tol=1e-320), j


# ---------------------------------------------------------------------------
# separation and chi-square control


def test_alpha_reference_values():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    res = per_comparison_alpha(cfg)
    # the oracle's paper constant is the alpha the certificate assembles from
    assert res.bound == certify(cfg).alpha
    assert res.pair_count == 18336
    assert res.exact == pytest.approx(2.0 * res.bound, rel=1e-12)
    assert res.exact >= res.bound


def alpha_by_pairwise_loop(cfg):
    """Exact alpha with one eigvalsh per member pair, the unbatched reference."""
    thetas = list(every_member(cfg))
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


def test_empty_family_is_refused_with_config_error():
    # k = 3 patterns cannot fit r = 2 support columns; build_config refuses
    # this config, so it is built by hand
    cfg = LeastFavorableConfig(p=4, n=20, q=0.0, c=8.0, upsilon=0.1, r=2, k=3, epsilon=0.05)
    assert count_theta(cfg) == 0
    for compute in (per_comparison_alpha, chi_square_mixture_bound, exact_chi_square_small, certify):
        with pytest.raises(ConfigError):
            compute(cfg)


def test_alpha_falls_back_to_bound_only_over_budget():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    res = per_comparison_alpha(cfg, budget=100)
    assert res.exact is None
    assert res.pair_count == 18336


def test_envelope_reference_configuration():
    # k = 1 on the fewest free columns, 3: J = 1 with probability 1/3, and
    # rho = 2 eps^2 bounds the extra gram from the other rows' bumps
    cfg = criterion_config()
    env = chi_square_mixture_bound(cfg)
    eps2 = cfg.epsilon**2
    delta = 2.0 * eps2 / (1.0 - 2.0 * eps2)
    expected = (
        2.0 / 3.0 * (1.0 - eps2 * delta) ** -cfg.n
        + 1.0 / 3.0 * (1.0 - eps2 * (1.0 + delta)) ** -cfg.n
        - 1.0
    )
    assert env == pytest.approx(expected, rel=1e-12)
    assert env == pytest.approx(0.007051374455538495, rel=1e-12)
    assert env < CHI_SQUARE_TARGET
    assert certify(cfg).p_lambda_min == 3


def test_envelope_keeps_every_column_free_when_none_can_reach_the_cap():
    # r = k = 3: the other two rows use a column at most twice, below 2k = 6,
    # so all three columns stay free
    cfg = build_config(6, 50, 0.0, 8.0, 0.1)
    assert (cfg.r, cfg.k) == (3, 3)
    cert = certify(cfg)
    assert cert.p_lambda_min == 3
    # both first-row patterns are all three columns, so J = 3 surely
    eps2 = cfg.epsilon**2
    delta = 18.0 * eps2 / (1.0 - 18.0 * eps2)
    assert cert.envelope == pytest.approx(
        (1.0 - eps2 * (3 + 3 * delta)) ** -cfg.n - 1.0, rel=1e-12
    )
    # the enumerated chi-square the envelope bounds
    exact = exact_chi_square_small(cfg)
    assert exact == pytest.approx(0.0553, abs=1e-4)
    assert exact <= cert.envelope


def test_envelope_k_zero_is_zero():
    cfg = build_config(8, 20, 0.0, 1.0, 0.1)
    assert cfg.k == 0
    cert = certify(cfg)
    assert cert.envelope == 0.0
    assert cert.affinity == 1.0
    assert cert.lower_bound == 0.0


def test_exact_chi_square_is_below_envelope_on_enumerable_grid():
    # every config of this grid with k >= 1, all within the oracle's default
    # budget: 76 at k = 1, where the envelope is 1.0001-1.41x exact, and 96 at
    # k >= 2, where it is 1.0005-1.084x exact and certifies the affinity
    checked = Counter()
    for p, n, q, c, upsilon in itertools.product(
        range(3, 10), (4, 20, 50, 200), (0.0, 0.3, 0.6), (2.0, 4.0, 6.0, 8.0), (0.1, 0.3, 0.6)
    ):
        try:
            cfg = build_config(p, n, q, c, upsilon)
        except ConfigError:
            continue
        if cfg.k == 0:
            continue
        exact = exact_chi_square_small(cfg)
        assert exact <= chi_square_mixture_bound(cfg), (p, n, q, c, upsilon)
        checked[min(cfg.k, 2)] += 1
    assert checked == {1: 76, 2: 96}


def test_envelope_diverges_for_large_epsilon():
    # rho = 2 eps^2 is 2.88 at eps = 1.2; at eps = 0.67 it is 0.898, but
    # 1 - eps^2 (1 + delta) is about -3.4
    for epsilon in (1.2, 0.67):
        cfg = LeastFavorableConfig(
            p=8, n=2, q=0.0, c=4.0, upsilon=3.0, r=4, k=1, epsilon=epsilon
        )
        with pytest.raises(DomainError, match="; envelope diverges"):
            chi_square_mixture_bound(cfg)


def test_exact_chi_square_reference_value():
    # brute-force enumeration with integral_oracle gives 0.006184912072560571
    cfg = criterion_config()
    value = exact_chi_square_small(cfg)
    assert value == pytest.approx(0.006184912072560571, rel=1e-10)
    assert value <= chi_square_mixture_bound(cfg)
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
    with pytest.raises(BudgetError, match="needs 5664 integral evaluations"):
        exact_chi_square_small(cfg, budget=100)


def test_exact_chi_square_zero_cases():
    cfg = build_config(8, 20, 0.0, 1.0, 0.1)  # k = 0
    assert exact_chi_square_small(cfg) == 0.0


def test_closed_form_chi_square_matches_enumeration_at_k_one():
    # the envelope grid's loop over p = 3..11 and one more n: every k = 1
    # config whose enumeration fits the default budget
    checked = 0
    for p, n, q, c, upsilon in itertools.product(
        range(3, 12), (4, 20, 50, 200), (0.0, 0.3, 0.6), (2.0, 4.0, 8.0), (0.1, 0.3, 0.6)
    ):
        try:
            cfg = build_config(p, n, q, c, upsilon)
        except ConfigError:
            continue
        if cfg.k != 1:
            continue
        exact = exact_chi_square_small(cfg)
        assert closed_form_chi_square(cfg) == pytest.approx(exact, rel=1e-11, abs=0.0)
        checked += 1
    assert checked >= 80


@pytest.mark.parametrize("r", [2, 3, 4, 5, 8, 20, 60, 200, 500])
def test_k_one_sum_matches_the_exact_profile_expectations(r):
    # E[a0 + a1] and E[a1 / (a0 + a1)] as exact rationals over the
    # usage-profile DP's count of every valid tuple of the other r - 1 rows
    profiles = _usage_profiles(r, 1)
    total = sum(profiles.values())
    free = sum(Fraction(ways * (a0 + a1), total) for (a0, a1, _), ways in profiles.items())
    once = sum(
        Fraction(ways * a1, total * (a0 + a1)) for (a0, a1, _), ways in profiles.items()
    )
    got_free, got_once = _k_one_usage(r)
    assert got_free == pytest.approx(float(free), rel=1e-14, abs=0.0)
    assert got_once == pytest.approx(float(once), rel=1e-14, abs=0.0)


def _relative_error(got: float, want: Decimal) -> float:
    return float(abs(Decimal(got) - want) / abs(want))


@pytest.mark.parametrize("r", [5_000, 500_000])
def test_k_one_usage_matches_the_decimal_oracle(r):
    # a walk up from t = 0 was 5.6e-15 and 1.3e-14 off at r = 5,000, and
    # 5.4e-14 and 1.3e-13 off at r = 500,000
    for got, want in zip(_k_one_usage(r), lab_oracles.k_one_usage_decimal(r)):
        assert _relative_error(got, want) <= 1e-15


@pytest.mark.parametrize("p", [10**4, 10**6])
def test_both_chi_squares_match_the_decimal_oracle_at_k_one(p):
    # base^(-n) - 1 cancelled to 1.5e-11 and 1.0e-11 off for the exact
    # chi-square, and to 6.3e-9 and 3.5e-7 off for the envelope
    cfg = build_config(p, 40000, 0.0, 4.0, 0.1)
    assert cfg.k == 1
    exact = lab_oracles.closed_form_chi_square_decimal(cfg)
    assert _relative_error(closed_form_chi_square(cfg), exact) <= 1e-14
    envelope = lab_oracles.chi_square_mixture_bound_decimal(cfg)
    assert _relative_error(chi_square_mixture_bound(cfg), envelope) <= 1e-14


@pytest.mark.parametrize(
    "args, k",
    [((1000, 4000, 0.0, 8.0, 0.61), 3), ((800, 800, 0.0, 6.0, 0.66), 2)],
    ids=["1000-4000-k3", "800-800-k2"],
)
def test_envelope_matches_the_decimal_oracle_past_k_one(args, k):
    # the best-upsilon points of two k > 1 rows, where the envelope was
    # 2.9e-14 and 8.0e-14 off
    cfg = build_config(*args)
    assert cfg.k == k
    want = lab_oracles.chi_square_mixture_bound_decimal(cfg)
    assert _relative_error(chi_square_mixture_bound(cfg), want) <= 1e-14


@pytest.mark.parametrize(
    "p, n, bits",
    [
        (8, 20, "0x1.95559b148e7c5p-8"),
        (10, 20, "0x1.73a528aafec69p-8"),
        (10**4, 40000, "0x1.c9bdf3de27933p-16"),
        (10**6, 40000, "0x1.c1f173d5711b1p-22"),
    ],
    ids=["8-20", "10-20", "10000-40000", "1000000-40000"],
)
def test_closed_form_chi_square_keeps_its_bits(p, n, bits):
    # each value lies within 3e-16 relative of the decimal oracle; the ids
    # leave the bits out, so a re-pin keeps them
    cfg = build_config(p, n, 0.0, 4.0, 0.1)
    assert cfg.k == 1
    assert closed_form_chi_square(cfg).hex() == bits


def test_k_one_usage_memory_grows_far_slower_than_r():
    # r = 10^5 has 50,000 log-weights, of which about 6,000 lie within
    # exp's range of the peak; a list of all of them peaked at 3.3 MB
    tracemalloc.start()
    try:
        _k_one_usage(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("epsilon", [0.9, 1.2, 1.5])
def test_chi_square_refuses_a_divergent_integral(epsilon):
    # the squared determinant is positive here; the old guard returned
    # 223.4, 7.41 and -0.254 for these three values
    cfg = LeastFavorableConfig(
        p=6, n=4, q=0.0, c=4.0, upsilon=0.1, r=3, k=1, epsilon=epsilon
    )
    with pytest.raises(DomainError, match="diverges inside exact enumeration"):
        exact_chi_square_small(cfg)
    with pytest.raises(DomainError, match="cross-product integral diverges at column usage"):
        closed_form_chi_square(cfg)
    with pytest.raises(DomainError, match="; envelope diverges"):
        certify(cfg)


def test_a_chi_square_too_large_for_a_float_is_a_divergence():
    # k = 1 with epsilon = 0.1446: (1 - eps^2 ...)^(-40000) overflows a float
    cfg = build_config(1000, 40000, 0.0, 4.0, 11.0)
    assert cfg.k == 1
    for compute in (chi_square_mixture_bound, closed_form_chi_square, certify):
        with pytest.raises(DomainError, match="n = 40000, base 0.97"):
            compute(cfg)


def test_certified_affinity_formula_by_k():
    # the closed form certifies k = 1, the envelope k >= 2
    one = certify(criterion_config())
    assert one.exact == closed_form_chi_square(criterion_config())
    assert one.envelope == chi_square_mixture_bound(criterion_config())
    assert one.affinity == 1.0 - 0.5 * math.sqrt(one.exact)
    cfg = build_config(8, 50, 0.0, 6.0, 0.1)  # k = 2: 62,208 integrals
    assert cfg.k == 2
    two = certify(cfg)
    assert two.exact is None
    assert two.envelope == chi_square_mixture_bound(cfg)
    assert two.affinity == 1.0 - 0.5 * math.sqrt(two.envelope)
    assert exact_chi_square_small(cfg) <= two.envelope
    with pytest.raises(ConfigError):
        closed_form_chi_square(cfg)
    # past chi^2 = 4 the certificate is the trivial affinity 0 and bound 0
    far = LeastFavorableConfig(p=6, n=1000, q=0.0, c=4.0, upsilon=0.1, r=3, k=1, epsilon=0.1)
    assert closed_form_chi_square(far) > 4.0
    assert certify(far).affinity == 0.0
    assert certify(far).lower_bound == 0.0


@pytest.mark.parametrize(
    "args, samples, seed",
    [
        ((8, 20, 0.0, 4.0, 0.1), 100_000, 8),  # criterion 8
        ((6, 100, 0.0, 4.0, 0.1), 20_000, 11),  # criterion 10
        ((8, 20, 0.0, 6.0, 0.1), 20_000, 12),  # k = 2, certified by the envelope
    ],
)
def test_certified_affinity_is_below_the_monte_carlo_oracle(args, samples, seed):
    cfg = build_config(*args)
    certified = certify(cfg).affinity
    est = tv_affinity_mc(
        gamma1_mixture(cfg, 0), gamma1_mixture(cfg, 1), samples, RngSeed(seed)
    )
    assert certified <= est.value + 3.0 * est.std_error


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
    members = [th for th in every_member(cfg) if th.gamma[0] == anchor_bit]
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


@pytest.mark.parametrize(
    "args",
    [
        (6, 100, 0.0, 4.0, 0.1),
        (8, 20, 0.0, 6.0, 0.1),
        (4, 100, 0.0, 1.0, 0.1),  # k = 0: every member is the identity
    ],
)
def test_sigma_stack_equals_materialize_sigma_member_by_member(args):
    cfg = build_config(*args)
    members = list(every_member(cfg))
    # the explicit shape keeps the column axis when k = 0
    cols = np.array([th.rows for th in members], dtype=np.intp)
    stack = _sigma_stack(
        cfg, [th.gamma for th in members], cols.reshape(len(members), cfg.r, cfg.k)
    )
    assert stack.shape == (count_theta(cfg), cfg.p, cfg.p)
    for th, sigma in zip(members, stack):
        assert materialize_sigma(cfg, th).tobytes() == sigma.tobytes()


@pytest.mark.parametrize("p, c, k", [(50, 4.0, 1), (100, 6.0, 2), (200, 8.0, 3)])
def test_materialize_sigma_equals_sigma_stack_on_sampled_members(p, c, k):
    cfg = build_config(p, p, 0.0, c, 0.1)
    assert cfg.k == k
    for s in range(20):
        th = sample_theta(cfg, RngSeed(s))
        stack = _sigma_stack(cfg, [th.gamma], np.array(th.rows, dtype=np.intp))
        assert materialize_sigma(cfg, th).tobytes() == stack[0].tobytes()


def test_gamma1_mixture_budget_counts_members():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    assert count_theta(cfg) == 192
    with pytest.raises(BudgetError, match="family has 192 members"):
        gamma1_mixture(cfg, 0, budget=191)
    assert gamma1_mixture(cfg, 0, budget=192).weights.size > 0


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture([0.5], [np.eye(2)], n=1)
    with pytest.raises(ValueError):
        GaussianMixture([1.0], [np.array([[1.0, 2.0], [2.0, 1.0]])], n=1)


def test_folded_log_density_matches_direct_evaluation():
    """The folded GEMM form against log sum_c w_c prod_i N(x_i; 0, S_c)
    evaluated from the raw data matrices."""
    rng = np.random.default_rng(5)
    p, n = 3, 4
    covs = []
    for _ in range(3):
        a = rng.standard_normal((p, p))
        covs.append(a @ a.T + 0.5 * np.eye(p))
    weights = [0.2, 0.3, 0.5]
    mix = GaussianMixture(weights, covs, n=n)
    x = rng.standard_normal((7, n, p)) * 1.5
    stats = np.empty((7, p * (p + 1) // 2))
    _sufficient_stats(x, stats, np.triu_indices(p))
    # dense precisions: every statistic is weighed
    assert np.array_equal(mix.features, np.arange(6))
    got = mix._log_density(stats, np.empty((7, 3)))
    for s in range(7):
        terms = []
        for w, cov in zip(weights, covs):
            quad = float(np.sum(x[s] * np.linalg.solve(cov, x[s].T).T))
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
        GaussianMixture([0.25] * 4, [good, asym, indefinite, good], n=1)
    with pytest.raises(ValueError, match="component 2 covariance must be positive"):
        GaussianMixture([0.25] * 4, [good, good, indefinite, asym], n=1)
    # the checks run over tiles of components; indices stay global
    c = 600
    for idx, bad, message in (
        (300, asym, "component 300 covariance is not symmetric"),
        (511, indefinite, "component 511 covariance must be positive"),
    ):
        covs = [good] * c
        covs[idx] = bad
        covs[idx + 5] = indefinite
        with pytest.raises(ValueError, match=message):
            GaussianMixture([1.0 / c] * c, covs, n=1)


def full_coefficients(mix):
    """Every statistic's coefficient per component, (p(p+1)/2, C), from one
    dense inverse per covariance."""
    rows, cols = np.triu_indices(mix.dim)
    scale = np.where(rows == cols, -0.5, -1.0)
    return np.array([np.linalg.inv(cov)[rows, cols] * scale for cov in mix.covariances]).T


def test_compaction_drops_exactly_the_all_zero_statistics():
    cfg = build_config(10, 20, 0.0, 4.0, 0.1)
    for anchor_bit, kept in ((0, 36), (1, 45)):
        mix = gamma1_mixture(cfg, anchor_bit)
        full = full_coefficients(mix)
        assert full.shape == (55, mix.weights.size)
        dropped = np.setdiff1d(np.arange(55), mix.features)
        assert mix.features.size == kept
        assert np.all(full[dropped] == 0.0)
        assert np.all(np.any(full[mix.features] != 0.0, axis=1))
        assert mix.coef.shape == (kept, mix.weights.size)


def test_mixture_build_and_fold_memory_is_bounded():
    # one identity stack written in place, then one validating and folding
    # pass over component tiles: the kept arrays plus one tile's temporaries
    # and the dropped coefficient rows (1.2 MB over the kept arrays here);
    # a second copy of the kept coefficients would add 1.8 MB
    cfg = build_config(10, 20, 0.0, 4.0, 0.1)
    tracemalloc.start()
    try:
        mix = gamma1_mixture(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = mix.covariances.nbytes + mix.roots.nbytes + mix.coef.nbytes
    assert peak < kept + 2 * 2**20


def test_mixture_roots_equal_per_component_sqrt_psd():
    # the stacked eigendecomposition must reproduce sqrt_psd bit for bit, or
    # every seeded affinity moves
    rng = np.random.default_rng(8)
    covs = []
    for _ in range(4):
        a = rng.standard_normal((4, 4))
        covs.append(a @ a.T + 0.1 * np.eye(4))
    random_mix = GaussianMixture([0.25] * 4, covs, n=2)
    cfg = build_config(10, 20, 0.0, 4.0, 0.1)
    for mix in (random_mix, gamma1_mixture(cfg, 0), gamma1_mixture(cfg, 1)):
        assert mix.roots.shape == mix.covariances.shape
        for cov, root in zip(mix.covariances, mix.roots):
            assert np.array_equal(root, sqrt_psd(cov))


def test_affinity_memory_is_bounded_by_the_tile():
    # the untiled chunk held about ten (4096 x 5205) temporaries: 710 MB;
    # the mixtures arrive folded, so this counts one shared (256 x 5205)
    # scoring buffer and the tile's draws, statistics and gathered roots
    cfg = build_config(10, 20, 0.0, 4.0, 0.1)
    a = gamma1_mixture(cfg, 0)
    b = gamma1_mixture(cfg, 1)
    tracemalloc.start()
    try:
        tv_affinity_mc(a, b, 5000, RngSeed(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_affinity_is_independent_of_the_worker_count(monkeypatch):
    # each chunk draws from its own substream and writes its own slice, so
    # the split of chunks over workers cannot reach the estimate
    cfg = build_config(8, 20, 0.0, 4.0, 0.1)
    a = gamma1_mixture(cfg, 0)
    b = gamma1_mixture(cfg, 1)
    estimates = []
    for workers in (1, 3):
        monkeypatch.setattr(lab_oracles, "_WORKERS", workers)
        estimates.append(tv_affinity_mc(a, b, 5000, RngSeed(2), chunk_size=700))
    assert estimates[0] == estimates[1]


def _openblas_threads():
    """Getter and setter of numpy's bundled OpenBLAS thread count, found
    independently of the code under test, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for get_name, set_name in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ):
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def test_affinity_restores_the_blas_thread_count(monkeypatch):
    found = _openblas_threads()
    if found is None:
        pytest.skip("numpy has no bundled OpenBLAS with thread get/set symbols")
    get, put = found
    mix = GaussianMixture([0.5, 0.5], [np.eye(2), 2.0 * np.eye(2)], n=3)
    original = get()
    put(2)
    try:
        est = tv_affinity_mc(mix, mix, 2000, RngSeed(1))
        assert est.blas_threads == 1
        assert get() == 2
        # a worker that fails still leaves the count as it found it; the
        # scoring itself ran on one BLAS thread
        seen = []

        def failing(self, stats, buf):
            seen.append(get())
            return np.full(len(stats), np.nan)

        monkeypatch.setattr(GaussianMixture, "_log_density", failing)
        with pytest.raises(NumericalError):
            tv_affinity_mc(mix, mix, 2000, RngSeed(1))
        assert seen and set(seen) == {1}
        assert get() == 2
    finally:
        put(original)


def test_affinity_worker_stops_after_the_other_fails(monkeypatch):
    # 64 one-tile chunks, two density calls per chunk: once the first call
    # fails, the other worker finishes at most the chunk it is in
    mix = GaussianMixture([0.5, 0.5], [np.eye(2), 2.0 * np.eye(2)], n=3)
    original = GaussianMixture._log_density
    calls = []

    def fail_first(self, stats, buf):
        calls.append(None)
        if len(calls) == 1:
            return np.full(len(stats), np.nan)
        return original(self, stats, buf)

    monkeypatch.setattr(GaussianMixture, "_log_density", fail_first)
    with pytest.raises(NumericalError):
        tv_affinity_mc(mix, mix, 64 * 128, RngSeed(1), chunk_size=128)
    assert len(calls) <= 8


def test_affinity_seed_zero_is_pinned():
    # the p = 10 family of the lowerbound benchmark, 100k samples at seed 0,
    # as the command once estimated it; the spread is pinned too, since a
    # per-sample drift can leave the mean
    cfg = build_config(10, 20, 0.0, 4.0, 0.1)
    est = tv_affinity_mc(gamma1_mixture(cfg, 0), gamma1_mixture(cfg, 1), 100_000, RngSeed(0))
    assert est.value == 0.973020855326006
    assert est.std_error == 6.661978690698812e-05


def test_affinity_identical_mixtures_is_exactly_one():
    mix = GaussianMixture([1.0], [np.eye(2)], n=3)
    est = tv_affinity_mc(mix, mix, 2000, RngSeed(1))
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_affinity_variance_ratio_oracle():
    # N(0,1) and N(0,4) densities cross at +-x with x^2 = 8 ln 2 / 3; the
    # affinity is N(0,4)'s mass inside and N(0,1)'s mass outside, about 0.67733
    p_mix = GaussianMixture([1.0], [np.eye(1)], n=1)
    q_mix = GaussianMixture([1.0], [4.0 * np.eye(1)], n=1)
    est = tv_affinity_mc(p_mix, q_mix, 120_000, RngSeed(7))
    x = math.sqrt(8.0 * math.log(2.0) / 3.0)
    truth = math.erf(x / (2.0 * math.sqrt(2.0))) + math.erfc(x / math.sqrt(2.0))
    assert truth == pytest.approx(0.67733, abs=1e-5)
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
    mix = GaussianMixture([1.0], [np.eye(2)], n=3)
    other = GaussianMixture([1.0], [np.eye(3)], n=3)
    with pytest.raises(ValueError):
        tv_affinity_mc(mix, mix, 100, RngSeed(0))
    with pytest.raises(ValueError):
        tv_affinity_mc(mix, other, 2000, RngSeed(0))


# ---------------------------------------------------------------------------
# final assembly


def test_assembled_bound_formula():
    cfg = criterion_config()
    cert = certify(cfg)
    assert cert.config == cfg
    assert cert.alpha == (cfg.k * cfg.epsilon) ** 2 / cfg.p
    assert cert.lower_bound == pytest.approx(0.25 * cert.alpha * (cfg.r / 2.0) * cert.affinity)
    assert cert.rate_target == pytest.approx(
        cfg.c**2 * (math.log(cfg.p) / cfg.n) ** (1.0 - cfg.q)
    )


@pytest.mark.parametrize(
    "p, n, c",
    [
        (8, 20, 1.0),  # k = 0
        (10, 20, 4.0),  # k = 1, the lowerbound benchmark's family
        (6, 50, 8.0),  # k = 3 = r: every column stays free
        (8, 50, 6.0),  # k = 2
        (12, 20, 4.0),  # k = 1
        (1000, 4000, 8.0),  # k = 3
        (1000, 4000, 6.0),  # k = 2
        (10000, 40000, 4.0),  # k = 1, r = 5000
        (10000, 40000, 1.0),  # k = 0
    ],
)
def test_certificate_relations_the_benchmark_checks(p, n, c):
    # the lowerbound benchmark recomputes the bound from the report's
    # alpha.bound and affinity, and bounds exact <= envelope < 0.75
    cert = certify(build_config(p, n, 0.0, c, 0.1))
    cfg = cert.config
    assert cert.lower_bound == pytest.approx(
        0.25 * cert.alpha * (cfg.r / 2.0) * cert.affinity, rel=1e-12, abs=0.0
    )
    assert (cert.exact is None) == (cfg.k != 1)
    chi2 = cert.envelope if cert.exact is None else cert.exact
    assert cert.affinity == pytest.approx(
        max(0.0, 1.0 - 0.5 * math.sqrt(chi2)), rel=1e-12, abs=0.0
    )
    if cert.exact is not None:
        assert cert.exact <= cert.envelope
    if (p, n, c) == (10, 20, 4.0):
        assert cert.exact <= cert.envelope < 0.75
