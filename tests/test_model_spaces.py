import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lab_oracles import (
    _count_lambda,
    _usage_profiles,
    count_theta,
    every_member,
    family_size_floor,
)
from sparsecov.errors import ConfigError
from sparsecov.model_spaces import (
    LeastFavorableConfig,
    ThetaIndex,
    _column_radii,
    _fewest_free_columns,
    build_config,
    class_membership,
    materialize_sigma,
    sample_theta,
    validate_theta,
)
from sparsecov.rng import RngSeed


def _weak_radius(v, q, nudge=0.0):
    """Weak-lq radius of one vector in plain Python, the oracle for
    ``_column_radii``: its number of nonzeros at q = 0, else max_k k·|v|_(k)^q
    over the descending order statistics.  ``nudge`` moves every power one
    ulp towards it."""
    mags = sorted((abs(x) for x in v), reverse=True)
    if q == 0.0:
        return float(sum(m != 0.0 for m in mags))
    return max(k * (math.nextafter(m**q, nudge) if nudge else m**q)
               for k, m in enumerate(mags, start=1))


def _first_column_radius(v, q):
    """``_column_radii`` of the matrix whose first column off the diagonal is v."""
    sigma = np.eye(len(v) + 1)
    sigma[1:, 0] = sigma[0, 1:] = v
    return float(_column_radii(sigma, q)[0])


def test_weak_radius_counts_nonzeros_at_q_zero():
    for radius in (_weak_radius, _first_column_radius):
        assert radius([1.0, 0.0, 0.0], 0.0) == 1.0
        assert radius([0.5, -2.0, 0.1], 0.0) == 3.0


def test_weak_radius_order_statistic_values():
    for radius in (_weak_radius, _first_column_radius):
        assert radius([1.0, 0.0, 0.0], 0.5) == 1.0
        assert radius([1.0, 1.0], 0.5) == 2.0
        # 2nd order statistic dominates: max(1 * 1, 2 * (1/4)^(1/2)) = 1
        assert radius([1.0, 0.25], 0.5) == 1.0


def test_weak_radius_rejects_q_out_of_range():
    # membership owns the range check: every radius it measures has q in [0, 1)
    for q, radius in ((1.0, 1.0), (-0.1, 1.0), (0.5, 0.0)):
        with pytest.raises(ConfigError):
            class_membership(np.eye(3), q, radius)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
    st.floats(0.05, 0.95),
)
def test_weak_radius_is_permutation_and_sign_invariant(vals, q):
    v = np.array(vals)
    base = _first_column_radius(v, q)
    assert _first_column_radius(-v, q) == base
    assert _first_column_radius(v[::-1], q) == base
    # dominates the largest magnitude alone
    assert base >= np.max(np.abs(v)) ** q - 1e-12
    # numpy's vectorised pow may land one ulp from the C library's
    assert _weak_radius(v, q, -math.inf) <= base <= _weak_radius(v, q, math.inf)


def test_class_membership_flags_first_bad_column():
    sigma = np.eye(4)
    sigma[2, 3] = sigma[3, 2] = 0.9
    ok, witness = class_membership(sigma, 0.0, 0.5)
    assert not ok and witness == 2
    ok, witness = class_membership(sigma, 0.0, 1.0)
    assert ok and witness is None


def test_class_membership_takes_the_carrier_without_validating_it(monkeypatch):
    import sparsecov.matrices as matrices
    from sparsecov.matrices import _symmetric

    sigma = np.eye(4)
    sigma[2, 3] = sigma[3, 2] = 0.9
    carried = _symmetric(sigma)
    verdicts = [class_membership(sigma, 0.0, r) for r in (0.5, 1.0)]
    assert verdicts == [(False, 2), (True, None)]

    def no_validation(a):
        raise AssertionError("a carried matrix was validated again")

    monkeypatch.setattr(matrices, "as_symmetric", no_validation)
    assert [class_membership(carried, 0.0, r) for r in (0.5, 1.0)] == verdicts


def test_class_membership_boundary_member_passes():
    # radius hit exactly; the 1e-12 slack keeps it inside
    sigma = np.eye(3)
    sigma[0, 1] = sigma[1, 0] = 0.5
    ok, _ = class_membership(sigma, 0.5, math.sqrt(0.5))
    assert ok


def _reference_radii(sigma, q, nudge=0.0):
    """Each column's :func:`_weak_radius`, its diagonal entry left out."""
    p = len(sigma)
    return [_weak_radius([sigma[i][j] for i in range(p) if i != j], q, nudge)
            for j in range(p)]


@pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("zeros", [0.0, 0.8], ids=["dense", "sparse"])
@pytest.mark.parametrize("p", [2, 3, 50, 201])
def test_column_radii_match_a_per_column_reference(p, zeros, q):
    rng = np.random.default_rng(p)
    a = rng.standard_normal((p, p))
    a[rng.random((p, p)) < zeros] = 0.0
    sigma = np.triu(a) + np.triu(a, 1).T
    got = _column_radii(sigma, q).tolist()
    rows = sigma.tolist()
    if q in (0.0, 0.5):
        # a count, or a correctly rounded square root: exact
        assert got == _reference_radii(rows, q)
    else:
        # numpy's vectorised pow may land one ulp from the C library's
        low = _reference_radii(rows, q, nudge=-math.inf)
        high = _reference_radii(rows, q, nudge=math.inf)
        assert all(lo <= g <= hi for lo, g, hi in zip(low, got, high))


def test_class_membership_witness_is_the_first_column_over_the_radius():
    sigma = np.eye(40)
    # column 5 is over radius 1 by three small entries (3 * 0.2^(1/2)), columns
    # 17 and 23 share one entry of 1.44 and columns 31 and 35 one of 2.25; the
    # rows 6, 7, 8 and 3, 9 stay inside
    for i, j, v in ((6, 5, 0.2), (7, 5, 0.2), (8, 5, 0.2), (3, 9, 0.25),
                    (17, 23, 1.44), (31, 35, 2.25)):
        sigma[i, j] = sigma[j, i] = v
    radii = _reference_radii(sigma.tolist(), 0.5)
    over = [j for j, c in enumerate(radii) if c > 1.0 * (1 + 1e-12)]
    assert over == [5, 17, 23, 31, 35]
    assert class_membership(sigma, 0.5, 1.0) == (False, 5)
    sigma[6:9, 5] = sigma[5, 6:9] = 0.0
    assert class_membership(sigma, 0.5, 1.0) == (False, 17)
    assert class_membership(sigma, 0.5, max(radii)) == (True, None)


def test_build_config_reference_values():
    cfg = build_config(100, 20, 0.0, 4.0, 0.1)
    assert cfg.r == 50 and cfg.k == 1
    assert abs(cfg.epsilon - 0.1 * math.sqrt(math.log(100) / 20)) < 1e-15
    assert cfg.support_columns == range(50, 100)
    assert build_config(9, 20, 0.0, 4.0, 0.1).r == 4


def test_build_config_infeasible_separation():
    # large upsilon pushes 2 k epsilon past 1/3
    with pytest.raises(ConfigError):
        build_config(8, 2, 0.0, 6.0, 1.0)


def test_build_config_k_cannot_exceed_r():
    with pytest.raises(ConfigError):
        build_config(8, 10000, 0.5, 3.0, 0.1)


def test_config_json_round_trip():
    cfg = build_config(100, 20, 0.5, 1.0, 0.1)
    assert cfg.k == 2
    assert cfg.to_json() == {
        "p": 100, "n": 20, "q": 0.5, "c": 1.0, "upsilon": 0.1,
        "r": 50, "k": 2, "epsilon": 0.1 * math.sqrt(math.log(100) / 20),
    }
    # the report's config keys follow the field order
    assert list(cfg.to_json()) == [f.name for f in dataclasses.fields(LeastFavorableConfig)]
    assert list(cfg.to_json()) == ["p", "n", "q", "c", "upsilon", "r", "k", "epsilon"]


def test_validate_theta_names_violations():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)  # r = 3, k = 1, support {3,4,5}
    good = ThetaIndex(gamma=(1, 0, 1), rows=((3,), (4,), (5,)))
    validate_theta(cfg, good)
    with pytest.raises(ConfigError, match="gamma"):
        validate_theta(cfg, ThetaIndex(gamma=(1, 0), rows=((3,), (4,), (5,))))
    with pytest.raises(ConfigError, match="outside"):
        validate_theta(cfg, ThetaIndex(gamma=(1, 0, 1), rows=((2,), (4,), (5,))))
    with pytest.raises(ConfigError, match="cap"):
        validate_theta(cfg, ThetaIndex(gamma=(1, 1, 1), rows=((3,), (3,), (3,))))


def test_materialize_sigma_places_bumps():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    theta = ThetaIndex(gamma=(1, 0, 1), rows=((4,), (3,), (5,)))
    sigma = materialize_sigma(cfg, theta)
    eps = cfg.epsilon
    assert sigma[0, 4] == eps and sigma[4, 0] == eps
    assert sigma[2, 5] == eps and sigma[5, 2] == eps
    # inactive memberleaves its row clean
    assert np.count_nonzero(sigma - np.eye(6)) == 4
    assert np.allclose(np.diag(sigma), 1.0)
    off = dataclasses.replace(theta, gamma=(0, 0, 0))
    assert materialize_sigma(cfg, off).tobytes() == np.eye(6).tobytes()


def test_count_matches_enumeration():
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    thetas = list(every_member(cfg))
    assert count_theta(cfg) == 192 == len(thetas)
    assert len(set(thetas)) == len(thetas)
    # lexicographic order of (gamma, rows)
    keys = [(th.gamma, th.rows) for th in thetas]
    assert keys == sorted(keys)


def test_count_matches_enumeration_with_k_two():
    cfg = build_config(8, 20, 0.0, 6.0, 0.1)
    assert cfg.k == 2
    thetas = list(every_member(cfg))
    assert count_theta(cfg) == len(thetas) == 20736
    for th in thetas[:: max(len(thetas) // 64, 1)]:
        validate_theta(cfg, th)


def test_count_lambda_against_direct_product_check():
    # brute force over ordered pattern tuples with the usage cap
    def brute(r, k):
        pats = list(itertools.combinations(range(r), k))
        total = 0
        for seq in itertools.product(pats, repeat=r):
            used = [0] * r
            for pat in seq:
                for j in pat:
                    used[j] += 1
            if max(used) <= 2 * k:
                total += 1
        return total

    for r, k in [(3, 1), (4, 1), (4, 2), (4, 3)]:
        assert _count_lambda(r, k) == brute(r, k)


def test_count_lambda_at_k_one_matches_closed_form_without_recursion():
    # at k = 1 a tuple is a map from r rows to r columns with fibres <= 2:
    # t columns hit twice, r - 2t once, and r! / 2^t row assignments each
    def closed_form(r):
        return sum(
            math.comb(r, t) * math.comb(r - t, r - 2 * t) * math.factorial(r) // 2**t
            for t in range(r // 2 + 1)
        )

    assert closed_form(5) == _count_lambda(5, 1) == 2220
    assert _count_lambda(500, 1) == closed_form(500)


def test_size_floor_never_exceeds_the_count():
    pairs = [(r, k) for r in range(1, 11) for k in range(1, 4) if k <= r]
    assert len(pairs) == 27
    for r, k in pairs:
        cfg = LeastFavorableConfig(p=2 * r, n=100, q=0.0, c=1.0, upsilon=0.1, r=r, k=k,
                                   epsilon=0.01)
        floor = family_size_floor(cfg)
        assert floor == 2**r * math.comb(r, k)
        assert floor <= count_theta(cfg), (r, k)


def test_fewest_free_columns_is_the_profile_table_minimum():
    # the envelope's worst case: the fewest columns under the 2k cap that any
    # valid tuple of the r - 1 rows besides row 0 leaves
    pairs = [(r, k) for r in range(1, 11) for k in range(1, min(r, 4) + 1)]
    for r, k in pairs:
        table_min = min(sum(profile[: 2 * k]) for profile in _usage_profiles(r, k))
        assert _fewest_free_columns(r, k) == table_min, (r, k)
    # at r = k = 3 no column can reach 2k uses, so r - (r - 1) // 2 = 2 < k
    # undercounts: all three columns stay free
    assert _fewest_free_columns(3, 3) == 3


def test_sample_theta_is_deterministic_and_valid():
    cfg = build_config(100, 20, 0.0, 4.0, 0.1)
    a = sample_theta(cfg, RngSeed(5))
    b = sample_theta(cfg, RngSeed(5))
    assert a == b
    validate_theta(cfg, a)
    assert sample_theta(cfg, RngSeed(6)) != a


def test_sample_theta_covers_family_uniformly_enough():
    # all 192 members should appear across many draws
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    seen = {sample_theta(cfg, RngSeed(0, i)) for i in range(4000)}
    assert len(seen) == 192


def test_sample_theta_draws_uniform_k_subsets_at_k_two():
    # r = 3, k = 2: each row is one of 3 pairs, and no column can exceed the
    # cap of 4, so all 2^3 * 3^3 members are valid and each must appear
    cfg = build_config(6, 100, 0.0, 6.0, 0.1)
    assert (cfg.r, cfg.k) == (3, 2)
    seen = {sample_theta(cfg, RngSeed(0, i)) for i in range(4000)}
    assert len(seen) == 2**3 * 3**3


@pytest.mark.parametrize("p, c", [(10, 6.0), (50, 8.0)], ids=["k2-cap-binds", "k3"])
def test_sample_theta_members_keep_the_cap(p, c):
    cfg = build_config(p, 100, 0.0, c, 0.1)
    assert cfg.k >= 2
    for i in range(100):
        validate_theta(cfg, sample_theta(cfg, RngSeed(1, i)))
