import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecov.errors import ConfigError
from sparsecov.estimators import (
    EstimatorSpec,
    _apply_estimator,
    _bregman_guard,
    apply_estimator,
    bregman_guard,
    psd_project,
    threshold_estimate,
    threshold_level,
)
from sparsecov.matrices import _Symmetric, operator_norm
from sparsecov.rng import RngSeed
from sparsecov.sampling import mle_covariance, sample_gaussian


def test_threshold_level_reference_value():
    assert abs(threshold_level(100, 400, 2.0) - 0.21459660262893472) < 1e-15
    with pytest.raises(ConfigError):
        threshold_level(100, 400, 0.0)


def test_threshold_level_refuses_an_infinite_gamma():
    with pytest.raises(ConfigError, match="gamma must be finite, got inf"):
        threshold_level(100, 400, math.inf)


def test_spec_refuses_a_non_finite_threshold_parameter():
    with pytest.raises(ConfigError, match="gamma must be finite, got inf"):
        EstimatorSpec(gamma=math.inf)
    with pytest.raises(ConfigError, match="eta must be finite, got inf"):
        EstimatorSpec(rule="adaptive-lasso", eta=math.inf)
    # refused before either check was finite: the messages stay
    with pytest.raises(ConfigError, match="gamma must be positive, got nan"):
        EstimatorSpec(gamma=math.nan)
    with pytest.raises(ConfigError, match="eta must be at least 1, got -inf"):
        EstimatorSpec(eta=-math.inf)


def test_spec_validation():
    with pytest.raises(ConfigError):
        EstimatorSpec(rule="median")
    with pytest.raises(ConfigError):
        EstimatorSpec(gamma=-1.0)
    with pytest.raises(ConfigError):
        EstimatorSpec(rule="adaptive-lasso", eta=0.5)
    with pytest.raises(ConfigError):
        EstimatorSpec(corrections=("shrink",))
    # what the JSON reader refuses, the constructor refuses too
    with pytest.raises(ConfigError, match=r"^gamma must be a number, got True$"):
        EstimatorSpec(gamma=True)
    with pytest.raises(ConfigError, match=r"^eta must be a number, got True$"):
        EstimatorSpec(rule="adaptive-lasso", eta=True)
    with pytest.raises(ConfigError, match=r"^keep_diagonal must be true or false, got 1$"):
        EstimatorSpec(keep_diagonal=1)


def test_spec_json_round_trip():
    spec = EstimatorSpec(
        rule="adaptive-lasso",
        gamma=1.5,
        eta=2.0,
        corrections=("psd-project", "bregman-guard"),
        keep_diagonal=True,
    )
    assert EstimatorSpec.from_json(spec.to_json()) == spec


def test_spec_json_keys_follow_the_field_order():
    obj = EstimatorSpec(corrections=("psd-project",)).to_json()
    assert list(obj) == [f.name for f in dataclasses.fields(EstimatorSpec)]
    assert list(obj) == ["rule", "gamma", "eta", "corrections", "keep_diagonal"]
    assert obj["corrections"] == ["psd-project"]
    # every default comes from the dataclass: an empty object is the default spec
    assert EstimatorSpec.from_json({}) == EstimatorSpec()
    assert EstimatorSpec.from_json({"gamma": 1}).gamma == 1.0


def test_hard_threshold_keeps_boundary_entries():
    # the keep condition is |entry| >= t, so an entry exactly at t survives
    t = threshold_level(2, 100, 2.0)
    mat = np.array([[1.0, t], [t, 1.0]])
    out = threshold_estimate(mat, EstimatorSpec(rule="hard"), 100)
    assert out[0, 1] == t


def test_hard_threshold_hits_diagonal_by_default():
    mat = np.array([[0.5, 0.1], [0.1, 0.5]])
    spec = EstimatorSpec(rule="hard", gamma=10.0)
    out = threshold_estimate(mat, spec, 10)
    assert np.array_equal(out, np.zeros((2, 2)))
    kept = threshold_estimate(mat, EstimatorSpec(rule="hard", gamma=10.0, keep_diagonal=True), 10)
    assert np.array_equal(np.diag(kept), [0.5, 0.5])
    assert kept[0, 1] == 0.0


def test_soft_threshold_formula():
    t = threshold_level(2, 100, 2.0)
    mat = np.array([[1.0, -0.5], [-0.5, 0.3]])
    out = threshold_estimate(mat, EstimatorSpec(rule="soft"), 100)
    expected = np.sign(mat) * np.maximum(np.abs(mat) - t, 0.0)
    assert np.allclose(out, expected, atol=1e-15)


def test_adaptive_lasso_eta_one_equals_soft():
    mat = mle_covariance(sample_gaussian(np.eye(5), 60, RngSeed(4)))
    soft = threshold_estimate(mat, EstimatorSpec(rule="soft"), 60)
    al = threshold_estimate(mat, EstimatorSpec(rule="adaptive-lasso", eta=1.0), 60)
    assert np.allclose(soft, al, atol=1e-15)


def test_adaptive_lasso_between_soft_and_hard():
    mat = mle_covariance(sample_gaussian(np.eye(6), 40, RngSeed(5)))
    n = 40
    hard = threshold_estimate(mat, EstimatorSpec(rule="hard"), n)
    soft = threshold_estimate(mat, EstimatorSpec(rule="soft"), n)
    al = threshold_estimate(mat, EstimatorSpec(rule="adaptive-lasso", eta=3.0), n)
    assert np.array_equal(al == 0.0, hard == 0.0)
    mags_soft, mags_al, mags_hard = np.abs(soft), np.abs(al), np.abs(hard)
    assert np.all(mags_soft <= mags_al + 1e-15)
    assert np.all(mags_al <= mags_hard + 1e-15)


def test_adaptive_lasso_shrinks_smoothly():
    t = threshold_level(2, 100, 2.0)
    x = 2.0 * t
    mat = np.array([[1.0, x], [x, 1.0]])
    out = threshold_estimate(mat, EstimatorSpec(rule="adaptive-lasso", eta=3.0), 100)
    assert abs(out[0, 1] - x * (1.0 - 0.5**3)) < 1e-15


def _old_threshold(mat, spec, n):
    """The thresholding rules as written before |S| was freed early."""
    t = threshold_level(mat.shape[0], n, spec.gamma)
    mags = np.abs(mat)
    if spec.rule == "hard":
        out = np.where(mags >= t, mat, 0.0)
    elif spec.rule == "soft":
        out = np.sign(mat) * np.maximum(mags - t, 0.0)
    else:
        safe = np.where(mags > 0.0, mags, 1.0)
        factor = np.maximum(1.0 - (t / safe) ** spec.eta, 0.0)
        out = np.where(mags > 0.0, mat * factor, 0.0)
    if spec.keep_diagonal:
        np.fill_diagonal(out, np.diag(mat))
    return out


@pytest.mark.parametrize("rule", ["hard", "soft", "adaptive-lasso"])
@pytest.mark.parametrize("keep_diagonal", [False, True])
def test_threshold_matches_the_old_formulas_bit_for_bit(rule, keep_diagonal):
    n = 40
    sample = mle_covariance(sample_gaussian(np.eye(30), n, RngSeed(17)))
    sample[0, 1] = sample[1, 0] = 0.0  # exact zeros take the adaptive-lasso guard
    sample[2, 3] = sample[3, 2] = -0.0
    spec = EstimatorSpec(rule=rule, gamma=1.0, keep_diagonal=keep_diagonal)
    t = threshold_level(30, n, 1.0)
    sample[4, 5] = sample[5, 4] = t  # a boundary entry the hard rule keeps
    sample[6, 7] = sample[7, 6] = -t
    before = sample.copy()
    got = threshold_estimate(sample, spec, n)
    # compared as bytes, so the signs of zeros count too
    assert got.tobytes() == _old_threshold(sample, spec, n).tobytes()
    assert threshold_estimate(_Symmetric(sample), spec, n).tobytes() == got.tobytes()
    assert np.array_equal(sample, before)  # neither call touches its input


def test_psd_project_clips_and_respects_psd_input():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    out = psd_project(indefinite)
    w = np.linalg.eigvalsh(out)
    assert w[0] > -1e-12
    already = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(psd_project(already), already)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_psd_projection_never_moves_away_from_psd_points(seed):
    """Projection onto a convex set is a contraction toward every member."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    a = (a + a.T) / 2
    z = rng.standard_normal((4, 4))
    z = z @ z.T  # arbitrary PSD target
    proj = psd_project(a)
    assert np.linalg.norm(proj - z) <= np.linalg.norm(a - z) + 1e-10


def test_bregman_guard_window():
    n = 50
    big_l = max(math.log(n), math.log(2))
    inside = np.diag([1.0, 2.0])
    assert np.array_equal(bregman_guard(inside, n), inside)
    too_small = np.diag([0.5 / big_l, 1.0])
    assert np.array_equal(bregman_guard(too_small, n), np.eye(2))
    too_big = np.diag([1.0, 2.0 * big_l])
    assert np.array_equal(bregman_guard(too_big, n), np.eye(2))


def kernel_guard(mat, n):
    return _bregman_guard(_Symmetric(mat), n).matrix


def pipeline_guard(mat, n):
    # keep_diagonal leaves a diagonal input intact, so only the guard acts
    spec = EstimatorSpec(rule="hard", keep_diagonal=True, corrections=("bregman-guard",))
    return _apply_estimator(mat, spec, n).matrix


@pytest.mark.parametrize("guard", [bregman_guard, kernel_guard, pipeline_guard])
def test_bregman_guard_window_is_inclusive(guard):
    n = 50
    big_l = max(math.log(n), math.log(2))
    lo, hi = 1.0 / big_l, big_l
    edges = np.diag([lo, hi])
    assert np.array_equal(guard(edges, n), edges)
    for outside in ([np.nextafter(lo, 0.0), hi], [lo, np.nextafter(hi, np.inf)]):
        assert np.array_equal(guard(np.diag(outside), n), np.eye(2))


def test_bregman_guard_needs_two_samples():
    with pytest.raises(ConfigError):
        bregman_guard(np.eye(2), 1)


def test_apply_estimator_runs_corrections_in_order():
    mat = mle_covariance(sample_gaussian(np.eye(8), 12, RngSeed(6)))
    spec = EstimatorSpec(rule="hard", corrections=("psd-project", "bregman-guard"))
    out = apply_estimator(mat, spec, 12)
    w = np.linalg.eigvalsh(out)
    big_l = max(math.log(12), math.log(8))
    assert w[0] >= 1.0 / big_l - 1e-12 or np.array_equal(out, np.eye(8))


def test_threshold_consistency_event_frequency():
    """Thresholded entries track the truth within 4 min(|sigma_ij|, t) with
    high frequency once n is moderately large."""
    p, n = 50, 200
    rng_truth = np.eye(p)
    off = 0.4
    for j in range(p - 1):
        rng_truth[j, j + 1] = rng_truth[j + 1, j] = off
    t = threshold_level(p, n, 2.0)
    hits = 0
    total = 0
    for rep in range(30):
        x = sample_gaussian(rng_truth, n, RngSeed(100).substream(rep))
        est = threshold_estimate(mle_covariance(x), EstimatorSpec(rule="hard"), n)
        gap = np.abs(est - rng_truth)
        bound = 4.0 * np.minimum(np.abs(rng_truth), t)
        hits += int(np.count_nonzero(gap <= bound))
        total += gap.size
    assert hits / total > 0.95
