import math

import numpy as np
import pytest

from sparsecov.errors import ConfigError, DomainError
from sparsecov.losses import (
    _GENERATORS,
    LossSpec,
    bregman_divergence,
    closed_form_divergence,
    evaluate_loss,
)
from sparsecov.matrices import _Symmetric
from sparsecov.risk import run_grid

GENERATOR_NAMES = ("stein", "von-neumann", "squared-frobenius")


def spd_pair(seed, p=5, lo=0.5, hi=4.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        w = rng.uniform(lo, hi, size=p)
        out.append((q * w) @ q.T)
    return out


def test_stein_closed_form_value():
    # X = 2I, Y = I in dimension 2: 4 - log 4 - 2
    x = np.diag([2.0, 2.0])
    y = np.eye(2)
    expected = 2.0 - 2.0 * math.log(2.0)
    assert abs(closed_form_divergence(x, y, "stein") - expected) < 1e-14
    assert abs(bregman_divergence(x, y, "stein") - expected) < 1e-14


def test_von_neumann_closed_form_value():
    x = np.diag([math.e, 1.0])
    y = np.eye(2)
    assert abs(closed_form_divergence(x, y, "von-neumann") - 1.0) < 1e-14
    assert abs(bregman_divergence(x, y, "von-neumann") - 1.0) < 1e-14


def test_quadratic_generator_is_squared_frobenius():
    x, y = spd_pair(21)
    direct = float(np.sum((x - y) ** 2))
    assert abs(bregman_divergence(x, y, "squared-frobenius") - direct) < 1e-10
    assert abs(closed_form_divergence(x, y, "squared-frobenius") - direct) < 1e-14


def test_double_sum_matches_closed_forms():
    for seed in range(25):
        x, y = spd_pair(seed)
        for name in ("stein", "von-neumann", "squared-frobenius"):
            a = bregman_divergence(x, y, name)
            b = closed_form_divergence(x, y, name)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (seed, name)


def test_double_sum_kernel_matches_the_old_formula_bit_for_bit():
    def old(x, y, name):
        phi, dphi, _ = _GENERATORS[name]
        lam, gam = x.eigen.eigenvalues, y.eigen.eigenvalues
        overlap = (x.eigen.eigenvectors.T @ y.eigen.eigenvectors) ** 2
        terms = (
            phi(lam)[:, None]
            - phi(gam)[None, :]
            - dphi(gam)[None, :] * (lam[:, None] - gam[None, :])
        )
        return float(np.sum(overlap * terms))

    for seed, p in ((3, 5), (4, 40), (5, 120)):
        x, y = (_Symmetric((m + m.T) / 2.0) for m in spd_pair(seed, p=p))
        for name in GENERATOR_NAMES:
            assert bregman_divergence(x, y, name) == old(x, y, name)


def test_divergences_are_nonnegative_and_zero_at_equality():
    x, y = spd_pair(3)
    for name in ("stein", "von-neumann", "squared-frobenius"):
        assert bregman_divergence(x, y, name) > 0.0
        assert abs(bregman_divergence(x, x, name)) < 1e-10


def test_basis_invariance():
    x, y = spd_pair(10)
    rng = np.random.default_rng(99)
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    for name in ("stein", "von-neumann"):
        a = bregman_divergence(x, y, name)
        b = bregman_divergence(u @ x @ u.T, u @ y @ u.T, name)
        assert abs(a - b) < 1e-9 * max(1.0, a)


def test_domain_error_names_argument_and_generator():
    singular = np.diag([1.0, 0.0])
    with pytest.raises(DomainError, match="stein"):
        bregman_divergence(singular, np.eye(2), "stein")
    with pytest.raises(DomainError, match="second argument"):
        bregman_divergence(np.eye(2), singular, "von-neumann")
    # the closed form refuses the same spectra before it takes a logarithm
    with pytest.raises(DomainError, match="first argument"):
        closed_form_divergence(singular, np.eye(2), "von-neumann")
    # no domain restriction for the quadratic generator
    bregman_divergence(singular, np.eye(2), "squared-frobenius")


def test_no_silent_clamping_near_the_floor():
    # an eigenvalue at 1e-13 is below the floor and must raise, not clamp
    bad = np.diag([1.0, 1e-13])
    with pytest.raises(DomainError):
        bregman_divergence(bad, np.eye(2), "stein")


def test_each_generator_name_round_trips_with_its_loss_value():
    x, y = spd_pair(7)
    for name in GENERATOR_NAMES:
        spec = LossSpec(kind="bregman", phi=name)
        back = LossSpec.from_json(spec.to_json())
        assert back == spec and back.phi == name
        assert evaluate_loss(back, x, y) == evaluate_loss(spec, x, y)
        assert evaluate_loss(spec, x, y) == bregman_divergence(x, y, name)


class _Cubic:
    """A generator object, phi = lam^3, named like a builtin."""

    name = "stein"
    phi = staticmethod(lambda lam: lam**3)
    dphi = staticmethod(lambda lam: 3.0 * lam**2)


@pytest.mark.parametrize("phi", [_Cubic(), "cubic", "Stein", 3, ["stein"], None])
def test_a_generator_that_is_not_a_name_is_refused(phi):
    with pytest.raises(ConfigError, match="generator must be one of"):
        LossSpec(kind="bregman", phi=phi)
    x, y = np.diag([2.0, 1.0]), np.eye(2)
    for divergence in (bregman_divergence, closed_form_divergence):
        with pytest.raises(ConfigError, match="generator must be one of"):
            divergence(x, y, phi)
    config = {
        "cells": [{"n": 20, "p": 4}],
        "truth": {"kind": "banded", "band": 1, "scale": 0.3},
        "estimators": [{"rule": "hard", "gamma": 2.0}],
        "losses": [{"kind": "operator", "w": 2}, {"kind": "bregman", "phi": phi}],
        "replicates": 2,
        "seed": 1,
    }
    with pytest.raises(ConfigError, match=r"losses\[1\]: generator must be one of"):
        run_grid(config)


def test_operator_loss_is_squared_norm():
    a = np.diag([3.0, 0.0])
    b = np.zeros((2, 2))
    assert evaluate_loss(LossSpec(kind="operator", w=2), a, b) == 9.0
    assert evaluate_loss(LossSpec(kind="operator", w=1), a, b) == 9.0


def test_loss_spec_validation_and_detail():
    assert LossSpec(kind="operator", w=math.inf).detail == "inf"
    assert LossSpec(kind="operator", w=1).detail == "1"
    assert LossSpec(kind="bregman", w=None, phi="stein").detail == "stein"
    assert LossSpec(kind="frobenius-squared", w=None).detail == ""
    with pytest.raises(ConfigError):
        LossSpec(kind="operator", w=3)
    with pytest.raises(ConfigError):
        LossSpec(kind="bregman", w=None, phi=None)
    with pytest.raises(ConfigError):
        LossSpec(kind="trace")
    with pytest.raises(ConfigError, match="normalized"):
        LossSpec(kind="operator", w=2, normalized=True)


def test_loss_spec_json_round_trip():
    for spec in (
        LossSpec(kind="operator", w=math.inf),
        LossSpec(kind="operator", w=2),
        LossSpec(kind="operator"),
        LossSpec(kind="frobenius-squared", w=None, normalized=True),
        LossSpec(kind="bregman", w=None, phi="von-neumann", normalized=True),
        # the default w, which only an operator loss reads
        LossSpec(kind="frobenius-squared", normalized=True),
        LossSpec(kind="bregman", phi="stein"),
        # phi, which only a Bregman loss reads
        LossSpec(kind="operator", phi="stein"),
        LossSpec(kind="frobenius-squared", phi="stein"),
    ):
        assert LossSpec.from_json(spec.to_json()) == spec
    assert LossSpec(kind="frobenius-squared") == LossSpec(kind="frobenius-squared", w=None)
    assert LossSpec(kind="bregman", phi="stein").w is None


def test_evaluate_loss_normalization():
    x = np.diag([2.0, 2.0])
    y = np.eye(2)
    raw = evaluate_loss(LossSpec(kind="frobenius-squared", w=None), x, y)
    norm = evaluate_loss(LossSpec(kind="frobenius-squared", w=None, normalized=True), x, y)
    assert raw == 2.0 and norm == 1.0
    op = evaluate_loss(LossSpec(kind="operator", w=2), x, y)
    assert op == 1.0
