import math

import numpy as np
import pytest

from sparsecov.errors import ConfigError, DomainError
from sparsecov.losses import (
    SQUARED_FROBENIUS,
    STEIN,
    VON_NEUMANN,
    BregmanPhi,
    LossSpec,
    bregman_divergence,
    closed_form_divergence,
    evaluate_loss,
    resolve_phi,
)
from sparsecov.matrices import _Symmetric


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
    assert abs(bregman_divergence(x, y, SQUARED_FROBENIUS) - direct) < 1e-10
    assert abs(closed_form_divergence(x, y, "squared-frobenius") - direct) < 1e-14


def test_double_sum_matches_closed_forms():
    for seed in range(25):
        x, y = spd_pair(seed)
        for name in ("stein", "von-neumann", "squared-frobenius"):
            a = bregman_divergence(x, y, name)
            b = closed_form_divergence(x, y, name)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (seed, name)


def test_double_sum_kernel_matches_the_old_formula_bit_for_bit():
    def old(x, y, gen):
        lam, gam = x.eigen.eigenvalues, y.eigen.eigenvalues
        overlap = (x.eigen.eigenvectors.T @ y.eigen.eigenvectors) ** 2
        terms = (
            gen.phi(lam)[:, None]
            - gen.phi(gam)[None, :]
            - gen.dphi(gam)[None, :] * (lam[:, None] - gam[None, :])
        )
        return float(np.sum(overlap * terms))

    for seed, p in ((3, 5), (4, 40), (5, 120)):
        x, y = (_Symmetric((m + m.T) / 2.0) for m in spd_pair(seed, p=p))
        for gen in (STEIN, VON_NEUMANN, SQUARED_FROBENIUS):
            assert bregman_divergence(x, y, gen) == old(x, y, gen)


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
    # no domain restriction for the quadratic generator
    bregman_divergence(singular, np.eye(2), "squared-frobenius")


def test_no_silent_clamping_near_the_floor():
    # an eigenvalue at 1e-13 is below the floor and must raise, not clamp
    bad = np.diag([1.0, 1e-13])
    with pytest.raises(DomainError):
        bregman_divergence(bad, np.eye(2), "stein")


def test_resolve_phi_accepts_custom_generator():
    cubic = BregmanPhi(
        name="cubic",
        phi=lambda lam: lam**3,
        dphi=lambda lam: 3.0 * lam**2,
        domain_min=0.0,
    )
    assert resolve_phi(cubic) is cubic
    x, y = np.diag([2.0, 1.0]), np.eye(2)
    # phi(2) - phi(1) - phi'(1)(2-1) = 8 - 1 - 3 = 4
    assert abs(bregman_divergence(x, y, cubic) - 4.0) < 1e-12
    # a custom generator stays on its spec as the object
    spec = LossSpec(kind="bregman", phi=cubic)
    assert spec.phi is cubic
    assert abs(evaluate_loss(spec, x, y) - 4.0) < 1e-12
    with pytest.raises(ConfigError):
        resolve_phi("unknown-phi")


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
        # phi only a Bregman loss reads, and a builtin generator by object
        LossSpec(kind="operator", phi="stein"),
        LossSpec(kind="bregman", phi=STEIN),
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
