import math

import numpy as np
import pytest

from sparsecov.errors import ConfigError
from sparsecov.losses import LossSpec, evaluate_loss
from sparsecov.matrices import (
    ASYMMETRY_RTOL,
    _from_eigen,
    _identity,
    _sym_eigen,
    _Symmetric,
    _symmetric,
    as_symmetric,
    load_matrix_csv,
    operator_norm,
    save_matrix_csv,
)


def test_as_symmetric_repairs_roundoff():
    a = np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]])
    out = as_symmetric(a)
    assert out[0, 1] == out[1, 0]
    assert out is not a


def test_as_symmetric_rejects_real_asymmetry():
    with pytest.raises(ConfigError, match="matrix asymmetry 1.500e\\+00 exceeds tolerance"):
        as_symmetric([[1.0, 2.0], [0.5, 3.0]])


def test_as_symmetric_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        as_symmetric(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_symmetric([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_symmetric(np.ones(3))


def _old_as_symmetric(arr):
    """The validation and symmetrization as_symmetric computed before it
    shared one scratch buffer between them."""
    gap = float(np.max(np.abs(arr - arr.T)))
    tol = ASYMMETRY_RTOL * (1.0 + float(np.max(np.abs(arr))))
    if gap > tol:
        raise ConfigError("too asymmetric")
    return (arr + arr.T) / 2.0


def test_as_symmetric_matches_the_unbuffered_formula_bit_for_bit():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((60, 60)) * 10.0
    exact = a + a.T
    roundoff = exact + rng.standard_normal((60, 60)) * 1e-12  # inside the tolerance
    for arr in (exact, roundoff, np.eye(1) * 4.0):
        before = arr.copy()
        out = as_symmetric(arr)
        assert np.array_equal(out, _old_as_symmetric(arr))
        assert np.array_equal(arr, before)  # the input is left as it was
        assert not np.shares_memory(out, arr)
    asym = exact.copy()
    asym[3, 7] += 1e-6
    with pytest.raises(ConfigError, match="too asymmetric"):
        _old_as_symmetric(asym)
    before = asym.copy()
    with pytest.raises(ConfigError, match="matrix asymmetry"):
        as_symmetric(asym)
    assert np.array_equal(asym, before)


def test_from_eigen_matches_the_unbuffered_formula_bit_for_bit():
    rng = np.random.default_rng(32)

    def old(vectors, values):
        out = (vectors * values[..., None, :]) @ np.swapaxes(vectors, -1, -2)
        return (out + np.swapaxes(out, -1, -2)) / 2.0

    single = np.linalg.qr(rng.standard_normal((50, 50)))[0]
    stack = np.linalg.qr(rng.standard_normal((7, 6, 6)))[0]
    for vectors, values in (
        (single, rng.standard_normal(50)),
        (stack, rng.standard_normal((7, 6))),
    ):
        assert np.array_equal(_from_eigen(vectors, values), old(vectors, values))


def test_symmetric_passes_its_carrier_through_and_validates_the_rest():
    carried = _Symmetric(np.eye(3))
    assert _symmetric(carried) is carried
    with pytest.raises(ConfigError, match="matrix asymmetry"):
        _symmetric([[1.0, 2.0], [0.0, 1.0]])


def test_sym_eigen_two_by_two():
    eig = _symmetric([[2.0, 1.0], [1.0, 2.0]]).eigen
    assert np.allclose(eig.eigenvalues, [3.0, 1.0])
    # descending order and orthonormal columns
    assert eig.eigenvalues[0] >= eig.eigenvalues[1]
    assert np.allclose(eig.eigenvectors.T @ eig.eigenvectors, np.eye(2), atol=1e-12)


def test_sym_eigen_reconstructs():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2
    eig = _symmetric(a).eigen
    back = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
    assert np.max(np.abs(back - a)) < 1e-10 * (1 + np.max(np.abs(a)))


def test_operator_norms_small_matrix():
    a = [[1.0, 2.0], [2.0, -1.0]]
    # column sums of |entries| are both 3
    assert operator_norm(a, 1) == 3.0
    assert operator_norm(a, np.inf) == 3.0
    assert abs(operator_norm(a, 2) - math.sqrt(5.0)) < 1e-12


def test_norm_one_equals_norm_inf_exactly():
    # symmetric input makes these the same number; same code path, same bits
    rng = np.random.default_rng(3)
    a = rng.standard_normal((15, 15))
    a = a + a.T
    assert operator_norm(a, 1) == operator_norm(a, np.inf)


def test_spectral_norm_against_power_iteration():
    """Independent route: power iteration on A @ A drives to the top
    squared eigenvalue; agreement to 1e-8 relative."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((20, 20))
    a = (a + a.T) / 2
    a2 = a @ a
    v = np.ones(20) / math.sqrt(20)
    for _ in range(600):
        v = a2 @ v
        v /= np.linalg.norm(v)
    power = math.sqrt(float(v @ a2 @ v))
    assert abs(operator_norm(a, 2) - power) < 1e-8 * power


def test_norm_order_interpolation_bound():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 10))
    a = a + a.T
    with pytest.raises(ConfigError, match="no exact formula for operator norm of order 1.5"):
        operator_norm(a, 1.5)
    # Riesz-Thorin: for symmetric input the order-1 norm bounds every order
    assert operator_norm(a, 1) >= operator_norm(a, 2)


def test_frobenius_norm_value():
    squared = LossSpec(kind="frobenius-squared")
    loss = evaluate_loss(squared, [[3.0, 0.0], [0.0, 3.0]], np.zeros((2, 2)))
    assert abs(math.sqrt(loss) - math.sqrt(18.0)) < 1e-14


def test_matrix_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / 2
    path = tmp_path / "m.csv"
    save_matrix_csv(path, a)
    back = load_matrix_csv(path)
    # 17 significant digits round-trips float64 exactly
    assert np.array_equal(back, a)


@pytest.mark.parametrize("p", [2, 3, 7, 100, 300, 800])
def test_identity_comes_with_the_eigensolver_bits(p):
    known = _identity(p)
    assert "eigen" in vars(known)  # no eigensolver runs when it is read
    solved = _sym_eigen(np.eye(p))
    assert np.array_equal(known.matrix, np.eye(p))
    for ours, theirs in zip(known.eigen, solved):
        assert ours.dtype == theirs.dtype and ours.flags.c_contiguous == theirs.flags.c_contiguous
        assert np.array_equal(ours, theirs)
        assert np.array_equal(np.signbit(ours), np.signbit(theirs))
