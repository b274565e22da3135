import numpy as np
import pytest

from sparsecov.errors import NotPSDError
from sparsecov.rng import RngSeed
from sparsecov.risk import banded_sigma
from sparsecov.sampling import (
    load_data_csv,
    mle_covariance,
    sample_gaussian,
    save_data_csv,
    sqrt_psd,
)


def test_sqrt_psd_squares_back():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    root = sqrt_psd(sigma)
    assert np.max(np.abs(root @ root.T - sigma)) < 1e-12


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPSDError):
        sqrt_psd([[1.0, 2.0], [2.0, 1.0]])


def test_sqrt_psd_tolerates_tiny_negative_roundoff():
    sigma = np.eye(2)
    sigma[0, 0] = -1e-14
    root = sqrt_psd(sigma)
    assert root[0, 0] == 0.0


def test_sample_gaussian_is_seed_deterministic():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    a = sample_gaussian(sigma, 50, RngSeed(3))
    b = sample_gaussian(sigma, 50, RngSeed(3))
    c = sample_gaussian(sigma, 50, RngSeed(4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_gaussian_accepts_precomputed_root():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    root = sqrt_psd(sigma)
    a = sample_gaussian(sigma, 20, RngSeed(3))
    b = sample_gaussian(sigma, 20, RngSeed(3), sqrt_factor=root)
    assert np.array_equal(a, b)


def test_sample_gaussian_matches_target_covariance():
    sigma = np.array([[2.0, 0.8], [0.8, 1.0]])
    x = sample_gaussian(sigma, 200_000, RngSeed(12))
    emp = mle_covariance(x)
    assert np.max(np.abs(emp - sigma)) < 0.02


def test_mle_covariance_single_row_is_zero():
    assert np.array_equal(mle_covariance([[3.0, -1.0]]), np.zeros((2, 2)))


def test_mle_covariance_two_point_example():
    x = np.array([[-1.0], [1.0]])
    assert np.array_equal(mle_covariance(x), np.array([[1.0]]))


def test_mle_covariance_centers_and_divides_by_n():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((37, 5)) + 3.0
    expected = np.cov(x.T, bias=True)
    assert np.max(np.abs(mle_covariance(x) - expected)) < 1e-12


def _old_mle_covariance(x):
    """The covariance formula as written before it divided in place and
    skipped the transpose average of an exactly symmetric Gram matrix."""
    centered = x - x.mean(axis=0)
    s = centered.T @ centered / x.shape[0]
    return (s + s.T) / 2.0


@pytest.mark.parametrize(
    "n, p", [(300, 100), (60, 200), (1, 50), (37, 53), (400, 400)],
    ids=["n>p", "n<p", "n=1", "37x53", "square"],
)
def test_mle_covariance_matches_the_old_formula_bit_for_bit(n, p):
    sigma = banded_sigma(p, 2, 0.2)
    x = sample_gaussian(sigma, n, RngSeed(9).substream(n), sqrt_factor=sqrt_psd(sigma))
    for data in (x, np.asfortranarray(x)):
        before = data.copy()
        got = mle_covariance(data)
        assert np.array_equal(got, _old_mle_covariance(data))
        assert np.array_equal(got, got.T)
        assert np.array_equal(data, before)  # the public function leaves its input alone
        assert not np.shares_memory(got, data)


def test_mle_covariance_of_a_strided_view_matches_the_old_formula():
    x = sample_gaussian(np.eye(40), 90, RngSeed(12))
    view = x[::3, ::2]
    assert np.array_equal(mle_covariance(view), _old_mle_covariance(view))


@pytest.mark.parametrize(
    "n, p",
    [(1, 1), (1, 50), (2, 3), (50, 1), (37, 53), (100, 300), (300, 100), (400, 400),
     (1000, 37), (800, 800)],
)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_mle_covariance_is_exactly_symmetric_without_averaging(n, p, dtype):
    # x'x comes out of one symmetric rank-k update, whatever the input's
    # dtype or memory layout, so no transpose average is needed
    gen = RngSeed(21).substream(n * 1000 + p).generator()
    x = (gen.standard_normal((n, p)) * 50).astype(dtype)
    for data in (x, np.asfortranarray(x), x[::-1, ::-1]):
        s = mle_covariance(data)
        assert np.array_equal(s, s.T)


def test_data_csv_round_trip(tmp_path):
    x = sample_gaussian(np.eye(3), 10, RngSeed(1))
    path = tmp_path / "x.csv"
    save_data_csv(path, x)
    assert np.array_equal(load_data_csv(path), x)
