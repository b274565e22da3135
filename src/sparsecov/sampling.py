"""Gaussian sampling and the centered 1/n sample covariance."""

from __future__ import annotations

import numpy as np

from .errors import NotPSDError
from .matrices import EigenDecomposition, _from_eigen, sym_eigen
from .rng import RngSeed

# Eigenvalues more negative than -PSD_RTOL * max|eigenvalue| reject the matrix;
# anything between there and zero is clamped as roundoff.
PSD_RTOL = 1e-10


def sqrt_psd(sigma) -> np.ndarray:
    """Symmetric eigen square root of a PSD matrix.

    Raises
    ------
    NotPSDError
        If the smallest eigenvalue is materially negative.
    """
    return _sqrt_psd(sym_eigen(sigma))


def _sqrt_psd(eig: EigenDecomposition) -> np.ndarray:
    """:func:`sqrt_psd` from an eigendecomposition already taken."""
    scale = float(np.max(np.abs(eig.eigenvalues))) if eig.eigenvalues.size else 0.0
    lo = float(eig.eigenvalues[-1])
    if lo < -PSD_RTOL * max(scale, 1.0):
        raise NotPSDError(
            f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}"
        )
    return _from_eigen(eig.eigenvectors, np.sqrt(np.clip(eig.eigenvalues, 0.0, None)))


def sample_gaussian(
    sigma, n: int, seed: RngSeed, *, sqrt_factor: np.ndarray | None = None
) -> np.ndarray:
    """Draw n iid mean-zero Gaussian rows with the given covariance.

    Parameters
    ----------
    sigma : array_like
        PSD covariance, p x p.
    n : int
        Number of rows, at least 1.
    seed : RngSeed
        Stream to draw from; equal seeds give bit-identical output.
    sqrt_factor : ndarray, optional
        Precomputed :func:`sqrt_psd` of sigma.  Passing it skips the
        eigendecomposition but never changes the sampled values.

    Returns
    -------
    ndarray of shape (n, p)
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    root = sqrt_psd(sigma) if sqrt_factor is None else sqrt_factor
    rng = seed.generator()
    z = rng.standard_normal((n, root.shape[0]))
    return z @ root


def mle_covariance(x) -> np.ndarray:
    """Centered second-moment matrix with divisor n (not n - 1).

    Always centers at the sample mean; with a single row the result is the
    zero matrix.  The input is left unchanged.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d data matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 1:
        raise ValueError("data matrix must contain at least one row")
    centered = arr - arr.mean(axis=0)
    s = centered.T @ centered
    s /= n
    # numpy forms x'x as a symmetric rank-k update, so s is exactly symmetric
    return s


def save_data_csv(path, x) -> None:
    """Write a data matrix, one observation per CSV line, 17 significant digits."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d data matrix, got shape {arr.shape}")
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")


def load_data_csv(path) -> np.ndarray:
    """Read a data matrix written by :func:`save_data_csv`."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    if not np.all(np.isfinite(arr)):
        raise ValueError("data matrix entries must be finite")
    return arr
