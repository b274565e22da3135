"""Gaussian sampling and the centered 1/n sample covariance."""

from __future__ import annotations

import numpy as np

from .matrices import _symmetric
from .rng import RngSeed


def sqrt_psd(sigma) -> np.ndarray:
    """Symmetric eigen square root of a PSD matrix.

    The root is :attr:`~sparsecov.matrices._Symmetric.root` of the validated
    matrix, so a carried ``_Symmetric`` computes it once from the
    eigendecomposition it also lends its Bregman losses.

    Raises
    ------
    DomainError
        If the smallest eigenvalue is materially negative.
    """
    return _symmetric(sigma).root


def sample_gaussian(sigma, n: int, seed: RngSeed) -> np.ndarray:
    """Draw n iid mean-zero Gaussian rows with the given covariance.

    Parameters
    ----------
    sigma : array_like
        PSD covariance, p x p.  A carried ``_Symmetric`` lends the root it
        holds, so repeated draws from one truth decompose it once.
    n : int
        Number of rows, at least 1.
    seed : RngSeed
        Stream to draw from; equal seeds give bit-identical output.

    Returns
    -------
    ndarray of shape (n, p)
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    root = _symmetric(sigma).root
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


def load_data_csv(path) -> np.ndarray:
    """Read a data matrix, one observation per CSV line."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    if not np.all(np.isfinite(arr)):
        raise ValueError("data matrix entries must be finite")
    return arr
