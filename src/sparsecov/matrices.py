"""Dense symmetric-matrix kernel: validation, eigenstructure, norms, spectral maps.

Every covariance-like object in this package is a plain float64 ndarray that
has passed :func:`as_symmetric`.  Construction either repairs roundoff-level
asymmetry by averaging with the transpose or rejects the input outright, so
downstream code can assume exact symmetry bit for bit.  Inside the risk
pipeline such a matrix travels as a :class:`_Symmetric`, which takes its
eigendecomposition at most once.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import AsymmetryError, DomainError, EigenError, NormOrderError

# Asymmetry beyond rtol * (1 + max |entry|) is treated as a caller bug, not noise.
ASYMMETRY_RTOL = 1e-12


def as_symmetric(a) -> np.ndarray:
    """Validate a square real matrix and return its symmetrized float64 copy.

    Parameters
    ----------
    a : array_like
        Square matrix with finite real entries.

    Returns
    -------
    ndarray
        ``(A + A.T) / 2`` as a fresh float64 array.

    Raises
    ------
    AsymmetryError
        If the worst asymmetry ``max |A - A.T|`` exceeds the tolerance.
    ValueError
        If the input is not a square 2-d array of finite reals.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    # one scratch buffer holds |A - A'|, then |A|, then the returned (A + A') / 2
    buf = np.subtract(arr, arr.T)
    gap = float(np.max(np.abs(buf, out=buf)))
    tol = ASYMMETRY_RTOL * (1.0 + float(np.max(np.abs(arr, out=buf))))
    if gap > tol:
        raise AsymmetryError(
            f"matrix asymmetry {gap:.3e} exceeds tolerance {tol:.3e}; "
            "symmetrize explicitly if this is intended"
        )
    np.add(arr, arr.T, out=buf)
    buf /= 2.0
    return buf


class EigenDecomposition(NamedTuple):
    """Eigenvalues in descending order with eigenvector columns aligned."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(a) -> EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues sorted descending.

    The orthonormality and reconstruction quality are the contract here:
    ``V @ diag(w) @ V.T`` reproduces the input to roughly 1e-10 relative in
    Frobenius norm and ``V.T @ V`` is the identity to 1e-10 per entry.
    """
    return _sym_eigen(as_symmetric(a))


def _sym_eigen(mat: np.ndarray) -> EigenDecomposition:
    """:func:`sym_eigen` of a matrix that is already exactly symmetric."""
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"symmetric eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(w[::-1].copy(), v[:, ::-1].copy())


class _Symmetric:
    """An exactly symmetric matrix whose eigendecomposition is taken once, when first needed."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @cached_property
    def eigen(self) -> EigenDecomposition:
        return _sym_eigen(self.matrix)


def _from_eigen(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Symmetrized ``V diag(w) V'`` of one eigensystem or of a stack of them.

    The ``V diag(w)`` temporary is reused for ``(out + out') / 2``, so the
    product and its symmetrization hold two matrices beside ``V``.
    """
    scaled = vectors * values[..., None, :]
    out = scaled @ np.swapaxes(vectors, -1, -2)
    np.add(out, np.swapaxes(out, -1, -2), out=scaled)
    scaled /= 2.0
    return scaled


def operator_norm(a, w) -> float:
    """Exact operator norm of a symmetric matrix for order w in {1, 2, inf}.

    Orders 1 and inf are the maximum absolute column sum (equal for symmetric
    input and computed by the same code path, so they agree exactly).  Order 2
    is the spectral radius ``max |eigenvalue|``.

    Raises
    ------
    NormOrderError
        For any other order.  For symmetric A, Riesz-Thorin interpolation
        makes ``operator_norm(A, 1)`` an upper bound at every order in
        [1, inf].
    """
    return _operator_norm(as_symmetric(a), w)


def _operator_norm(mat: np.ndarray, w) -> float:
    """:func:`operator_norm` of a matrix that is already exactly symmetric."""
    if w in (1, 1.0, np.inf) or w == math.inf:
        return float(np.max(np.sum(np.abs(mat), axis=0)))
    if w in (2, 2.0):
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    raise NormOrderError(
        f"no exact formula for operator norm of order {w!r}; "
        "for symmetric input the order-1 norm bounds every order in [1, inf]"
    )


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    mat = as_symmetric(a)
    return float(np.sqrt(np.sum(mat * mat)))


def matrix_function(a, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar map to a symmetric matrix through its eigenvalues.

    Computes ``V @ diag(f(w)) @ V.T``.  The map is evaluated one eigenvalue at
    a time; an exception from ``f`` or a non-finite result raises a
    :class:`DomainError` naming the offending eigenvalue.
    """
    eig = sym_eigen(a)
    vals = np.empty_like(eig.eigenvalues)
    with np.errstate(all="ignore"):
        for i, lam in enumerate(eig.eigenvalues):
            try:
                y = float(f(float(lam)))
            except Exception as exc:
                raise DomainError(
                    f"scalar map failed at eigenvalue {lam!r}: {exc}"
                ) from exc
            if not math.isfinite(y):
                raise DomainError(f"scalar map is not finite at eigenvalue {lam!r}")
            vals[i] = y
    return _from_eigen(eig.eigenvectors, vals)


def save_matrix_csv(path, a) -> None:
    """Write one matrix row per CSV line with 17 significant digits."""
    mat = as_symmetric(a)
    np.savetxt(path, mat, fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix_csv` and re-symmetrize."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    return as_symmetric(arr)
