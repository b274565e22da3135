"""Dense symmetric-matrix kernel: validation, eigenstructure, norms, spectral maps.

Every covariance-like object in this package is a plain float64 ndarray that
has passed :func:`as_symmetric`.  Construction either repairs roundoff-level
asymmetry by averaging with the transpose or rejects the input outright, so
downstream code can assume exact symmetry bit for bit.

:func:`_symmetric` is the one validation boundary.  Every kernel that takes
a matrix passes it through there: a :class:`_Symmetric`, the exactly
symmetric carrier the risk pipeline builds, goes through untouched, with its
eigendecomposition and square root each taken at most once; anything else is
validated by :func:`as_symmetric` and wrapped.  So a caller's ndarray is
checked once per call, and the pipeline's own matrices are never checked
again.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import AsymmetryError, EigenError, NormOrderError, NotPSDError

# Asymmetry beyond rtol * (1 + max |entry|) is treated as a caller bug, not noise.
ASYMMETRY_RTOL = 1e-12

# Eigenvalues more negative than -PSD_RTOL * max|eigenvalue| reject the matrix;
# anything between there and zero is clamped as roundoff.
PSD_RTOL = 1e-10


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


def _sym_eigen(mat: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of an exactly symmetric matrix, eigenvalues
    sorted descending; the package's one call of ``eigh``.  Only
    :func:`operator_norm`, and the ``estimate`` command's summary line when
    its estimate holds no decomposition, need eigenvalues alone and call
    ``eigvalsh`` instead.

    ``V @ diag(w) @ V.T`` reproduces the input to roughly 1e-10 relative in
    Frobenius norm and ``V.T @ V`` is the identity to 1e-10 per entry.
    """
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"symmetric eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(w[::-1].copy(), v[:, ::-1].copy())


class _Symmetric:
    """An exactly symmetric matrix whose eigendecomposition and square root
    are each taken once, when first needed."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @cached_property
    def eigen(self) -> EigenDecomposition:
        return _sym_eigen(self.matrix)

    @cached_property
    def root(self) -> np.ndarray:
        """Symmetric eigen square root, built from :attr:`eigen`.

        Raises
        ------
        NotPSDError
            If the smallest eigenvalue is materially negative.
        """
        eig = self.eigen
        scale = float(np.max(np.abs(eig.eigenvalues))) if eig.eigenvalues.size else 0.0
        lo = float(eig.eigenvalues[-1])
        if lo < -PSD_RTOL * max(scale, 1.0):
            raise NotPSDError(
                f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}"
            )
        return _from_eigen(eig.eigenvectors, np.sqrt(np.clip(eig.eigenvalues, 0.0, None)))


def _symmetric(a) -> _Symmetric:
    """``a`` itself if it is a :class:`_Symmetric`, else its validated copy
    wrapped in one: the boundary every matrix kernel takes its input through."""
    return a if isinstance(a, _Symmetric) else _Symmetric(as_symmetric(a))


def _identity(p: int) -> _Symmetric:
    """I_p with its eigendecomposition already in place, so no eigensolver runs
    on it: the same bits as ``_sym_eigen(np.eye(p))``."""
    eye = _Symmetric(np.eye(p))
    eye.eigen = EigenDecomposition(np.ones(p), np.eye(p)[:, ::-1].copy())
    return eye


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
    mat = _symmetric(a).matrix
    if w in (1, 1.0, np.inf) or w == math.inf:
        return float(np.max(np.sum(np.abs(mat), axis=0)))
    if w in (2, 2.0):
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    raise NormOrderError(
        f"no exact formula for operator norm of order {w!r}; "
        "for symmetric input the order-1 norm bounds every order in [1, inf]"
    )


def save_matrix_csv(path, a) -> None:
    """Write one matrix row per CSV line with 17 significant digits."""
    mat = _symmetric(a).matrix
    np.savetxt(path, mat, fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix_csv` and re-symmetrize."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    return as_symmetric(arr)
