"""Entrywise thresholding estimators and spectral corrections.

The threshold level is always ``gamma * sqrt(log(p) / n)`` and, unless
``keep_diagonal`` is set, the rule is applied to every entry including the
diagonal.  Corrections run after thresholding: ``psd-project`` clips negative
eigenvalues at zero, ``bregman-guard`` replaces the estimate by the identity
unless its spectrum lies inside ``[1/L, L]`` with ``L = max(log n, log p)``.

Every function takes its matrix through :func:`~sparsecov.matrices._symmetric`,
so a caller's array is validated once and the risk pipeline's
:class:`~sparsecov.matrices._Symmetric` matrices are not validated again.

Three kernels keep a private form, ``_psd_project``, ``_bregman_guard`` and
``_apply_estimator``, because they hand the pipeline a ``_Symmetric`` and
their public forms hand a caller an ndarray.  The ``_Symmetric`` carries what
the ndarray would lose: one eigendecomposition that serves the PSD
projection, the guard and the spectral losses of an estimate, the identity's
preset eigenpairs when the guard trips, and the estimate itself, not a copy,
when the projection clips nothing.  Merging a pair would make the shared code
branch on its caller; each public form is ``_x(_symmetric(a), ...).matrix``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, SchemaError, _check_bool, _check_real, _from_json, _json_field
from .matrices import _from_eigen, _identity, _Symmetric, _symmetric

RULES = ("hard", "soft", "adaptive-lasso")
CORRECTIONS = ("psd-project", "bregman-guard")


def _read_corrections(value, where: str) -> tuple[str, ...]:
    """A spec's ``corrections`` as JSON spells it: an array of strings."""
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise SchemaError(f"{where} must be an array of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class EstimatorSpec:
    """Thresholding rule plus optional post-corrections.

    ``eta`` only matters for the adaptive-lasso rule and must be >= 1.
    ``gamma`` and ``eta`` must be finite: an infinite threshold would zero
    every entry and still look like an estimate.
    """

    rule: str = "hard"
    gamma: float = _json_field(_check_real, default=2.0)
    eta: float = _json_field(_check_real, default=3.0)
    corrections: tuple[str, ...] = _json_field(_read_corrections, default_factory=tuple)
    keep_diagonal: bool = _json_field(_check_bool, default=False)

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigError(f"unknown rule {self.rule!r}, expected one of {RULES}")
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if not self.eta >= 1.0:
            raise ConfigError(f"eta must be at least 1, got {self.eta}")
        for name, value in (("gamma", self.gamma), ("eta", self.eta)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        object.__setattr__(self, "corrections", tuple(self.corrections))
        for c in self.corrections:
            if c not in CORRECTIONS:
                raise ConfigError(
                    f"unknown correction {c!r}, expected subset of {CORRECTIONS}"
                )

    def to_json(self) -> dict:
        return {**asdict(self), "corrections": list(self.corrections)}

    @classmethod
    def from_json(cls, obj: dict, where: str = "estimator") -> "EstimatorSpec":
        """Read a spec from its JSON object; ``where`` names the object's
        place in its config in every message, such as ``estimators[1]``."""
        return _from_json(cls, obj, where)


def threshold_level(p: int, n: int, gamma: float) -> float:
    """The common threshold gamma * sqrt(log(p) / n) (natural log)."""
    if p < 2:
        raise ConfigError(f"p must be at least 2, got {p}")
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    if not gamma > 0.0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if not math.isfinite(gamma):
        raise ConfigError(f"gamma must be finite, got {gamma}")
    return gamma * math.sqrt(math.log(p) / n)


def threshold_estimate(sigma_star, spec: EstimatorSpec, n: int) -> np.ndarray:
    """Apply the spec's thresholding rule to a sample covariance.

    hard keeps an entry iff its magnitude reaches the threshold; soft shrinks
    magnitudes by the threshold and clips at zero; adaptive-lasso multiplies
    each entry by ``(1 - |t / entry|^eta)_+``.
    """
    mat = _symmetric(sigma_star).matrix
    t = threshold_level(mat.shape[0], n, spec.gamma)
    if spec.rule == "hard":
        # |S| lives only until the mask is taken, never beside the estimate
        out = np.where(np.abs(mat) >= t, mat, 0.0)
    elif spec.rule == "soft":
        out = np.maximum(np.abs(mat) - t, 0.0)
        out *= np.sign(mat)
    else:
        # (1 - (t / |s|)^eta)_+ * s, zero where s is, built in one buffer
        zero = mat == 0.0
        out = np.abs(mat)
        out[zero] = 1.0
        np.divide(t, out, out=out)
        out **= spec.eta
        np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)
        out *= mat
        out[zero] = 0.0
    if spec.keep_diagonal:
        np.fill_diagonal(out, np.diag(mat))
    return out


def psd_project(sigma_hat) -> np.ndarray:
    """Project onto the PSD cone by clipping negative eigenvalues at zero.

    This is the Frobenius-nearest PSD matrix; its distance to the truth in
    any eigen-monotone operator norm is at most twice that of the input.
    """
    return _psd_project(_symmetric(sigma_hat)).matrix


def _psd_project(est: _Symmetric) -> _Symmetric:
    """:func:`psd_project` from the estimate's cached decomposition."""
    eig = est.eigen
    if float(eig.eigenvalues[-1]) >= 0.0:
        # nothing to clip; skip the round trip so exact zeros stay exact
        return est
    return _Symmetric(_from_eigen(eig.eigenvectors, np.clip(eig.eigenvalues, 0.0, None)))


def bregman_guard(sigma_hat, n: int) -> np.ndarray:
    """Return the estimate unchanged iff its spectrum is safely bounded.

    With ``L = max(log n, log p)``, the check is ``1/L <= min eigenvalue``
    and ``max eigenvalue <= L``; failing either returns the identity.
    """
    return _bregman_guard(_symmetric(sigma_hat), n).matrix


def _bregman_guard(est: _Symmetric, n: int) -> _Symmetric:
    """:func:`bregman_guard` decided from the estimate's cached eigenvalues."""
    if n < 2:
        raise ConfigError(f"n must be at least 2 for the guard, got {n}")
    p = est.matrix.shape[0]
    big_l = max(math.log(n), math.log(p))
    w = est.eigen.eigenvalues  # descending
    ok = 1.0 / big_l <= float(w[-1]) and float(w[0]) <= big_l
    return est if ok else _identity(p)


def apply_estimator(sigma_star, spec: EstimatorSpec, n: int) -> np.ndarray:
    """Threshold, then run the spec's corrections in declaration order."""
    return _apply_estimator(_symmetric(sigma_star), spec, n).matrix


def _apply_estimator(sample: _Symmetric, spec: EstimatorSpec, n: int) -> _Symmetric:
    """:func:`apply_estimator` of a sample covariance the pipeline carries."""
    return _corrected(_Symmetric(threshold_estimate(sample, spec, n)), spec, n)


def _corrected(out: _Symmetric, spec: EstimatorSpec, n: int) -> _Symmetric:
    """The corrections half of :func:`_apply_estimator`, for a caller that
    reads the thresholded estimate ``out`` before they run."""
    for correction in spec.corrections:
        out = _psd_project(out) if correction == "psd-project" else _bregman_guard(out, n)
    return out
