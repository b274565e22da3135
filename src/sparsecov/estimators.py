"""Entrywise thresholding estimators and spectral corrections.

The threshold level is always ``gamma * sqrt(log(p) / n)`` and, unless
``keep_diagonal`` is set, the rule is applied to every entry including the
diagonal.  Corrections run after thresholding: ``psd-project`` clips negative
eigenvalues at zero, ``bregman-guard`` replaces the estimate by the identity
unless its spectrum lies inside ``[1/L, L]`` with ``L = max(log n, log p)``.

The public functions validate their input once with :func:`as_symmetric` and
then call the private kernels that the risk pipeline calls directly.  The
kernels trust an exactly symmetric input and pass estimates on as
:class:`~sparsecov.matrices._Symmetric`, so one eigendecomposition serves the
PSD projection, the guard and the spectral losses of an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, _check_bool, _check_keys, _check_real
from .matrices import _from_eigen, _Symmetric, as_symmetric

RULES = ("hard", "soft", "adaptive-lasso")
CORRECTIONS = ("psd-project", "bregman-guard")


@dataclass(frozen=True)
class EstimatorSpec:
    """Thresholding rule plus optional post-corrections.

    ``eta`` only matters for the adaptive-lasso rule and must be >= 1.
    """

    rule: str = "hard"
    gamma: float = 2.0
    eta: float = 3.0
    corrections: tuple[str, ...] = field(default_factory=tuple)
    keep_diagonal: bool = False

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigError(f"unknown rule {self.rule!r}, expected one of {RULES}")
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if not self.eta >= 1.0:
            raise ConfigError(f"eta must be at least 1, got {self.eta}")
        object.__setattr__(self, "corrections", tuple(self.corrections))
        for c in self.corrections:
            if c not in CORRECTIONS:
                raise ConfigError(
                    f"unknown correction {c!r}, expected subset of {CORRECTIONS}"
                )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "gamma": self.gamma,
            "eta": self.eta,
            "corrections": list(self.corrections),
            "keep_diagonal": self.keep_diagonal,
        }

    @classmethod
    def from_json(cls, obj: dict, where: str = "estimator") -> "EstimatorSpec":
        """Read a spec from its JSON object; ``where`` names the object's
        place in its config in every message, such as ``estimators[1]``."""
        _check_keys(obj, ("rule", "gamma", "eta", "corrections", "keep_diagonal"), where)
        return cls(
            rule=obj.get("rule", "hard"),
            gamma=_check_real(obj.get("gamma", 2.0), f"{where}.gamma"),
            eta=_check_real(obj.get("eta", 3.0), f"{where}.eta"),
            corrections=tuple(obj.get("corrections", ())),
            keep_diagonal=_check_bool(obj.get("keep_diagonal", False), f"{where}.keep_diagonal"),
        )


def threshold_level(p: int, n: int, gamma: float) -> float:
    """The common threshold gamma * sqrt(log(p) / n) (natural log)."""
    if p < 2:
        raise ConfigError(f"p must be at least 2, got {p}")
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    if not gamma > 0.0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    return gamma * math.sqrt(math.log(p) / n)


def threshold_estimate(sigma_star, spec: EstimatorSpec, n: int) -> np.ndarray:
    """Apply the spec's thresholding rule to a sample covariance.

    hard keeps an entry iff its magnitude reaches the threshold; soft shrinks
    magnitudes by the threshold and clips at zero; adaptive-lasso multiplies
    each entry by ``(1 - |t / entry|^eta)_+``.
    """
    return _threshold(as_symmetric(sigma_star), spec, n)


def _threshold(mat: np.ndarray, spec: EstimatorSpec, n: int) -> np.ndarray:
    """:func:`threshold_estimate` of an exactly symmetric matrix."""
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
    return _psd_project(_Symmetric(as_symmetric(sigma_hat))).matrix


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
    return _bregman_guard(_Symmetric(as_symmetric(sigma_hat)), n).matrix


def _bregman_guard(est: _Symmetric, n: int) -> _Symmetric:
    """:func:`bregman_guard` decided from the estimate's cached eigenvalues."""
    if n < 2:
        raise ConfigError(f"n must be at least 2 for the guard, got {n}")
    p = est.matrix.shape[0]
    big_l = max(math.log(n), math.log(p))
    w = est.eigen.eigenvalues  # descending
    ok = 1.0 / big_l <= float(w[-1]) and float(w[0]) <= big_l
    return est if ok else _Symmetric(np.eye(p))


def apply_estimator(sigma_star, spec: EstimatorSpec, n: int) -> np.ndarray:
    """Threshold, then run the spec's corrections in declaration order."""
    return _apply_estimator(as_symmetric(sigma_star), spec, n).matrix


def _apply_estimator(mat: np.ndarray, spec: EstimatorSpec, n: int) -> _Symmetric:
    """:func:`apply_estimator` of an exactly symmetric matrix, such as the
    output of :func:`~sparsecov.sampling.mle_covariance`."""
    out = _Symmetric(_threshold(mat, spec, n))
    for correction in spec.corrections:
        out = _psd_project(out) if correction == "psd-project" else _bregman_guard(out, n)
    return out
