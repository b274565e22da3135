"""Entrywise thresholding estimators and spectral corrections.

The threshold level is always ``gamma * sqrt(log(p) / n)`` and, unless
``keep_diagonal`` is set, the rule is applied to every entry including the
diagonal.  Corrections run after thresholding: ``psd-project`` clips negative
eigenvalues at zero, ``bregman-guard`` replaces the estimate by the identity
unless its spectrum lies inside ``[1/L, L]`` with ``L = max(log n, log p)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .matrices import _from_eigen, _sym_eigen, as_symmetric

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
    def from_json(cls, obj: dict) -> "EstimatorSpec":
        return cls(
            rule=obj.get("rule", "hard"),
            gamma=float(obj.get("gamma", 2.0)),
            eta=float(obj.get("eta", 3.0)),
            corrections=tuple(obj.get("corrections", ())),
            keep_diagonal=bool(obj.get("keep_diagonal", False)),
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
    mat = as_symmetric(sigma_star)
    t = threshold_level(mat.shape[0], n, spec.gamma)
    mags = np.abs(mat)
    if spec.rule == "hard":
        out = np.where(mags >= t, mat, 0.0)
    elif spec.rule == "soft":
        out = np.sign(mat) * np.maximum(mags - t, 0.0)
    else:
        safe = np.where(mags > 0.0, mags, 1.0)
        factor = np.maximum(1.0 - (t / safe) ** spec.eta, 0.0)
        out = np.where(mags > 0.0, mat * factor, 0.0)
    if spec.keep_diagonal:
        np.fill_diagonal(out, np.diag(mat))
    return out


def psd_project(sigma_hat) -> np.ndarray:
    """Project onto the PSD cone by clipping negative eigenvalues at zero.

    This is the Frobenius-nearest PSD matrix; its distance to the truth in
    any eigen-monotone operator norm is at most twice that of the input.
    """
    mat = as_symmetric(sigma_hat)
    eig = _sym_eigen(mat)
    if float(eig.eigenvalues[-1]) >= 0.0:
        # nothing to clip; skip the round trip so exact zeros stay exact
        return mat
    return _from_eigen(eig.eigenvectors, np.clip(eig.eigenvalues, 0.0, None))


def bregman_guard(sigma_hat, n: int) -> np.ndarray:
    """Return the estimate unchanged iff its spectrum is safely bounded.

    With ``L = max(log n, log p)``, the check is ``1/L <= min eigenvalue``
    and ``max eigenvalue <= L``; failing either returns the identity.
    """
    mat = as_symmetric(sigma_hat)
    if n < 2:
        raise ConfigError(f"n must be at least 2 for the guard, got {n}")
    p = mat.shape[0]
    big_l = max(math.log(n), math.log(p))
    w = np.linalg.eigvalsh(mat)
    ok = 1.0 / big_l <= float(w[0]) and float(w[-1]) <= big_l
    return mat if ok else np.eye(p)


def apply_estimator(sigma_star, spec: EstimatorSpec, n: int) -> np.ndarray:
    """Threshold, then run the spec's corrections in declaration order."""
    out = threshold_estimate(sigma_star, spec, n)
    for correction in spec.corrections:
        if correction == "psd-project":
            out = psd_project(out)
        else:
            out = bregman_guard(out, n)
    return out
