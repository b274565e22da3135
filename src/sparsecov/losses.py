"""Operator losses and Bregman matrix divergences.

Bregman divergences come in two independently coded routes.  The double-sum
route expands the divergence over both eigensystems,

    D(X, Y) = sum_ij (v_i' u_j)^2 [phi(l_i) - phi(g_j) - phi'(g_j)(l_i - g_j)],

with (l, v) the eigenpairs of X and (g, u) those of Y.  The closed-form route
evaluates the same quantity from matrix identities (trace, log-determinant,
matrix logarithm).  The two must agree to near machine precision; tests use
the closed forms as the oracle for the double sum and neither calls the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, _check_bool, _check_keys, _check_real
from .matrices import (
    EigenDecomposition,
    _operator_norm,
    _Symmetric,
    _sym_eigen,
    as_symmetric,
    matrix_function,
)

# Eigenvalues below this are outside the open domain (0, inf) for the Stein
# and von Neumann generators; no clamping, the caller must fix conditioning.
EIGEN_DOMAIN_FLOOR = 1e-12


@dataclass(frozen=True)
class BregmanPhi:
    """Separable convex generator phi and its derivative, with a domain floor."""

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    domain_min: float = -math.inf


STEIN = BregmanPhi(
    name="stein",
    phi=lambda lam: -np.log(lam),
    dphi=lambda lam: -1.0 / lam,
    domain_min=0.0,
)
VON_NEUMANN = BregmanPhi(
    name="von-neumann",
    phi=lambda lam: lam * np.log(lam) - lam,
    dphi=lambda lam: np.log(lam),
    domain_min=0.0,
)
SQUARED_FROBENIUS = BregmanPhi(
    name="squared-frobenius",
    phi=lambda lam: lam**2,
    dphi=lambda lam: 2.0 * lam,
)

_BUILTIN_PHIS = {p.name: p for p in (STEIN, VON_NEUMANN, SQUARED_FROBENIUS)}


def resolve_phi(phi) -> BregmanPhi:
    """Accept a builtin generator name or a BregmanPhi instance."""
    if isinstance(phi, BregmanPhi):
        return phi
    if isinstance(phi, str) and phi in _BUILTIN_PHIS:
        return _BUILTIN_PHIS[phi]
    raise ConfigError(
        f"unknown generator {phi!r}; builtins are {sorted(_BUILTIN_PHIS)} "
        "or pass a BregmanPhi"
    )


def _checked_eigenvalues(
    eig: EigenDecomposition, gen: BregmanPhi, label: str
) -> EigenDecomposition:
    floor = gen.domain_min + EIGEN_DOMAIN_FLOOR  # -inf for an unbounded domain
    lo = float(eig.eigenvalues[-1])
    if lo < floor:
        raise DomainError(
            f"{label} eigenvalue {lo:.6e} is outside the domain of the "
            f"{gen.name} generator (needs >= {floor:.1e})"
        )
    return eig


def bregman_divergence(x, y, phi="stein") -> float:
    """Eigen double-sum route for the Bregman matrix divergence D(X, Y).

    Both arguments must be symmetric with eigenvalues inside the generator's
    domain.  The result is nonnegative up to roundoff and zero iff X == Y.
    """
    return _bregman(
        _Symmetric(as_symmetric(x)), _Symmetric(as_symmetric(y)), resolve_phi(phi)
    )


def _bregman(x: _Symmetric, y: _Symmetric, gen: BregmanPhi) -> float:
    """:func:`bregman_divergence` from both arguments' cached decompositions."""
    ex = _checked_eigenvalues(x.eigen, gen, "first argument")
    ey = _checked_eigenvalues(y.eigen, gen, "second argument")
    lam = ex.eigenvalues
    gam = ey.eigenvalues
    # (v_i' u_j)^2 [phi(l_i) - phi(g_j) - phi'(g_j)(l_i - g_j)], built in
    # place: three p x p arrays at most, each operation as in the formula
    overlap = ex.eigenvectors.T @ ey.eigenvectors
    overlap **= 2
    slope = np.subtract(lam[:, None], gam[None, :])
    slope *= gen.dphi(gam)[None, :]
    terms = np.subtract(gen.phi(lam)[:, None], gen.phi(gam)[None, :])
    terms -= slope
    del slope
    overlap *= terms
    return float(np.sum(overlap))


def closed_form_divergence(x, y, kind="stein") -> float:
    """Matrix-identity route for the builtin divergences; serves as the oracle.

    stein:              tr(X Y^-1) - log det(X Y^-1) - p
    von-neumann:        tr(X log X - X log Y - X + Y)
    squared-frobenius:  sum of squared entry differences
    """
    gen = resolve_phi(kind)
    mx, my = _validated_pair(x, y)
    if gen.name == "squared-frobenius":
        diff = mx - my
        return float(np.sum(diff * diff))
    _checked_eigenvalues(_sym_eigen(mx), gen, "first argument")
    _checked_eigenvalues(_sym_eigen(my), gen, "second argument")
    p = mx.shape[0]
    if gen.name == "stein":
        ratio = np.linalg.solve(my, mx)
        sign, logdet = np.linalg.slogdet(ratio)
        if sign <= 0.0:
            raise DomainError("X Y^-1 has nonpositive determinant")
        return float(np.trace(ratio) - logdet - p)
    # von Neumann
    log_x = matrix_function(mx, math.log)
    log_y = matrix_function(my, math.log)
    return float(np.trace(mx @ log_x - mx @ log_y - mx + my))


# The keys a loss of each kind reads, "kind" included.
_LOSS_KEYS = {
    "operator": ("kind", "w", "normalized"),
    "frobenius-squared": ("kind", "normalized"),
    "bregman": ("kind", "phi", "normalized"),
}


@dataclass(frozen=True)
class LossSpec:
    """Which loss a risk experiment evaluates.

    kind 'operator' uses squared operator norm of the difference for
    w in {1, 2, inf}; 'frobenius-squared' is the entrywise square loss;
    'bregman' uses the named generator.  ``normalized`` divides Bregman-type
    losses (including frobenius-squared) by the dimension; an operator loss
    rejects it.  Only an operator loss reads ``w`` and only a Bregman loss
    reads ``phi``; the others set them to None, and a builtin generator is
    kept by its name, so a spec equals its JSON round trip.
    """

    kind: str = "operator"
    w: float | None = 2
    phi: str | BregmanPhi | None = None
    normalized: bool = False

    def __post_init__(self):
        if self.kind not in _LOSS_KEYS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.kind == "operator":
            if self.w not in (1, 2, math.inf, 1.0, 2.0):
                raise ConfigError(
                    f"operator loss needs w in {{1, 2, inf}}, got {self.w!r}"
                )
            if self.normalized:
                raise ConfigError("operator loss cannot be normalized")
        else:
            object.__setattr__(self, "w", None)
        if self.kind != "bregman":
            object.__setattr__(self, "phi", None)
        elif _BUILTIN_PHIS.get(resolve_phi(self.phi).name) is self.phi:
            object.__setattr__(self, "phi", self.phi.name)

    @property
    def detail(self) -> str:
        """Short label for the w-or-phi slot in flat exports."""
        if self.kind == "operator":
            return "inf" if self.w == math.inf else str(int(self.w))
        if self.kind == "bregman":
            return resolve_phi(self.phi).name
        return ""

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "normalized": self.normalized}
        if self.kind == "operator":
            obj["w"] = "inf" if self.w == math.inf else self.w
        if self.kind == "bregman":
            obj["phi"] = resolve_phi(self.phi).name
        return obj

    @classmethod
    def from_json(cls, obj: dict, where: str = "loss") -> "LossSpec":
        """Read a spec from its JSON object; ``where`` names the object's
        place in its config in every message, such as ``losses[1]``."""
        _check_keys(obj, ("kind", "w", "phi", "normalized"), where)
        kind = obj.get("kind", "operator")
        if kind in _LOSS_KEYS:
            _check_keys(obj, _LOSS_KEYS[kind], f"{where} (kind {kind!r})")
        w = obj.get("w", 2 if kind == "operator" else None)
        if w == "inf":
            w = math.inf
        elif w is not None:
            _check_real(w, f"{where}.w")  # keeps an integer w an int, as it is exported
        return cls(
            kind=kind,
            w=w,
            phi=obj.get("phi"),
            normalized=_check_bool(obj.get("normalized", False), f"{where}.normalized"),
        )


def _validated_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    ma = as_symmetric(a)
    mb = as_symmetric(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return ma, mb


def evaluate_loss(spec: LossSpec, estimate, truth) -> float:
    """Dispatch a LossSpec on a validated (estimate, truth) pair."""
    est, tru = _validated_pair(estimate, truth)
    return _evaluate(spec, _Symmetric(est), _Symmetric(tru))


def _evaluate(spec: LossSpec, est: _Symmetric, truth: _Symmetric) -> float:
    """:func:`evaluate_loss` of an exactly symmetric, finite, same-shape pair;
    the risk harness calls it on matrices it built, with one truth per cell,
    so a Bregman loss reuses the decompositions the estimator already took."""
    if spec.kind == "operator":
        return _operator_norm(est.matrix - truth.matrix, spec.w) ** 2
    if spec.kind == "frobenius-squared":
        value = float(np.sum((est.matrix - truth.matrix) ** 2))
    else:
        value = _bregman(est, truth, resolve_phi(spec.phi))
    return value / est.matrix.shape[0] if spec.normalized else value
