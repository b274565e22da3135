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

import numpy as np

from .errors import ConfigError, DomainError, _check_bool, _check_keys, _check_real
from .matrices import EigenDecomposition, _from_eigen, _Symmetric, _symmetric, operator_norm

# Eigenvalues below this are outside the open domain (0, inf) for the Stein
# and von Neumann generators; no clamping, the caller must fix conditioning.
EIGEN_DOMAIN_FLOOR = 1e-12

# Each generator by name: the separable convex phi, its derivative, and the
# least eigenvalue its domain admits (-inf when it has no floor).
_GENERATORS = {
    "stein": (lambda lam: -np.log(lam), lambda lam: -1.0 / lam, EIGEN_DOMAIN_FLOOR),
    "von-neumann": (
        lambda lam: lam * np.log(lam) - lam, lambda lam: np.log(lam), EIGEN_DOMAIN_FLOOR,
    ),
    "squared-frobenius": (lambda lam: lam**2, lambda lam: 2.0 * lam, -math.inf),
}


def _generator(phi):
    """The (phi, phi', domain floor) of a generator name; ConfigError for
    anything that is not one of the names."""
    if isinstance(phi, str) and phi in _GENERATORS:
        return _GENERATORS[phi]
    raise ConfigError(f"generator must be one of {sorted(_GENERATORS)}, got {phi!r}")


def _checked_eigenvalues(
    eig: EigenDecomposition, phi: str, floor: float, label: str
) -> EigenDecomposition:
    lo = float(eig.eigenvalues[-1])
    if lo < floor:
        raise DomainError(
            f"{label} eigenvalue {lo:.6e} is outside the domain of the "
            f"{phi} generator (needs >= {floor:.1e})"
        )
    return eig


def bregman_divergence(x, y, phi="stein") -> float:
    """Eigen double-sum route for the Bregman matrix divergence D(X, Y).

    ``phi`` names the generator: 'stein', 'von-neumann' or
    'squared-frobenius'.  Both arguments must be symmetric with eigenvalues
    inside the generator's domain.  The result is nonnegative up to roundoff
    and zero iff X == Y.  A :class:`~sparsecov.matrices._Symmetric` argument lends its cached
    decomposition, so the risk pipeline decomposes each estimate and each
    truth once however many losses read it.
    """
    f, df, floor = _generator(phi)
    ex = _checked_eigenvalues(_symmetric(x).eigen, phi, floor, "first argument")
    ey = _checked_eigenvalues(_symmetric(y).eigen, phi, floor, "second argument")
    lam = ex.eigenvalues
    gam = ey.eigenvalues
    # (v_i' u_j)^2 [phi(l_i) - phi(g_j) - phi'(g_j)(l_i - g_j)], built in
    # place: three p x p arrays at most, each operation as in the formula
    overlap = ex.eigenvectors.T @ ey.eigenvectors
    overlap **= 2
    slope = np.subtract(lam[:, None], gam[None, :])
    slope *= df(gam)[None, :]
    terms = np.subtract(f(lam)[:, None], f(gam)[None, :])
    terms -= slope
    del slope
    overlap *= terms
    return float(np.sum(overlap))


def closed_form_divergence(x, y, phi="stein") -> float:
    """Matrix-identity route for the three named divergences; serves as the oracle.

    stein:              tr(X Y^-1) - log det(X Y^-1) - p
    von-neumann:        tr(X log X - X log Y - X + Y)
    squared-frobenius:  sum of squared entry differences
    """
    _, _, floor = _generator(phi)
    x, y = _validated_pair(x, y)
    mx, my = x.matrix, y.matrix
    if phi == "squared-frobenius":
        diff = mx - my
        return float(np.sum(diff * diff))
    ex = _checked_eigenvalues(x.eigen, phi, floor, "first argument")
    ey = _checked_eigenvalues(y.eigen, phi, floor, "second argument")
    p = mx.shape[0]
    if phi == "stein":
        ratio = np.linalg.solve(my, mx)
        sign, logdet = np.linalg.slogdet(ratio)
        if sign <= 0.0:
            raise DomainError("X Y^-1 has nonpositive determinant")
        return float(np.trace(ratio) - logdet - p)
    # von Neumann; both spectra are held to the domain floor above, so log is finite
    log_x = _from_eigen(ex.eigenvectors, np.log(ex.eigenvalues))
    log_y = _from_eigen(ey.eigenvectors, np.log(ey.eigenvalues))
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
    'bregman' uses the generator ``phi`` names: 'stein', 'von-neumann' or
    'squared-frobenius'.  ``normalized`` divides Bregman-type losses
    (including frobenius-squared) by the dimension; an operator loss rejects
    it.  Only an operator loss reads ``w`` and only a Bregman loss reads
    ``phi``; the others set them to None, so a spec equals its JSON round trip.
    """

    kind: str = "operator"
    w: float | None = 2
    phi: str | None = None
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
        else:
            _generator(self.phi)

    @property
    def detail(self) -> str:
        """Short label for the w-or-phi slot in flat exports."""
        if self.kind == "operator":
            return "inf" if self.w == math.inf else str(int(self.w))
        return self.phi or ""

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "normalized": self.normalized}
        if self.kind == "operator":
            obj["w"] = "inf" if self.w == math.inf else self.w
        if self.kind == "bregman":
            obj["phi"] = self.phi
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


def _validated_pair(a, b) -> tuple[_Symmetric, _Symmetric]:
    sa, sb = _symmetric(a), _symmetric(b)
    if sa.matrix.shape != sb.matrix.shape:
        raise ValueError(f"shape mismatch: {sa.matrix.shape} vs {sb.matrix.shape}")
    return sa, sb


def evaluate_loss(spec: LossSpec, estimate, truth) -> float:
    """Score an estimate against the truth under a LossSpec.

    The risk pipeline passes the estimate and the cell's one truth as
    :class:`~sparsecov.matrices._Symmetric`, so nothing is validated again
    and a Bregman loss reuses the decompositions the estimator and the
    sampling root already took.  The difference of two exactly symmetric
    matrices is exactly symmetric, so the operator norm takes it as one too.
    """
    est, tru = _validated_pair(estimate, truth)
    if spec.kind == "operator":
        return operator_norm(_Symmetric(est.matrix - tru.matrix), spec.w) ** 2
    if spec.kind == "frobenius-squared":
        value = float(np.sum((est.matrix - tru.matrix) ** 2))
    else:
        value = bregman_divergence(est, tru, spec.phi)
    return value / est.matrix.shape[0] if spec.normalized else value
