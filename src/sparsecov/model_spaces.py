"""Sparsity classes over covariance matrices and the least-favorable family.

Two kinds of parameter space appear here.  The first is the weak lq ball
applied column-wise to a covariance matrix with its diagonal removed: it
requires the k-th largest off-diagonal magnitude in every column to decay
like ``(radius / k)^(1/q)``.  ``_column_radii`` is the one place a matrix is
measured against it: one pass over all p columns, which
``class_membership`` and the risk harness's ``decay`` truth both read.

The second is a finite two-point-mixing family used by the lower-bound lab.
A member is indexed by ``theta = (gamma, rows)``: ``gamma`` holds r on/off
bits, ``rows[m]`` is a set of k column indices inside the last r columns, and

    Sigma(theta) = I_p + epsilon * sum_m gamma[m] * A_m(rows[m])

where ``A_m`` has ones of size epsilon along row m / column m at the selected
columns.  The constraint that every column index is used by at most 2k of the
r row patterns keeps the matrices diagonally dominated and the family inside
the sparsity class.

This module owns the family's combinatorics: the 2k column cap
(``_column_cap``), the check of a tuple against it (``_overused_column``)
and the fewest columns the r - 1 rows other than row 0 leave under the cap
(``_fewest_free_columns``).  Nothing here walks or counts the family.

The lower bound reads only the family's shape, so importing this module
loads no numpy; the functions that build, check or draw matrices import it
when they run.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError
from .rng import RngSeed

if TYPE_CHECKING:
    import numpy as np

_RTOL = 1e-12


def _column_radii(mat: np.ndarray, q: float) -> np.ndarray:
    """Weak-lq radius of every column of a symmetric matrix's off-diagonal part:
    the smallest c that puts the column in the weak lq ball of radius c.

    The one place the sparsity class is measured.  Column j of a symmetric
    matrix is its row j, so the rows of ``|mat|`` with the diagonal zeroed are
    measured in one pass; a zero entry changes neither the count nor any
    ``k * |v|_(k)^q`` term above it, so this equals measuring each column
    with its diagonal entry deleted.  Sorting a row ascending puts its k-th
    largest entry at position p - k, so the radius is ``max_k k * |v|_(k)^q``,
    taken in place on the sorted rows; at q = 0 it is the row's number of
    nonzeros.  Holds one p x p temporary.
    """
    import numpy as np

    mags = np.abs(mat)
    np.fill_diagonal(mags, 0.0)
    if q == 0.0:
        return np.count_nonzero(mags, axis=-1).astype(float)
    mags.sort(axis=-1)
    mags **= q
    mags *= np.arange(mags.shape[-1], 0, -1, dtype=float)
    return np.max(mags, axis=-1)


def class_membership(sigma, q: float, radius: float):
    """Test column-wise membership of a covariance matrix in the weak lq ball
    of radius ``radius``, for q in [0, 1) and radius > 0.

    Returns ``(ok, witness)`` where ``witness`` is the index of the first
    violating column, or None.  Comparisons allow 1e-12 relative slack so
    boundary members constructed in floating point are not rejected.
    ``sigma`` is taken through :func:`~sparsecov.matrices._symmetric`, so a
    carried :class:`~sparsecov.matrices._Symmetric` is not validated again.
    """
    import numpy as np

    from .matrices import _symmetric

    if not 0.0 <= q < 1.0:
        raise ConfigError(f"q must lie in [0, 1), got {q}")
    if not radius > 0.0:
        raise ConfigError(f"radius must be positive, got {radius}")
    mat = _symmetric(sigma).matrix
    if mat.shape[0] < 2:
        raise ConfigError("class membership needs dimension >= 2")
    over = np.flatnonzero(_column_radii(mat, q) > radius * (1.0 + _RTOL))
    return (True, None) if over.size == 0 else (False, int(over[0]))


@dataclass(frozen=True)
class LeastFavorableConfig:
    """Shape parameters of the finite least-favorable family.

    ``build_config`` is the validated constructor and keeps the derived
    fields (r, k, epsilon) consistent with (p, n, q, c, upsilon).
    """

    p: int
    n: int
    q: float
    c: float
    upsilon: float
    r: int
    k: int
    epsilon: float

    @property
    def support_columns(self) -> range:
        """Zero-based column indices available to the row patterns."""
        return range(self.p - self.r, self.p)

    def to_json(self) -> dict:
        return asdict(self)


DEFAULT_UPSILON = 0.1


def _class_parameter(name: str, value: float, where: str | None = None) -> float:
    """``value`` if it lies in the range :func:`build_config` accepts for the
    class parameter ``name``, which is q, c or upsilon; else ConfigError
    naming it as ``where``, ``name`` by default."""
    if name == "q":
        ok, rule = 0.0 <= value < 1.0, "lie in [0, 1)"
    else:
        ok, rule = 0.0 < value < math.inf, "be positive and finite"
    if not ok:
        raise ConfigError(f"{where or name} must {rule}, got {value}")
    return value


def build_config(
    p: int, n: int, q: float, c: float, upsilon: float = DEFAULT_UPSILON
) -> LeastFavorableConfig:
    """Derive (r, k, epsilon) from the primitive parameters and validate.

    ``r = floor(p / 2)``, ``epsilon = upsilon * sqrt(log(p) / n)`` with the
    natural log, and ``k = max(ceil(c * epsilon^-q / 2) - 1, 0)``.

    Raises
    ------
    ConfigError
        If ``2 k epsilon >= 1/3`` (perturbation too large for the family to
        stay well conditioned) or ``k > r`` (no row pattern of size k fits in
        the available columns).
    """
    if p < 2:
        raise ConfigError(f"p must be at least 2, got {p}")
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    for name, value in (("q", q), ("c", c), ("upsilon", upsilon)):
        _class_parameter(name, value)
    r = p // 2
    epsilon = upsilon * math.sqrt(math.log(p) / n)
    k = max(math.ceil(c * epsilon ** (-q) / 2.0) - 1, 0)
    if 2.0 * k * epsilon >= 1.0 / 3.0:
        raise ConfigError(
            f"2*k*epsilon = {2.0 * k * epsilon:.6g} >= 1/3; "
            "shrink c or upsilon, or raise n"
        )
    if k > r:
        raise ConfigError(f"k = {k} exceeds r = {r}; the family would be empty")
    return LeastFavorableConfig(
        p=p, n=n, q=q, c=c, upsilon=upsilon, r=r, k=k, epsilon=epsilon
    )


@dataclass(frozen=True)
class ThetaIndex:
    """Index of one family member: on/off bits plus one column set per row.

    ``rows[m]`` is a sorted tuple of k zero-based column indices (empty when
    k = 0).  All r row patterns are present regardless of the gamma bits; a
    zero bit simply leaves its pattern unused by ``materialize_sigma``.
    """

    gamma: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


def _column_cap(k: int) -> int:
    """Most row patterns one support column may appear in: 2k."""
    return 2 * k


def _overused_column(rows, k: int) -> tuple[int, int] | None:
    """The first column, in order of first use, that more than 2k of ``rows``
    use, with its usage; None when every column keeps the cap."""
    cap = _column_cap(k)
    counts = Counter(itertools.chain.from_iterable(rows))
    return next(((j, used) for j, used in counts.items() if used > cap), None)


def validate_theta(cfg: LeastFavorableConfig, theta: ThetaIndex) -> None:
    """Raise ConfigError naming the first violated constraint."""
    if len(theta.gamma) != cfg.r:
        raise ConfigError(
            f"gamma has length {len(theta.gamma)}, expected r = {cfg.r}"
        )
    if any(g not in (0, 1) for g in theta.gamma):
        raise ConfigError("gamma entries must be 0 or 1")
    if len(theta.rows) != cfg.r:
        raise ConfigError(f"expected {cfg.r} row patterns, got {len(theta.rows)}")
    support = cfg.support_columns
    for m, row in enumerate(theta.rows):
        if len(row) != cfg.k:
            raise ConfigError(
                f"row pattern {m} has {len(row)} indices, expected k = {cfg.k}"
            )
        if len(set(row)) != len(row):
            raise ConfigError(f"row pattern {m} repeats a column index")
        if tuple(sorted(row)) != tuple(row):
            raise ConfigError(f"row pattern {m} is not sorted")
        for j in row:
            if j not in support:
                raise ConfigError(
                    f"row pattern {m} uses column {j} outside "
                    f"[{support.start}, {support.stop})"
                )
    over = _overused_column(theta.rows, cfg.k)
    if over is not None:
        j, used = over
        cap = _column_cap(cfg.k)
        raise ConfigError(f"column {j} appears in {used} row patterns, cap is 2k = {cap}")


def materialize_sigma(cfg: LeastFavorableConfig, theta: ThetaIndex) -> np.ndarray:
    """Assemble Sigma(theta) = I + epsilon * sum of active row/column bumps."""
    import numpy as np

    validate_theta(cfg, theta)
    return _sigma_stack(cfg, [theta.gamma], np.array(theta.rows, dtype=np.intp))[0]


def _sigma_stack(cfg: LeastFavorableConfig, bits, cols) -> np.ndarray:
    """Sigma(theta) of M members at once, as an (M, p, p) stack.

    ``bits`` is (M, R) with member i's bit for row m at ``[i, m]``, rows R and
    beyond off, and ``cols`` holds each row's k pattern columns, shaped
    (M, R, k) or (R, k) when every member shares them.  Rows m < r and
    support columns >= p - r never meet, so each bumped entry is written
    once, from zero, as epsilon.
    """
    import numpy as np

    bits = np.asarray(bits)
    cols = np.broadcast_to(cols, bits.shape + (cfg.k,))
    diag = np.arange(cfg.p)
    sigma = np.zeros((len(bits), cfg.p, cfg.p))
    sigma[:, diag, diag] = 1.0
    for m in range(bits.shape[1]):
        on = np.flatnonzero(bits[:, m])
        at = cols[on, m]
        sigma[on[:, None], m, at] = cfg.epsilon
        sigma[on[:, None], at, m] = cfg.epsilon
    return sigma


def _fewest_free_columns(r: int, k: int) -> int:
    """Fewest of the r support columns that the r - 1 rows besides row 0 leave
    under the 2k cap.  Their (r - 1) k uses cap at most (r - 1) // 2 columns,
    and none at all when 2k > r - 1, since no column then reaches 2k uses."""
    return r if _column_cap(k) > r - 1 else r - (r - 1) // 2


# Candidate tuples sample_theta draws before it gives up on a configuration,
# and about how many column indices one batch of candidates holds.
_SAMPLE_MAX_TRIES = 1_000_000
_SAMPLE_BATCH_INDICES = 1 << 16


def sample_theta(cfg: LeastFavorableConfig, seed: RngSeed) -> ThetaIndex:
    """Uniform draw from the family by rejection on the column-usage cap.

    Each candidate is one (r, k) array whose rows are independent uniform
    k-subsets of the support, drawn by Floyd's algorithm: step i draws t
    uniform on [0, r - k + i] for every row, and a row that already holds t
    takes r - k + i instead.  Candidates are drawn in batches that double
    from one up to about ``_SAMPLE_BATCH_INDICES`` indices, and one bincount
    counts each candidate's column uses.  The first candidate that keeps the
    cap is returned; discarding the others wholesale leaves the draw exactly
    uniform.  Deterministic for a fixed seed.
    """
    import numpy as np

    rng = seed.generator()
    gamma = tuple(int(b) for b in rng.integers(0, 2, size=cfg.r))
    r, k = cfg.r, cfg.k
    widest = max(1, _SAMPLE_BATCH_INDICES // (r * max(k, 1)))
    tried, batch = 0, 1
    while tried < _SAMPLE_MAX_TRIES:
        cols = np.empty((batch, r, k), dtype=np.intp)
        for i, top in enumerate(range(r - k, r)):
            t = rng.integers(0, top + 1, size=(batch, r))
            taken = (cols[..., :i] == t[..., None]).any(axis=-1)
            cols[..., i] = np.where(taken, top, t)
        # candidate b counts its uses in bins [b r, (b + 1) r)
        owner = np.arange(0, batch * r, r).reshape(batch, 1, 1)
        uses = np.bincount((cols + owner).ravel(), minlength=batch * r)
        kept = np.flatnonzero(uses.reshape(batch, r).max(axis=1) <= _column_cap(k))
        if kept.size:
            rows = np.sort(cols[kept[0]], axis=1) + (cfg.p - r)
            return ThetaIndex(gamma=gamma, rows=tuple(map(tuple, rows.tolist())))
        tried += batch
        batch = min(2 * batch, widest, _SAMPLE_MAX_TRIES - tried)
    raise ConfigError(
        f"rejection sampling failed after {tried} tries; "
        "the column cap leaves too few valid tuples"
    )
