"""Monte Carlo risk harness: truth builders, cells, grids, and rate fits.

Determinism contract: replicates run in order, replicate r of a cell drawing
from ``seed.substream(r)``, so seeded results are byte-identical for a fixed
numpy/BLAS build and BLAS thread count; ``OPENBLAS_NUM_THREADS`` changes them.
Each replicate is drawn once and scored by every estimator/loss pair of its cell.

Memory: a cell holds one copy of its truth, validated by :func:`run_grid`
and owned by the cell pipeline from then on; ``run_grid`` drops the raw
truth builder output before the replicates start.  Each replicate's draw
lives only for the :func:`~sparsecov.sampling.mle_covariance` call, and its
sample covariance only until the last estimator has read it, so neither
sits beside the losses' temporaries or the next replicate's draw.
:func:`_cell_bytes` writes that peak as a model, and ``run_grid`` refuses a
grid whose largest cell does not fit in physical memory before it allocates
anything.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import attrgetter

import numpy as np

from . import rng
from .errors import (
    BudgetError, ConfigError, DomainError, SchemaError, _check_int, _check_keys, _check_real,
    _check_str, _from_json, _json_field,
)
from .estimators import EstimatorSpec, _apply_estimator, _bregman_guard
from .losses import LossSpec, _floored, evaluate_loss
from .matrices import _Symmetric, _symmetric
from .model_spaces import (
    DEFAULT_UPSILON, _class_parameter, _column_radii, build_config, materialize_sigma,
    sample_theta,
)
from .rng import RngSeed
from .sampling import mle_covariance, sample_gaussian

# A cell is declared failed when more than this fraction of replicates hit a
# loss domain error.
FAILURE_RATE_LIMIT = 0.01


# ---------------------------------------------------------------------------
# truth builders


def _check_band(p: int, band: int) -> None:
    if p < 2 or band < 0 or band >= p:
        raise ConfigError(f"invalid banded truth: p={p}, band={band}")


def banded_sigma(p: int, band: int, value: float) -> np.ndarray:
    """Unit diagonal with a constant value on the first ``band`` off-diagonals."""
    _check_band(p, band)
    sigma = np.eye(p)
    for offset in range(1, band + 1):
        idx = np.arange(p - offset)
        sigma[idx, idx + offset] = value
        sigma[idx + offset, idx] = value
    return sigma


def toeplitz_decay_sigma(p: int, amplitude: float, exponent: float) -> np.ndarray:
    """Unit diagonal with entries amplitude * |i - j|^(-exponent) off it."""
    if p < 2 or not exponent > 0.0:
        raise ConfigError(f"invalid decay truth: p={p}, exponent={exponent}")
    offsets = np.arange(p, dtype=float)
    profile = np.zeros(p)
    profile[0] = 1.0
    profile[1:] = amplitude * offsets[1:] ** (-exponent)
    idx = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return profile[idx]


def _finite(value, where: str) -> float:
    """``value`` as a float if it is a finite JSON number; else SchemaError
    or ConfigError naming ``where``."""
    real = _check_real(value, where)
    if not math.isfinite(real):
        raise ConfigError(f"{where} must be finite, got {real}")
    return real


def _class_reader(name: str):
    """A reader of the fstar class parameter ``name``: a JSON number in the
    range :func:`build_config` accepts, named by its path."""
    return lambda value, where: _class_parameter(name, _check_real(value, where), where)


def _above_one(value, where: str) -> float:
    """``value`` as a float if it is a finite JSON number above 1."""
    real = _finite(value, where)
    if not real > 1.0:
        raise ConfigError(f"{where} must exceed 1, got {real}")
    return real


@dataclass(frozen=True)
class _Truth:
    """A grid's truth object, read first for its ``kind``; the dataclass of
    each kind adds the other keys it reads as fields, and its ``at(n, p)``
    checks the truth at one cell and returns the function that builds it."""

    kind: str = _json_field(_check_str)


@dataclass(frozen=True)
class _Identity(_Truth):
    def at(self, n, p):
        return lambda: (np.eye(p), 0.0, None, "identity")


@dataclass(frozen=True)
class _Banded(_Truth):
    band: int = _json_field(_check_int)
    scale: float = _json_field(_finite, default=1.0)

    def at(self, n, p):
        _check_band(p, self.band)
        value = self.scale * math.sqrt(math.log(p) / n)
        label = f"banded(band={self.band},value={value:.6g})"
        return lambda: (banded_sigma(p, self.band, value), 0.0, float(2 * self.band), label)


@dataclass(frozen=True)
class _Decay(_Truth):
    amplitude: float = _json_field(_finite)
    exponent: float = _json_field(_above_one)

    def at(self, n, p):
        def build():
            sigma = toeplitz_decay_sigma(p, self.amplitude, self.exponent)
            q = 1.0 / self.exponent
            radius = np.max(_column_radii(sigma, q))
            return sigma, q, float(radius), f"decay(a={self.amplitude:.6g},e={self.exponent:.6g})"

        return build


@dataclass(frozen=True)
class _FStar(_Truth):
    q: float = _json_field(_class_reader("q"))
    c: float = _json_field(_class_reader("c"))
    upsilon: float = _json_field(_class_reader("upsilon"), default=DEFAULT_UPSILON)
    theta_seed: RngSeed = _json_field(RngSeed.parse, default=RngSeed(0))

    def at(self, n, p):
        cfg = build_config(p, n, self.q, self.c, self.upsilon)
        label = f"fstar(q={cfg.q:.6g},c={cfg.c:.6g})"
        return lambda: (
            materialize_sigma(cfg, sample_theta(cfg, self.theta_seed)), cfg.q, cfg.c, label
        )


_TRUTHS = {"identity": _Identity, "banded": _Banded, "decay": _Decay, "fstar": _FStar}


def _read_truth(spec, where: str) -> _Truth:
    """The truth object ``spec`` as the dataclass of its string ``kind``,
    whose fields, ``kind`` among them, are the keys it may have."""
    _check_keys(spec, spec, where)  # an object; its kind decides which keys it may have
    kind = _from_json(_Truth, {k: v for k, v in spec.items() if k == "kind"}, where).kind
    if kind not in _TRUTHS:
        raise ConfigError(f"unknown truth kind {kind!r}")
    return _from_json(_TRUTHS[kind], spec, where, f"{where} (kind {kind!r})")


def materialize_truth(spec: dict, n: int, p: int):
    """Build the truth covariance for one grid cell.

    Returns ``(sigma, q, c, label)`` where q and c describe the sparsity
    class the truth belongs to (None when not meaningful).  The spec is read
    as a grid reads its ``truth``: the string ``kind`` picks the dataclass
    (``_Identity``, ``_Banded``, ``_Decay`` or ``_FStar``) whose fields are
    the keys that kind reads.  Any other key raises SchemaError, as does a
    required key left out, named with its path, such as ``truth.band``:

    - ``identity``: none
    - ``banded``: the integer ``band``, below p, and ``scale`` (default 1),
      the off-diagonal value in units of sqrt(log p / n)
    - ``decay``: ``amplitude`` and ``exponent`` > 1; q is 1/exponent and c
      is the realized maximal column weak-lq radius
    - ``fstar``: ``q``, ``c``, ``upsilon`` (default ``DEFAULT_UPSILON``),
      each in the range :func:`build_config` accepts, and the ``theta_seed``
      (default 0) of a uniform member draw, in any form
      :meth:`RngSeed.parse` reads
    """
    return _read_truth(spec, "truth").at(n, p)()


# ---------------------------------------------------------------------------
# cells


@dataclass(frozen=True)
class RiskRecord:
    """Summary of one (truth, estimator, loss, n, p) Monte Carlo cell.

    ``wall_time`` is the time the cell's pipeline took for all of its
    estimator/loss combinations together, so every record of one grid cell
    repeats it.  The CSV export leaves it empty.
    """

    cell_id: str
    model: str
    n: int
    p: int
    q: float | None
    c: float | None
    estimator: EstimatorSpec
    loss: LossSpec
    replicates: int
    mean_risk: float
    std_error: float
    median_risk: float
    failures: int
    seed: RngSeed
    wall_time: float

    def to_json(self) -> dict:
        """One entry per field, in field order; the specs and the seed are
        written in their own JSON forms."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj.update(
            estimator=self.estimator.to_json(), loss=self.loss.to_json(), seed=str(self.seed)
        )
        return obj


def _guarded(est: EstimatorSpec, loss: LossSpec) -> EstimatorSpec:
    """A loss whose generator has a domain floor is undefined on a singular
    estimate, so a grid scores it with the bregman-guard correction appended."""
    if not _floored(loss.phi) or "bregman-guard" in est.corrections:
        return est
    return replace(est, corrections=est.corrections + ("bregman-guard",))


def _run_cell(truth: _Symmetric, estimators, specs, losses, n, replicates, seed):
    """The replicate loop of one grid cell: ``(losses, seconds)``, the
    (estimator, loss, replicate) array of losses, nan where a loss raised
    DomainError, and the wall time of the loop.

    ``specs[ei][li]`` is the :func:`_guarded` spec of ``estimators[ei]``
    under ``losses[li]``, which :func:`run_grid` decides once per grid.
    The truth arrives validated and wrapped in a :class:`_Symmetric` by the
    caller, which hands it over: the cell neither copies it nor keeps any
    other copy.  It is eigendecomposed once; that decomposition gives both
    the square root the truth holds for sampling and the truth side of every
    Bregman loss, and is dropped after the root when no loss reads it.
    Replicate r draws once from ``seed.substream(r)`` with that root, and
    applies each estimator once to its sample covariance, which the cell
    owns and releases after the last estimator has read it, before the
    losses of that estimate run.  Every loss scores that estimate, except
    that a loss whose spec adds the guard scores the guard of it, which is
    bit for bit that spec's estimate.  The truth, each sample covariance
    and each estimate travel as :class:`_Symmetric`, which the public
    kernels take as already validated: they are exactly symmetric by
    construction, so the cell validates nothing after its truth.  Each
    estimate is eigendecomposed at most once, by whichever of the PSD
    projection, the guard or a Bregman loss needs it first.
    """
    truth.root  # taken now, while the decomposition it is built from is held
    if all(loss.kind != "bregman" for loss in losses):
        del truth.eigen  # no loss reads it again; frees p x p for the replicates
    results = np.full((len(estimators), len(losses), replicates), np.nan)

    started = time.perf_counter()
    for ridx in range(replicates):
        # exactly symmetric as mle_covariance forms it, so it is not validated
        sample = _Symmetric(mle_covariance(sample_gaussian(truth, n, seed.substream(ridx))))
        for ei, est in enumerate(estimators):
            estimate = _apply_estimator(sample, est, n)
            if ei == len(estimators) - 1:
                del sample  # its last reader is done; not held through the losses
            for li, loss in enumerate(losses):
                # the guard reads the estimate's cached eigenvalues; when it
                # trips, its identity comes decomposed and lives for one loss
                scored = estimate if specs[ei][li] is est else _bregman_guard(estimate, n)
                try:
                    results[ei, li, ridx] = evaluate_loss(loss, scored, truth)
                except DomainError:
                    pass  # leaves nan; counted by run_grid
                del scored
            del estimate  # freed before the next estimate is built; keeps peak RSS down
    return results, time.perf_counter() - started


# ---------------------------------------------------------------------------
# rate fits


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log mean risk against log(log p / n)."""

    slope: float
    intercept: float
    r_squared: float
    cells: int
    target_exponent: float | None = None


def rate_fit(records, target_exponent: float | None = None) -> RateFit:
    """Regress log mean risk on log(log p / n) across cells.

    Raises
    ------
    DomainError
        With fewer than 3 cells, or when the regressor values log(p)/n span
        less than a factor of 4 end to end (too narrow to identify a slope).
    """
    recs = list(records)
    if len(recs) < 3:
        raise DomainError(f"rate fit needs at least 3 cells, got {len(recs)}")
    xlin = np.array([math.log(r.p) / r.n for r in recs])
    if float(np.max(xlin)) / float(np.min(xlin)) < 4.0:
        raise DomainError(
            "regressor spread below factor 4; widen the (n, p) grid"
        )
    if any(r.mean_risk <= 0.0 for r in recs):
        raise DomainError("mean risks must be positive for a log-log fit")
    x = np.log(xlin)
    y = np.log(np.array([r.mean_risk for r in recs]))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        cells=len(recs),
        target_exponent=target_exponent,
    )


# ---------------------------------------------------------------------------
# flat exports

# The flat CSV schema, in column order: each column's name and how a record
# fills it.  wall_time is left empty, so seeded reruns match byte for byte.
CSV_COLUMNS = (
    ("cell_id", attrgetter("cell_id")),
    ("n", attrgetter("n")),
    ("p", attrgetter("p")),
    ("q", attrgetter("q")),
    ("c", attrgetter("c")),
    ("rule", attrgetter("estimator.rule")),
    ("gamma", attrgetter("estimator.gamma")),
    ("loss_kind", attrgetter("loss.kind")),
    ("w_or_phi", attrgetter("loss.detail")),
    ("replicates", attrgetter("replicates")),
    ("mean_risk", attrgetter("mean_risk")),
    ("std_error", attrgetter("std_error")),
    ("seed", attrgetter("seed")),
    ("wall_time", lambda record: None),
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _export_format(path, losses) -> str:
    """The export format named after the last dot of ``path``'s file name,
    ``"csv"`` or ``"json"`` (``""`` if the name has no dot), checked against the losses the records carry, so a run can
    fail before it computes anything it could not write.

    Raises
    ------
    ValueError
        If the suffix names neither format.
    SchemaError
        If a CSV would mix loss kinds or normalizations.
    """
    name = os.path.basename(path)
    fmt = name.rpartition(".")[2].lower() if "." in name else ""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    schemas = {(loss.kind, loss.normalized) for loss in losses}
    if fmt == "csv" and len(schemas) > 1:
        raise SchemaError(
            f"mixed loss kinds {sorted(schemas)} cannot share one flat csv; "
            "export as json or split the record set"
        )
    return fmt


def export_records(records, path) -> None:
    """Write records as CSV (fixed flat schema) or JSON (full fidelity), as
    the file suffix says.  Nothing in the package reads them back.

    The CSV schema requires a homogeneous loss kind across records and keeps
    the wall_time column empty: timings vary run to run and would break the
    byte-identity guarantee for seeded reruns.  JSON carries everything.
    """
    recs = list(records)
    if _export_format(path, [r.loss for r in recs]) == "json":
        with open(path, "w") as fh:
            json.dump([r.to_json() for r in recs], fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in CSV_COLUMNS])
        for r in recs:
            writer.writerow([_fmt(value(r)) for _, value in CSV_COLUMNS])


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridResult:
    records: list
    fits: list


def _default_target(loss: LossSpec, q: float | None) -> float | None:
    if q is None:
        return None
    if loss.kind == "operator":
        return 1.0 - q
    if loss.kind == "frobenius-squared" or (
        loss.kind == "bregman" and loss.normalized
    ):
        return 1.0 - q / 2.0
    return None


def _cell_bytes(n: int, p: int, estimators, losses, replicates: int) -> int:
    """Peak bytes of one grid cell, the README's memory model: five float64
    matrices (the truth, its sampling root and a replicate's sample
    covariance, p x p each; the draw and its centred copy, n x p each) plus
    LAPACK's 2p^2 workspace while the truth is eigendecomposed, and the
    cell's (estimator, loss, replicate) array of losses, held throughout.

    A cell that eigendecomposes an estimate, for a correction or a Bregman
    loss, also holds the estimate's eigenvectors and ``_from_eigen``'s two
    temporaries, 3p^2 more.  A Bregman loss also keeps the truth's
    eigenvectors and builds ``bregman_divergence``'s overlap, slope and
    terms, 4p^2 more.  Every correction the grid adds is for a Bregman loss,
    so the estimators and losses as given decide both.
    """
    bregman = any(loss.kind == "bregman" for loss in losses)
    eigen = bregman or any(est.corrections for est in estimators)
    pairs = len(estimators) * len(losses)
    return 8 * ((5 + 3 * eigen + 4 * bregman) * p * p + 2 * n * p + pairs * replicates)


def _read_array(read, entries, where: str) -> tuple:
    """The JSON array ``entries``, each entry read by ``read`` and named by
    its index, such as ``losses[1]``, in every message: the reader's own
    checks take the name, and a value its spec refuses is re-raised with it.
    A :func:`_json_field` takes it with ``read`` bound by ``partial``."""
    if not isinstance(entries, list):
        raise SchemaError(f"{where} must be a JSON array, got {type(entries).__name__}")
    specs = []
    for i, entry in enumerate(entries):
        try:
            specs.append(read(entry, f"{where}[{i}]"))
        except ConfigError as exc:
            raise ConfigError(f"{where}[{i}]: {exc}") from exc
    return tuple(specs)


@dataclass(frozen=True)
class _Cell:
    """One (n, p) cell of a grid."""

    n: int = _json_field(_check_int)
    p: int = _json_field(_check_int)


@dataclass(frozen=True)
class _Grid:
    """A grid config as read, its fields not yet checked against each other."""

    truth: _Truth = _json_field(_read_truth)
    estimators: tuple = _json_field(partial(_read_array, EstimatorSpec.from_json), default=())
    losses: tuple = _json_field(partial(_read_array, LossSpec.from_json), default=())
    cells: tuple = _json_field(partial(_read_array, partial(_from_json, _Cell)), default=())
    replicates: int = _json_field(_check_int, default=0)
    seed: RngSeed = _json_field(RngSeed.parse, default=RngSeed(0))


def run_grid(config: dict) -> GridResult:
    """Run every (cell, estimator, loss) combination of a grid config.

    The config is read once, by :func:`_read_grid`, and run by
    :func:`_run_grid`.  The grid decides each (estimator, loss) pair's spec
    once, by :func:`_guarded`: a loss whose generator has a domain floor
    gets the bregman-guard correction added to its estimator when absent,
    since that loss is undefined on a singular estimate.  Each replicate's
    data draw and each estimate are shared by every estimator/loss
    combination of a cell, pairing the comparisons.

    Before the first cell runs: a key that no reader reads, or a value of
    the wrong type, raises SchemaError, but a ``seed`` or ``theta_seed``
    that :meth:`RngSeed.parse` cannot read raises ConfigError; a cell below n = 1 (n = 2 once a
    spec carries the guard) or p = 2 raises ConfigError, as do more
    replicates or cells than one seed has substreams; a largest cell whose
    :func:`_cell_bytes` exceeds physical memory raises BudgetError; and a
    truth that some cell cannot hold (see the ``at`` of its kind's
    dataclass) raises ConfigError naming the cell, such as ``cells[2]: …``.

    Each cell's :func:`_run_cell` losses become its records here, in
    (estimator, loss) order, as soon as the cell is done: a pair whose
    losses failed on more than ``FAILURE_RATE_LIMIT`` of the replicates
    raises DomainError before the next cell runs.
    """
    return _run_grid(_read_grid(config))


def _read_grid(config: dict) -> _Grid:
    """The grid config read field by field, each named by its path, such as
    ``cells[0].n``, ``truth.band`` or ``seed``; nothing is checked across
    fields yet."""
    return _from_json(_Grid, config, "", "grid config")


def _run_grid(grid: _Grid) -> GridResult:
    """:func:`run_grid` on a grid :func:`_read_grid` has read: the checks
    across its fields, then its cells."""
    estimators, losses, cells = grid.estimators, grid.losses, grid.cells
    replicates = grid.replicates
    if not estimators or not losses:
        raise ConfigError("grid config needs estimators and losses")
    # specs[ei][li] is estimators[ei] itself unless losses[li] adds the guard
    specs = [[_guarded(est, loss) for loss in losses] for est in estimators]
    guard = any("bregman-guard" in spec.corrections for row in specs for spec in row)
    if not cells:
        raise ConfigError("grid has no cells")
    # before the memory model reads them: a negative p is no large cell
    for i, cell in enumerate(cells):
        for key, value, least in (("n", cell.n, 2 if guard else 1), ("p", cell.p, 2)):
            if value < least:
                raise ConfigError(f"cells[{i}].{key} must be at least {least}, got {value}")
    if replicates < 1:
        raise ConfigError("grid config needs replicates >= 1")
    limit = 2**rng.SUBSTREAM_BITS - 1  # the indices seed.substream() takes
    for key, count in (("cells", len(cells)), ("replicates", replicates)):
        if count > limit:
            raise ConfigError(f"{key} must number at most {limit}, got {count}")
    big = max(cells, key=lambda cell: _cell_bytes(cell.n, cell.p, estimators, losses, replicates))
    need = _cell_bytes(big.n, big.p, estimators, losses, replicates)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise BudgetError(
            f"a cell at n = {big.n}, p = {big.p} needs about {need / 1e9:.3g} GB, "
            f"more than the {have / 1e9:.3g} GB of physical memory"
        )

    # every cell's truth is checked, and none built, before the first cell runs
    builders = []
    for ci, cell in enumerate(cells):
        try:
            builders.append(grid.truth.at(cell.n, cell.p))
        except ConfigError as exc:
            raise ConfigError(f"cells[{ci}]: {exc}") from exc

    records = []
    for ci, (cell, build) in enumerate(zip(cells, builders)):
        n, p = cell.n, cell.p
        sigma, q, c, label = build()
        truth = _symmetric(sigma)
        del sigma  # the cell holds the validated copy only
        seed = grid.seed.substream(ci)
        results, seconds = _run_cell(truth, estimators, specs, losses, n, replicates, seed)
        del truth  # nor beside the next cell's truth
        for ei, li in np.ndindex(results.shape[:2]):
            cell_id = f"cell-{ci:03d}-e{ei}-l{li}"
            good = results[ei, li][~np.isnan(results[ei, li])]
            failures = replicates - good.size
            if failures > FAILURE_RATE_LIMIT * replicates:
                raise DomainError(
                    f"cell {cell_id}: {failures}/{replicates} replicates failed the loss"
                )
            std_error = (
                float(np.std(good, ddof=1)) / math.sqrt(good.size) if good.size > 1 else 0.0
            )
            records.append(
                RiskRecord(
                    cell_id=cell_id,
                    model=label,
                    n=n,
                    p=p,
                    q=q,
                    c=c,
                    estimator=specs[ei][li],
                    loss=losses[li],
                    replicates=replicates,
                    mean_risk=float(np.mean(good)),
                    std_error=std_error,
                    median_risk=statistics.median(good.tolist()),  # np.median loads numpy.ma
                    failures=failures,
                    seed=seed,
                    wall_time=seconds,
                )
            )

    fits = []
    pairs = len(estimators) * len(losses)
    for ei, li in np.ndindex(len(estimators), len(losses)):
        group = records[ei * len(losses) + li :: pairs]
        # every truth kind fixes q for all cells of a grid
        target = _default_target(losses[li], group[0].q)
        entry = {"estimator": ei, "loss": li, "fit": None, "error": None}
        try:
            entry["fit"] = rate_fit(group, target_exponent=target)
        except DomainError as exc:
            entry["error"] = str(exc)
        fits.append(entry)
    return GridResult(records=records, fits=fits)
