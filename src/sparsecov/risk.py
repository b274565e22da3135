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
import itertools
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BudgetError, CellError, ConfigError, DomainError, FitError, SchemaError, _check_int,
    _check_keys, _check_real,
)
from .estimators import EstimatorSpec, _apply_estimator, _bregman_guard
from .losses import LossSpec, evaluate_loss
from .matrices import _Symmetric, _symmetric
from .model_spaces import (
    DEFAULT_UPSILON, _column_radii, build_config, materialize_sigma, sample_theta,
)
from .rng import RngSeed
from .sampling import mle_covariance, sample_gaussian

# A cell is declared failed when more than this fraction of replicates hit a
# loss domain error.
FAILURE_RATE_LIMIT = 0.01


# ---------------------------------------------------------------------------
# truth builders


def banded_sigma(p: int, band: int, value: float) -> np.ndarray:
    """Unit diagonal with a constant value on the first ``band`` off-diagonals."""
    if p < 2 or band < 0 or band >= p:
        raise ConfigError(f"invalid banded truth: p={p}, band={band}")
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


# The keys each truth kind reads, "kind" included.
_TRUTH_KEYS = {
    "identity": ("kind",),
    "banded": ("kind", "band", "scale"),
    "decay": ("kind", "amplitude", "exponent"),
    "fstar": ("kind", "q", "c", "upsilon", "theta_seed"),
}


def _finite(value, where: str) -> float:
    """``value`` as a float if it is a finite JSON number; else SchemaError
    or ConfigError naming ``where``."""
    real = _check_real(value, where)
    if not math.isfinite(real):
        raise ConfigError(f"{where} must be finite, got {real}")
    return real


def materialize_truth(spec: dict, n: int, p: int):
    """Build the truth covariance for one grid cell.

    Returns ``(sigma, q, c, label)`` where q and c describe the sparsity
    class the truth belongs to (None when not meaningful).  The keys each
    kind reads, besides ``kind`` (``_TRUTH_KEYS``; any other raises
    SchemaError):

    - ``identity``: none
    - ``banded``: the integer ``band``, and ``scale`` (default 1), the
      off-diagonal value in units of sqrt(log p / n)
    - ``decay``: ``amplitude`` and ``exponent`` > 1; q is 1/exponent and c
      is the realized maximal column weak-lq radius
    - ``fstar``: ``q``, ``c``, ``upsilon`` (default ``DEFAULT_UPSILON``) and
      the integer ``theta_seed`` (default 0) of a uniform member draw
    """
    kind = spec.get("kind")
    if kind in _TRUTH_KEYS:
        _check_keys(spec, _TRUTH_KEYS[kind], f"truth (kind {kind!r})")
    if kind == "identity":
        return np.eye(p), 0.0, None, "identity"
    if kind == "banded":
        band = _check_int(spec["band"], "truth.band")
        value = _finite(spec.get("scale", 1.0), "truth.scale") * math.sqrt(math.log(p) / n)
        sigma = banded_sigma(p, band, value)
        return sigma, 0.0, float(2 * band), f"banded(band={band},value={value:.6g})"
    if kind == "decay":
        amplitude = _finite(spec["amplitude"], "truth.amplitude")
        exponent = _finite(spec["exponent"], "truth.exponent")
        if not exponent > 1.0:
            raise ConfigError(f"truth.exponent must exceed 1, got {exponent}")
        sigma = toeplitz_decay_sigma(p, amplitude, exponent)
        q = 1.0 / exponent
        radius = np.max(_column_radii(sigma, q))
        return sigma, q, float(radius), f"decay(a={amplitude:.6g},e={exponent:.6g})"
    if kind == "fstar":
        cfg = build_config(
            p, n,
            _check_real(spec["q"], "truth.q"),
            _check_real(spec["c"], "truth.c"),
            _check_real(spec.get("upsilon", DEFAULT_UPSILON), "truth.upsilon"),
        )
        seed = RngSeed(_check_int(spec.get("theta_seed", 0), "truth.theta_seed"))
        sigma = materialize_sigma(cfg, sample_theta(cfg, seed))
        return sigma, cfg.q, cfg.c, f"fstar(q={cfg.q:.6g},c={cfg.c:.6g})"
    raise ConfigError(f"unknown truth kind {kind!r}")


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
        return {
            "cell_id": self.cell_id,
            "model": self.model,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "c": self.c,
            "estimator": self.estimator.to_json(),
            "loss": self.loss.to_json(),
            "replicates": self.replicates,
            "mean_risk": self.mean_risk,
            "std_error": self.std_error,
            "median_risk": self.median_risk,
            "failures": self.failures,
            "seed": str(self.seed),
            "wall_time": self.wall_time,
        }


def _guarded(est: EstimatorSpec, loss: LossSpec) -> EstimatorSpec:
    """Stein and von Neumann losses are undefined on a singular estimate, so
    a grid scores them with the bregman-guard correction appended."""
    if loss.phi not in ("stein", "von-neumann") or "bregman-guard" in est.corrections:
        return est
    return replace(est, corrections=est.corrections + ("bregman-guard",))


def _run_cell(
    truth: _Symmetric, estimators, losses, n, replicates, seed, *, index, model, q, c
) -> list[RiskRecord]:
    """The pipeline of grid cell ``index`` of :func:`run_grid`.

    The truth arrives validated and wrapped in a :class:`_Symmetric` by the
    caller, which hands it over: the cell neither copies it nor keeps any
    other copy.  It is eigendecomposed once; that decomposition gives both
    the square root the truth holds for sampling and the truth side of every
    Bregman loss, and is dropped after the root when no loss reads it.
    Replicate r draws once from ``seed.substream(r)`` with that root, and
    applies each estimator once to its sample covariance, which the cell
    owns and releases after the last estimator has read it, before the
    losses of that estimate run.  Every loss scores that estimate, except
    that Stein and von Neumann losses score the guard of it, which is bit
    for bit the :func:`_guarded` spec.  The truth, each sample covariance
    and each estimate travel as :class:`_Symmetric`, which the public
    kernels take as already validated: they are exactly symmetric by
    construction, so the cell validates nothing after its truth.  Each
    estimate is eigendecomposed at most once, by whichever of the PSD
    projection, the guard or a Bregman loss needs it first.  Records come in
    (estimator, loss) order.
    """
    truth.root  # taken now, while the decomposition it is built from is held
    if all(loss.kind != "bregman" for loss in losses):
        del truth.eigen  # no loss reads it again; frees p x p for the replicates
    # specs[ei][li] is estimators[ei] itself unless the loss adds the guard
    specs = [[_guarded(est, loss) for loss in losses] for est in estimators]
    results = np.full((len(estimators), len(losses), replicates), np.nan)

    started = time.perf_counter()
    for ridx in range(replicates):
        # exactly symmetric as mle_covariance forms it, so it is not validated
        sample = _Symmetric(mle_covariance(sample_gaussian(truth, n, seed.substream(ridx))))
        for ei, est in enumerate(estimators):
            estimate = _apply_estimator(sample, est, n)
            if ei == len(estimators) - 1:
                del sample  # its last reader is done; not held through the losses
            guarded = None
            for li, loss in enumerate(losses):
                if specs[ei][li] is not est and guarded is None:
                    guarded = _bregman_guard(estimate, n)  # once, on demand
                try:
                    results[ei, li, ridx] = evaluate_loss(
                        loss, estimate if specs[ei][li] is est else guarded, truth
                    )
                except DomainError:
                    pass  # leaves nan; counted below
            # free both before the next estimate is built; keeps peak RSS down
            del estimate, guarded
    elapsed = time.perf_counter() - started

    records = []
    for ei, li in itertools.product(range(len(estimators)), range(len(losses))):
        cell_id = f"cell-{index:03d}-e{ei}-l{li}"
        good = results[ei, li][~np.isnan(results[ei, li])]
        failures = replicates - good.size
        if failures > FAILURE_RATE_LIMIT * replicates:
            raise CellError(
                f"cell {cell_id}: {failures}/{replicates} replicates failed the loss"
            )
        std_error = (
            float(np.std(good, ddof=1)) / math.sqrt(good.size) if good.size > 1 else 0.0
        )
        records.append(
            RiskRecord(
                cell_id=cell_id,
                model=model,
                n=n,
                p=truth.matrix.shape[0],
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
                wall_time=elapsed,
            )
        )
    return records


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
    FitError
        With fewer than 3 cells, or when the regressor values log(p)/n span
        less than a factor of 4 end to end (too narrow to identify a slope).
    """
    recs = list(records)
    if len(recs) < 3:
        raise FitError(f"rate fit needs at least 3 cells, got {len(recs)}")
    xlin = np.array([math.log(r.p) / r.n for r in recs])
    if float(np.max(xlin)) / float(np.min(xlin)) < 4.0:
        raise FitError(
            "regressor spread below factor 4; widen the (n, p) grid"
        )
    if any(r.mean_risk <= 0.0 for r in recs):
        raise FitError("mean risks must be positive for a log-log fit")
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

CSV_COLUMNS = (
    "cell_id",
    "n",
    "p",
    "q",
    "c",
    "rule",
    "gamma",
    "loss_kind",
    "w_or_phi",
    "replicates",
    "mean_risk",
    "std_error",
    "seed",
    "wall_time",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _export_format(path, losses) -> str:
    """The export format the suffix of ``path`` names, ``"csv"`` or
    ``"json"``, checked against the losses the records carry, so a run can
    fail before it computes anything it could not write.

    Raises
    ------
    ValueError
        If the suffix names neither format.
    SchemaError
        If a CSV would mix loss kinds or normalizations.
    """
    fmt = str(path).rsplit(".", 1)[-1].lower()
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
        writer.writerow(CSV_COLUMNS)
        for r in recs:
            writer.writerow(
                [
                    r.cell_id,
                    r.n,
                    r.p,
                    _fmt(r.q),
                    _fmt(r.c),
                    r.estimator.rule,
                    _fmt(r.estimator.gamma),
                    r.loss.kind,
                    r.loss.detail,
                    r.replicates,
                    _fmt(r.mean_risk),
                    _fmt(r.std_error),
                    str(r.seed),
                    "",
                ]
            )


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridResult:
    records: list
    fits: list


def _grid_cells(config: dict, min_n: int) -> list[tuple[int, int]]:
    """The grid's (n, p) cells, each refused before any cell runs unless
    n >= ``min_n`` and p >= 2, the least the threshold level takes."""
    cells = config.get("cells")
    if not cells:
        raise ConfigError("grid has no cells")
    if not isinstance(cells, list):
        raise SchemaError(f"cells must be a JSON array, got {type(cells).__name__}")
    for i, cell in enumerate(cells):
        _check_keys(cell, ("n", "p"), f"cells[{i}]")
    sizes = [
        (_check_int(cell["n"], f"cells[{i}].n"), _check_int(cell["p"], f"cells[{i}].p"))
        for i, cell in enumerate(cells)
    ]
    # before the memory model reads them: a negative p is no large cell
    for i, (n, p) in enumerate(sizes):
        for key, value, least in (("n", n, min_n), ("p", p, 2)):
            if value < least:
                raise ConfigError(f"cells[{i}].{key} must be at least {least}, got {value}")
    return sizes


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


def _grid_specs(config: dict, key: str, reader) -> list:
    """The grid's ``key`` array, each entry read by ``reader`` and named by
    its index, such as ``losses[1]``, in every message: the reader's own
    checks take the name, and a value its spec refuses is re-raised with it."""
    entries = config.get(key, [])
    if not isinstance(entries, list):
        raise SchemaError(f"{key} must be a JSON array, got {type(entries).__name__}")
    specs = []
    for i, entry in enumerate(entries):
        where = f"{key}[{i}]"
        try:
            specs.append(reader(entry, where))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return specs


def _cell_bytes(n: int, p: int, estimators, losses) -> int:
    """Peak bytes of one grid cell, the README's memory model: five float64
    matrices (the truth, its sampling root and a replicate's sample
    covariance, p x p each; the draw and its centred copy, n x p each) plus
    LAPACK's 2p^2 workspace while the truth is eigendecomposed.

    A cell that eigendecomposes an estimate, for a correction or a Bregman
    loss, also holds the estimate's eigenvectors and ``_from_eigen``'s two
    temporaries, 3p^2 more.  A Bregman loss also keeps the truth's
    eigenvectors and builds ``bregman_divergence``'s overlap, slope and
    terms, 4p^2 more.  Every correction the grid adds is for a Bregman loss,
    so the estimators and losses as given decide both.
    """
    bregman = any(loss.kind == "bregman" for loss in losses)
    eigen = bregman or any(est.corrections for est in estimators)
    return 8 * ((5 + 3 * eigen + 4 * bregman) * p * p + 2 * n * p)


_GRID_KEYS = ("cells", "truth", "estimators", "losses", "replicates", "seed")


def _grid_seed(value) -> RngSeed:
    """The grid's master seed: an integer, or a "seed" or "seed:stream" string."""
    try:
        return RngSeed.parse(value) if isinstance(value, str) else RngSeed(_check_int(value, "seed"))
    except ValueError as exc:
        raise SchemaError(
            f"seed must be an integer or a 'seed' or 'seed:stream' string, got {value!r}"
        ) from exc


def run_grid(config: dict) -> GridResult:
    """Run every (cell, estimator, loss) combination of a grid config.

    Stein and von Neumann loss cells get the bregman-guard correction added
    to their estimator when absent, since those losses are undefined on a
    singular estimate.  Each replicate's data draw and each estimate are
    shared by every estimator/loss combination of a cell, pairing the
    comparisons.  A key that no reader reads raises SchemaError, a cell too
    small for its specs (see :func:`_grid_cells`) raises ConfigError, and a
    largest cell whose :func:`_cell_bytes` exceeds physical memory raises
    BudgetError, all before the first cell runs.
    """
    _check_keys(config, _GRID_KEYS, "grid config")
    truth_spec = config.get("truth")
    if not truth_spec:
        raise ConfigError("grid config needs a 'truth' entry")
    if not isinstance(truth_spec, dict):
        raise SchemaError(
            f"truth must be a JSON object, got {type(truth_spec).__name__}"
        )
    estimators = _grid_specs(config, "estimators", EstimatorSpec.from_json)
    losses = _grid_specs(config, "losses", LossSpec.from_json)
    if not estimators or not losses:
        raise ConfigError("grid config needs estimators and losses")
    guard = any(
        "bregman-guard" in _guarded(est, loss).corrections
        for est in estimators for loss in losses
    )
    cells = _grid_cells(config, min_n=2 if guard else 1)
    replicates = _check_int(config.get("replicates", 0), "replicates")
    if replicates < 1:
        raise ConfigError("grid config needs replicates >= 1")
    master = _grid_seed(config.get("seed", 0))
    n, p = max(cells, key=lambda cell: _cell_bytes(*cell, estimators, losses))
    need = _cell_bytes(n, p, estimators, losses)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise BudgetError(
            f"a cell at n = {n}, p = {p} needs about {need / 1e9:.3g} GB, "
            f"more than the {have / 1e9:.3g} GB of physical memory"
        )

    records = []
    for ci, (n, p) in enumerate(cells):
        sigma, q, c, label = materialize_truth(truth_spec, n, p)
        truth = _symmetric(sigma)
        del sigma  # the cell holds the validated copy only
        records += _run_cell(
            truth, estimators, losses, n, replicates, master.substream(ci),
            index=ci, model=label, q=q, c=c,
        )
        del truth  # nor beside the next cell's truth

    fits = []
    n_est = len(estimators)
    n_loss = len(losses)
    for ei in range(n_est):
        for li in range(n_loss):
            group = records[ei * n_loss + li :: n_est * n_loss]
            qs = {r.q for r in group}
            target = _default_target(losses[li], qs.pop() if len(qs) == 1 else None)
            entry = {"estimator": ei, "loss": li, "fit": None, "error": None}
            try:
                entry["fit"] = rate_fit(group, target_exponent=target)
            except FitError as exc:
                entry["error"] = str(exc)
            fits.append(entry)
    return GridResult(records=records, fits=fits)
