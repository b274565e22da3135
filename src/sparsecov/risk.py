"""Monte Carlo risk harness: truth builders, cells, grids, and rate fits.

Determinism contract: replicates run in order, replicate r of a cell drawing
from ``seed.substream(r)``, so seeded results are byte-identical for a fixed
numpy/BLAS build and BLAS thread count; ``OPENBLAS_NUM_THREADS`` changes them.
Each replicate is drawn once and scored by every estimator/loss pair of its cell.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import CellError, ConfigError, DomainError, FitError, SchemaError
from .estimators import EstimatorSpec, _apply_estimator, _bregman_guard
from .losses import LossSpec, _evaluate, resolve_phi
from .matrices import _Symmetric, as_symmetric
from .model_spaces import ThetaIndex, build_config, materialize_sigma, sample_theta, weak_lq_radius
from .rng import RngSeed
from .sampling import _sqrt_psd, mle_covariance, sample_gaussian

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


def materialize_truth(spec: dict, n: int, p: int):
    """Build the truth covariance for one grid cell.

    Returns ``(sigma, q, c, label)`` where q and c describe the sparsity
    class the truth belongs to (None when not meaningful).  Supported kinds:

    - ``identity``
    - ``banded``: params ``band`` plus either absolute ``value`` or ``scale``
      multiplying sqrt(log p / n)
    - ``decay``: params ``amplitude`` and ``exponent``; q is 1/exponent and c
      is the realized maximal column weak-lq radius
    - ``fstar``: params ``q``, ``c``, ``upsilon`` and either ``theta``
      (serialized index) or ``theta_seed`` for a uniform draw
    """
    kind = spec.get("kind")
    if kind == "identity":
        return np.eye(p), 0.0, None, "identity"
    if kind == "banded":
        band = int(spec["band"])
        if "value" in spec:
            value = float(spec["value"])
        else:
            value = float(spec.get("scale", 1.0)) * math.sqrt(math.log(p) / n)
        sigma = banded_sigma(p, band, value)
        return sigma, 0.0, float(2 * band), f"banded(band={band},value={value:.6g})"
    if kind == "decay":
        amplitude = float(spec["amplitude"])
        exponent = float(spec["exponent"])
        sigma = toeplitz_decay_sigma(p, amplitude, exponent)
        q = 1.0 / exponent
        radius = max(
            weak_lq_radius(np.delete(sigma[:, j], j), q) for j in range(p)
        )
        return sigma, q, float(radius), f"decay(a={amplitude:.6g},e={exponent:.6g})"
    if kind == "fstar":
        cfg = build_config(
            p, n, float(spec["q"]), float(spec["c"]), float(spec.get("upsilon", 0.1))
        )
        if "theta" in spec:
            theta = ThetaIndex.from_json(spec["theta"])
        else:
            theta = sample_theta(cfg, RngSeed(int(spec.get("theta_seed", 0))))
        sigma = materialize_sigma(cfg, theta)
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

    @classmethod
    def from_json(cls, obj: dict) -> "RiskRecord":
        return cls(
            cell_id=obj["cell_id"],
            model=obj.get("model", ""),
            n=int(obj["n"]),
            p=int(obj["p"]),
            q=None if obj.get("q") is None else float(obj["q"]),
            c=None if obj.get("c") is None else float(obj["c"]),
            estimator=EstimatorSpec.from_json(obj["estimator"]),
            loss=LossSpec.from_json(obj["loss"]),
            replicates=int(obj["replicates"]),
            mean_risk=float(obj["mean_risk"]),
            std_error=float(obj["std_error"]),
            median_risk=float(obj["median_risk"]),
            failures=int(obj.get("failures", 0)),
            seed=RngSeed.parse(obj["seed"]),
            wall_time=float(obj.get("wall_time", 0.0)),
        )


def run_risk_cell(
    sigma,
    estimator: EstimatorSpec,
    loss: LossSpec,
    n: int,
    replicates: int,
    seed: RngSeed,
    *,
    cell_id: str = "cell",
    model: str = "explicit",
    q: float | None = None,
    c: float | None = None,
) -> RiskRecord:
    """Estimate the risk of an estimator at one truth by seeded replication.

    Each replicate samples n rows, forms the sample covariance, applies the
    estimator, and evaluates the loss against the truth.  Loss domain errors
    are counted as failures; the cell errors out above
    ``FAILURE_RATE_LIMIT``.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    (record,) = _run_cell(
        sigma, [estimator], [loss], n, replicates, seed,
        guard=False, name=lambda ei, li: cell_id, model=model, q=q, c=c,
    )
    return record


def _guarded(est: EstimatorSpec, loss: LossSpec) -> EstimatorSpec:
    """Stein and von Neumann losses are undefined on a singular estimate, so
    a grid scores them with the bregman-guard correction appended."""
    spectral = loss.kind == "bregman" and resolve_phi(loss.phi).name in ("stein", "von-neumann")
    if not spectral or "bregman-guard" in est.corrections:
        return est
    return replace(est, corrections=est.corrections + ("bregman-guard",))


def _run_cell(
    sigma, estimators, losses, n, replicates, seed, *, guard, name, model, q, c
) -> list[RiskRecord]:
    """The cell pipeline behind :func:`run_risk_cell` and :func:`run_grid`.

    The truth is the one input validated here.  It is wrapped in a
    :class:`_Symmetric` and eigendecomposed once; that decomposition gives
    both the sampling square root and the truth side of every Bregman loss.
    Replicate r draws once from ``seed.substream(r)`` and applies each
    estimator once to its sample covariance.  Every loss scores that
    estimate; with ``guard`` set, Stein and von Neumann losses score the
    guard of it, which is bit for bit the :func:`_guarded` spec.  The
    estimator and loss kernels trust these matrices, which are exactly
    symmetric by construction, and each estimate is eigendecomposed at most
    once, by whichever of the PSD projection, the guard or a Bregman loss
    needs it first.  Records come in (estimator, loss) order.
    """
    truth = _Symmetric(as_symmetric(sigma))
    mat = truth.matrix
    root = _sqrt_psd(truth.eigen)
    if all(loss.kind != "bregman" for loss in losses):
        del truth.eigen  # no loss reads it again; frees p x p for the replicates
    # specs[ei][li] is estimators[ei] itself unless the loss adds the guard
    specs = [[_guarded(est, loss) if guard else est for loss in losses] for est in estimators]
    results = np.full((len(estimators), len(losses), replicates), np.nan)

    started = time.perf_counter()
    for ridx in range(replicates):
        sample = mle_covariance(sample_gaussian(mat, n, seed.substream(ridx), sqrt_factor=root))
        for ei, est in enumerate(estimators):
            estimate = _apply_estimator(sample, est, n)
            guarded = None
            for li, loss in enumerate(losses):
                if specs[ei][li] is not est and guarded is None:
                    guarded = _bregman_guard(estimate, n)  # once, on demand
                try:
                    results[ei, li, ridx] = _evaluate(
                        loss, estimate if specs[ei][li] is est else guarded, truth
                    )
                except DomainError:
                    pass  # leaves nan; counted below
            # free both before the next estimate is built; keeps peak RSS down
            del estimate, guarded
    elapsed = time.perf_counter() - started

    records = []
    for ei, li in itertools.product(range(len(estimators)), range(len(losses))):
        good = results[ei, li][~np.isnan(results[ei, li])]
        failures = replicates - good.size
        if failures > FAILURE_RATE_LIMIT * replicates:
            raise CellError(
                f"cell {name(ei, li)}: {failures}/{replicates} replicates failed the loss"
            )
        std_error = (
            float(np.std(good, ddof=1)) / math.sqrt(good.size) if good.size > 1 else 0.0
        )
        records.append(
            RiskRecord(
                cell_id=name(ei, li),
                model=model,
                n=n,
                p=mat.shape[0],
                q=q,
                c=c,
                estimator=specs[ei][li],
                loss=losses[li],
                replicates=replicates,
                mean_risk=float(np.mean(good)),
                std_error=std_error,
                median_risk=float(np.median(good)),
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


def export_records(records, path, fmt: str | None = None) -> None:
    """Write records as CSV (fixed flat schema) or JSON (full fidelity).

    The CSV schema requires a homogeneous loss kind across records and keeps
    the wall_time column empty: timings vary run to run and would break the
    byte-identity guarantee for seeded reruns.  JSON carries everything.
    """
    recs = list(records)
    fmt = fmt or str(path).rsplit(".", 1)[-1].lower()
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump([r.to_json() for r in recs], fh, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown export format {fmt!r}")
    schemas = {(r.loss.kind, r.loss.normalized) for r in recs}
    if len(schemas) > 1:
        raise SchemaError(
            f"mixed loss kinds {sorted(schemas)} cannot share one flat csv; "
            "export as json or split the record set"
        )
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


def import_records(path, fmt: str | None = None) -> list[RiskRecord]:
    """Read records back; CSV restores the flat fields, JSON everything."""
    fmt = fmt or str(path).rsplit(".", 1)[-1].lower()
    if fmt == "json":
        with open(path) as fh:
            return [RiskRecord.from_json(obj) for obj in json.load(fh)]
    if fmt != "csv":
        raise ValueError(f"unknown import format {fmt!r}")
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise SchemaError(f"unexpected csv columns {reader.fieldnames}")
        for row in reader:
            loss_kind = row["loss_kind"]
            detail = row["w_or_phi"]
            if loss_kind == "operator":
                loss = LossSpec(
                    kind="operator", w=math.inf if detail == "inf" else int(detail)
                )
            elif loss_kind == "bregman":
                loss = LossSpec(kind="bregman", w=None, phi=detail)
            else:
                loss = LossSpec(kind=loss_kind, w=None)
            out.append(
                RiskRecord(
                    cell_id=row["cell_id"],
                    model="",
                    n=int(row["n"]),
                    p=int(row["p"]),
                    q=float(row["q"]) if row["q"] else None,
                    c=float(row["c"]) if row["c"] else None,
                    estimator=EstimatorSpec(
                        rule=row["rule"], gamma=float(row["gamma"])
                    ),
                    loss=loss,
                    replicates=int(row["replicates"]),
                    mean_risk=float(row["mean_risk"]),
                    std_error=float(row["std_error"]),
                    median_risk=math.nan,
                    failures=0,
                    seed=RngSeed.parse(row["seed"]),
                    wall_time=float(row["wall_time"]) if row["wall_time"] else math.nan,
                )
            )
    return out


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridResult:
    records: list
    fits: list


def _grid_cells(config: dict) -> list[tuple[int, int]]:
    if "cells" in config:
        cells = [(int(c["n"]), int(c["p"])) for c in config["cells"]]
    else:
        ns = [int(v) for v in config.get("n", [])]
        ps = [int(v) for v in config.get("p", [])]
        if len(ns) != len(ps):
            raise ConfigError("n and p arrays must have equal length")
        cells = list(zip(ns, ps))
    if not cells:
        raise ConfigError("grid has no cells")
    return cells


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


def run_grid(config: dict) -> GridResult:
    """Run every (cell, estimator, loss) combination of a grid config.

    Stein and von Neumann loss cells get the bregman-guard correction added
    to their estimator when absent, since those losses are undefined on a
    singular estimate.  Each replicate's data draw and each estimate are
    shared by every estimator/loss combination of a cell, pairing the
    comparisons.
    """
    cells = _grid_cells(config)
    truth_spec = config.get("truth")
    if not truth_spec:
        raise ConfigError("grid config needs a 'truth' entry")
    estimators = [EstimatorSpec.from_json(e) for e in config.get("estimators", [])]
    losses = [LossSpec.from_json(l) for l in config.get("losses", [])]
    if not estimators or not losses:
        raise ConfigError("grid config needs estimators and losses")
    replicates = int(config.get("replicates", 0))
    if replicates < 1:
        raise ConfigError("grid config needs replicates >= 1")
    master = RngSeed.parse(str(config.get("seed", 0)))

    records = []
    for ci, (n, p) in enumerate(cells):
        sigma, q, c, label = materialize_truth(truth_spec, n, p)
        records += _run_cell(
            sigma, estimators, losses, n, replicates, master.substream(ci),
            guard=True, name=lambda ei, li: f"cell-{ci:03d}-e{ei}-l{li}",
            model=label, q=q, c=c,
        )

    fits = []
    n_est = len(estimators)
    n_loss = len(losses)
    for ei in range(n_est):
        for li in range(n_loss):
            group = records[ei * n_loss + li :: n_est * n_loss]
            target = config.get("target_exponent")
            if target is None:
                qs = {r.q for r in group}
                target = _default_target(losses[li], qs.pop() if len(qs) == 1 else None)
            entry = {"estimator": ei, "loss": li, "fit": None, "error": None}
            try:
                entry["fit"] = rate_fit(group, target_exponent=target)
            except FitError as exc:
                entry["error"] = str(exc)
            fits.append(entry)
    return GridResult(records=records, fits=fits)
