import csv
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sparsecov
import sparsecov.matrices as matrices_module
import sparsecov.risk as risk_module
from sparsecov.errors import ConfigError, DomainError, SchemaError
from sparsecov.estimators import EstimatorSpec
from sparsecov.losses import LossSpec
from sparsecov.risk import (
    _TRUTHS,
    RiskRecord,
    _Cell,
    _Grid,
    _cell_bytes,
    _run_cell,
    banded_sigma,
    export_records,
    materialize_truth,
    rate_fit,
    run_grid,
    toeplitz_decay_sigma,
)
from sparsecov.rng import RngSeed
from sparsecov.sampling import mle_covariance, sample_gaussian
from sparsecov.estimators import apply_estimator, bregman_guard, psd_project, threshold_estimate
from sparsecov.losses import _GENERATORS, bregman_divergence, evaluate_loss
from sparsecov.matrices import _Symmetric, _sym_eigen, as_symmetric, operator_norm
from sparsecov.sampling import sqrt_psd


HARD = EstimatorSpec(rule="hard", gamma=2.0)
OP2 = LossSpec(kind="operator", w=2)


def test_banded_sigma_layout():
    s = banded_sigma(6, 2, 0.1)
    assert s[0, 1] == 0.1 and s[0, 2] == 0.1 and s[0, 3] == 0.0
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == 1.0)
    with pytest.raises(ConfigError):
        banded_sigma(4, 4, 0.1)


def test_toeplitz_decay_layout():
    s = toeplitz_decay_sigma(5, 0.3, 2.0)
    assert s[0, 0] == 1.0
    assert abs(s[0, 2] - 0.3 / 4.0) < 1e-15
    assert abs(s[1, 4] - 0.3 / 9.0) < 1e-15


@pytest.mark.parametrize(
    "p, radius",
    [(20, "0x1.186f174f88472p+0"), (100, "0x1.186f174f88473p+0"),
     (800, "0x1.186f174f88473p+0")],
)
def test_decay_truth_radius_keeps_the_per_column_loop_bits(p, radius):
    # the radii are those of a loop that deletes each column's diagonal entry
    # and measures the column alone, the route the column-wise kernel replaced
    spec = {"kind": "decay", "amplitude": 0.3, "exponent": 2.0}
    sigma, q, c, label = materialize_truth(spec, p, p)
    assert np.array_equal(sigma, toeplitz_decay_sigma(p, 0.3, 2.0))
    assert q == 0.5 and label == "decay(a=0.3,e=2)"
    assert c == float.fromhex(radius)


def test_materialize_truth_kinds():
    s, q, c, _ = materialize_truth({"kind": "banded", "band": 2, "scale": 1.0}, 400, 100)
    assert q == 0.0 and c == 4.0
    assert abs(s[0, 1] - math.sqrt(math.log(100) / 400)) < 1e-15
    # a banded truth's strength has one key, scale
    with pytest.raises(SchemaError, match="unknown key 'value' in truth"):
        materialize_truth({"kind": "banded", "band": 2, "value": 0.3}, 400, 100)
    s, q, c, _ = materialize_truth(
        {"kind": "decay", "amplitude": 0.3, "exponent": 2.0}, 100, 40
    )
    assert q == 0.5
    assert abs(c - math.sqrt(1.2)) < 1e-9  # k * (a (2/k)^2)^q is flat in k
    s, q, c, _ = materialize_truth(
        {"kind": "fstar", "q": 0, "c": 4, "upsilon": 0.1, "theta_seed": 3}, 20, 100
    )
    assert s.shape == (100, 100)
    _, q, c, label = materialize_truth({"kind": "identity"}, 10, 7)
    assert label == "identity" and c is None
    with pytest.raises(ConfigError):
        materialize_truth({"kind": "wishart"}, 10, 7)


GUARDED = EstimatorSpec(rule="hard", gamma=2.0, corrections=("bregman-guard",))
STEIN = LossSpec(kind="bregman", w=None, phi="stein", normalized=True)
VON_NEUMANN = LossSpec(kind="bregman", w=None, phi="von-neumann")


@pytest.mark.parametrize(
    "spec, loss",
    [(HARD, OP2), (GUARDED, STEIN), (GUARDED, VON_NEUMANN)],
    ids=["operator", "stein", "von-neumann"],
)
def test_cell_matches_hand_rolled_loop(spec, loss):
    # public evaluate_loss decomposes the truth afresh on every call, so it is
    # an independent oracle for the pipeline's once-per-cell decomposition
    cfg = grid_config(
        cells=[{"n": 50, "p": 10}], truth={"kind": "banded", "band": 1, "scale": 1.4},
        estimators=[spec.to_json()], losses=[loss.to_json()], replicates=8, seed=21,
    )
    (rec,) = run_grid(cfg).records
    sigma = materialize_truth(cfg["truth"], 50, 10)[0]
    seed = RngSeed(21).substream(0)  # the grid's cell 0
    values = []
    for r in range(8):
        x = sample_gaussian(sigma, 50, seed.substream(r))
        est = apply_estimator(mle_covariance(x), spec, 50)
        values.append(evaluate_loss(loss, est, sigma))
    assert rec.failures == 0
    assert rec.mean_risk == float(np.mean(values))
    assert rec.median_risk == float(np.median(values))


def replayed_corrections(cfg):
    """(clips, trips) of a guarded grid, replayed through the public API.

    clips counts PSD projections that moved their input, trips counts
    guards that returned the identity.
    """
    master = RngSeed.parse(cfg["seed"])
    clips = trips = 0
    for ci, cell in enumerate(cfg["cells"]):
        n, p = cell["n"], cell["p"]
        sigma = materialize_truth(cfg["truth"], n, p)[0]
        for r in range(cfg["replicates"]):
            sample = mle_covariance(sample_gaussian(sigma, n, master.substream(ci).substream(r)))
            for obj in cfg["estimators"]:
                spec = EstimatorSpec.from_json(obj)
                est = threshold_estimate(sample, spec, n)
                if "psd-project" in spec.corrections:
                    projected = psd_project(est)
                    clips += not np.array_equal(projected, est)
                    est = projected
                trips += np.array_equal(bregman_guard(est, n), np.eye(p))
    return clips, trips


def test_truth_is_decomposed_once_per_cell(monkeypatch):
    seen = []

    def counting(mat):
        seen.append(mat.copy())
        return _sym_eigen(mat)

    cfg = grid_config(
        estimators=[{"rule": "hard", "gamma": 2.0}, {"rule": "soft", "gamma": 2.0}],
        losses=[{"kind": "operator", "w": 2}, STEIN.to_json(), VON_NEUMANN.to_json()],
        cells=[{"n": 60, "p": 20}, {"n": 120, "p": 40}],
        replicates=5,
    )
    _, trips = replayed_corrections(cfg)
    assert trips > 0
    monkeypatch.setattr(matrices_module, "_sym_eigen", counting)
    run_grid(cfg)
    for n, p in [(60, 20), (120, 40)]:
        sigma = materialize_truth(cfg["truth"], n, p)[0]
        hits = sum(m.shape == sigma.shape and np.array_equal(m, sigma) for m in seen)
        assert hits == 1  # the sampling root and the losses share it
    # 2 truths and one per estimate (2 cells x 5 replicates x 2 estimators);
    # the identity a tripped guard puts in its estimate's place comes decomposed
    assert len(seen) == 2 + 2 * 5 * 2


def test_truth_roots_once_per_cell(monkeypatch):
    # every replicate draws from the root its cell's truth holds
    roots = []
    root = _Symmetric.root.func

    def counting(self):
        roots.append(self.matrix.copy())
        return root(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(_Symmetric, "root")
    monkeypatch.setattr(_Symmetric, "root", prop)
    cfg = grid_config(
        estimators=[{"rule": "hard", "gamma": 2.0}, {"rule": "soft", "gamma": 2.0}],
        losses=[{"kind": "operator", "w": 2}, STEIN.to_json()],
        cells=[{"n": 60, "p": 20}, {"n": 120, "p": 40}],
        replicates=4,
    )
    run_grid(cfg)
    truths = [materialize_truth(cfg["truth"], n, p)[0] for n, p in [(60, 20), (120, 40)]]
    assert len(roots) == 2
    assert all(np.array_equal(r, t) for r, t in zip(roots, truths))


def test_grid_validates_once_per_cell_and_kernels_take_either_carrier(monkeypatch):
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return as_symmetric(a)

    # every module that binds the name, so a second validation path cannot hide
    for name in ("matrices", "sampling", "estimators", "losses", "risk"):
        module = getattr(sparsecov, name)
        if hasattr(module, "as_symmetric"):
            monkeypatch.setattr(module, "as_symmetric", counting)
    cfg = grid_config(
        estimators=[{"rule": "soft", "gamma": 1.0, "corrections": ["psd-project"]}],
        losses=[STEIN.to_json(), OP2.to_json()],
        cells=[{"n": 15, "p": 20}, {"n": 60, "p": 40}],
        replicates=3,
    )
    run_grid(cfg)
    assert calls == [(20, 20), (40, 40)]  # each cell's truth, never a replicate's matrix

    sigma = banded_sigma(20, 2, 0.2)
    sample = mle_covariance(sample_gaussian(sigma, 60, RngSeed(8)))
    spec = EstimatorSpec(rule="hard", gamma=1.0)

    def outputs(s, t):
        values = [operator_norm(s, w) for w in (1, 2, np.inf)]
        values += [bregman_divergence(s, t, "stein")]
        values += [evaluate_loss(loss, s, t) for loss in (OP2, STEIN, VON_NEUMANN)]
        arrays = [sqrt_psd(s), threshold_estimate(s, spec, 60)]
        return [v.hex() for v in values] + [a.tobytes() for a in arrays]

    plain = outputs(sample, sigma)
    del calls[:]
    assert outputs(_Symmetric(sample), _Symmetric(sigma)) == plain
    assert calls == []  # a carried matrix is never validated again


def test_each_estimate_is_decomposed_once(monkeypatch):
    cfg = grid_config(
        estimators=[
            {"rule": "hard", "gamma": 2.0},
            {"rule": "adaptive-lasso", "gamma": 2.0, "corrections": ["psd-project"]},
        ],
        losses=[{"kind": "operator", "w": 2}, STEIN.to_json(), VON_NEUMANN.to_json()],
        # n < p in the first cell, so some projections clip and some guards trip
        cells=[{"n": 15, "p": 20}, {"n": 60, "p": 40}],
        replicates=5,
    )
    clips, trips = replayed_corrections(cfg)
    assert clips > 0 and trips > 0
    eigh_calls = []
    eigvalsh_callers = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting_eigh(a, *args, **kwargs):
        eigh_calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        eigvalsh_callers.append(sys._getframe(1).f_globals["__name__"])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    run_grid(cfg)
    # 2 truths; one per estimate (2 cells x 5 replicates x 2 estimators),
    # shared by the PSD projection, the guard and both Bregman losses; and one
    # per projection that clipped, since its output is a new matrix.  The
    # identity a tripped guard puts in its estimate's place costs none.
    assert len(eigh_calls) == 2 + 2 * 5 * 2 + clips
    # the operator loss is the only spectral work left outside the cache
    assert eigvalsh_callers == ["sparsecov.matrices"] * (2 * 5 * 2)


@pytest.mark.parametrize("coupling", [1.0, 1.0 - 1e-13], ids=["singular", "below-floor"])
def test_truth_outside_the_domain_fails_the_cell(monkeypatch, coupling):
    # PSD with smallest eigenvalue 1 - coupling, below the domain floor:
    # sampling works, the Stein loss is undefined at the truth
    sigma = np.eye(6)
    sigma[0, 1] = sigma[1, 0] = coupling
    with pytest.raises(DomainError, match="second argument"):
        evaluate_loss(STEIN, np.eye(6), sigma)

    # no truth kind builds it, so the identity's builder is swapped for one that does
    def near_singular(self, n, p):
        return lambda: (sigma, None, None, "near-singular")

    monkeypatch.setattr(risk_module._Identity, "at", near_singular)
    cfg = {
        "cells": [{"n": 40, "p": 6}], "truth": {"kind": "identity"},
        "estimators": [GUARDED.to_json()], "losses": [STEIN.to_json()],
        "replicates": 6, "seed": 5,
    }
    # every replicate fails, not only the one that first decomposes the truth
    with pytest.raises(DomainError, match="cell-000-e0-l0: 6/6 replicates failed"):
        run_grid(cfg)


def test_each_pair_is_guarded_once_per_grid(monkeypatch):
    calls = []
    guarded = risk_module._guarded

    def counting_guarded(est, loss):
        calls.append((est, loss))
        return guarded(est, loss)

    monkeypatch.setattr(risk_module, "_guarded", counting_guarded)
    cfg = grid_config(
        estimators=[{"rule": "hard"}, {"rule": "soft", "corrections": ["psd-project"]}],
        losses=[{"kind": "operator", "w": 2}, {"kind": "bregman", "phi": "stein"}],
        cells=[{"n": 40, "p": 10}, {"n": 80, "p": 20}, {"n": 160, "p": 40}],
        replicates=2,
    )
    records = run_grid(cfg).records
    assert len(records) == 3 * 2 * 2
    # one call per (estimator, loss) pair, not one more per cell
    assert len(calls) == 2 * 2
    assert [rec.estimator for rec in records[:4]] == [
        guarded(est, loss) for est, loss in calls
    ]


def test_cell_memory_is_bounded_by_five_matrices():
    """Traced peak of one single-pair cell above its entry, in 8p^2-byte matrices.

    Beside the truth it is handed, the cell holds the sampling root and, per
    replicate, the draw, the centred copy that mle_covariance forms its Gram
    matrix from, and the result; the estimate and the loss's difference
    come after the draw is gone: 4.18 matrices measured, against 7.05 when
    the cell copied its truth and kept each stage's temporaries.
    tracemalloc sees numpy's arrays only, not LAPACK's workspace, so the
    copy and work arrays inside the truth's eigendecomposition and the
    loss's eigvalsh are not counted.
    """
    p = 400
    truth = _Symmetric(as_symmetric(banded_sigma(p, 2, 0.1)))
    sample_gaussian(np.eye(2), 2, RngSeed(0))  # numpy.random imports lazily; not part of the cell
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        _run_cell(truth, [HARD], [[HARD]], [OP2], p, 3, RngSeed(1))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * p * p


# Prints the rise in peak RSS, in bytes, over one n = p = 800 grid cell with
# the (estimators, losses) given as JSON, after a 20 x 20 cell has warmed up
# numpy, OpenBLAS and the allocator.
_CELL_RSS_RISE = """
import json, resource, sys
from sparsecov.risk import run_grid
estimators, losses = json.loads(sys.argv[1])
def grid(size):
    return {"cells": [{"n": size, "p": size}], "truth": {"kind": "banded", "band": 2},
            "estimators": estimators, "losses": losses, "replicates": 3, "seed": "2024"}
run_grid(grid(20))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run_grid(grid(800))
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))
"""

# The benchmark's pair sets: the headline grid's one pair, and the
# estimator menu's twelve, whose corrections and Stein loss eigendecompose
# every estimate.
_PAIR_SETS = {
    "spectral-grid": ([{"rule": "hard", "gamma": 2.0}], [{"kind": "operator", "w": 2}]),
    "estimator-menu": (
        [
            {"rule": "hard", "gamma": 2.0},
            {"rule": "soft", "gamma": 2.0},
            {"rule": "adaptive-lasso", "gamma": 2.0, "corrections": ["psd-project"]},
        ],
        [
            {"kind": "operator", "w": 2},
            {"kind": "operator", "w": 1},
            {"kind": "frobenius-squared", "normalized": True},
            {"kind": "bregman", "phi": "stein", "normalized": True},
        ],
    ),
}


@pytest.mark.parametrize("pairs", list(_PAIR_SETS))
def test_cell_peak_rss_stays_under_the_memory_model(pairs):
    estimators, losses = _PAIR_SETS[pairs]
    root = Path(__file__).resolve().parent.parent
    # OpenBLAS touches a buffer per thread, which the model leaves out; a
    # fixed thread count keeps the host's core count out of the rise
    proc = subprocess.run(
        [sys.executable, "-c", _CELL_RSS_RISE, json.dumps([estimators, losses])],
        env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    model = _cell_bytes(
        800, 800,
        [EstimatorSpec.from_json(obj) for obj in estimators],
        [LossSpec.from_json(obj) for obj in losses],
        3,
    )
    assert int(proc.stdout) < model


def test_rate_fit_recovers_planted_slope():
    records = []
    for n, p in [(200, 200), (400, 400), (800, 800), (1600, 1600)]:
        rate = math.log(p) / n
        records.append(
            RiskRecord("c", "m", n, p, 0.0, 4.0, HARD, OP2, 10,
                       2.5 * rate ** 0.8, 0.0, 0.0, 0, RngSeed(1), 0.0)
        )
    fit = rate_fit(records, target_exponent=0.8)
    assert fit.slope == pytest.approx(0.8, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.target_exponent == 0.8


def test_rate_fit_rejects_degenerate_grids():
    base = RiskRecord("c", "m", 100, 50, 0.0, 4.0, HARD, OP2, 10,
                      0.5, 0.0, 0.0, 0, RngSeed(1), 0.0)
    with pytest.raises(DomainError, match="rate fit needs at least 3 cells, got 2"):
        rate_fit([base, base])
    with pytest.raises(DomainError, match="regressor spread below factor 4"):
        rate_fit([base, base, base])


def grid_config(**overrides):
    cfg = {
        "cells": [
            {"n": 60, "p": 20},
            {"n": 120, "p": 40},
            {"n": 240, "p": 80},
            {"n": 480, "p": 160},
        ],
        "truth": {"kind": "banded", "band": 2, "scale": 1.0},
        "estimators": [{"rule": "hard", "gamma": 2.0}],
        "losses": [{"kind": "operator", "w": 2}],
        "replicates": 10,
        "seed": "19",
    }
    cfg.update(overrides)
    return cfg


def test_run_grid_produces_records_and_fit():
    result = run_grid(grid_config())
    assert len(result.records) == 4
    assert result.records[0].cell_id == "cell-000-e0-l0"
    fit = result.fits[0]["fit"]
    assert fit is not None and fit.cells == 4
    assert fit.target_exponent == 1.0  # operator loss at q = 0


def test_run_grid_pairs_estimators_on_shared_draws():
    cfg = grid_config(
        estimators=[
            {"rule": "hard", "gamma": 2.0},
            {"rule": "adaptive-lasso", "gamma": 2.0, "corrections": ["psd-project"]},
        ],
        losses=[
            {"kind": "operator", "w": 2},
            {"kind": "bregman", "phi": "stein", "normalized": True},
        ],
        cells=[{"n": 60, "p": 20}, {"n": 120, "p": 40}, {"n": 240, "p": 80}],
    )
    result = run_grid(cfg)
    by_cell = {}
    for rec in result.records:
        by_cell.setdefault((rec.n, rec.p), []).append(rec)
    for recs in by_cell.values():
        assert len(recs) == 4
        assert len({rec.seed for rec in recs}) == 1
    # the grid shares one draw per replicate; a one-pair grid over the same
    # cells and master seed must agree exactly, record for record
    for ei, est in enumerate(cfg["estimators"]):
        for li, loss in enumerate(cfg["losses"]):
            alone = run_grid({**cfg, "estimators": [est], "losses": [loss]}).records
            paired = result.records[ei * 2 + li :: 4]
            assert len(alone) == len(paired) == 3
            for rec, single in zip(paired, alone):
                assert rec.estimator == single.estimator and rec.seed == single.seed
                assert rec.mean_risk == single.mean_risk
                assert rec.std_error == single.std_error
                assert rec.median_risk == single.median_risk
    stein = [rec for rec in result.records if rec.loss.kind == "bregman"]
    assert all(rec.estimator.corrections[-1] == "bregman-guard" for rec in stein)


@pytest.mark.parametrize("phi", sorted(_GENERATORS))
def test_run_grid_guards_a_generator_with_a_domain_floor(phi):
    # the floor in the generator table decides, so a new generator is covered here
    floored = _GENERATORS[phi][2] > -math.inf
    if phi == "squared-frobenius":
        assert not floored  # defined on every spectrum, a singular one included
    cfg = grid_config(
        losses=[{"kind": "bregman", "phi": phi, "normalized": True}],
        cells=[{"n": 100, "p": 10}, {"n": 200, "p": 20}, {"n": 400, "p": 40}],
    )
    for rec in run_grid(cfg).records:
        assert rec.estimator.corrections == (("bregman-guard",) if floored else ())


def test_run_grid_config_validation():
    with pytest.raises(ConfigError):
        run_grid(grid_config(cells=[]))
    with pytest.raises(ConfigError):
        run_grid(grid_config(losses=[]))
    with pytest.raises(SchemaError, match="unknown key 'n' in grid config"):
        run_grid({"n": [10, 20], "p": [5], "truth": {"kind": "identity"},
                  "estimators": [{"rule": "hard"}], "losses": [{"kind": "operator", "w": 2}],
                  "replicates": 2})
    with pytest.raises(ConfigError):
        run_grid(grid_config(replicates=0))


def test_csv_round_trip_preserves_numbers_exactly(tmp_path):
    records = run_grid(grid_config(replicates=4)).records
    path = tmp_path / "r.csv"
    export_records(records, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames[-2:] == ["seed", "wall_time"]
        rows = list(reader)
    assert len(rows) == len(records)
    for orig, row in zip(records, rows):
        assert float(row["mean_risk"]) == orig.mean_risk
        assert float(row["std_error"]) == orig.std_error
        assert int(row["n"]) == orig.n and int(row["p"]) == orig.p
        assert RngSeed.parse(row["seed"]) == orig.seed
        assert row["wall_time"] == ""  # csv never carries timings


def test_json_round_trip_is_lossless(tmp_path):
    records = run_grid(grid_config(replicates=3)).records
    path = tmp_path / "r.json"
    export_records(records, path)
    with open(path) as fh:
        raw = json.load(fh)
    assert raw == [r.to_json() for r in records]
    assert set(raw[0]) == {f.name for f in dataclasses.fields(RiskRecord)}
    assert raw[0]["estimator"]["rule"] == "hard"
    assert raw[0]["wall_time"] > 0.0


def test_export_schema_is_pinned(tmp_path):
    records = run_grid(grid_config(cells=[{"n": 40, "p": 10}], replicates=2)).records
    export_records(records, tmp_path / "r.csv")
    with open(tmp_path / "r.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "cell_id", "n", "p", "q", "c", "rule", "gamma", "loss_kind", "w_or_phi",
        "replicates", "mean_risk", "std_error", "seed", "wall_time",
    ]
    export_records(records, tmp_path / "r.json")
    with open(tmp_path / "r.json") as fh:
        (raw,) = json.load(fh)
    assert list(raw) == [f.name for f in dataclasses.fields(RiskRecord)]
    assert list(raw) == [
        "cell_id", "model", "n", "p", "q", "c", "estimator", "loss", "replicates",
        "mean_risk", "std_error", "median_risk", "failures", "seed", "wall_time",
    ]


def test_mixed_loss_csv_is_rejected(tmp_path):
    frobenius = LossSpec(kind="frobenius-squared", w=None)
    cfg = grid_config(
        cells=[{"n": 40, "p": 10}], losses=[OP2.to_json(), frobenius.to_json()], replicates=3,
    )
    a, b = run_grid(cfg).records
    with pytest.raises(SchemaError):
        export_records([a, b], tmp_path / "bad.csv")
    export_records([a, b], tmp_path / "ok.json")


@pytest.mark.parametrize(
    "path, fmt",
    [("records.csv", "csv"), ("runs.v2/records.JSON", "json"), (".csv", "csv"),
     (Path("runs.v2") / "records.json", "json")],
)
def test_export_format_is_read_from_the_file_name(path, fmt):
    assert risk_module._export_format(path, [OP2]) == fmt


def test_readme_grid_example_uses_only_keys_the_grid_reads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    example = json.loads(block)

    def keys(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(example) <= keys(_Grid)
    assert all(set(cell) == keys(_Cell) for cell in example["cells"])
    truth = example["truth"]
    assert set(truth) <= keys(_TRUTHS[truth["kind"]])

