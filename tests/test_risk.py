import json
import math
import sys

import numpy as np
import pytest

import sparsecov.matrices as matrices_module
from sparsecov.errors import CellError, ConfigError, DomainError, FitError, SchemaError
from sparsecov.estimators import EstimatorSpec
from sparsecov.losses import LossSpec
from sparsecov.risk import (
    RiskRecord,
    banded_sigma,
    export_records,
    import_records,
    materialize_truth,
    rate_fit,
    run_grid,
    run_risk_cell,
    toeplitz_decay_sigma,
)
from sparsecov.rng import RngSeed
from sparsecov.sampling import mle_covariance, sample_gaussian
from sparsecov.estimators import apply_estimator, bregman_guard, psd_project, threshold_estimate
from sparsecov.losses import evaluate_loss
from sparsecov.matrices import _sym_eigen


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


def test_materialize_truth_kinds():
    s, q, c, _ = materialize_truth({"kind": "banded", "band": 2, "scale": 1.0}, 400, 100)
    assert q == 0.0 and c == 4.0
    assert abs(s[0, 1] - math.sqrt(math.log(100) / 400)) < 1e-15
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
    sigma = banded_sigma(10, 1, 0.3)
    seed = RngSeed(21)
    rec = run_risk_cell(sigma, spec, loss, 50, 8, seed)
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
    monkeypatch.setattr(matrices_module, "_sym_eigen", counting)
    run_grid(cfg)
    for n, p in [(60, 20), (120, 40)]:
        sigma = materialize_truth(cfg["truth"], n, p)[0]
        hits = sum(m.shape == sigma.shape and np.array_equal(m, sigma) for m in seen)
        assert hits == 1  # the sampling root and the losses share it
    # 2 truths, one per estimate (2 cells x 5 replicates x 2 estimators), and
    # one per identity a tripped guard put in its estimate's place
    assert len(seen) == 2 + 2 * 5 * 2 + trips


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
    # shared by the PSD projection, the guard and both Bregman losses; one
    # per projection that clipped, since its output is a new matrix; and one
    # per identity a tripped guard put in its estimate's place
    assert len(eigh_calls) == 2 + 2 * 5 * 2 + clips + trips
    # the operator loss is the only spectral work left outside the cache
    assert eigvalsh_callers == ["sparsecov.matrices"] * (2 * 5 * 2)


@pytest.mark.parametrize("coupling", [1.0, 1.0 - 1e-13], ids=["singular", "below-floor"])
def test_truth_outside_the_domain_fails_the_cell(coupling):
    # PSD with smallest eigenvalue 1 - coupling, below the domain floor:
    # sampling works, the Stein loss is undefined at the truth
    sigma = np.eye(6)
    sigma[0, 1] = sigma[1, 0] = coupling
    with pytest.raises(DomainError, match="second argument"):
        evaluate_loss(STEIN, np.eye(6), sigma)
    # every replicate fails, not only the one that first decomposes the truth
    with pytest.raises(CellError, match="6/6 replicates failed"):
        run_risk_cell(sigma, GUARDED, STEIN, 40, 6, RngSeed(5))


def test_cell_fails_loudly_when_loss_always_errors():
    # gamma large enough to zero everything makes stein undefined every time
    spec = EstimatorSpec(rule="hard", gamma=50.0)
    stein = LossSpec(kind="bregman", w=None, phi="stein")
    with pytest.raises(CellError):
        run_risk_cell(np.eye(6), spec, stein, 30, 10, RngSeed(2))


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
    with pytest.raises(FitError):
        rate_fit([base, base])
    with pytest.raises(FitError):
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
    for (n, p), recs in by_cell.items():
        assert len(recs) == 4
        assert len({rec.seed for rec in recs}) == 1
        sigma = materialize_truth(cfg["truth"], n, p)[0]
        for rec in recs:
            # the grid shares one draw per replicate; a lone cell on the
            # record's own (guarded) estimator and loss must agree exactly
            alone = run_risk_cell(sigma, rec.estimator, rec.loss, n, 10, rec.seed)
            assert rec.mean_risk == alone.mean_risk
            assert rec.std_error == alone.std_error
            assert rec.median_risk == alone.median_risk
    stein = [rec for rec in result.records if rec.loss.kind == "bregman"]
    assert all(rec.estimator.corrections[-1] == "bregman-guard" for rec in stein)


def test_run_grid_adds_guard_for_spectral_bregman_losses():
    cfg = grid_config(
        losses=[{"kind": "bregman", "phi": "stein", "normalized": True}],
        cells=[{"n": 100, "p": 10}, {"n": 200, "p": 20}, {"n": 400, "p": 40}],
    )
    result = run_grid(cfg)
    for rec in result.records:
        assert "bregman-guard" in rec.estimator.corrections


def test_run_grid_config_validation():
    with pytest.raises(ConfigError):
        run_grid(grid_config(cells=[]))
    with pytest.raises(ConfigError):
        run_grid(grid_config(losses=[]))
    with pytest.raises(ConfigError):
        run_grid({"n": [10, 20], "p": [5], "truth": {"kind": "identity"},
                  "estimators": [{"rule": "hard"}], "losses": [{"kind": "operator", "w": 2}],
                  "replicates": 2})
    with pytest.raises(ConfigError):
        run_grid(grid_config(replicates=0))


def test_csv_round_trip_preserves_numbers_exactly(tmp_path):
    records = run_grid(grid_config(replicates=4)).records
    path = tmp_path / "r.csv"
    export_records(records, path)
    back = import_records(path)
    for orig, rec in zip(records, back):
        assert rec.mean_risk == orig.mean_risk
        assert rec.std_error == orig.std_error
        assert rec.n == orig.n and rec.p == orig.p
        assert rec.seed == orig.seed
        assert math.isnan(rec.wall_time)  # csv never carries timings
    header = path.read_text().splitlines()[0]
    assert header.endswith(",seed,wall_time")
    first = path.read_text().splitlines()[1]
    assert first.endswith(",")  # empty wall_time field


def test_json_round_trip_is_lossless(tmp_path):
    records = run_grid(grid_config(replicates=3)).records
    path = tmp_path / "r.json"
    export_records(records, path)
    back = import_records(path)
    assert back == records
    raw = json.loads(path.read_text())
    assert raw[0]["estimator"]["rule"] == "hard"
    assert raw[0]["wall_time"] > 0.0


def test_mixed_loss_csv_is_rejected(tmp_path):
    sigma = banded_sigma(10, 1, 0.2)
    a = run_risk_cell(sigma, HARD, OP2, 40, 3, RngSeed(1))
    b = run_risk_cell(sigma, HARD, LossSpec(kind="frobenius-squared", w=None), 40, 3, RngSeed(1))
    with pytest.raises(SchemaError):
        export_records([a, b], tmp_path / "bad.csv")
    export_records([a, b], tmp_path / "ok.json")
