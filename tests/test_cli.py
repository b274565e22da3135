import json

import numpy as np
import pytest

from sparsecov.cli import _EXIT_CODES, main
from sparsecov.errors import (
    BudgetError,
    CellError,
    ConfigError,
    DivergenceError,
    DomainError,
    EigenError,
    FitError,
    NotPSDError,
    NumericalError,
    SchemaError,
    SparseCovError,
    StructureError,
)
from sparsecov.rng import RngSeed
from sparsecov.risk import banded_sigma
from sparsecov.sampling import sample_gaussian, save_data_csv


@pytest.fixture
def data_csv(tmp_path):
    x = sample_gaussian(banded_sigma(15, 2, 0.3), 120, RngSeed(42))
    path = tmp_path / "data.csv"
    save_data_csv(path, x)
    return path


def grid_file(tmp_path, **overrides):
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
        "replicates": 5,
        "seed": "7",
    }
    cfg.update(overrides)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    return path


def test_estimate_from_data(tmp_path, data_csv, capsys, monkeypatch):
    # the manifest records the thread settings as given, and null when unset
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "est.csv"
    code = main(["estimate", "--data", str(data_csv), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "p=15 n=120" in printed
    assert out.exists()
    manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert str(out) in manifest["outputs"]
    assert manifest["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}


def test_estimate_output_is_idempotent(tmp_path, data_csv):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["estimate", "--data", str(data_csv), "--out", str(out1)]) == 0
    assert main(["estimate", "--data", str(data_csv), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_from_covariance_needs_n(tmp_path, data_csv, capsys):
    est = tmp_path / "est.csv"
    main(["estimate", "--data", str(data_csv), "--out", str(est)])
    assert main(["estimate", "--covariance", str(est)]) == 2
    assert main(["estimate", "--covariance", str(est), "--n", "120"]) == 0
    capsys.readouterr()


def test_estimate_input_flag_conflicts(data_csv):
    assert main(["estimate"]) == 2
    assert main(["estimate", "--data", str(data_csv), "--covariance", str(data_csv)]) == 2


def test_estimate_rejects_asymmetric_covariance(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.9\n0.1,1.0\n")
    assert main(["estimate", "--covariance", str(path), "--n", "10"]) == 2


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    grid = grid_file(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["simulate", "--config", str(grid), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(grid), "--threads", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    printed = capsys.readouterr().out
    assert "4 cells done" in printed
    assert "slope=" in printed


def test_simulate_seed_override_changes_results(tmp_path):
    grid = grid_file(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    main(["simulate", "--config", str(grid), "--out", str(out1)])
    main(["simulate", "--config", str(grid), "--seed", "8", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_bad_config_paths(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    empty = grid_file(tmp_path, cells=[])
    assert main(["simulate", "--config", str(empty)]) == 2


def test_lowerbound_small_family_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "lowerbound", "--p", "6", "--n", "100", "--q", "0", "--c", "4",
        "--samples", "2000", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["r"] == 3 and report["config"]["k"] == 1
    assert report["alpha"]["pair_count"] == 18336
    assert report["chi_square"]["exact"] <= report["chi_square"]["envelope"]
    assert 0.0 < report["affinity"]["value"] <= 1.0
    assert report["lower_bound"] > 0.0
    assert "lower bound:" in capsys.readouterr().out


def test_lowerbound_seed_zero_affinity_is_pinned(tmp_path):
    # the p = 10 family of the lowerbound benchmark, 100k samples at seed 0
    out = tmp_path / "report.json"
    code = main([
        "lowerbound", "--p", "10", "--n", "20", "--q", "0", "--c", "4",
        "--upsilon", "0.1", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["affinity"]["value"] == 0.973020855326006


def test_lowerbound_trivial_when_k_is_zero(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "lowerbound", "--p", "8", "--n", "20", "--q", "0", "--c", "1",
        "--samples", "2000", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["k"] == 0
    assert report["lower_bound"] == 0.0
    assert report["affinity"]["value"] == 1.0


def test_lowerbound_budget_exit(capsys):
    code = main([
        "lowerbound", "--p", "100", "--n", "50", "--q", "0", "--c", "4",
        "--samples", "2000",
    ])
    assert code == 4
    assert "budget" in capsys.readouterr().err


def test_lowerbound_domain_exit():
    # upsilon this large breaks the separation feasibility check
    assert main([
        "lowerbound", "--p", "8", "--n", "2", "--q", "0", "--c", "6",
        "--upsilon", "1.0",
    ]) == 2


def test_lowerbound_missing_parameters():
    assert main(["lowerbound", "--p", "8", "--n", "20"]) == 2


def test_lowerbound_config_file(tmp_path):
    cfg_path = tmp_path / "lb.json"
    cfg_path.write_text(json.dumps({"p": 6, "n": 100, "q": 0, "c": 4}))
    out = tmp_path / "report.json"
    assert main([
        "lowerbound", "--config", str(cfg_path), "--samples", "2000",
        "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["config"]["p"] == 6


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# The documented exit codes, written out independently of the CLI's table.
EXIT_CASES = [
    (BudgetError, 4, "error: budget exceeded: "),
    (DomainError, 3, "error: boom"),
    (NotPSDError, 3, "error: boom"),
    (DivergenceError, 3, "error: boom"),
    (NumericalError, 3, "error: boom"),
    (EigenError, 3, "error: boom"),
    (CellError, 3, "error: boom"),
    (FitError, 3, "error: boom"),
    (ConfigError, 2, "error: boom"),
    (SchemaError, 2, "error: boom"),
    (StructureError, 2, "error: boom"),
    (SparseCovError, 2, "error: boom"),
    (OSError, 2, "error: boom"),
    (ValueError, 2, "error: boom"),
    (KeyError, 2, "error: 'boom'"),
]


def test_exit_cases_cover_every_row_of_the_table():
    listed = {cls for cls, _, _ in EXIT_CASES}
    for classes, _, _ in _EXIT_CODES:
        assert set(classes) <= listed


@pytest.mark.parametrize(
    "cls, code, prefix", EXIT_CASES, ids=[case[0].__name__ for case in EXIT_CASES]
)
def test_every_error_class_maps_to_its_exit_code(tmp_path, monkeypatch, capsys, cls, code, prefix):
    def fail(config):
        raise cls("boom")

    monkeypatch.setattr("sparsecov.cli.run_grid", fail)
    assert main(["simulate", "--config", str(grid_file(tmp_path))]) == code
    assert capsys.readouterr().err.startswith(prefix)


def test_unmapped_errors_propagate(tmp_path, monkeypatch):
    def fail(config):
        raise RuntimeError("not a user error")

    monkeypatch.setattr("sparsecov.cli.run_grid", fail)
    with pytest.raises(RuntimeError):
        main(["simulate", "--config", str(grid_file(tmp_path))])
