import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sparsecov.estimators
import sparsecov.losses
import sparsecov.lower_bound
import sparsecov.matrices
import sparsecov.model_spaces
import sparsecov.risk
import sparsecov.rng
from sparsecov.cli import _EXIT_CODES, main
from sparsecov.errors import (
    BudgetError,
    ConfigError,
    DomainError,
    EigenError,
    SchemaError,
    SparseCovError,
)
from sparsecov.estimators import EstimatorSpec, apply_estimator
from sparsecov.matrices import load_matrix_csv, save_matrix_csv
from sparsecov.lower_bound import chi_square_mixture_bound
from sparsecov.model_spaces import LeastFavorableConfig, ThetaIndex, build_config, validate_theta
from sparsecov.rng import RngSeed
from sparsecov.risk import banded_sigma, rate_fit, run_grid
from sparsecov.sampling import load_data_csv, mle_covariance, sample_gaussian, sqrt_psd
from test_refusals import ROWS, refuses


def save_data_csv(path, x):
    """A data matrix as ``estimate --data`` reads it: one observation per line."""
    np.savetxt(path, x, fmt="%.17g", delimiter=",")


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


def _each_row(*cases, prefix=""):
    """A test with one case per row ``prefix + case`` of the refusal table."""
    @pytest.mark.parametrize("case", cases)
    def test(tmp_path, monkeypatch, capsys, case):
        refuses(ROWS[prefix + case], tmp_path, monkeypatch, capsys)

    return test


def _rows(*rows):
    """A test that runs the refusal table's ``rows`` in turn."""
    def test(tmp_path, monkeypatch, capsys):
        for row in rows:
            (tmp_path / row).mkdir()
            refuses(ROWS[row], tmp_path / row, monkeypatch, capsys)

    return test


# Refusals that are rows of the table in test_refusals.py, run here under the
# names and case ids this module's tests gave them before the table held
# them, so that each of those test ids still names the check it named.
test_estimate_from_covariance_needs_n = _rows("estimate-covariance-without-n")
test_estimate_input_flag_conflicts = _rows(
    "estimate-no-source", "estimate-both-sources", "estimate-data-with-n"
)
test_estimate_rejects_asymmetric_covariance = _rows("asymmetric-covariance")
test_simulate_bad_config_paths = _rows("config-missing", "cells-empty")
test_lowerbound_domain_exit = _rows("lowerbound-infeasible")
test_lowerbound_overflowing_chi_square_exits_three = _rows("chi-square-overflow")
test_lowerbound_missing_parameters = _rows("lowerbound-missing-c")
test_lowerbound_seed_names_the_flag_and_its_forms = _each_row(
    "abc", "1.5", "-1", "3:x", "", "1_0", " 7", "+7", "7:", prefix="lowerbound-seed-"
)
test_folded_error_classes_keep_their_exit_codes_and_messages = _each_row(
    "asymmetric-covariance", "truth-not-psd", "chi-square-overflow"
)
test_unknown_config_key_exits_two_naming_it = _each_row(
    "top", "cells", "truth", "estimators", "losses", prefix="unknown-key-"
)
test_malformed_grid_config_exits_two_naming_the_key = _each_row(
    "truth-not-object", "cells-and-n", "cells-and-n-p", "p-array", "cells-object",
    "target-exponent", "value-and-scale", "theta-and-theta-seed", "normalized-operator",
    "bregman-w", "estimator-not-object", "loss-not-object", "cell-not-object",
    "cell-negative-p", "cell-zero-n", "late-cell-p-one", "late-cell-n-one-guarded",
    "second-estimator-gamma", "second-estimator-key", "second-loss-key", "second-loss-w",
    "estimators-object", "second-estimator-gamma-value", "second-loss-w-value",
    "decay-exponent", "theta-seed-negative", "theta-seed-too-large", "corrections-number",
    "corrections-string", "loss-kind-array", "loss-kind-object", "truth-kind-array",
    "truth-kind-object", "banded-no-band", "cell-no-n", "cell-no-p", "fstar-no-q",
    "fstar-no-c", "decay-no-exponent", "truth-no-kind",
)
test_integer_grid_field_is_not_truncated = _each_row(
    "cell-n-float", "cell-p-string", "replicates-float", "replicates-bool", "band-float",
    "theta-seed-float", "theta-seed-bool",
)
test_config_field_of_the_wrong_type_exits_two_naming_it = _each_row(
    "keep-diagonal-string", "normalized-string", "gamma-bool", "gamma-string", "w-bool",
    "scale-bool", "amplitude-string", "exponent-bool", "q-string", "c-string",
    "upsilon-string", "seed-float", "seed-bool", "seed-bad-stream", "seed-negative",
    "seed-underscore", "seed-space", "seed-plus", "seed-empty-stream",
)
test_lowerbound_refuses_a_non_finite_parameter = _each_row(
    "c-inf", "upsilon-inf", prefix="lowerbound-"
)
test_grid_refuses_a_non_finite_threshold_parameter = _each_row(
    "gamma-inf", "eta-inf", "gamma-minus-inf", prefix="grid-"
)
test_estimate_refuses_a_non_finite_threshold_flag = _each_row(
    "gamma-inf", "eta-inf", "gamma-nan", prefix="estimate-"
)
test_fstar_truth_refuses_a_non_finite_parameter = _each_row(
    "c", "upsilon", prefix="fstar-non-finite-"
)
test_truth_refuses_a_non_finite_real = _each_row(
    "scale-inf", "amplitude-nan", "exponent-inf", prefix="truth-"
)


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


@pytest.mark.parametrize(
    "flags, corrections",
    [
        (["--psd-project"], ("psd-project",)),
        (["--bregman-guard"], ("bregman-guard",)),
        (["--bregman-guard", "--psd-project"], ("psd-project", "bregman-guard")),
    ],
    ids=["psd-project", "bregman-guard", "both"],
)
def test_estimate_corrections_write_what_apply_estimator_returns(tmp_path, flags, corrections):
    # n = 10 < p = 15 with a light soft threshold: the estimate has a
    # negative eigenvalue, so the projection clips and the guard trips
    data = tmp_path / "data.csv"
    save_data_csv(data, sample_gaussian(banded_sigma(15, 2, 0.3), 10, RngSeed(42)))
    plain, out = tmp_path / "plain.csv", tmp_path / "est.csv"
    args = ["estimate", "--data", str(data), "--rule", "soft", "--gamma", "0.5"]
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + flags + ["--out", str(out)]) == 0
    spec = EstimatorSpec(rule="soft", gamma=0.5, corrections=corrections)
    want = apply_estimator(mle_covariance(load_data_csv(data)), spec, 10)
    assert np.array_equal(load_matrix_csv(out), want)
    save_matrix_csv(tmp_path / "want.csv", want)
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert out.read_bytes() != plain.read_bytes()


@pytest.mark.parametrize(
    "samples, rule, gamma", [(120, "hard", 2.0), (10, "soft", 0.5)],
    ids=["guard-keeps", "guard-trips"],
)
def test_estimate_summary_reads_the_guards_spectrum(
    tmp_path, monkeypatch, capsys, samples, rule, gamma
):
    # the guard decomposes the estimate, and the identity it trips to comes
    # decomposed: the summary's least eigenvalue costs no second eigensolver
    data = tmp_path / "data.csv"
    save_data_csv(data, sample_gaussian(banded_sigma(15, 2, 0.3), samples, RngSeed(42)))
    sstar = mle_covariance(load_data_csv(data))
    spec = EstimatorSpec(rule=rule, gamma=gamma, corrections=("bregman-guard",))
    estimate = apply_estimator(sstar, spec, samples)
    assert np.array_equal(estimate, np.eye(15)) == (samples == 10)
    # the kept fraction is the threshold's, before the guard
    thresholded = apply_estimator(sstar, EstimatorSpec(rule=rule, gamma=gamma), samples)
    off = ~np.eye(15, dtype=bool)
    want = [
        f"off-diagonal entries kept: {np.count_nonzero(thresholded[off]) / off.sum():.4f}",
        f"min eigenvalue: {float(np.min(np.linalg.eigvalsh(estimate))):.6g}",
    ]

    calls = []

    def counting(solver):
        return lambda *args, **kwargs: calls.append(solver.__name__) or solver(*args, **kwargs)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    args = ["--rule", rule, "--gamma", str(gamma), "--bregman-guard"]
    assert main(["estimate", "--data", str(data), *args]) == 0
    assert calls == ["eigh"]
    assert capsys.readouterr().out.splitlines()[1:] == want


@pytest.mark.parametrize(
    "correction, filled", [("psd-project", 1.0), ("bregman-guard", 0.0)],
    ids=["projection-clips", "guard-trips"],
)
def test_estimate_counts_what_the_threshold_kept(
    tmp_path, monkeypatch, capsys, correction, filled
):
    # n = 10 < p = 15 with a light soft threshold: the projection clips, which
    # fills the estimate, and the guard trips to the identity; the kept
    # fraction is the threshold's either way, and the data is thresholded once
    data = tmp_path / "data.csv"
    save_data_csv(data, sample_gaussian(banded_sigma(15, 2, 0.3), 10, RngSeed(42)))
    sstar = mle_covariance(load_data_csv(data))
    off = ~np.eye(15, dtype=bool)
    spec = EstimatorSpec(rule="soft", gamma=0.5, corrections=(correction,))
    assert np.count_nonzero(apply_estimator(sstar, spec, 10)[off]) / off.sum() == filled
    thresholded = apply_estimator(sstar, EstimatorSpec(rule="soft", gamma=0.5), 10)
    kept = np.count_nonzero(thresholded[off]) / off.sum()
    assert 0.0 < kept < 1.0

    calls = []
    threshold = sparsecov.estimators.threshold_estimate
    monkeypatch.setattr(
        sparsecov.estimators, "threshold_estimate", lambda *a: calls.append(1) or threshold(*a)
    )
    args = ["estimate", "--data", str(data), "--rule", "soft", "--gamma", "0.5"]
    for flags in ([], [f"--{correction}"]):
        calls.clear()
        assert main(args + flags) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"off-diagonal entries kept: {kept:.4f}"
        assert calls == [1]


@pytest.mark.parametrize("source, validations", [("data", 0), ("covariance", 1)])
@pytest.mark.parametrize(
    "flags, corrections",
    [([], ()), (["--psd-project", "--bregman-guard"], ("psd-project", "bregman-guard"))],
    ids=["plain", "corrected"],
)
def test_estimate_validates_its_input_once(
    tmp_path, monkeypatch, data_csv, source, validations, flags, corrections
):
    # the reader validates a covariance as it loads it, and mle_covariance
    # forms an exactly symmetric one: neither the estimator nor the writer
    # checks it again
    x = load_data_csv(data_csv)
    cov = tmp_path / "cov.csv"
    save_matrix_csv(cov, mle_covariance(x))
    source_args = (
        ["--data", str(data_csv)] if source == "data" else ["--covariance", str(cov), "--n", "120"]
    )
    # what the command wrote before it validated once: the public path
    spec = EstimatorSpec(rule="hard", gamma=2.0, corrections=corrections)
    sstar = mle_covariance(x) if source == "data" else load_matrix_csv(cov)
    want = tmp_path / "want.csv"
    save_matrix_csv(want, apply_estimator(sstar, spec, 120))

    calls = []
    validate = sparsecov.matrices.as_symmetric
    monkeypatch.setattr(
        sparsecov.matrices, "as_symmetric", lambda a: calls.append(1) or validate(a)
    )
    out = tmp_path / "est.csv"
    assert main(["estimate", *source_args, *flags, "--out", str(out)]) == 0
    assert len(calls) == validations
    assert out.read_bytes() == want.read_bytes()


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


def test_simulate_counts_cells_not_records(tmp_path, capsys):
    grid = grid_file(
        tmp_path,
        cells=[{"n": 60, "p": 20}, {"n": 120, "p": 40}, {"n": 240, "p": 80}],
        estimators=[{"rule": "hard", "gamma": 2.0}, {"rule": "soft", "gamma": 2.0}],
        losses=[{"kind": "operator", "w": 2}, {"kind": "operator", "w": 1}],
        replicates=2,
    )
    assert main(["simulate", "--config", str(grid)]) == 0
    assert "3 cells done (12 records)" in capsys.readouterr().out


def test_simulate_seed_override_changes_results(tmp_path):
    grid = grid_file(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    main(["simulate", "--config", str(grid), "--out", str(out1)])
    main(["simulate", "--config", str(grid), "--seed", "8", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_seed_names_the_flag_and_leaves_the_config_as_read(tmp_path, monkeypatch):
    # the table's simulate-seed-abc row checks the message that names --seed
    configs = []
    read_grid = sparsecov.risk._read_grid
    monkeypatch.setattr(
        sparsecov.risk, "_read_grid", lambda config: configs.append(config) or read_grid(config)
    )
    grid = grid_file(tmp_path, replicates=2)
    assert main(["simulate", "--config", str(grid), "--seed", "abc"]) == 2
    flagged, written = tmp_path / "flag.csv", tmp_path / "written.csv"
    assert main(["simulate", "--config", str(grid), "--seed", "8", "--out", str(flagged)]) == 0
    assert configs == [json.loads(grid.read_text())] * 2
    config = grid_file(tmp_path, replicates=2, seed=8)
    assert main(["simulate", "--config", str(config), "--out", str(written)]) == 0
    assert flagged.read_bytes() == written.read_bytes()


def test_simulate_checks_out_before_the_grid_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(sparsecov.risk, "_run_grid", lambda grid: calls.append(grid))
    _rows("out-unknown-format", "out-format-in-a-dotted-directory", "out-mixed-loss-kinds",
          "simulate-out-missing-directory", "config-not-object")(tmp_path, monkeypatch, capsys)
    assert calls == []


@pytest.mark.parametrize(
    "command, module, computes",
    [
        ("estimate", sparsecov.estimators, "threshold_estimate"),
        ("simulate", sparsecov.risk, "_run_grid"),
        ("lowerbound", sparsecov.cli, "certify"),
    ],
    ids=["estimate", "simulate", "lowerbound"],
)
def test_out_into_a_missing_directory_exits_before_the_command_computes(
    tmp_path, monkeypatch, capsys, command, module, computes
):
    calls = []
    real = getattr(module, computes)
    monkeypatch.setattr(module, computes, lambda *a: calls.append(a) or real(*a))
    refuses(ROWS[f"{command}-out-missing-directory"], tmp_path, monkeypatch, capsys)
    assert calls == []


def test_simulate_reads_each_loss_once(tmp_path, monkeypatch):
    # LossSpec.from_json reads its object through the losses module's _from_json
    calls = []
    from_json = sparsecov.losses._from_json
    monkeypatch.setattr(
        sparsecov.losses, "_from_json", lambda *a: calls.append(a[2]) or from_json(*a)
    )
    losses = [{"kind": "operator", "w": 2}, {"kind": "operator", "w": 1}]
    grid = grid_file(tmp_path, cells=[{"n": 60, "p": 20}], losses=losses, replicates=2)
    assert main(["simulate", "--config", str(grid), "--out", str(tmp_path / "r.csv")]) == 0
    assert calls == ["losses[0]", "losses[1]"]


def test_lowerbound_small_family_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "lowerbound", "--p", "6", "--n", "100", "--q", "0", "--c", "4",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["r"] == 3 and report["config"]["k"] == 1
    assert sorted(report["alpha"]) == ["bound"]
    assert report["chi_square"]["exact"] <= report["chi_square"]["envelope"]
    assert report["affinity"]["certified"] is True
    assert report["affinity"]["std_error"] == 0.0
    assert 0.0 < report["affinity"]["value"] <= 1.0
    assert report["lower_bound"] > 0.0
    assert report["seed"] == "3:0"
    assert "lower bound:" in capsys.readouterr().out


def test_lowerbound_seed_zero_report_is_pinned(tmp_path):
    # the p = 10 family of the lowerbound benchmark at seed 0: the closed-form
    # chi-square and the affinity 1 - sqrt(chi2) / 2 it certifies
    out = tmp_path / "report.json"
    code = main([
        "lowerbound", "--p", "10", "--n", "20", "--q", "0", "--c", "4",
        "--upsilon", "0.1", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["chi_square"]["exact"] == 0.00567085497732043
    assert report["affinity"] == {
        "value": 0.9623474603203169, "std_error": 0.0, "certified": True,
    }


def test_lowerbound_records_seed_zero_when_none_is_given(tmp_path):
    out = tmp_path / "report.json"
    flags = ["--p", "10", "--n", "20", "--q", "0", "--c", "4"]
    assert main(["lowerbound", *flags, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == "0:0"


def test_lowerbound_certifies_a_family_too_large_to_enumerate(tmp_path):
    # 1,889,280 members: the closed form needs none of them
    out = tmp_path / "report.json"
    code = main([
        "lowerbound", "--p", "12", "--n", "20", "--q", "0", "--c", "4",
        "--upsilon", "0.1", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["affinity"]["value"] == pytest.approx(0.96387, abs=1e-5)


def test_manifest_records_numpy_only_when_the_command_loaded_it(tmp_path):
    # lowerbound loads no numpy, so its output cannot depend on the numpy or
    # BLAS build, and its manifest writes null for both; simulate (like
    # estimate, tested in-process above) records the build its bytes depend on
    root = Path(__file__).resolve().parent.parent
    grid = grid_file(tmp_path, cells=[{"n": 30, "p": 10}, {"n": 60, "p": 20}], replicates=2)
    manifests = {}
    for command, suffix in (
        (["lowerbound", "--p", "10", "--n", "20", "--q", "0", "--c", "4"], "json"),
        (["simulate", "--config", str(grid)], "csv"),
    ):
        out = tmp_path / f"{command[0]}.{suffix}"
        proc = subprocess.run(
            [sys.executable, "-m", "sparsecov.cli", *command, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        manifests[command[0]] = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifests["lowerbound"]["numpy"] is None
    assert manifests["lowerbound"]["blas"] == {"name": None, "version": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifests["simulate"]["numpy"] == np.__version__
    assert manifests["simulate"]["blas"] == {"name": blas["name"], "version": blas["version"]}


def test_lowerbound_report_is_independent_of_blas_threads(tmp_path):
    # the process's BLAS thread count cannot reach the report's bytes
    root = Path(__file__).resolve().parent.parent
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "sparsecov.cli", "lowerbound", "--p", "10",
                "--n", "20", "--q", "0", "--c", "4",
                "--seed", "0", "--out", str(out),
            ],
            env={**os.environ, "PYTHONPATH": str(root / "src"),
                 "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / f"report-{threads}.json.manifest.json").read_text())
        assert manifest["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_lowerbound_certifies_a_family_whose_columns_all_stay_free(tmp_path):
    # r = k = 3, 8 members: no column can reach 2k uses, so all r columns
    # stay free; r - (r - 1) // 2 = 2 < k would leave no first-row pattern.
    # At k >= 2 the envelope certifies, and no exact value is computed
    out = tmp_path / "report.json"
    code = main([
        "lowerbound", "--p", "6", "--n", "50", "--q", "0", "--c", "8",
        "--upsilon", "0.1", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    chi2 = report["chi_square"]
    assert chi2["p_lambda_min"] == 3
    assert chi2["exact"] is None
    assert report["affinity"]["value"] == 1.0 - 0.5 * math.sqrt(chi2["envelope"])
    assert report["affinity"]["value"] == pytest.approx(0.88208, abs=1e-5)


# A fresh interpreter imports the CLI, then runs --version and lowerbound at
# k = 1 and k = 3 with a report and its manifest, and prints which of the
# given modules it has loaded.
_LOADED_BY_LOWERBOUND = """
import json, sys
import sparsecov.cli
out, watched = sys.argv[1], sys.argv[2:]
try:
    sparsecov.cli.main(["--version"])
except SystemExit:
    pass
for flags in (["--p", "10000", "--n", "40000", "--c", "4"],
              ["--p", "1000", "--n", "4000", "--c", "8"]):
    assert sparsecov.cli.main(["lowerbound", *flags, "--q", "0", "--out", out]) == 0
print(json.dumps(sorted(set(watched) & set(sys.modules))))
"""


_LOADED_BY_SIMULATE = """
import json, sys
import sparsecov.cli
config, out = sys.argv[1:]
assert sparsecov.cli.main(["simulate", "--config", config, "--out", out]) == 0
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_simulate_leaves_numpy_ma_unloaded(tmp_path):
    # a cell's median is statistics.median: np.median imports numpy.ma, which
    # costs every simulate run milliseconds and more than a megabyte
    config = grid_file(tmp_path, cells=[{"n": 30, "p": 10}, {"n": 60, "p": 20}])
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_SIMULATE, str(config), str(tmp_path / "r.csv")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) is False


def test_cli_import_loads_no_pool_and_no_oracle(tmp_path):
    # the lab oracles and their thread pool are for tests only, and the
    # command loads no numpy (nor the ctypes that numpy loads); the bare
    # interpreter already holds threading, so that is not checked
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [
            sys.executable, "-c", _LOADED_BY_LOWERBOUND, str(tmp_path / "report.json"),
            "concurrent.futures", "lab_oracles", "numpy", "ctypes",
        ],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    # nor do the family's walkers, counters and budget live beside the CLI;
    # certify is the one place the bound is assembled, and run_grid the one
    # way into the risk pipeline
    for module, names in (
        (sparsecov.model_spaces, ("_usage_profiles", "_iter_lambda", "count_theta")),
        (sparsecov.lower_bound, (
            "exact_chi_square_small", "DEFAULT_ENUMERATION_BUDGET",
            "certified_affinity", "assemble_lower_bound", "CertifiedAffinity",
        )),
        (sparsecov.risk, ("run_risk_cell",)),
    ):
        assert [name for name in names if hasattr(module, name)] == []


def test_lowerbound_trivial_when_k_is_zero(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "lowerbound", "--p", "8", "--n", "20", "--q", "0", "--c", "1",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["k"] == 0
    assert report["chi_square"]["envelope"] == 0.0
    assert report["lower_bound"] == 0.0
    assert report["affinity"] == {"value": 1.0, "std_error": 0.0, "certified": True}


@pytest.mark.parametrize(
    "p, n, c, affinity",
    [
        ("10000", "40000", "4", 0.99739),  # k = 1, r = 5000: the one-sum
        ("1000", "4000", "8", 0.97436),  # k = 3, r = 500: the envelope
    ],
)
def test_lowerbound_certifies_any_p_in_under_a_second(tmp_path, p, n, c, affinity):
    # the command's own time, from the manifest: interpreter start-up does
    # not depend on p, and the command loads no numpy
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "sparsecov.cli", "lowerbound", "--p", p,
            "--n", n, "--q", "0", "--c", c, "--out", str(out),
        ],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["elapsed_seconds"] < 1.0
    assert json.loads(out.read_text())["affinity"]["value"] == pytest.approx(affinity, abs=1e-4)


def test_readme_lowerbound_lines_exit_zero(tmp_path, monkeypatch, capsys):
    # every `sparsecov lowerbound` command in the README's code blocks
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [
        line.strip() for block in readme.split("```")[1::2] for line in block.splitlines()
        if line.strip().startswith("sparsecov lowerbound")
    ]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, out",
    [
        (["estimate", "--covariance", "cov.csv", "--n", "50"], "estimate.csv"),
        (["simulate", "--config", "grid.json"], "records.csv"),
        (["lowerbound", "--p", "10", "--n", "20", "--q", "0", "--c", "4"], "report.json"),
    ],
    ids=["estimate", "simulate", "lowerbound"],
)
def test_manifest_lists_the_output_it_sits_beside(tmp_path, monkeypatch, command, out):
    monkeypatch.chdir(tmp_path)
    save_matrix_csv("cov.csv", np.eye(5) + 0.1)
    grid_file(tmp_path, cells=[{"n": 60, "p": 20}], replicates=2)
    assert main([*command, "--out", out]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["command"] == command[0]
    assert manifest["outputs"] == [out]


def test_simulate_prints_a_degenerate_rate_fit_as_skipped(tmp_path, capsys):
    # two cells cannot fit a rate: the grid reports it and still succeeds
    grid = grid_file(tmp_path, cells=[{"n": 60, "p": 20}, {"n": 120, "p": 40}], replicates=2)
    assert main(["simulate", "--config", str(grid)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "fit e0/l0: skipped (rate fit needs at least 3 cells, got 2)"
    )


FSTAR = {"kind": "fstar", "q": 0, "c": 4, "upsilon": 0.1}


@pytest.mark.parametrize("seed", [7, "7", "7:0", 7.0])
def test_grid_seed_reads_an_integer_or_its_string_forms(tmp_path, seed):
    # the grid's seed and an fstar truth's theta_seed, both given in this
    # form, write the records the JSON integer 7 gives in both
    records = []
    for form in (seed, 7):
        out = tmp_path / f"r{len(records)}.csv"
        cells = [{"n": 60, "p": 20}, {"n": 120, "p": 40}]
        truth = {**FSTAR, "theta_seed": form}
        config = grid_file(tmp_path, cells=cells, truth=truth, replicates=2, seed=form)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        records.append(out.read_bytes())
    assert records[0] == records[1]


def test_integral_float_grid_field_reads_as_its_integer(tmp_path):
    # 20.0 is the JSON integer 20: the records match byte for byte
    outs = []
    for n, band in ((60, 2), (60.0, 2.0)):
        cells = [{"n": n, "p": 20}, {"n": 120, "p": 40}, {"n": 240, "p": 80}]
        truth = {"kind": "banded", "band": band, "scale": 1.0}
        out = tmp_path / f"r{len(outs)}.csv"
        config = grid_file(tmp_path, cells=cells, truth=truth, replicates=2.0)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("row", ["band-not-below-p", "fstar-at-n-one", "fstar-k-above-r"])
def test_grid_refuses_a_truth_a_later_cell_cannot_hold_before_any_cell_runs(
    tmp_path, monkeypatch, capsys, row
):
    calls = []
    run_cell = sparsecov.risk._run_cell
    monkeypatch.setattr(sparsecov.risk, "_run_cell", lambda *a: calls.append(1) or run_cell(*a))
    refuses(ROWS[row], tmp_path, monkeypatch, capsys)
    assert calls == []


def test_simulate_refuses_a_cell_larger_than_memory_before_allocating(tmp_path, capsys):
    # five matrices and the eigh workspace at n = p = 10^6 need 56 TB: the
    # grid is refused from its cell sizes, not after numpy fails to allocate
    grid = grid_file(tmp_path, cells=[{"n": 10**6, "p": 10**6}])
    tracemalloc.start()
    try:
        started = time.perf_counter()
        code = main(["simulate", "--config", str(grid)])
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert capsys.readouterr().err.startswith(
        "error: budget exceeded: a cell at n = 1000000, p = 1000000 needs about 5.6e+04 GB"
    )
    assert elapsed < 1.0
    assert peak < 2**20


def test_simulate_counts_the_loss_array_in_the_memory_model(tmp_path, monkeypatch, capsys):
    # at n = p = 2 the matrices need 224 bytes and the 1,000 losses 8,000:
    # only the loss array takes the cell past a 4 KB machine
    calls = []
    run_cell = sparsecov.risk._run_cell
    monkeypatch.setattr(sparsecov.risk, "_run_cell", lambda *a: calls.append(1) or run_cell(*a))
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}.get)
    grid = grid_file(
        tmp_path, cells=[{"n": 2, "p": 2}], truth={"kind": "identity"}, replicates=1000
    )
    assert main(["simulate", "--config", str(grid)]) == 4
    assert capsys.readouterr().err == (
        "error: budget exceeded: a cell at n = 2, p = 2 needs about 8.22e-06 GB, "
        "more than the 4.1e-06 GB of physical memory\n"
    )
    assert calls == []


@pytest.mark.parametrize(
    "cells, replicates, message",
    [
        ([{"n": 20, "p": 10}], 8, "replicates must number at most 7, got 8"),
        ([{"n": 20, "p": 10}] * 8, 1, "cells must number at most 7, got 8"),
    ],
    ids=["replicates", "cells"],
)
def test_grid_refuses_more_draws_than_a_seed_has_substreams(
    tmp_path, monkeypatch, capsys, cells, replicates, message
):
    # a seed indexes 2^SUBSTREAM_BITS - 1 substreams; at 24 bits the first
    # cell of 2^24 replicates ran for hours before the last index failed
    calls = []
    run_cell = sparsecov.risk._run_cell
    monkeypatch.setattr(sparsecov.risk, "_run_cell", lambda *a: calls.append(1) or run_cell(*a))
    monkeypatch.setattr(sparsecov.rng, "SUBSTREAM_BITS", 3)
    grid = grid_file(tmp_path, cells=cells, replicates=replicates)
    assert main(["simulate", "--config", str(grid)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    # one fewer fits
    grid = grid_file(tmp_path, cells=cells[:7], replicates=min(replicates, 7))
    assert main(["simulate", "--config", str(grid)]) == 0


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _boom(cls):
    def trigger():
        raise cls("boom")

    return trigger


# a p = 2 banded truth with off-diagonal 1: singular, so it samples, but
# outside the Stein generator's domain, so every replicate fails the loss
_SINGULAR_TRUTH_GRID = {
    "cells": [{"n": 40, "p": 2}],
    "truth": {"kind": "banded", "band": 1, "scale": 1.0 / math.sqrt(math.log(2) / 40)},
    "estimators": [{"rule": "hard", "gamma": 2.0}],
    "losses": [{"kind": "bregman", "phi": "stein"}],
    "replicates": 3,
    "seed": 5,
}

# The documented exit codes, written out independently of the CLI's table:
# (case, class, what raises it, exit code, stderr prefix).
EXIT_CASES = [
    (BudgetError.__name__, BudgetError, _boom(BudgetError), 4, "error: budget exceeded: "),
    (MemoryError.__name__, MemoryError, _boom(MemoryError), 4, "error: budget exceeded: "),
    (DomainError.__name__, DomainError, _boom(DomainError), 3, "error: boom"),
    (EigenError.__name__, EigenError, _boom(EigenError), 3, "error: boom"),
    (ConfigError.__name__, ConfigError, _boom(ConfigError), 2, "error: boom"),
    (SchemaError.__name__, SchemaError, _boom(SchemaError), 2, "error: boom"),
    (SparseCovError.__name__, SparseCovError, _boom(SparseCovError), 2, "error: boom"),
    (OSError.__name__, OSError, _boom(OSError), 2, "error: boom"),
    (ValueError.__name__, ValueError, _boom(ValueError), 2, "error: boom"),
    (KeyError.__name__, KeyError, _boom(KeyError), 2, "error: 'boom'"),
    # each refusal that had a class of its own, raised where it is raised,
    # keeps its exit code under the class it was folded into
    (
        "StructureError", ConfigError,
        lambda: validate_theta(
            build_config(6, 100, 0.0, 4.0, 0.1), ThetaIndex(gamma=(1, 0), rows=((3,), (4,), (5,)))
        ),
        2, "error: gamma has length 2, expected r = 3\n",
    ),
    (
        "NotPSDError", DomainError, lambda: sqrt_psd(np.diag([1.0, -1.0])),
        3, "error: matrix is not positive semidefinite: min eigenvalue -1.000e+00\n",
    ),
    (
        "DivergenceError", DomainError,
        lambda: chi_square_mixture_bound(
            LeastFavorableConfig(p=8, n=2, q=0.0, c=4.0, upsilon=3.0, r=4, k=1, epsilon=1.2)
        ),
        3, "error: rho = 2 k^2 epsilon^2 = 2.88 >= 1; envelope diverges\n",
    ),
    (
        "CellError", DomainError, lambda: run_grid(_SINGULAR_TRUTH_GRID),
        3, "error: cell cell-000-e0-l0: 3/3 replicates failed the loss\n",
    ),
    (
        "FitError", DomainError, lambda: rate_fit([]),
        3, "error: rate fit needs at least 3 cells, got 0\n",
    ),
]


def test_exit_cases_cover_every_row_of_the_table():
    listed = {cls for _, cls, _, _, _ in EXIT_CASES}
    for classes, _, _ in _EXIT_CODES:
        assert set(classes) <= listed


@pytest.mark.parametrize(
    "cls, trigger, code, prefix", [case[1:] for case in EXIT_CASES],
    ids=[case[0] for case in EXIT_CASES],
)
def test_every_error_class_maps_to_its_exit_code(
    tmp_path, monkeypatch, capsys, cls, trigger, code, prefix
):
    with pytest.raises(cls) as raised:
        trigger()

    def fail(grid):
        raise raised.value  # as raised at its real site, which may itself run a grid

    monkeypatch.setattr("sparsecov.risk._run_grid", fail)
    assert main(["simulate", "--config", str(grid_file(tmp_path))]) == code
    assert capsys.readouterr().err.startswith(prefix)


def test_unmapped_errors_propagate(tmp_path, monkeypatch):
    def fail(grid):
        raise RuntimeError("not a user error")

    monkeypatch.setattr("sparsecov.risk._run_grid", fail)
    with pytest.raises(RuntimeError):
        main(["simulate", "--config", str(grid_file(tmp_path))])
