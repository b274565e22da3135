"""The documented refusals of the ``sparsecov`` command, one row each.

A row is an argv, the input files it reads, the exit code and the one line
it prints to stderr.  ``test_refusal`` runs each row through
``sparsecov.cli.main`` in an empty directory, and checks that it prints
nothing to stdout and leaves no file behind.  The file imports nothing but
``sparsecov`` and pytest, so it tests whichever ``sparsecov`` the import
path finds: the checkout's ``src`` under the repository's pytest settings,
or an installed package when run with ``-o pythonpath=`` from outside the
checkout.  ``{tmp}`` in a message stands for the directory the row runs in.
"""

import json
import math
import shlex
from dataclasses import dataclass

import pytest

import sparsecov.model_spaces
from sparsecov.cli import main


@dataclass(frozen=True)
class Refusal:
    """``argv``, run in a directory holding ``files``, exits ``code`` and
    prints ``error: {message}`` to stderr.  Each file is a grid config
    object, written as JSON, or a matrix given by its rows, written as CSV."""

    id: str
    argv: tuple
    files: dict
    code: int
    message: str


def refusal(id, command, message, code=2, files=None):
    """The row whose argv is ``command`` split as a shell would split it."""
    return Refusal(id, tuple(shlex.split(command)), files or {}, code, message)


# A grid that runs: each simulate row replaces some of its keys.
GRID = {
    "cells": [{"n": 40, "p": 10}, {"n": 80, "p": 20}, {"n": 160, "p": 40}],
    "truth": {"kind": "banded", "band": 2, "scale": 1.0},
    "estimators": [{"rule": "hard", "gamma": 2.0}],
    "losses": [{"kind": "operator", "w": 2}],
    "replicates": 3,
    "seed": 7,
}
CELL, OPERATOR = {"n": 20, "p": 10}, {"kind": "operator", "w": 2}
FSTAR = {"kind": "fstar", "q": 0, "c": 4, "upsilon": 0.1}
DECAY = {"kind": "decay", "amplitude": 0.3, "exponent": 2.0}
COV = [[1.1 if i == j else 0.1 for j in range(5)] for i in range(5)]
ASYMMETRIC = [[1.0, 0.3, 0.0, 0.0, 0.0]] + [[float(i == j) for j in range(5)] for i in range(1, 5)]
LOWERBOUND = "lowerbound --p 10 --n 20 --q 0 --c 4"
GRID_KEYS = "expected keys ['cells', 'estimators', 'losses', 'replicates', 'seed', 'truth']"
ESTIMATOR_KEYS = "expected keys ['corrections', 'eta', 'gamma', 'keep_diagonal', 'rule']"
SEED_FORMS = "must be an integer in [0, 2^64) or 'seed:stream', got"
NOT_WRITABLE = "{tmp}/missing is not a writable directory"


def simulate(id, message, code=2, flags="", **grid):
    """``simulate`` on ``GRID`` with ``grid``'s keys replaced."""
    return refusal(id, f"simulate --config grid.json {flags}", message, code,
                   {"grid.json": {**GRID, **grid}})


def estimate(id, flags, message, matrix=COV):
    """``estimate`` with ``matrix`` as ``cov.csv``."""
    return refusal(id, f"estimate {flags}", message, files={"cov.csv": matrix})


REFUSALS = [
    # a key no reader reads, named with its path
    simulate("unknown-key-top", f"unknown key 'replicate' in grid config; {GRID_KEYS}",
             replicate=1),
    simulate("unknown-key-cells", "unknown key 'pp' in cells[0]; expected keys ['n', 'p']",
             cells=[{**CELL, "pp": 1}]),
    simulate("unknown-key-truth", "unknown key 'bnad' in truth (kind 'banded'); expected keys "
             "['band', 'kind', 'scale']", truth={"kind": "banded", "band": 2, "bnad": 1}),
    simulate("unknown-key-estimators", f"unknown key 'psd_project' in estimators[0]; "
             f"{ESTIMATOR_KEYS}", estimators=[{"rule": "hard", "psd_project": 1}]),
    simulate("unknown-key-losses", "unknown key 'normalised' in losses[0] (kind 'operator'); "
             "expected keys ['kind', 'normalized', 'w']", losses=[{**OPERATOR, "normalised": 1}]),
    # the grid shape comes from cells alone, the fit target from the loss and the truth's q
    simulate("cells-and-n", f"unknown key 'n' in grid config; {GRID_KEYS}", n=[5]),
    simulate("cells-and-n-p", f"unknown key 'n' in grid config; {GRID_KEYS}", n=[5], p=[10]),
    simulate("p-array", f"unknown key 'p' in grid config; {GRID_KEYS}", p=[10]),
    simulate("target-exponent", f"unknown key 'target_exponent' in grid config; {GRID_KEYS}",
             target_exponent=1.0),
    # a banded truth's strength is its scale; an fstar member its theta_seed
    simulate("value-and-scale", "unknown key 'value' in truth (kind 'banded'); expected keys "
             "['band', 'kind', 'scale']", truth={**GRID["truth"], "value": 0.3}),
    simulate("theta-and-theta-seed", "unknown key 'theta' in truth (kind 'fstar'); expected keys "
             "['c', 'kind', 'q', 'theta_seed', 'upsilon']",
             truth={**FSTAR, "theta": {"gamma": [], "lambda": []}, "theta_seed": 1}),
    simulate("bregman-w", "unknown key 'w' in losses[0] (kind 'bregman'); expected keys "
             "['kind', 'normalized', 'phi']", losses=[{"kind": "bregman", "phi": "stein",
                                                       "w": 1}]),
    simulate("second-estimator-key", f"unknown key 'psd_project' in estimators[1]; "
             f"{ESTIMATOR_KEYS}", estimators=[{"rule": "hard"}, {"psd_project": 1}]),
    simulate("second-loss-key", "unknown key 'w' in losses[1] (kind 'frobenius-squared'); "
             "expected keys ['kind', 'normalized']",
             losses=[OPERATOR, {"kind": "frobenius-squared", "w": 1}]),
    # each part of the config has its JSON type
    # --seed replaces the seed of the grid it read, so a list is refused first
    refusal("config-not-object", "simulate --config grid.json --seed 3",
            "grid config must be a JSON object, got list", files={"grid.json": []}),
    refusal("config-missing", "simulate --config missing.json",
            "[Errno 2] No such file or directory: 'missing.json'"),
    simulate("truth-not-object", "truth must be a JSON object, got str", truth="banded"),
    simulate("cells-object", "cells must be a JSON array, got dict", cells=CELL),
    simulate("cells-empty", "grid has no cells", cells=[]),
    simulate("estimators-object", "estimators must be a JSON array, got dict",
             estimators={"rule": "hard"}),
    simulate("estimator-not-object", "estimators[0] must be a JSON object, got str",
             estimators=["hard"]),
    simulate("loss-not-object", "losses[0] must be a JSON object, got str", losses=["operator"]),
    simulate("cell-not-object", "cells[0] must be a JSON object, got list", cells=[[20, 10]]),
    # a cell too small to run; the guard a Stein loss adds needs two rows
    simulate("cell-negative-p", "cells[0].p must be at least 2, got -1000000",
             cells=[{"n": 100, "p": -1000000}]),
    simulate("cell-zero-n", "cells[1].n must be at least 1, got 0", cells=[CELL, {**CELL, "n": 0}]),
    simulate("late-cell-p-one", "cells[1].p must be at least 2, got 1",
             cells=[CELL, {"n": 300, "p": 1}]),
    simulate("late-cell-n-one-guarded", "cells[1].n must be at least 2, got 1",
             cells=[CELL, {"n": 1, "p": 10}], losses=[{"kind": "bregman", "phi": "stein"}]),
    # an integer field is not truncated
    simulate("cell-n-float", "cells[0].n must be an integer, got 20.9",
             cells=[{**CELL, "n": 20.9}]),
    simulate("cell-p-string", "cells[1].p must be an integer, got '20'",
             cells=[CELL, {"n": 40, "p": "20"}]),
    simulate("replicates-float", "replicates must be an integer, got 2.5", replicates=2.5),
    simulate("replicates-bool", "replicates must be an integer, got True", replicates=True),
    simulate("band-float", "truth.band must be an integer, got 1.7",
             truth={**GRID["truth"], "band": 1.7}),
    # a real field is a JSON number, a flag a JSON boolean
    simulate("keep-diagonal-string", "estimators[0].keep_diagonal must be true or false, "
             "got 'false'", estimators=[{"rule": "hard", "keep_diagonal": "false"}]),
    simulate("normalized-string", "losses[0].normalized must be true or false, got 'false'",
             losses=[{"kind": "frobenius-squared", "normalized": "false"}]),
    simulate("gamma-bool", "estimators[0].gamma must be a number, got True",
             estimators=[{"rule": "hard", "gamma": True}]),
    simulate("gamma-string", "estimators[0].gamma must be a number, got '2.5'",
             estimators=[{"rule": "hard", "gamma": "2.5"}]),
    simulate("second-estimator-gamma", "estimators[1].gamma must be a number, got '2'",
             estimators=[{"rule": "hard"}, {"rule": "soft", "gamma": "2"}]),
    simulate("w-bool", "losses[0].w must be a number, got True",
             losses=[{"kind": "operator", "w": True}]),
    simulate("second-loss-w", "losses[1].w must be a number, got '1'",
             losses=[OPERATOR, {"kind": "operator", "w": "1"}]),
    simulate("scale-bool", "truth.scale must be a number, got True",
             truth={**GRID["truth"], "scale": True}),
    simulate("amplitude-string", "truth.amplitude must be a number, got '0.3'",
             truth={**DECAY, "amplitude": "0.3"}),
    simulate("exponent-bool", "truth.exponent must be a number, got True",
             truth={**DECAY, "exponent": True}),
    simulate("q-string", "truth.q must be a number, got '0'", truth={**FSTAR, "q": "0"}),
    simulate("c-string", "truth.c must be a number, got '4'", truth={**FSTAR, "c": "4"}),
    simulate("upsilon-string", "truth.upsilon must be a number, got '0.1'",
             truth={**FSTAR, "upsilon": "0.1"}),
    # a value an entry's spec refuses is named with the entry's index
    simulate("second-estimator-gamma-value", "estimators[1]: gamma must be positive, got -1.0",
             estimators=[{"rule": "hard"}, {"rule": "hard", "gamma": -1}]),
    simulate("second-loss-w-value", "losses[1]: operator loss needs w in {1, 2, inf}, got 3",
             losses=[OPERATOR, {"kind": "operator", "w": 3}]),
    simulate("normalized-operator", "losses[0]: operator loss cannot be normalized",
             losses=[{**OPERATOR, "normalized": True}]),
    simulate("bregman-phi-unknown", "losses[1]: generator must be one of "
             "['squared-frobenius', 'stein', 'von-neumann'], got 'frobenius'",
             losses=[OPERATOR, {"kind": "bregman", "phi": "frobenius"}]),
    # an infinite threshold would zero every entry and still look like an estimate
    simulate("grid-gamma-inf", "estimators[0]: gamma must be finite, got inf",
             flags="--out records.csv", estimators=[{"rule": "hard", "gamma": math.inf}]),
    simulate("grid-eta-inf", "estimators[0]: eta must be finite, got inf",
             flags="--out records.csv", estimators=[{"rule": "adaptive-lasso", "eta": math.inf}]),
    simulate("grid-gamma-minus-inf", "estimators[0]: gamma must be positive, got -inf",
             flags="--out records.csv", estimators=[{"rule": "hard", "gamma": -math.inf}]),
    estimate("estimate-gamma-inf", "--covariance cov.csv --n 50 --gamma inf --out estimate.csv",
             "gamma must be finite, got inf"),
    estimate("estimate-eta-inf", "--covariance cov.csv --n 50 --rule adaptive-lasso --eta inf "
             "--out estimate.csv", "eta must be finite, got inf"),
    estimate("estimate-gamma-nan", "--covariance cov.csv --n 50 --gamma nan --out estimate.csv",
             "gamma must be positive, got nan"),
    # a truth's reals are finite, and a decay truth's q = 1 / exponent lies in [0, 1);
    # 1^(-inf) = 1 would put ones beside the diagonal
    simulate("truth-scale-inf", "truth.scale must be finite, got inf",
             truth={**GRID["truth"], "scale": math.inf}),
    simulate("truth-amplitude-nan", "truth.amplitude must be finite, got nan",
             truth={**DECAY, "amplitude": math.nan}),
    simulate("truth-exponent-inf", "truth.exponent must be finite, got inf",
             truth={"kind": "decay", "amplitude": 1.0, "exponent": math.inf}),
    simulate("decay-exponent", "truth.exponent must exceed 1, got 0.8",
             truth={**DECAY, "exponent": 0.8}),
    simulate("fstar-non-finite-c", "truth.c must be finite, got inf",
             truth={**FSTAR, "c": math.inf}),
    simulate("fstar-non-finite-upsilon", "truth.upsilon must be finite, got inf",
             truth={**FSTAR, "upsilon": math.inf}),
    refusal("lowerbound-c-inf", "lowerbound --p 10 --n 20 --q 0 --c inf --out report.json",
            "c must be positive and finite, got inf"),
    refusal("lowerbound-upsilon-inf", f"{LOWERBOUND} --upsilon inf --out report.json",
            "upsilon must be positive and finite, got inf"),
    # a truth some cell cannot hold, named with the cell, before any cell runs
    simulate("band-not-below-p", "cells[2]: invalid banded truth: p=3, band=3",
             cells=[*GRID["cells"][:2], {"n": 60, "p": 3}], truth={"kind": "banded", "band": 3}),
    simulate("fstar-at-n-one", "cells[2]: 2*k*epsilon = 0.384129 >= 1/3; shrink c or upsilon, "
             "or raise n", cells=[*GRID["cells"][:2], {"n": 1, "p": 40}], truth=FSTAR),
    simulate("fstar-k-above-r", "cells[2]: k = 2 exceeds r = 1; the family would be empty",
             cells=[*GRID["cells"][:2], {"n": 60, "p": 3}], truth={**FSTAR, "c": 6}),
    refusal("lowerbound-infeasible", "lowerbound --p 8 --n 2 --q 0 --c 6 --upsilon 1.0",
            "2*k*epsilon = 4.07867 >= 1/3; shrink c or upsilon, or raise n"),
    # corrections are an array of strings, a kind a string
    simulate("corrections-number", "estimators[0].corrections must be an array of strings, got 5",
             estimators=[{"rule": "hard", "corrections": 5}]),
    simulate("corrections-string", "estimators[0].corrections must be an array of strings, "
             "got 'psd-project'", estimators=[{"rule": "hard", "corrections": "psd-project"}]),
    simulate("loss-kind-array", "losses[0].kind must be a string, got ['operator']",
             losses=[{"kind": ["operator"]}]),
    simulate("loss-kind-object", "losses[0].kind must be a string, got {'operator': 2}",
             losses=[{"kind": {"operator": 2}}]),
    simulate("truth-kind-array", "truth.kind must be a string, got ['banded']",
             truth={"kind": ["banded"], "band": 2}),
    simulate("truth-kind-object", "truth.kind must be a string, got {'banded': 2}",
             truth={"kind": {"banded": 2}}),
    # a required key left out, named with its path
    simulate("banded-no-band", "truth.band is required", truth={"kind": "banded"}),
    simulate("cell-no-n", "cells[1].n is required", cells=[CELL, {"p": 10}]),
    simulate("cell-no-p", "cells[0].p is required", cells=[{"n": 20}]),
    simulate("fstar-no-q", "truth.q is required", truth={"kind": "fstar", "c": 4}),
    simulate("fstar-no-c", "truth.c is required", truth={"kind": "fstar", "q": 0}),
    simulate("decay-no-exponent", "truth.exponent is required",
             truth={"kind": "decay", "amplitude": 0.3}),
    simulate("truth-no-kind", "truth.kind is required", truth={"band": 2}),
    refusal("lowerbound-missing-c", "lowerbound --p 8 --n 20", "lowerbound needs --p --n --q --c"),
    # a seed is an integer in [0, 2^64) or a string of ASCII digits
    simulate("seed-float", f"seed {SEED_FORMS} 1.5", seed=1.5),
    simulate("seed-bool", f"seed {SEED_FORMS} True", seed=True),
    simulate("seed-bad-stream", f"seed {SEED_FORMS} '7:x'", seed="7:x"),
    simulate("seed-negative", f"seed {SEED_FORMS} -1", seed=-1),
    simulate("seed-underscore", f"seed {SEED_FORMS} '1_0'", seed="1_0"),
    simulate("seed-space", f"seed {SEED_FORMS} ' 7'", seed=" 7"),
    simulate("seed-plus", f"seed {SEED_FORMS} '+7'", seed="+7"),
    simulate("seed-empty-stream", f"seed {SEED_FORMS} '7:'", seed="7:"),
    simulate("theta-seed-negative", f"truth.theta_seed {SEED_FORMS} -1",
             truth={**FSTAR, "theta_seed": -1}),
    simulate("theta-seed-too-large", f"truth.theta_seed {SEED_FORMS} {2**64}",
             truth={**FSTAR, "theta_seed": 2**64}),
    simulate("theta-seed-float", f"truth.theta_seed {SEED_FORMS} 1.5",
             truth={**FSTAR, "theta_seed": 1.5}),
    simulate("theta-seed-bool", f"truth.theta_seed {SEED_FORMS} False",
             truth={**FSTAR, "theta_seed": False}),
    simulate("simulate-seed-abc", f"--seed {SEED_FORMS} 'abc'", flags="--seed abc"),
    *(refusal(f"lowerbound-seed-{seed}", f"{LOWERBOUND} --seed {shlex.quote(seed)}",
              f"--seed {SEED_FORMS} {seed!r}")
      for seed in ("abc", "1.5", "-1", "3:x", "", "1_0", " 7", "+7", "7:")),
    # more draws than one seed has substreams, before the first cell runs
    simulate("too-many-replicates", "replicates must number at most 16777215, got 16777216",
             replicates=2**24),
    # an --out that cannot be written, before the command computes anything and
    # before the losses are checked against its format
    simulate("simulate-out-missing-directory", f"cannot write missing/records.csv: {NOT_WRITABLE}",
             flags="--out missing/records.csv", losses=[OPERATOR, {"kind": "frobenius-squared"}]),
    refusal("lowerbound-out-missing-directory", f"{LOWERBOUND} --out missing/report.json",
            f"cannot write missing/report.json: {NOT_WRITABLE}"),
    estimate("estimate-out-missing-directory", "--covariance cov.csv --n 50 --out "
             "missing/estimate.csv", f"cannot write missing/estimate.csv: {NOT_WRITABLE}"),
    simulate("out-unknown-format", "unknown export format 'txt'", flags="--out records.txt"),
    refusal("out-format-in-a-dotted-directory", "simulate --config runs.v2/grid.json --out "
            "runs.v2/records", "unknown export format ''", files={"runs.v2/grid.json": GRID}),
    simulate("out-mixed-loss-kinds", "mixed loss kinds [('frobenius-squared', False), "
             "('operator', False)] cannot share one flat csv; export as json or split the "
             "record set", flags="--out records.csv",
             losses=[OPERATOR, {"kind": "frobenius-squared"}]),
    # estimate reads exactly one source, and n from it or from --n
    estimate("estimate-no-source", "", "provide exactly one of --data or --covariance"),
    estimate("estimate-both-sources", "--data cov.csv --covariance cov.csv",
             "provide exactly one of --data or --covariance"),
    estimate("estimate-data-with-n", "--data cov.csv --n 1000",
             "--n goes with --covariance; --data takes n from its rows"),
    estimate("estimate-covariance-without-n", "--covariance cov.csv",
             "--covariance needs --n (sample size behind it)"),
    # one folded error class of each exit code: a matrix too far from symmetric is a
    # ConfigError; a truth that is not PSD and a chi-square too large for a float are
    # DomainErrors
    estimate("asymmetric-covariance", "--covariance cov.csv --n 50", "matrix asymmetry "
             "3.000e-01 exceeds tolerance 2.000e-12; symmetrize explicitly if this is intended",
             matrix=ASYMMETRIC),
    simulate("truth-not-psd", "matrix is not positive semidefinite: min eigenvalue -4.396e-01",
             code=3, cells=[{"n": 40, "p": 10}], truth={**GRID["truth"], "scale": 3.0}),
    refusal("chi-square-overflow", "lowerbound --p 1000 --n 40000 --q 0 --c 4 --upsilon 11 "
            "--out report.json", "(1 - epsilon^2 (k + k delta))^(-n) overflows at n = 40000, "
            "base 0.978193; envelope diverges", code=3),
]
ROWS = {row.id: row for row in REFUSALS}


def refuses(row, tmp_path, monkeypatch, capsys):
    """Write ``row``'s files into the empty ``tmp_path``, run its argv there,
    and check its exit code, its stderr, an empty stdout and that it created
    nothing."""
    monkeypatch.chdir(tmp_path)
    for name, content in row.files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if name.endswith(".json"):
            path.write_text(json.dumps(content))
        else:
            path.write_text("".join(",".join(map(str, r)) + "\n" for r in content))
    before = sorted(tmp_path.rglob("*"))
    assert main(list(row.argv)) == row.code
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: {row.message.replace('{tmp}', str(tmp_path))}\n"
    assert sorted(tmp_path.rglob("*")) == before


# one id per distinct row id: a repeated id fails collection
@pytest.mark.parametrize("row", REFUSALS, ids=list(ROWS))
def test_refusal(row, tmp_path, monkeypatch, capsys):
    refuses(row, tmp_path, monkeypatch, capsys)


def test_fstar_truth_whose_draw_finds_no_member(tmp_path, monkeypatch, capsys):
    # at p = 800, c = 4, q = 0 (k = 1) no candidate of 2,000 meets the column
    # cap; the full 10^6 tries take 6-27 s, so the test gives up sooner
    monkeypatch.setattr(sparsecov.model_spaces, "_SAMPLE_MAX_TRIES", 2000)
    row = simulate("fstar-draw-fails", "rejection sampling failed after 2000 tries; the column "
                   "cap leaves too few valid tuples", cells=[{"n": 800, "p": 800}],
                   truth={**FSTAR, "theta_seed": 0}, replicates=1)
    refuses(row, tmp_path, monkeypatch, capsys)
