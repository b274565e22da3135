"""The package's lazy public surface."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsecov

# Every public name of the package, written out: an export that goes
# missing from the surface fails here.
PUBLIC = {
    "errors": [
        "AsymmetryError", "BudgetError", "CellError", "ConfigError", "DivergenceError",
        "DomainError", "EigenError", "FitError", "NormOrderError", "NotPSDError",
        "SchemaError", "SparseCovError", "StructureError",
    ],
    "rng": ["RngSeed"],
    "matrices": [
        "EigenDecomposition", "as_symmetric", "frobenius_norm", "load_matrix_csv",
        "matrix_function", "operator_norm", "save_matrix_csv", "sym_eigen",
    ],
    "model_spaces": [
        "LeastFavorableConfig", "SparsityClassSpec", "ThetaIndex", "build_config",
        "class_membership", "materialize_sigma", "sample_theta", "validate_theta",
        "weak_lq_radius",
    ],
    "sampling": [
        "load_data_csv", "mle_covariance", "sample_gaussian", "save_data_csv", "sqrt_psd",
    ],
    "estimators": [
        "EstimatorSpec", "apply_estimator", "bregman_guard", "psd_project",
        "threshold_estimate", "threshold_level",
    ],
    "losses": [
        "BregmanPhi", "LossSpec", "SQUARED_FROBENIUS", "STEIN", "VON_NEUMANN",
        "bregman_divergence", "closed_form_divergence", "evaluate_loss", "resolve_phi",
    ],
    "lower_bound": [
        "Certificate", "certify", "chi_square_mixture_bound", "closed_form_chi_square",
        "overlap_fractions",
    ],
    "risk": [
        "GridResult", "RateFit", "RiskRecord", "banded_sigma", "export_records",
        "materialize_truth", "rate_fit", "run_grid", "toeplitz_decay_sigma",
    ],
}
HOMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_every_public_name_and_submodule():
    assert sorted(sparsecov.__all__) == sorted([*PUBLIC, *(name for _, name in HOMES)])
    assert set(sparsecov.__all__) <= set(dir(sparsecov))


@pytest.mark.parametrize("module, name", HOMES, ids=[name for _, name in HOMES])
def test_each_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"sparsecov.{module}")
    assert getattr(sparsecov, name) is getattr(home, name)


def test_submodules_resolve_as_attributes():
    for module in PUBLIC:
        assert getattr(sparsecov, module) is importlib.import_module(f"sparsecov.{module}")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sparsecov import *", namespace)
    assert set(sparsecov.__all__) <= set(namespace)
    assert namespace["certify"] is sparsecov.lower_bound.certify


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        sparsecov.not_a_name
    with pytest.raises(ImportError):
        exec("from sparsecov import not_a_name", {})


def test_import_loads_no_submodule_and_no_numpy():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import json, sys, sparsecov; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith(('sparsecov.', 'numpy')))))",
        ],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
