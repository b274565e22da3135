"""Sparse covariance estimation by thresholding, with a risk and lower-bound lab.

The package surface is lazy (PEP 562): ``import sparsecov`` loads no
submodule, and the first use of a name imports the module it lives in.  So
a caller that needs only the lower bound, like ``sparsecov lowerbound``,
never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name.
_HOMES = {
    "errors": (
        "AsymmetryError", "BudgetError", "CellError", "ConfigError", "DivergenceError",
        "DomainError", "EigenError", "FitError", "NormOrderError", "NotPSDError",
        "SchemaError", "SparseCovError", "StructureError",
    ),
    "rng": ("RngSeed",),
    "matrices": (
        "EigenDecomposition", "as_symmetric", "frobenius_norm", "load_matrix_csv",
        "matrix_function", "operator_norm", "save_matrix_csv", "sym_eigen",
    ),
    "model_spaces": (
        "LeastFavorableConfig", "SparsityClassSpec", "ThetaIndex", "build_config",
        "class_membership", "materialize_sigma", "sample_theta", "validate_theta",
        "weak_lq_radius",
    ),
    "sampling": (
        "load_data_csv", "mle_covariance", "sample_gaussian", "save_data_csv", "sqrt_psd",
    ),
    "estimators": (
        "EstimatorSpec", "apply_estimator", "bregman_guard", "psd_project",
        "threshold_estimate", "threshold_level",
    ),
    "losses": (
        "STEIN", "SQUARED_FROBENIUS", "VON_NEUMANN", "BregmanPhi", "LossSpec",
        "bregman_divergence", "closed_form_divergence", "evaluate_loss", "resolve_phi",
    ),
    "lower_bound": (
        "Certificate", "certify", "chi_square_mixture_bound", "closed_form_chi_square",
        "overlap_fractions",
    ),
    "risk": (
        "GridResult", "RateFit", "RiskRecord", "banded_sigma", "export_records",
        "materialize_truth", "rate_fit", "run_grid", "toeplitz_decay_sigma",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOMES, *_HOME])


def __getattr__(name):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
