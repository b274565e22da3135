"""Sparse covariance estimation by thresholding, with a risk and lower-bound lab."""

__version__ = "0.1.0"

from .errors import (
    AsymmetryError,
    BudgetError,
    CellError,
    ConfigError,
    DivergenceError,
    DomainError,
    EigenError,
    FitError,
    NormOrderError,
    NotPSDError,
    SchemaError,
    SparseCovError,
    StructureError,
)
from .rng import RngSeed
from .matrices import (
    EigenDecomposition,
    as_symmetric,
    frobenius_norm,
    load_matrix_csv,
    matrix_function,
    operator_norm,
    save_matrix_csv,
    sym_eigen,
)
from .model_spaces import (
    LeastFavorableConfig,
    SparsityClassSpec,
    ThetaIndex,
    build_config,
    class_membership,
    materialize_sigma,
    sample_theta,
    validate_theta,
    weak_lq_radius,
)
from .sampling import (
    load_data_csv,
    mle_covariance,
    sample_gaussian,
    save_data_csv,
    sqrt_psd,
)
from .estimators import (
    EstimatorSpec,
    apply_estimator,
    bregman_guard,
    psd_project,
    threshold_estimate,
    threshold_level,
)
from .losses import (
    STEIN,
    SQUARED_FROBENIUS,
    VON_NEUMANN,
    BregmanPhi,
    LossSpec,
    bregman_divergence,
    closed_form_divergence,
    evaluate_loss,
    resolve_phi,
)
from .lower_bound import (
    Certificate,
    certify,
    chi_square_mixture_bound,
    closed_form_chi_square,
    overlap_fractions,
)
from .risk import (
    GridResult,
    RateFit,
    RiskRecord,
    banded_sigma,
    export_records,
    materialize_truth,
    rate_fit,
    run_grid,
    run_risk_cell,
    toeplitz_decay_sigma,
)

__all__ = [name for name in dir() if not name.startswith("_")]
