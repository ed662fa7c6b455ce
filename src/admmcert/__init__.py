"""Two-block splitting solver with machine-checked convergence certificates."""

from .errors import (
    AdmmError,
    IllConditionedError,
    InnerSolveError,
    OracleConvergenceError,
    ParameterError,
    ProblemConstructionError,
    UnsupportedProblemError,
)
from .functions import AffineIndicator, HuberSmoothedL1, Quadratic, ScaledL1
from .problems import (
    ProblemSpec,
    SaddlePoint,
    build_basis_pursuit,
    build_generalized_lasso,
    kkt_residuals,
    load_instance,
    save_instance,
)
from .prox import FactorizationCache, huber_prox, soft_threshold
from .solver import IterateState, SolverConfig, Trace, admm_step, run
from .diagnostics import (
    CertificateEntry,
    CertificateReport,
    certify_general,
    certify_standard,
)
from .oracle import long_run_oracle, saddle_point_oracle, sign_pattern_oracle
from .ode import (
    ContinuousState,
    IntegratorConfig,
    certify_continuous,
    high_res_implicit_step,
    simulate_high_res,
    simulate_low_res,
)
from . import library

__version__ = "0.1.0"

__all__ = [
    "AdmmError",
    "AffineIndicator",
    "CertificateEntry",
    "CertificateReport",
    "ContinuousState",
    "FactorizationCache",
    "HuberSmoothedL1",
    "IllConditionedError",
    "InnerSolveError",
    "IntegratorConfig",
    "IterateState",
    "OracleConvergenceError",
    "ParameterError",
    "ProblemConstructionError",
    "ProblemSpec",
    "Quadratic",
    "SaddlePoint",
    "ScaledL1",
    "SolverConfig",
    "Trace",
    "UnsupportedProblemError",
    "admm_step",
    "build_basis_pursuit",
    "build_generalized_lasso",
    "certify_continuous",
    "certify_general",
    "certify_standard",
    "high_res_implicit_step",
    "huber_prox",
    "kkt_residuals",
    "library",
    "load_instance",
    "long_run_oracle",
    "run",
    "saddle_point_oracle",
    "save_instance",
    "sign_pattern_oracle",
    "simulate_high_res",
    "simulate_low_res",
    "soft_threshold",
]
