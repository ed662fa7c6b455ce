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
# kept but not exported: perfbench/traced.py's probe calls FactorizationCache, admm_step
from .prox import huber_prox, soft_threshold
from .solver import SolverConfig, Trace, run
from .diagnostics import (
    CertificateEntry,
    CertificateReport,
    certify_continuous,
    certify_general,
    certify_standard,
)
from .oracle import long_run_oracle, saddle_point_oracle, sign_pattern_oracle
from .ode import ImplicitStep, IntegratorConfig, simulate_high_res, simulate_low_res
from . import library

__version__ = "0.1.0"

__all__ = [
    "AdmmError",
    "AffineIndicator",
    "CertificateEntry",
    "CertificateReport",
    "HuberSmoothedL1",
    "IllConditionedError",
    "ImplicitStep",
    "InnerSolveError",
    "IntegratorConfig",
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
    "build_basis_pursuit",
    "build_generalized_lasso",
    "certify_continuous",
    "certify_general",
    "certify_standard",
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
