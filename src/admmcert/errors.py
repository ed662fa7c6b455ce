"""Exception types shared across the package."""


class AdmmError(Exception):
    """Base class for all errors raised by this package."""


class ProblemConstructionError(AdmmError, ValueError):
    """Raised when problem data is inconsistent or degenerate."""


class ParameterError(AdmmError, ValueError):
    """Raised for out-of-range algorithm parameters (step size, threshold, r)."""


class UnsupportedProblemError(AdmmError, ValueError):
    """Raised when a subproblem has no closed-form solver for the given structure."""


class IllConditionedError(AdmmError, RuntimeError):
    """Raised when the x-update linear system is too ill-conditioned to solve."""


class OracleConvergenceError(AdmmError, RuntimeError):
    """Raised when the saddle-point oracle exhausts its budget.

    Carries the best KKT residual achieved in ``best_residual``.
    """

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = float(best_residual)

    def __reduce__(self):
        # the default rebuilds from self.args, which lack best_residual
        return type(self), (str(self), self.best_residual)


class InnerSolveError(AdmmError, RuntimeError):
    """Raised when the implicit-step inner solver fails to reach tolerance."""
