"""Exception types shared across the package."""


class AdmmError(Exception):
    """Base class for all errors raised by this package."""


class ProblemConstructionError(AdmmError, ValueError):
    """Raised when problem data is inconsistent or degenerate."""


class ParameterError(AdmmError, ValueError):
    """Raised for out-of-range algorithm parameters (step size, threshold, r)."""


class UnsupportedProblemError(AdmmError, ValueError):
    """Raised when a subproblem has no closed-form solver for the given structure."""


class _StepError(AdmmError, RuntimeError):
    """A step of a run that failed. ``k`` (a discrete step) or ``t`` (an integrator's
    time) names the failing row, once Trace.step_rows or Trace.raise_first has named
    it; both are None for a failure outside a row, such as a refused factorization."""

    def __init__(self, message, k=None, t=None):
        super().__init__(message)
        self.k = k
        self.t = t

    def __reduce__(self):
        # the default rebuilds from self.args, which lack k and t; a forked worker
        # pickles its exception
        return type(self), (str(self), self.k, self.t)


class IllConditionedError(_StepError):
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


class InnerSolveError(_StepError):
    """Raised when the implicit-step inner solver fails to reach tolerance."""
