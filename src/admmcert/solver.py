"""ADMM driver: the three-step iteration, the r-proximal variant, and traces.

The dual step is lam_{k+1} = lam_k + (F x_{k+1} + G y_{k+1} - h)/s, so
s*(lam_{k+1} - lam_k) equals the constraint violation at every iterate;
that identity is what pushes the trajectory off the constraint hyperplane
and is recorded per step. The run loop only steps and stores the iterates;
the per-row columns are computed from them afterwards, in one array pass.
A solver run's rows are serialized once, to trace.csv; trace.json holds only
its head (columns, config, stop reason) and names that CSV. One writer,
write_csv, writes every table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from .errors import IllConditionedError, ParameterError
from .problems import kkt_residuals
from .prox import FactorizationCache

STANDARD = "standard"
GENERAL = "general"

TRACE_CSV = "trace.csv"  # the rows of a solver run; trace.json names it
TRACE_SCALAR_COLUMNS = ["primal_res", "dual_x_res", "dual_y_res", "objective", "lyapunov", "ne"]


@dataclass
class IterateState:
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    k: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)


@dataclass
class SolverConfig:
    s: float = 1.0
    N: int = 100
    variant: str = STANDARD
    r: float | None = None

    def __post_init__(self):
        if not 0 < self.s < np.inf:
            raise ParameterError("step size s must be positive and finite")
        if self.N < 1:
            raise ParameterError("iteration count N must be at least 1")
        if self.variant not in (STANDARD, GENERAL):
            raise ParameterError(f"unknown variant {self.variant!r}")


class Trace:
    """The rows of one run, stored by column: the discrete iteration or an ODE.

    Row j holds the axis value (step k or time t), x_j, y_j and lambda_j as rows
    of the preallocated (n, d) arrays xs, ys and lams, and one value of each
    named per-row scalar column. The axis name and the x/y/lambda column
    prefixes are data, so one writer serves every trace. The trace fixes what its
    certificates read: the problem (spec), the step s (and delta) from config, a
    SolverConfig or IntegratorConfig, and the r an r-proximal run stepped with.
    """

    def __init__(self, spec, n, axis="k", prefixes=("x", "y", "lambda"),
                 scalars=TRACE_SCALAR_COLUMNS, config=None, r=None):
        self.spec = spec
        self.config = config
        self.r = r
        self.axis_name = axis
        self.prefixes = prefixes
        self.axis = np.zeros(n, dtype=int if axis == "k" else float)
        self.xs = np.zeros((n, spec.d1))
        self.ys = np.zeros((n, spec.d2))
        self.lams = np.zeros((n, spec.m))
        self.scalars = {name: np.full(n, np.nan) for name in scalars}

    def __len__(self):
        return self.axis.shape[0]

    def columns(self):
        (px, py, pl), spec = self.prefixes, self.spec
        cols = [self.axis_name]
        cols += [f"{px}{i}" for i in range(spec.d1)]
        cols += [f"{py}{i}" for i in range(spec.d2)]
        cols += [f"{pl}{i}" for i in range(spec.m)]
        cols += list(self.scalars)
        return cols

    def to_csv(self, path):
        """Write the header and the rows. Raises RuntimeError before the file is created
        unless every column has one entry per row, that is, unless every row has the
        header's width."""
        columns = self.columns()
        n, width = len(self), len(columns)
        blocks = [self.xs, self.ys, self.lams]
        blocks += [np.reshape(col, (-1, 1)) for col in self.scalars.values()]
        if any(b.shape[0] != n for b in blocks) or 1 + sum(b.shape[1] for b in blocks) != width:
            raise RuntimeError(f"trace rows do not all have the header's {width} columns")
        axis = self.axis.tolist()
        table = np.hstack([np.empty((n, 0))] + blocks[3:])  # the (n, c) scalar columns
        write_csv(path, columns, ([axis[j]] + self.xs[j].tolist() + self.ys[j].tolist()
                                  + self.lams[j].tolist() + table[j].tolist() for j in range(n)))

    def to_json(self, path):
        """The head of a solver run (runs always complete): what its CSV, written to
        TRACE_CSV beside it, lacks. The rows are only in the CSV."""
        config = {"s": self.config.s, "N": self.config.N, "variant": self.config.variant,
                  "r": self.config.r}
        head = {"columns": self.columns(), "config": config, "rows_file": TRACE_CSV,
                "stop_reason": "completed"}
        with open(path, "w") as fh:
            fh.write(json.dumps(head, sort_keys=True) + "\n")


def write_csv(path, columns, rows):
    """The one table writer: a header line, then each row's Python numbers by repr."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def admm_step(state, spec, s, cache=None, r=None):
    """One ADMM step: x-minimization (r-proximal when r is given), y-minimization,
    dual ascent; the cached Step of (spec, s, r) does the work."""
    cache = cache if cache is not None else FactorizationCache()
    x1, y1, lam1 = cache.get(spec, s, r)(state.x, state.y, state.lam)
    return IterateState(x1, y1, lam1, state.k + 1)


def default_r(spec):
    """Margin above the spectral norm of F^T F required by the r-proximal variant."""
    return 1.5 * spec.FtF_norm


def zero_state(spec):
    return IterateState(np.zeros(spec.d1), np.zeros(spec.d2), np.zeros(spec.m), 0)


def run(spec, config, init=None, saddle=None):
    """Run N steps from init (zeros by default); deterministic given its inputs.

    The per-row columns are computed after the loop from the stored iterates;
    lyapunov is NaN without a saddle, and ne on the last row, which has no successor.
    """
    state = init if init is not None else zero_state(spec)
    if state.x.shape[0] != spec.d1 or state.y.shape[0] != spec.d2 or state.lam.shape[0] != spec.m:
        raise ParameterError("initial state dimensions do not match the problem")
    if config.variant == GENERAL:
        r = config.r if config.r is not None else default_r(spec)
    else:
        r = None

    trace = Trace(spec, config.N + 1, config=config, r=r)
    # built after the trace is allocated: the other order changed how the heap
    # reused freed blocks and raised the certificate checks' peak RSS by 1 MB at d = 600
    step = FactorizationCache().get(spec, config.s, r)
    trace.axis[:] = np.arange(state.k, state.k + config.N + 1)
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    x, y, lam = state.x, state.y, state.lam
    xs[0], ys[0], ls[0] = x, y, lam
    try:
        for j in range(1, config.N + 1):
            x, y, lam = step(x, y, lam)
            xs[j], ys[j], ls[j] = x, y, lam
    except IllConditionedError as exc:
        raise IllConditionedError(f"step k = {state.k + j}: {exc}") from None

    cols = trace.scalars
    cols["primal_res"], cols["dual_x_res"], cols["dual_y_res"] = kkt_residuals(spec, xs, ys, ls)
    cols["objective"] = spec.objective(xs, ys)
    if saddle is not None:
        cols["lyapunov"] = diag._lyapunov(trace, saddle)
    # NE(k), the energy of row k+1 measured from row k: the series the NE checks read
    cols["ne"][:-1] = diag._energy(ys[1:], ls[1:], ys[:-1], ls[:-1], spec.G, config.s)
    return trace
