"""ADMM driver: the three-step iteration, the r-proximal variant, and traces.

The dual step is lam_{k+1} = lam_k + (F x_{k+1} + G y_{k+1} - h)/s, so
s*(lam_{k+1} - lam_k) equals the constraint violation at every iterate;
that identity is what pushes the trajectory off the constraint hyperplane
and is recorded per step. Every row of every iteration (run, the two ode
integrators and the long-run oracle's blocks) is produced by one loop,
Trace.step_rows, which only steps and stores the iterates; the per-row columns
are computed from them afterwards, in one array pass, after the step operator
has checked every row it computed (prox.Step.check_rows: each x-update solve
to its tolerance, before any column or file is written). It stops stepping once a
row repeats an earlier one bit for bit: each step is a deterministic function
of the row it starts from, so from there on the rows cycle, and the trace
copies them instead of recomputing them.
A solver run's rows are serialized once, to trace.csv; trace.json holds only
its head (columns, config, stop reason) and names that CSV. One writer,
write_csv, writes every table: each cell is the Python repr of its float, and
a cell whose bits equal the cell above reuses that cell's text, so only the
cells that changed are formatted (an l1 run freezes most coordinates once it
has found its active set), each distinct value once per block of rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from .errors import IllConditionedError, InnerSolveError, ParameterError
from .problems import kkt_residuals
from .prox import FactorizationCache, Step

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


@dataclass
class SolverConfig:
    s: float = 1.0
    N: int = 100
    variant: str = STANDARD
    r: float | None = None

    def __post_init__(self):
        if not 0 < self.s < np.inf:
            raise ParameterError("step size s must be positive and finite")
        if self.r is not None and not abs(self.r) < np.inf:  # also refuses nan
            raise ParameterError(f"r = {self.r!r} must be finite")
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
    SolverConfig or IntegratorConfig, the r an r-proximal run stepped with, and the
    saddle its lyapunov column was measured against (None for a run without one).
    """

    def __init__(self, spec, n, axis="k", prefixes=("x", "y", "lambda"),
                 scalars=TRACE_SCALAR_COLUMNS, config=None, r=None, saddle=None):
        self.spec = spec
        self.config = config
        self.r = r
        self.saddle = saddle
        self.axis_name = axis
        self.prefixes = prefixes
        try:
            self.axis = np.zeros(n, dtype=int if axis == "k" else float)
            self.xs = np.zeros((n, spec.d1))
            self.ys = np.zeros((n, spec.d2))
            self.lams = np.zeros((n, spec.m))
            self.scalars = {name: np.full(n, np.nan) for name in scalars}
        except (MemoryError, ValueError) as exc:  # numpy's refusal of an oversized array
            raise ParameterError(f"a trace of {n:.6g} rows cannot be allocated ({exc})") \
                from None
        self.repeat = None  # (i, p) once row i + p repeated row i; see step_rows

    def step_rows(self, step, row):
        """Fill every row from row = (x, y, lam): row 0 is row, and row j is step(*row
        j - 1). The stepping stops at the first row equal as int64 to an earlier row i
        (so 0.0 and -0.0 differ and NaN payloads are compared as bits, as in write_csv):
        then repeat is (i, p) and each later row r is the row i + ((r - i) mod p) it
        repeats. That is exact because step is a function of the row it starts from.
        A step that raises IllConditionedError or InnerSolveError is re-raised as the
        same type, naming the row being computed (step k = 5, step t = 0.25), in its
        message and in its attribute k or t."""
        blocks = xs, ys, ls = self.xs, self.ys, self.lams
        seen = {}
        try:
            for j in range(len(self)):
                if j:
                    row = step(*row)
                xs[j], ys[j], ls[j] = row
                # a row is looked up by the hash of its bytes and confirmed as int64; the
                # key is a tuple display, as tuple() over a generator left up to 2,000
                # freed tuples on CPython's free list (+0.1 MB of verify's peak RSS)
                key = hash((xs[j].tobytes(), ys[j].tobytes(), ls[j].tobytes()))
                i = seen.setdefault(key, j)
                if i < j and all(np.array_equal(b[i].view(np.int64), b[j].view(np.int64))
                                 for b in blocks):
                    self.repeat = (i, j - i)
                    src = i + (np.arange(j + 1, len(self)) - i) % (j - i)
                    for b in blocks:
                        b[j + 1:] = b[src]
                    break
        except (IllConditionedError, InnerSolveError) as exc:
            raise self.named(exc, j) from None
        return self

    def computed_rows(self):
        """How many rows step_rows computed: all of them, or those up to the row that
        repeated an earlier one (the later rows are copies)."""
        return len(self) if self.repeat is None else sum(self.repeat) + 1

    def raise_first(self, res, bound, recheck):
        """Raise for the first computed row j >= 1 that fails its check. res[j - 1] is
        row j's value from an array pass over the rows and bound its limit; a row whose
        value is not <= bound (NaN included) is checked again by recheck(j), with the
        kernels of a single step, which raises IllConditionedError or InnerSolveError,
        re-raised naming the row (named). Array kernels round differently from
        single-step ones, so the pass only screens: a row fails as a check in the loop
        fails it."""
        for j in np.flatnonzero(~(res <= bound)).tolist():
            try:
                recheck(j + 1)
            except (IllConditionedError, InnerSolveError) as exc:
                raise self.named(exc, j + 1) from None

    def row_name(self, j):
        """How an error names row j: step k = 5, or step t = 0.25."""
        return f"step {self.axis_name} = {self.axis[j].item()!r}"

    def named(self, exc, j):
        """exc, as the same type, naming row j in its message (row_name) and in its
        attribute k or t."""
        return type(exc)(f"{self.row_name(j)}: {exc}", **{self.axis_name: self.axis[j].item()})

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
        write_csv(path, columns, self.axis.tolist(), np.hstack(blocks))

    def to_json(self, path):
        """The head of a solver run (runs always complete): what its CSV, written to
        TRACE_CSV beside it, lacks. The rows are only in the CSV."""
        config = {"s": self.config.s, "N": self.config.N, "variant": self.config.variant,
                  "r": self.config.r}
        head = {"columns": self.columns(), "config": config, "rows_file": TRACE_CSV,
                "stop_reason": "completed"}
        with open(path, "w") as fh:
            fh.write(json.dumps(head, sort_keys=True) + "\n")


WRITE_BLOCK = 64  # rows whose changed cells write_csv formats together


def write_csv(path, columns, axis, table):
    """The one table writer: a header line, then per row the axis value (an int k or a
    float t) and the row of the (n, c) float table, each by Python repr. A cell whose
    bits equal those of the cell above (so 0.0 and -0.0 differ, and NaN payloads are
    compared as bits) keeps the text of the row above; only changed cells are
    formatted, and each distinct bit pattern among a block of WRITE_BLOCK rows' changed
    cells only once (np.unique over their int64 bits). Blocks, not the whole table,
    bound the memory the formatted values take."""
    table = np.ascontiguousarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] != len(axis):
        raise RuntimeError(f"a table of shape {table.shape} does not have one row per "
                           f"axis value ({len(axis)})")
    bits = table.view(np.int64)
    changed = np.ones(table.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    cells = np.empty(table.shape[1], dtype=object)  # the text of the row above
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for b0 in range(0, len(axis), WRITE_BLOCK):
            rows, cols = np.nonzero(changed[b0:b0 + WRITE_BLOCK])
            distinct, which = np.unique(bits[b0 + rows, cols], return_inverse=True)
            text = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                            dtype=object)[which]
            ends = np.searchsorted(rows, np.arange(1, WRITE_BLOCK + 1)).tolist()
            lines, start = [], 0
            for j, a in enumerate(axis[b0:b0 + WRITE_BLOCK]):
                cells[cols[start:ends[j]]] = text[start:ends[j]]
                lines.append(",".join([repr(a), *cells.tolist()]))
                start = ends[j]
            fh.write("\n".join(lines) + "\n")


def admm_step(state, spec, s, cache=None, r=None):
    """One ADMM step: x-minimization (r-proximal when r is given), y-minimization,
    dual ascent; the cached Step of (spec, s, r) does the work and checks its x-update
    solve (IllConditionedError)."""
    cache = cache if cache is not None else FactorizationCache()
    step = cache.get(spec, s, r)
    x1, y1, lam1 = step(state.x, state.y, state.lam)
    step.check_step(state.x, state.y, state.lam, x1)
    return IterateState(x1, y1, lam1, state.k + 1)


def default_r(spec):
    """Margin above the spectral norm of F^T F required by the r-proximal variant."""
    return 1.5 * spec.FtF_norm


def zero_state(spec):
    return IterateState(np.zeros(spec.d1), np.zeros(spec.d2), np.zeros(spec.m), 0)


def check_start(spec, init):
    """The start (x, y, lam) as float arrays; init None is the zero start. Raises
    ParameterError unless init has three blocks (naming its count), each of its
    problem's length (d1, d2 and m) and finite (naming the first that is not)."""
    if init is None:
        init = (np.zeros(spec.d1), np.zeros(spec.d2), np.zeros(spec.m))
    if len(init) != 3:
        raise ParameterError(f"initial state has {len(init)} blocks, expected 3 (x, y, lambda)")
    blocks = [np.asarray(v, dtype=float) for v in init]
    if any(v.shape != (d,) for v, d in zip(blocks, (spec.d1, spec.d2, spec.m))):
        raise ParameterError("initial state dimensions do not match the problem")
    for v, name in zip(blocks, ("x", "y", "lambda")):
        if not np.all(np.isfinite(v)):
            raise ParameterError(f"initial {name} is not finite")
    return blocks


def run(spec, config, init=None, saddle=None):
    """Run N steps from init = (x, y, lam) (zeros by default); deterministic given
    its inputs.

    A step is a function of the row it starts from, so once a row repeats an earlier
    one bit for bit Trace.step_rows stops stepping and copies the remaining rows from
    the cycle (trace.repeat names it); the bits are those of N computed steps.
    Every computed step's x-update solve is checked after the loop, before the
    columns: a failed one raises IllConditionedError naming its k. The per-row columns
    are computed from all stored iterates; lyapunov is NaN without a saddle, and ne
    on the last row, which has no successor.
    """
    row = check_start(spec, init)
    if config.variant == GENERAL:
        r = config.r if config.r is not None else default_r(spec)
    else:
        r = None

    trace = Trace(spec, config.N + 1, config=config, r=r, saddle=saddle)
    # built after the trace is allocated: the other order changed how the heap
    # reused freed blocks and raised the certificate checks' peak RSS by 1 MB at d = 600
    step = Step(spec, config.s, r)
    trace.axis[:] = np.arange(config.N + 1)
    trace.step_rows(step, row)
    step.check_rows(trace)

    xs, ys, ls, cols = trace.xs, trace.ys, trace.lams, trace.scalars
    cols["primal_res"], cols["dual_x_res"], cols["dual_y_res"] = kkt_residuals(spec, xs, ys, ls)
    cols["objective"] = spec.objective(xs, ys)
    if saddle is not None:
        cols["lyapunov"] = diag._energy(ys, ls, saddle.y_star, saddle.lambda_star, config.s)
    # NE(k), the energy of row k+1 measured from row k: the series the NE checks read
    cols["ne"][:-1] = diag._energy(ys[1:], ls[1:], ys[:-1], ls[:-1], config.s)
    return trace
