"""Reference saddle points, computed two independent ways.

For an l1 regularizer with quadratic f in at most SIGN_PATTERN_MAX_DIM
coordinates, a primal-dual active-set search (prox.settle_pattern) finds the
sign pattern of y whose KKT linear system is self-consistent; otherwise (or
where that search fails, or as a cross-check) a long r-proximal ADMM run drives
the KKT residuals below the requested tolerance, stepping in blocks of
_CHECK_EVERY rows through Trace.step_rows. Every returned saddle is re-certified by
evaluating the KKT residuals at it.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedError, InnerSolveError, OracleConvergenceError, ParameterError
from .functions import Quadratic, ScaledL1
from .problems import SaddlePoint, kkt_residuals
from .prox import Step, pattern_system, settle_pattern
from .solver import Trace, default_r

SIGN_PATTERN_MAX_DIM = 12
LONG_RUN_BUDGET = 10_000_000
_CHECK_EVERY = 100
STALL_CHECKS = 500  # checks in a row without a new best residual that end a long run


def sign_pattern_oracle(spec, tol=1e-8):
    """Saddle point of an l1 problem with quadratic f by the primal-dual active set
    (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002): from the all-zero sign
    pattern, solve that pattern's KKT system, then take sigma_i = sign(q_i) if
    |q_i| > w else 0, q = y - G^T lam, until the pattern settles. Each pattern's KKT
    system is sliced from prox.pattern_system(spec), built once per call: rows
    2 A^T A x + F^T lam = 2 A^T b, (G^T lam)_i = -w sigma_i and F x + G y = h, columns x,
    y and lam; it keeps x, lam and the y coordinates (and rows) the pattern sets nonzero."""
    if not isinstance(spec.g, ScaledL1):
        raise ParameterError("sign-pattern oracle requires g = w||.||_1")
    if not isinstance(spec.f, Quadratic):  # inconsistent pattern systems mislead the search
        raise ParameterError("sign-pattern oracle requires a quadratic f")
    w = spec.g.w
    K, rhs, (x, y, lam) = pattern_system(spec)

    def solve(sigma):
        keep = np.ones(len(rhs), dtype=bool)
        keep[y] = sigma != 0
        rhs[y] = -w * sigma
        z = np.zeros(len(rhs))
        z[keep] = np.linalg.lstsq(K[np.ix_(keep, keep)], rhs[keep], rcond=None)[0]
        return z[x], z[y], z[lam]

    def pattern_of(sol):
        q = sol[1] - spec.G_sign * sol[2]
        return np.where(np.abs(q) > w, np.sign(q), 0.0).astype(int)

    saddle = settle_pattern(solve, pattern_of, np.zeros(spec.d2, dtype=int))
    res = max(kkt_residuals(spec, *saddle))
    if res <= tol:
        return SaddlePoint(*saddle, res)
    raise OracleConvergenceError(
        f"the settled sign pattern misses the KKT conditions by {res:.3e} > {tol!r}", res)


def long_run_oracle(spec, tol=1e-8, budget=LONG_RUN_BUDGET):
    """Drive the r-proximal iteration from zero until all KKT residuals fall below tol.

    The run steps in blocks of _CHECK_EVERY steps, each a Trace of its own whose axis
    holds the iteration numbers, and checks each block's x-update solves
    (Step.check_rows), then the KKT residuals at its end. It gives up early, with
    OracleConvergenceError, once STALL_CHECKS checks in a row have not improved on the
    best residual: it has stalled above tol. A block stops stepping
    once a state repeats an earlier state of the block bit for bit (Trace.step_rows).
    From then on the run cycles with that block's period p <= _CHECK_EVERY, so every
    later block takes its end state from the cycle's p states without stepping, with
    the same results. An ill-conditioned x-system, refused when the step is built, or a
    failed x-update solve raises IllConditionedError naming this oracle."""
    try:
        step = Step(spec, 1.0, default_r(spec))
    except IllConditionedError as exc:
        raise IllConditionedError(f"long-run oracle, {exc}") from None
    row = np.zeros(spec.d1), np.zeros(spec.d2), np.zeros(spec.m)
    best_res, stalled = np.inf, 0
    cycle, at = None, 0  # once found: the cycle's states (xs, ys, lams), and row's index
    for start in range(0, budget, _CHECK_EVERY):
        it = min(start + _CHECK_EVERY, budget)
        if cycle is None:
            block = Trace(spec, it - start + 1, scalars=())
            block.axis[:] = np.arange(start, it + 1)
            try:
                block.step_rows(step, row)
                step.check_rows(block)
            except IllConditionedError as exc:
                raise IllConditionedError(f"long-run oracle, {exc}", k=exc.k) from None
            if block.repeat is not None:
                i, p = block.repeat
                cycle = [b[i:i + p].copy() for b in (block.xs, block.ys, block.lams)]
                at = (len(block) - 1 - i) % p
            # copies, so that the block is freed before the next one is allocated
            row = block.xs[-1].copy(), block.ys[-1].copy(), block.lams[-1].copy()
            del block
        else:  # the cycle's state it - start steps on
            at = (at + it - start) % len(cycle[0])
            row = tuple(b[at] for b in cycle)
        x, y, lam = row
        res = max(kkt_residuals(spec, x, y, lam))
        if res <= tol:
            return SaddlePoint(x, y, lam, res)
        if res < best_res:
            best_res, stalled = res, 0
        else:
            stalled += 1
            if stalled == STALL_CHECKS:
                raise OracleConvergenceError(
                    f"long-run oracle stalled at iteration {it}: its best residual "
                    f"{best_res:.3e} misses {tol!r} and did not improve in the last "
                    f"{STALL_CHECKS} checks", best_res)
    raise OracleConvergenceError(
        f"long-run oracle did not reach {tol!r} within {budget} iterations "
        f"(best residual {best_res:.3e})", best_res)


def saddle_point_oracle(spec, tol=1e-8):
    """Certified saddle point: the active set for an l1 g with quadratic f and
    d2 <= SIGN_PATTERN_MAX_DIM, the long run otherwise, and the long run also where the
    active set fails (its pattern search does not settle, or settles on a pattern
    that misses the KKT conditions, as on a rank-deficient A). When that long run
    fails too, the OracleConvergenceError names both oracles and both reasons."""
    if not 1e-12 <= tol < np.inf:  # also refuses nan
        raise ParameterError(f"saddle tolerance tol = {tol!r} is not certifiable: "
                             "it must lie in [1e-12, inf)")
    if not (isinstance(spec.g, ScaledL1) and isinstance(spec.f, Quadratic)
            and spec.d2 <= SIGN_PATTERN_MAX_DIM):
        return long_run_oracle(spec, tol / 10.0)
    try:
        return sign_pattern_oracle(spec, tol)
    except (OracleConvergenceError, InnerSolveError) as exc:
        first = exc
    try:
        return long_run_oracle(spec, tol / 10.0)
    except OracleConvergenceError as exc:
        raise OracleConvergenceError(
            f"sign-pattern oracle: {first}; then the long-run oracle: {exc}",
            exc.best_residual) from None
