"""High- and low-resolution continuous models of the iteration.

The high-resolution system

    F^T G dY/dt = F^T Lam + grad f(X)
    0           = G^T Lam + grad g(Y)
    s^2 dLam/dt = F X + G Y - h

is integrated by implicit Euler only: with step delta = s each implicit
step is one discrete ADMM step, prox.Step's own call, and for delta < s
(with the regularizer Huber-smoothed) the coupled piecewise-linear step
equations, prox.pattern_system's, are solved exactly for their Huber region
pattern by prox.settle_pattern, warm-started from the previous node's pattern,
for every f. Each step's residual is checked after the loop, once per integration
(ImplicitStep.check_rows). The low-resolution flow eliminates Y through the
constraint and therefore never leaves the hyperplane F x + G y = h; the
deviation columns of the two trajectories make the dual-correction effect
measurable.

This module only integrates. Both integrators produce their nodes through
solver.Trace.step_rows, the loop behind every row of every iteration, which
stops stepping once a node repeats an earlier one bit for bit and names the
node t of a failing step. Both are called like solver.run, as
(spec, config, init=None, saddle=None), where simulate_low_res's start is x
alone (init_x): they start from zeros by default, and the trace carries the
saddle and its lyapunov column when one is given. The continuous
certificates (Theorems 3.2-3.4) and their bundle, certify_continuous, live in
diagnostics with the discrete ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import _energy, _ydot
from .band import band_cond
from .errors import IllConditionedError, InnerSolveError, ParameterError
from .functions import AffineIndicator
from .prox import (COND_LIMIT, R_PROXIMAL_HINT, Step, _flapack, lapack_factor, pattern_system,
                   row_norms, settle_pattern)
from .solver import Trace, check_start

ALGEBRAIC_TOL = 1e-11
INNER_TOL = 1e-12  # scaled residual an implicit step must reach

CONT_PREFIXES = ("X", "Y", "Lambda")
CONT_SCALAR_COLUMNS = ["deviation", "lyapunov", "ne_continuous"]


def _ratio(name, num, den):
    """num/den for positive finite num and den (Python floats), refused when it
    overflows to inf, which round() cannot take and no step count reaches."""
    ratio = num / den
    if ratio == np.inf:
        raise ParameterError(f"{name} = {num!r}/{den!r} overflows a float: pass a larger delta")
    return ratio


def _refuse_rounded_s(s, delta):
    """delta != s selects micro-steps (and a smoothed g in simulate); a delta whose
    step ratio rounds to 1 is s up to rounding, not a micro-step, and is refused."""
    if delta != s and round(_ratio("s/delta", s, delta)) == 1:
        raise ParameterError(f"delta = {delta!r} differs from s = {s!r} but "
                             "s/delta rounds to 1: pass delta equal to s, or at most s/2")


@dataclass
class IntegratorConfig:
    s: float
    delta: float
    T: float

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.s, self.delta, self.T)):
            raise ParameterError("s, delta and T must be positive and finite")
        if self.delta > self.s:
            raise ParameterError("micro-step delta must not exceed s")
        # nodes land on T, and every s/delta-th node on an ADMM step
        for name, num in (("T/delta", self.T), ("s/delta", self.s)):
            ratio = _ratio(name, num, self.delta)
            if abs(ratio - round(ratio)) > 1e-9 * ratio:
                raise ParameterError(f"{name} = {ratio!r} must be a whole number")
        _refuse_rounded_s(self.s, self.delta)


def _continuous_trace(spec, config, saddle):
    """The trace of one integration over [0, T], one row per node, carrying config and saddle."""
    return Trace(spec, int(round(config.T / config.delta)) + 1, axis="t", prefixes=CONT_PREFIXES,
                 scalars=CONT_SCALAR_COLUMNS, config=config, saddle=saddle)


def _fill_columns(trace):
    """The scalar columns: deviation ||F X + G Y - h||, the Lyapunov energy
    against the trace's saddle (NaN without one) and, at interior nodes, the continuous NE
    (s/2)||G Ydot||^2 + (s^3/2)||Lamdot||^2, the energy of (s Ydot, s Lamdot).
    Lamdot comes from the dual ODE (exact), Ydot from _ydot's central difference, as
    in Theorem 3.2. The NE is reported only: its monotonicity is not certified."""
    spec, s, cols, saddle = trace.spec, trace.config.s, trace.scalars, trace.saddle
    r = spec.constraint_residual(trace.xs, trace.ys)
    cols["deviation"] = np.linalg.norm(r, axis=1)
    if saddle is not None:
        cols["lyapunov"] = _energy(trace.ys, trace.lams, saddle.y_star, saddle.lambda_star, s)
    cols["ne_continuous"][1:-1] = _energy(s * _ydot(trace)[1:-1], r[1:-1] / s, 0.0, 0.0, s)
    return trace


# ---------------------------------------------------------------------------
# implicit Euler for the high-resolution system


def _pattern(Y, g):
    out = np.zeros(Y.shape[0], dtype=int)
    out[Y > g.delta] = 1
    out[Y < -g.delta] = -1
    return out


class ImplicitStep:
    """One implicit-Euler step of the high-resolution system for one (problem, s,
    delta), the counterpart of prox.Step: validated and built once, then called once
    per step with (Y, Lam), returning (X, Y, Lam) at the next node.

    For delta = s a call is one call of step, the ADMM Step(spec, s), which solves the
    step equations, so a node is exactly one ADMM step. For delta < s every call
    is the exact solution of the step equations for Huber g (_pattern_newton), with
    its prox.pattern_system built here; step is then Step(spec, s^2/delta), built only
    for its refusal of an ill-conditioned x-system, whose micro-step would be just as
    non-unique. Every computed node is checked after the loop by check_rows.
    """

    def __init__(self, spec, s, delta):
        if not 0 < delta <= s:  # also refuses nan
            raise ParameterError("need 0 < delta <= s")
        _refuse_rounded_s(s, delta)
        if delta != s and not spec.g.smooth:
            raise ParameterError("delta < s requires a smoothed (differentiable) regularizer")
        self.spec, self.s, self.delta = spec, s, delta
        try:
            self.step = Step(spec, s if delta == s else s * s / delta)
        except IllConditionedError as exc:  # the r-proximal step is no remedy here
            reason = str(exc).removesuffix(R_PROXIMAL_HINT)
            raise IllConditionedError(f"implicit step at delta = {delta!r}: {reason}, so the "
                                      "step's X is not unique") from None
        if delta != s:
            self._system = pattern_system(spec, s, delta)

    def residual(self, Y_old, L_old, X1, Y1, L1):
        """Scaled residual of the three step equations from (Y_old, L_old) to (X1, Y1,
        L1), with G = G_sign * I: one value for (d,) vectors, one per row for (n, d)
        arrays of steps. F goes through the spec's F_op, as in the step, and the second
        equation through g's subgrad_distance, which for the Huber g has row_norms' bits;
        for arrays, a NaN in any equation propagates."""
        spec, delta = self.spec, self.delta
        f, F, Gs = spec.f, spec.F_op, spec.G_sign
        one = X1.ndim == 1
        norm = np.linalg.norm if one else row_norms
        vx = Gs * F.tdot(Y1 - Y_old) / delta - F.tdot(L1)
        if isinstance(f, AffineIndicator):
            rA = f.subgrad_distance(vx, X1)
            off = ~np.isfinite(rA)  # X1 off the constraint set: measure how far
            if off.any():
                rA = np.where(off, norm(X1 @ f.A.T - f.b), rA)
        else:
            rA = norm(vx - f.grad(X1))
        rB = spec.g.subgrad_distance(-(Gs * L1), Y1)
        rC = norm(self.s * self.s * (L1 - L_old) / delta - spec.constraint_residual(X1, Y1))
        scale = 1.0 + norm(X1) + norm(Y1) + norm(L1)
        if one:
            return max(rA, rB, rC) / scale
        return np.maximum(np.maximum(rA, rB), rC) / scale

    def __call__(self, Y, Lam):
        if self.delta == self.s:
            return self.step(None, Y, Lam)  # the standard step never reads x_k
        return self._pattern_newton(Y, Lam)

    def _pattern_newton(self, Y_old, L_old):
        """Solve the implicit-Euler step equations exactly for Huber g, the only g below s.

        The system is linear once the quadratic/saturated region of every Y coordinate
        is fixed; settle_pattern finds the self-consistent regions, warm-started from
        those of Y_old. A non-finite solution raises InnerSolveError here; the
        residual of a finite one is checked after the loop, by check_rows.
        """
        spec, s, g = self.spec, self.s, self.spec.g
        base, rhs, (x, y, lam) = self._system
        rhs = rhs.copy()
        rhs[x] += spec.G_sign * spec.F_op.tdot(Y_old)
        rhs[lam] += s * s * L_old

        def solve(pattern):
            # a Y coordinate in its quadratic region gets w/delta on the diagonal and
            # right-hand side 0; a saturated one right-hand side -w * sign
            quad = pattern == 0
            M = base.copy()
            diag = y.start + np.flatnonzero(quad)
            M[diag, diag] = g.w / g.delta
            v = rhs.copy()
            v[y] = np.where(quad, 0.0, -g.w * pattern)
            z, info = _flapack.dgesv(M, v)[2:]
            if info > 0:  # exactly singular
                return np.linalg.lstsq(M, v, rcond=None)[0]
            return z

        z = settle_pattern(solve, lambda z: _pattern(z[y], g), _pattern(Y_old, g))
        # checked here, not after the loop, so that the error names the node that first
        # went non-finite, not a later one stepped from it
        if not np.isfinite(z).all():
            raise InnerSolveError("implicit step's pattern system has a non-finite solution")
        return z[x], z[y], z[lam]

    def check_rows(self, trace):
        """The checks of every node trace.step_rows computed with this step. At delta = s
        the ADMM step's x-update solve checks come first (Step.check_rows, which raises
        IllConditionedError). Then every node's residual, in one array pass, and the
        single-node residual on a node the pass flags (Trace.raise_first), must reach
        INNER_TOL; at delta = s this certifies that the ADMM step solves the implicit
        step equations. Copied nodes, after trace.repeat, need none. Raises naming the
        first failing node (step t = 0.25: ...), InnerSolveError for a residual."""
        if self.delta == self.s:
            self.step.check_rows(trace)
        n = trace.computed_rows()
        Xs, Ys, Ls = trace.xs[:n], trace.ys[:n], trace.lams[:n]
        res = self.residual(Ys[:-1], Ls[:-1], Xs[1:], Ys[1:], Ls[1:])

        def recheck(j):
            r = self.residual(Ys[j - 1], Ls[j - 1], Xs[j], Ys[j], Ls[j])
            if not r <= INNER_TOL:
                raise InnerSolveError(f"implicit step residual {r:.3e} exceeds {INNER_TOL!r}")

        trace.raise_first(res, INNER_TOL, recheck)


def simulate_high_res(spec, config, init=None, saddle=None):
    """Integrate the high-resolution system over [0, T] from init = (X, Y, Lam)
    (zeros by default); the lyapunov column is NaN without a saddle.

    Node j sits at t = delta + ... + delta (j terms, summed in order). A step is a
    function of the node it starts from, so once a node repeats an earlier one bit for
    bit Trace.step_rows stops stepping and copies the remaining nodes from the cycle. A
    step that fails raises IllConditionedError (LAPACK's info) or InnerSolveError (the
    pattern iteration, or a non-finite exact solve) naming the node it was computing
    (step t = 0.25: ...). After the loop, ImplicitStep.check_rows checks every computed
    node (at delta = s first its x-update solve, raising IllConditionedError) and its
    residual, and then every node's algebraic leg is checked; a residual or leg that
    misses, NaN included, raises InnerSolveError naming the node."""
    row = check_start(spec, init)
    step = ImplicitStep(spec, config.s, config.delta)
    trace = _continuous_trace(spec, config, saddle)
    trace.axis[1:] = config.delta
    np.cumsum(trace.axis, out=trace.axis)
    trace.step_rows(lambda X, Y, Lam: step(Y, Lam), row)
    step.check_rows(trace)
    # the algebraic leg G^T Lam + grad g(Y) = 0 must hold at every node
    if spec.g.smooth:
        ls = trace.lams[1:]
        alg = np.linalg.norm(spec.G_sign * ls + spec.g.grad(trace.ys[1:]), axis=1)
        bad = np.flatnonzero(~(alg <= ALGEBRAIC_TOL * (1.0 + np.linalg.norm(ls, axis=1))))
        if bad.size:
            j = bad[0] + 1
            t = float(trace.axis[j])
            raise InnerSolveError(f"algebraic constraint violated at node {j} "
                                  f"(t = {t!r}): {alg[j - 1]:.3e}", t=t)
    return _fill_columns(trace)


def low_res_refusal(spec):
    """Why the low-resolution flow does not apply to spec, or None when it does: its
    field needs differentiable f and g, and solves with F^T F, which every difference
    operator leaves singular (D^T D annihilates constants)."""
    if not (spec.f.smooth and spec.g.smooth):
        return "low-resolution flow needs differentiable f and g"
    if not band_cond(spec.FtF_band) <= COND_LIMIT:
        return "F^T F is numerically singular"
    return None


def simulate_low_res(spec, config, init_x=None, saddle=None):
    """Classical RK4 with step delta over [0, T] for the continuous-limit flow from
    init_x (zeros by default), confined to the hyperplane; s enters only the energy
    columns.

    Y = G_sign (h - F X) eliminates Y through the constraint (G = +/-I), so the
    deviation is zero by construction at every node. The RK4 step is a function of x
    alone (Y and Lam are filled after the loop), so once x repeats an earlier node bit
    for bit Trace.step_rows stops stepping and copies the remaining nodes from the
    cycle. A failed solve raises IllConditionedError naming the node (step t = 0.01).
    """
    x = check_start(spec, None if init_x is None
                    else (init_x, np.zeros(spec.d2), np.zeros(spec.m)))[0]
    if refusal := low_res_refusal(spec):
        raise ParameterError(refusal)

    # F^T F's band is factored once (scipy.linalg.cholesky_banded's dpbtrf), as
    # Step factors its x-system; every RK4 stage only back-substitutes (dpbtrs)
    cb, = lapack_factor("dpbtrf", spec.FtF_band, lower=1)
    f, g, F, G_sign, h = spec.f, spec.g, spec.F_op, spec.G_sign, spec.h

    def field(x):
        y = G_sign * (h - F.dot(x))
        z, info = _flapack.dpbtrs(cb, -f.grad(x) - F.tdot(g.grad(y)), lower=True)
        if info:
            raise IllConditionedError(
                f"low-resolution flow solve failed (LAPACK dpbtrs info {info})")
        return z

    def rk4(x, y, lam):  # y and lam stay zero until after the loop
        k1 = field(x)
        k2 = field(x + 0.5 * delta * k1)
        k3 = field(x + 0.5 * delta * k2)
        k4 = field(x + delta * k3)
        return x + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), y, lam

    delta = config.delta
    trace = _continuous_trace(spec, config, saddle)
    trace.axis[:] = np.arange(len(trace)) * delta
    trace.step_rows(rk4, (x, trace.ys[0], trace.lams[0]))
    trace.ys[:] = G_sign * (h - F.dot(trace.xs))
    # the algebraic leg G^T Lam + grad g(Y) = 0 defines a multiplier surrogate along the flow
    trace.lams[:] = -(spec.G_sign * spec.g.grad(trace.ys))
    return _fill_columns(trace)
