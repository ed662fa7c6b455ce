"""High- and low-resolution continuous models of the iteration.

The high-resolution system

    F^T G dY/dt = F^T Lam + grad f(X)
    0           = G^T Lam + grad g(Y)
    s^2 dLam/dt = F X + G Y - h

is integrated by implicit Euler only: with step delta = s each implicit
step coincides with one discrete ADMM step, and for delta < s (with the
regularizer Huber-smoothed) the coupled piecewise-linear step equations
are solved exactly for their Huber region pattern by prox.settle_pattern,
warm-started from the previous node's pattern. The
low-resolution flow eliminates Y through the constraint and therefore
never leaves the hyperplane F x + G y = h; the deviation columns of the
two trajectories make the dual-correction effect measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import (CertificateReport, _energy, _entry, _lyapunov, _strong_gap,
                          _weak_gap, strong_convexity_modulus)
from .errors import IllConditionedError, InnerSolveError, ParameterError, UnsupportedProblemError
from .functions import AffineIndicator, HuberSmoothedL1
from .prox import (COND_LIMIT, FactorizationCache, _flapack, _norm, lapack_factor,
                   settle_pattern, sym_cond)
from .solver import Trace

ALGEBRAIC_TOL = 1e-11
INNER_TOL = 1e-12  # scaled residual an implicit step must reach

CONT_PREFIXES = ("X", "Y", "Lambda")
CONT_SCALAR_COLUMNS = ["deviation", "lyapunov", "ne_continuous"]


@dataclass
class ContinuousState:
    X: np.ndarray
    Y: np.ndarray
    Lam: np.ndarray
    t: float

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        self.Lam = np.asarray(self.Lam, dtype=float)


def _refuse_rounded_s(s, delta):
    """delta != s selects micro-steps (and a smoothed g in simulate); a delta whose
    step ratio rounds to 1 is s up to rounding, not a micro-step, and is refused."""
    if delta != s and round(s / delta) == 1:
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
        for name, ratio in (("T/delta", self.T / self.delta), ("s/delta", self.s / self.delta)):
            if abs(ratio - round(ratio)) > 1e-9 * ratio:
                raise ParameterError(f"{name} = {ratio!r} must be a whole number")
        _refuse_rounded_s(self.s, self.delta)


def _continuous_trace(spec, config):
    """The trace of one integration over [0, T], one row per node, carrying config."""
    return Trace(spec, int(round(config.T / config.delta)) + 1, axis="t",
                 prefixes=CONT_PREFIXES, scalars=CONT_SCALAR_COLUMNS, config=config)


def _fill_columns(trace, ref):
    """The scalar columns: deviation ||F X + G Y - h||, the Lyapunov energy
    against ref (NaN without one) and, at interior nodes, the continuous NE
    (s/2)||G Ydot||^2 + (s^3/2)||Lamdot||^2, the energy of (s Ydot, s Lamdot).
    Lamdot comes from the dual ODE (exact), Ydot from a central difference.
    The NE is reported only: its continuous monotonicity is not certified."""
    spec, s, cols = trace.spec, trace.config.s, trace.scalars
    r = spec.constraint_residual(trace.xs, trace.ys)
    cols["deviation"] = np.linalg.norm(r, axis=1)
    if ref is not None:
        cols["lyapunov"] = _energy(trace.ys, trace.lams, ref[0], ref[1], s)
    t = trace.axis
    ydot = (trace.ys[2:] - trace.ys[:-2]) / (t[2:] - t[:-2]).reshape(-1, 1)
    cols["ne_continuous"][1:-1] = _energy(s * ydot, r[1:-1] / s, 0.0, 0.0, s)
    return trace


# ---------------------------------------------------------------------------
# implicit Euler for the high-resolution system


def _implicit_residual(spec, s, delta, Y_old, L_old, X1, Y1, L1):
    """Scaled residual of the three step equations, with G = G_sign * I."""
    vx = spec.G_sign * (spec.F.T @ (Y1 - Y_old)) / delta - spec.F.T @ L1
    if isinstance(spec.f, AffineIndicator):
        rA = spec.f.subgrad_distance(vx, X1)
        if not np.isfinite(rA):
            rA = _norm(spec.f.A @ X1 - spec.f.b)
    else:
        rA = _norm(vx - spec.f.grad(X1))
    rB = spec.g.subgrad_distance(-(spec.G_sign * L1), Y1)
    rc = s * s * (L1 - L_old) / delta - (spec.F @ X1 + spec.G_sign * Y1 - spec.h)
    rC = _norm(rc)
    scale = 1.0 + _norm(X1) + _norm(Y1) + _norm(L1)
    return max(rA, rB, rC) / scale


def _pattern(Y, g):
    out = np.zeros(Y.shape[0], dtype=int)
    out[Y > g.delta] = 1
    out[Y < -g.delta] = -1
    return out


def _newton_system(spec, s, delta):
    """The pattern-independent part of the implicit step's linear system, built once
    per (spec, s, delta): the block matrix, the right-hand side's constant block
    (b for an indicator f), and the terms 2 delta A^T b and delta h that each step
    subtracts from its own blocks."""
    f = spec.f
    indicator = isinstance(f, AffineIndicator)
    d1, d2, m = spec.d1, spec.d2, spec.m
    m1 = f.A.shape[0] if indicator else 0
    n = d1 + d2 + m + m1
    sx, sy, sl = 0, d1, d1 + d2

    base = np.zeros((n, n))
    rhs = np.zeros(n)
    if indicator:
        base[sx:sy, sy:sl] = spec.G_sign * spec.F.T
        base[sx:sy, sl:sl + m] = -delta * spec.F.T
        base[sx:sy, sl + m:] = -f.A.T
        base[sl + m:, sx:sy] = f.A
        rhs[sl + m:] = f.b
        gram_term = 0.0
    else:
        base[sx:sy, sx:sy] = -2.0 * delta * f.gram
        base[sx:sy, sy:sl] = spec.G_sign * spec.F.T
        base[sx:sy, sl:sl + m] = -delta * spec.F.T
        gram_term = 2.0 * delta * f.gram_rhs
    base[sl:sl + m, sx:sy] = -delta * spec.F
    base[sl:sl + m, sy:sl] = -delta * spec.G
    base[sl:sl + m, sl:sl + m] = s * s * np.eye(m)
    base[sy:sl, sl:sl + m] = spec.G.T
    return base, rhs, gram_term, delta * spec.h


def _pattern_newton(spec, s, delta, Y_old, L_old, cache):
    """Solve the implicit-Euler step equations exactly for Huber g.

    The system is linear once the quadratic/saturated region of every Y coordinate
    is fixed; settle_pattern finds the self-consistent regions, warm-started from
    those of Y_old. The pattern-independent part of the system is kept in cache.
    """
    g = spec.g
    if not isinstance(g, HuberSmoothedL1):
        raise UnsupportedProblemError(
            "implicit micro-steps (delta < s) need the Huber-smoothed regularizer"
        )
    d1, d2, m = spec.d1, spec.d2, spec.m
    sx, sy, sl = 0, d1, d1 + d2
    base, rhs, gram_term, dh = cache.keep(("pattern_newton", spec.tag, s, delta),
                                          lambda: _newton_system(spec, s, delta))
    rhs = rhs.copy()
    rhs[sx:sy] = spec.G_sign * (spec.F.T @ Y_old) - gram_term
    rhs[sl:sl + m] = s * s * L_old - dh

    def solve(pattern):
        # a Y coordinate in its quadratic region gets w/delta on the diagonal and
        # right-hand side 0; a saturated one right-hand side -w * sign
        quad = pattern == 0
        M = base.copy()
        diag = sy + np.flatnonzero(quad)
        M[diag, diag] = g.w / g.delta
        v = rhs.copy()
        v[sy:sl] = np.where(quad, 0.0, -g.w * pattern)
        try:
            return np.linalg.solve(M, v)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(M, v, rcond=None)[0]

    z = settle_pattern(solve, lambda z: _pattern(z[sy:sl], g), _pattern(Y_old, g))
    X, Y, L = z[sx:sy], z[sy:sl], z[sl:sl + m]
    res = _implicit_residual(spec, s, delta, Y_old, L_old, X, Y, L)
    if res > INNER_TOL:
        raise InnerSolveError(f"implicit step solved its pattern system but residual "
                              f"{res:.3e} exceeds {INNER_TOL!r}")
    return X, Y, L


def _sweep_step(cache, spec, s, delta):
    """The Step whose x- and y-updates are the implicit step's first sweep."""
    return cache.get(spec, s if delta == s else s * s / delta)


def high_res_implicit_step(state, spec, s, delta, cache=None):
    """One implicit-Euler step of the high-resolution system.

    With delta = s the first ADMM-shaped sweep already satisfies the step
    equations, so the output is exactly one ADMM step from (Y, Lam).
    """
    if delta <= 0 or delta > s:
        raise ParameterError("need 0 < delta <= s")
    _refuse_rounded_s(s, delta)
    if delta != s and not spec.g.smooth:
        raise ParameterError("delta < s requires a smoothed (differentiable) regularizer")
    cache = cache if cache is not None else FactorizationCache()
    step = _sweep_step(cache, spec, s, delta)
    X1 = step.x_update(state.Y, state.Lam)
    FX = spec.F @ X1
    Y1 = step.y_update.from_Fx(FX, state.Lam)
    resid = FX + step.G_sign * Y1 - spec.h
    if delta == s:
        L1 = state.Lam + resid / s
    else:
        L1 = state.Lam + (delta / (s * s)) * resid

    if _implicit_residual(spec, s, delta, state.Y, state.Lam, X1, Y1, L1) <= INNER_TOL:
        return ContinuousState(X1, Y1, L1, state.t + delta)

    X1, Y1, L1 = _pattern_newton(spec, s, delta, state.Y, state.Lam, cache)
    return ContinuousState(X1, Y1, L1, state.t + delta)


def simulate_high_res(spec, config, init, ref=None):
    """Integrate the high-resolution system over [0, T] from init.

    A step that fails (an x-update solve check, or the pattern iteration) raises
    InnerSolveError naming the node t it was stepping to."""
    cache = FactorizationCache()
    _sweep_step(cache, spec, config.s, config.delta)  # build errors surface as they are
    state = ContinuousState(init.X, init.Y, init.Lam, 0.0)
    trace = _continuous_trace(spec, config)
    try:
        for j in range(len(trace)):
            if j:
                state = high_res_implicit_step(state, spec, config.s, config.delta, cache)
            trace.axis[j] = state.t
            trace.xs[j], trace.ys[j], trace.lams[j] = state.X, state.Y, state.Lam
    except (IllConditionedError, InnerSolveError) as exc:
        raise InnerSolveError(f"implicit step to node t = {state.t + config.delta!r}: {exc}") \
            from None
    # the algebraic leg G^T Lam + grad g(Y) = 0 must hold at every node
    if spec.g.smooth:
        ls = trace.lams[1:]
        alg = np.linalg.norm(spec.G_sign * ls + spec.g.grad(trace.ys[1:]), axis=1)
        bad = np.flatnonzero(alg > ALGEBRAIC_TOL * (1.0 + np.linalg.norm(ls, axis=1)))
        if bad.size:
            j = bad[0] + 1
            raise InnerSolveError(f"algebraic constraint violated at node {j} "
                                  f"(t = {float(trace.axis[j])!r}): {alg[j - 1]:.3e}")
    return _fill_columns(trace, ref)


def simulate_low_res(spec, config, init_x, ref=None):
    """Classical RK4 with step delta over [0, T] for the continuous-limit flow,
    confined to the hyperplane; s enters only the energy columns.

    Y = G_sign (h - F X) eliminates Y through the constraint (G = +/-I), so the
    deviation is zero by construction at every node.
    """
    if not (spec.f.smooth and spec.g.smooth):
        raise ParameterError("low-resolution flow needs differentiable f and g")
    if not sym_cond(spec.FtF) <= COND_LIMIT:
        raise ParameterError("F^T F is numerically singular")

    # F^T F is factored once (scipy.linalg.lu_factor's dgetrf); every RK4 stage
    # only back-substitutes
    FtF_lu = lapack_factor("dgetrf", spec.FtF)

    def field(x):
        y = spec.G_sign * (spec.h - spec.F @ x)
        z, info = _flapack.dgetrs(*FtF_lu, -spec.f.grad(x) - spec.F.T @ spec.g.grad(y))
        if info:
            raise IllConditionedError(
                f"low-resolution flow solve failed (LAPACK dgetrs info {info})")
        return z

    delta = config.delta
    x = np.asarray(init_x, dtype=float)
    trace = _continuous_trace(spec, config)
    trace.xs[0] = x
    for j in range(len(trace) - 1):
        k1 = field(x)
        k2 = field(x + 0.5 * delta * k1)
        k3 = field(x + 0.5 * delta * k2)
        k4 = field(x + delta * k3)
        x = x + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace.axis[j + 1] = (j + 1) * delta
        trace.xs[j + 1] = x
    trace.ys[:] = spec.G_sign * (spec.h - trace.xs @ spec.F.T)
    # the algebraic leg G^T Lam + grad g(Y) = 0 defines a multiplier surrogate along
    # the flow. It stays a solve with G^T: -(G_sign * grad) has the same values but
    # turns row 0's 0.0 cells into -0.0, which changes the bytes of low_res.csv
    trace.lams[:] = -np.linalg.solve(spec.G.T, spec.g.grad(trace.ys).T).T
    return _fill_columns(trace, ref)


# ---------------------------------------------------------------------------
# continuous certificates (tolerance 10*delta: node values carry O(delta) error)


def _sampled_time_means(trace, *series):
    """Trapezoid time means of each (n, d) series over [0, t] at the nodes nearest
    1/4, 1/2 and all of the horizon, one row per node, and those elapsed times t."""
    last = len(trace) - 1
    idx = sorted({max(1, int(round(f * last))) for f in (0.25, 0.5, 1.0)})
    t = trace.axis[idx] - trace.axis[0]
    half_dt = 0.5 * np.diff(trace.axis).reshape(-1, 1)
    means = [np.array([np.sum(half_dt[:j] * (v[1:j + 1] + v[:j]), axis=0) for j in idx])
             / t.reshape(-1, 1) for v in series]
    return means, t


def check_theorem_3_3_monotone(trace, saddle):
    """Continuous Lyapunov (saddle reference) nonincreasing along the trajectory."""
    s, delta = trace.config.s, trace.config.delta
    e = _lyapunov(trace, saddle)
    return _entry("theorem_3_3_lyapunov_monotone", np.diff(e), 10.0 * delta,
                  {"E0": e[0], "s": s, "delta": delta})


def check_theorem_3_2_weak(trace, saddle):
    """Time-average weak gap against C/(2t) at sampled times: the Theorem 4.2 kernel fed
    trapezoid time means, with the multiplier Lam - G dY/dt, at elapsed time t.
    dY/dt is estimated by central differences (one-sided at the ends)."""
    spec, s, delta = trace.spec, trace.config.s, trace.config.delta
    probes = [(saddle.x_star, saddle.y_star), (np.zeros(spec.d1), np.zeros(spec.d2))]
    mult = trace.lams - spec.G_sign * np.gradient(trace.ys, trace.axis, axis=0)
    (xbar, ybar, mbar), t = _sampled_time_means(trace, trace.xs, trace.ys, mult)
    slacks, _ = _weak_gap(trace, saddle, probes, xbar, ybar, mbar, t)
    return _entry("theorem_3_2_weak_rate", slacks, 10.0 * delta, {"s": s, "delta": delta})


def check_continuous_strong_avg(trace, saddle):
    """Strong time-average bound ||Xbar - x*||^2 <= C/(mu t) at sampled times: the
    Theorem 4.4 kernel fed trapezoid time means at elapsed time t. Raises
    ParameterError unless f is strongly convex."""
    s, delta = trace.config.s, trace.config.delta
    mu = strong_convexity_modulus(trace.spec)
    (xbar,), t = _sampled_time_means(trace, trace.xs)
    slacks, C = _strong_gap(xbar, trace, saddle, mu, t)
    return _entry("theorem_3_4_strong_avg", slacks, 10.0 * delta,
                  {"C": C, "mu": mu, "s": s, "delta": delta})


def certify_continuous(trace, saddle):
    """Certificate bundle for a high-resolution trace; Theorem 3.4 joins it when f is
    strongly convex."""
    report = CertificateReport([check_theorem_3_3_monotone(trace, saddle),
                                check_theorem_3_2_weak(trace, saddle)])
    try:
        report.entries.append(check_continuous_strong_avg(trace, saddle))
    except ParameterError:
        pass  # Theorem 3.4 needs a strongly convex f
    return report
