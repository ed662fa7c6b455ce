"""Every whole-trace array pass equals a per-row reference written from its formula.

The trace columns, the certificate slack series, the continuous NE column and
the continuous weak and strong slacks at every node are array expressions over
all rows at once. The references below evaluate each documented formula one
row (or one node) at a time, on random small lasso, tv and basis-pursuit
instances run from a random non-zero (x0, y0, lambda0) with the standard or
the r-proximal step. The reference point (x*, y*, lambda*) is random too: the
formulas are identities in it, so no saddle is needed. Values agree to 1e-12
relative to the largest term that enters them (a slack is a difference of
such terms, so it is compared on their scale). The step's optimality
inclusions have no array pass to compare with: the per-row residuals
themselves must be within 1e-12 of their targets.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from admmcert import diagnostics as diag
from admmcert.functions import AffineIndicator, Quadratic, ScaledL1
from admmcert.library import _difference_matrix
from admmcert.ode import IntegratorConfig, simulate_high_res
from admmcert.problems import SaddlePoint, build_basis_pursuit, build_generalized_lasso
from admmcert.solver import GENERAL, STANDARD, SolverConfig, default_r, run

# derandomized, so that the suite draws the same examples on every run
DERANDOMIZED = settings(derandomize=True, max_examples=40, deadline=None, database=None)
RTOL = 1e-12
N = 12


def close(actual, expected, scale):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


@st.composite
def runs(draw):
    family = draw(st.sampled_from(["lasso", "tv", "basis_pursuit"]))
    d, m = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    s, scale = draw(st.floats(0.1, 10.0)), draw(st.floats(0.01, 100.0))
    variant = draw(st.sampled_from([STANDARD, GENERAL]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "lasso":
        spec = build_generalized_lasso(rng.standard_normal((m, d)), rng.standard_normal(m),
                                       np.eye(d), 0.5)
    elif family == "tv":
        spec = build_generalized_lasso(np.eye(d), rng.standard_normal(d),
                                       _difference_matrix(d), 0.5)
    else:
        A = rng.standard_normal((min(m, d), d))
        spec = build_basis_pursuit(A, A @ rng.standard_normal(d))

    def point(n):
        return scale * rng.standard_normal(n)

    x_ref = point(spec.d1)
    if isinstance(spec.f, AffineIndicator):  # the x reference must be feasible
        x_ref = np.linalg.lstsq(spec.f.A, spec.f.b, rcond=None)[0]
    ref = SaddlePoint(x_ref, point(spec.d2), point(spec.m), 0.0)
    start = (point(spec.d1), point(spec.d2), point(spec.m))
    r = default_r(spec) if variant == GENERAL else None
    trace = run(spec, SolverConfig(s=s, N=N, variant=variant, r=r), init=start, saddle=ref)
    return spec, trace, ref, s, r


def energy(y, lam, ref_y, ref_lam, G, s):
    """(1/2s)||G(y - ref_y)||^2 + (s/2)||lam - ref_lam||^2 for one row."""
    gy = G @ (y - ref_y)
    dl = lam - ref_lam
    return float(gy @ gy) / (2.0 * s) + s * float(dl @ dl) / 2.0


def subgrad_distance(fn, target, at):
    """Distance from target to the subdifferential of fn at one point."""
    if isinstance(fn, Quadratic):
        return float(np.linalg.norm(target - 2.0 * fn.A.T @ (fn.A @ at - fn.b)))
    if isinstance(fn, AffineIndicator):
        if np.max(np.abs(fn.A @ at - fn.b)) > 1e-8:
            return np.inf
        nu = np.linalg.lstsq(fn.A.T, target, rcond=None)[0]
        return float(np.linalg.norm(target - fn.A.T @ nu))
    assert isinstance(fn, ScaledL1)
    d = [max(abs(t) - fn.w, 0.0) if a == 0.0 else abs(t - fn.w * np.sign(a))
         for t, a in zip(target, at)]
    return float(np.linalg.norm(d))


@DERANDOMIZED
@given(runs())
def test_energy_and_ne_columns(case):
    spec, trace, ref, s, _ = case
    ys, ls = trace.ys, trace.lams
    e = [energy(ys[k], ls[k], ref.y_star, ref.lambda_star, spec.G, s) for k in range(N + 1)]
    ne = [energy(ys[k + 1], ls[k + 1], ys[k], ls[k], spec.G, s) for k in range(N)]
    close(trace.scalars["lyapunov"], e, max(e))
    close(trace.scalars["ne"][:-1], ne, max(ne))
    assert np.isnan(trace.scalars["ne"][-1])


def extended_energy(x, y, lam, ref_x, ref_y, ref_lam, spec, s, r):
    """energy plus (r||x - ref_x||^2 - ||F(x - ref_x)||^2)/(2s) for one row, and the
    size of its positive terms."""
    dx = x - ref_x
    fdx = spec.F @ dx
    base = energy(y, lam, ref_y, ref_lam, spec.G, s)
    grow = r * float(dx @ dx) / (2.0 * s)
    return grow - float(fdx @ fdx) / (2.0 * s) + base, grow + base


@DERANDOMIZED
@given(runs())
def test_extended_energy(case):
    spec, trace, ref, s, _ = case
    r = default_r(spec)
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    refs = (ref.x_star, ref.y_star, ref.lambda_star)
    rows = [extended_energy(xs[k], ys[k], ls[k], *refs, spec, s, r) for k in range(N + 1)]
    close(diag._extended_energy(xs, ys, ls, *refs, spec, s, r),
          [v for v, _ in rows], max(m for _, m in rows))
    steps = [extended_energy(xs[k + 1], ys[k + 1], ls[k + 1], xs[k], ys[k], ls[k], spec, s, r)
             for k in range(N)]
    close(diag._extended_energy(xs[1:], ys[1:], ls[1:], xs[:-1], ys[:-1], ls[:-1], spec, s, r),
          [v for v, _ in steps], max(m for _, m in steps))


def inclusion_residuals(spec, trace, s, r):
    """Per step k, the distances of the optimality inclusions of x_{k+1} (r-proximal
    when r is given) and y_{k+1} from the subdifferentials of f and g, and the largest
    entry of their targets."""
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    res_x, res_y, scale = [], [], 0.0
    for k in range(len(trace) - 1):
        target = spec.F.T @ spec.G @ (ys[k + 1] - ys[k]) / s - spec.F.T @ ls[k + 1]
        if r is not None:
            dx = xs[k + 1] - xs[k]
            target = target - (r * dx - (spec.F.T @ spec.F) @ dx) / s
        res_x.append(subgrad_distance(spec.f, target, xs[k + 1]))
        res_y.append(subgrad_distance(spec.g, -(spec.G.T @ ls[k + 1]), ys[k + 1]))
        scale = max(scale, np.max(np.abs(target)), np.max(np.abs(spec.G.T @ ls[k + 1])))
    return res_x, res_y, scale


@DERANDOMIZED
@given(runs())
def test_step_inclusion_residuals(case):
    # every step, standard or r-proximal, satisfies its optimality inclusions to
    # RTOL of their targets (2.7e-14 at most over these draws)
    spec, trace, _, s, r = case
    res_x, res_y, scale = inclusion_residuals(spec, trace, s, r)
    assert max(res_x + res_y) <= RTOL * scale


def lemma_slacks(spec, trace, ref, s, probe):
    """The per-step lemma slacks at one probe (px, py, plam) with (x*, y*) from ref, and
    the largest term that enters them; no slacks when f or g is infinite at the probe."""
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    px, py, plam = probe
    fp, gp = spec.f.value(px), spec.g.value(py)
    if not np.isfinite(fp) or not np.isfinite(gp):
        return [], 0.0  # the inequality is vacuous there
    disp = spec.F @ (px - ref.x_star) + spec.G @ (py - ref.y_star)
    slacks, scale = [], 0.0
    for k in range(len(trace) - 1):
        e1 = energy(ys[k + 1], ls[k + 1], py, plam, spec.G, s)
        e0 = energy(ys[k], ls[k], py, plam, spec.G, s)
        mult = ls[k + 1] - spec.G @ (ys[k + 1] - ys[k]) / s
        dev = spec.F @ (xs[k + 1] - ref.x_star) + spec.G @ (ys[k + 1] - ref.y_star)
        ne = energy(ys[k + 1], ls[k + 1], ys[k], ls[k], spec.G, s)
        fx, gy = spec.f.value(xs[k + 1]), spec.g.value(ys[k + 1])
        md, pd = mult @ disp, plam @ dev
        slacks.append(e1 - e0 - (fp - fx + gp - gy + md - pd - ne))
        scale = max(scale, *map(abs, (e1, e0, fp, fx, gp, gy, md, pd, ne)))
    return slacks, scale


@DERANDOMIZED
@given(runs())
def test_lemma_slacks(case):
    spec, trace, ref, s, _ = case
    slacks, scale = [], 0.0
    for plam in (np.zeros(spec.m), ref.lambda_star):  # the check's two probes
        rows, size = lemma_slacks(spec, trace, ref, s, (ref.x_star, ref.y_star, plam))
        slacks, scale = slacks + rows, max(scale, size)
    entry, = diag.check_lemma_iterative_inequality(trace)
    close(entry.worst_slack, max(slacks), scale)


@DERANDOMIZED
@given(runs())
def test_weak_rate_slacks(case):
    spec, trace, ref, s, _ = case
    xs, ys, ls = trace.xs, trace.ys, trace.lams
    slacks, scale = [], 0.0
    for px, py in diag._weak_probes(trace):
        fp, gp = spec.f.value(px), spec.g.value(py)
        gy0 = spec.G @ (ys[0] - py)
        C = float(gy0 @ gy0) + s * s * float(ls[0] @ ls[0])
        disp = spec.F @ (px - ref.x_star) + spec.G @ (py - ref.y_star)
        for k in range(N):
            n = k + 1  # averages over iterates 1..k+1
            xbar, ybar, lbar = (a[1:k + 2].sum(axis=0) / n for a in (xs, ys, ls))
            mult = lbar - spec.G @ (ys[k + 1] - ys[0]) / (s * n)
            fx, gy = spec.f.value(xbar), spec.g.value(ybar)
            md, bound = mult @ disp, C / (2.0 * s * n)
            slacks.append(fx - fp + gy - gp - md - bound)
            scale = max(scale, *map(abs, (fx, fp, gy, gp, md, bound)))
    entry, = diag.check_weak_rate_theorem_4_2(trace)
    close(entry.worst_slack, max(slacks), scale)


def high_res(spec, trace, ref, s):
    """The delta = s high-resolution trace from the run's start: every implicit step
    is one ADMM step, so no pattern-Newton pass can cycle."""
    init = (trace.xs[0], trace.ys[0], trace.lams[0])
    return simulate_high_res(spec, IntegratorConfig(s=s, delta=s, T=N * s), init, saddle=ref)


@DERANDOMIZED
@given(runs())
def test_continuous_ne_and_lyapunov_columns(case):
    spec, trace, ref, s, _ = case
    high = high_res(spec, trace, ref, s)
    t, xs, ys, ls = high.axis, high.xs, high.ys, high.lams
    ne, scale = [], 0.0
    for j in range(1, N):
        gyd = spec.G @ (ys[j + 1] - ys[j - 1]) / (t[j + 1] - t[j - 1])
        lamdot = (spec.F @ xs[j] + spec.G @ ys[j] - spec.h) / (s * s)
        terms = [s * float(gyd @ gyd) / 2.0, s ** 3 * float(lamdot @ lamdot) / 2.0]
        ne.append(sum(terms))
        scale = max(scale, *terms)
    col = high.scalars["ne_continuous"]
    assert np.isnan(col[0]) and np.isnan(col[-1])
    close(col[1:-1], ne, scale)
    e = [energy(ys[j], ls[j], ref.y_star, ref.lambda_star, spec.G, s) for j in range(N + 1)]
    close(high.scalars["lyapunov"], e, max(e))


@DERANDOMIZED
@given(runs())
def test_continuous_weak_and_strong_slacks(case):
    spec, trace, ref, s, _ = case
    high = high_res(spec, trace, ref, s)
    t, xs, ys, ls = high.axis, high.xs, high.ys, high.lams
    nodes = range(1, N + 1)  # every node past t = 0, where the bounds are infinite

    def mean(v, j):
        """Trapezoid mean of the rows of v over [t_0, t_j]."""
        return sum((t[i + 1] - t[i]) * (v[i] + v[i + 1]) / 2.0 for i in range(j)) / (t[j] - t[0])

    # multiplier Lam - G dY/dt, dY/dt by central differences (one-sided at the ends)
    ydot = [(ys[min(j + 1, N)] - ys[max(j - 1, 0)]) / (t[min(j + 1, N)] - t[max(j - 1, 0)])
            for j in range(N + 1)]
    mult = np.array([ls[j] - spec.G @ ydot[j] for j in range(N + 1)])
    slacks, scale = [], 0.0
    for px, py in diag._weak_probes(high):  # Theorem 4.2's probes, feasible for f
        fp, gp = spec.f.value(px), spec.g.value(py)
        gy0 = spec.G @ (ys[0] - py)
        C = float(gy0 @ gy0) + s * s * float(ls[0] @ ls[0])
        disp = spec.F @ (px - ref.x_star) + spec.G @ (py - ref.y_star)
        for j in nodes:
            fx, gy = spec.f.value(mean(xs, j)), spec.g.value(mean(ys, j))
            md, bound = mean(mult, j) @ disp, C / (2.0 * t[j])
            slacks.append(fx - fp + gy - gp - md - bound)
            scale = max(scale, *map(abs, (fx, fp, gy, gp, md, bound)))
    entry, = diag.check_theorem_3_2_weak(high)
    close(entry.worst_slack, max(slacks), scale)

    if isinstance(spec.f, Quadratic) and spec.f.strong_convexity_modulus() > 1e-10:
        mu = spec.f.strong_convexity_modulus()
        dx0, dl0 = xs[0] - ref.x_star, ls[0] - ref.lambda_star
        C = float(dx0 @ dx0) + s * s * float(dl0 @ dl0)
        rows = [(float((mean(xs, j) - ref.x_star) @ (mean(xs, j) - ref.x_star)),
                 C / (mu * t[j])) for j in nodes]
        entry, = diag.check_continuous_strong_avg(high)
        close(entry.worst_slack, max(a - b for a, b in rows), max(max(r) for r in rows))
        assert entry.constants["C"] == C
