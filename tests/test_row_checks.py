"""The per-row checks run once per run, after Trace.step_rows, and still bite.

A step computes no check of its own but LAPACK's info: Step.check_rows checks every
x-update solve of a finished run, and ImplicitStep.check_rows every implicit step's
residual, each in one array pass over the computed rows that only screens: a row it
flags fails only if its single-step check fails too. admm_step checks its one step.
These tests plant a bad factor, a bad exact solve or a NaN row and expect the error to
name that row, through the library and through main. They also pin the bits of
ImplicitStep.residual, whose single-node form decides a node that check_rows' array pass
flags, against the residual as it was written before it was bound to the step.
"""

import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from admmcert import diagnostics as diag
from admmcert import ode, oracle, prox, solver
from admmcert.cli import main
from admmcert.errors import IllConditionedError, InnerSolveError, ParameterError
from admmcert.functions import AffineIndicator, HuberSmoothedL1
from admmcert.library import get_instance
from admmcert.ode import ImplicitStep, IntegratorConfig, simulate_high_res
from admmcert.oracle import long_run_oracle
from admmcert.prox import Step, lapack_factor
from admmcert.solver import GENERAL, SolverConfig, run

CRITERION_7 = IntegratorConfig(s=1.0, delta=0.01, T=20.0)
SHORT = IntegratorConfig(s=1.0, delta=0.25, T=0.75)  # nodes at t = 0.25, 0.5, 0.75


def reference_residual(spec, s, delta, Y_old, L_old, X1, Y1, L1):
    """The implicit step's scaled residual as it was written before ImplicitStep bound
    it: spec's own methods, np.linalg.norm and np.clip, one node at a time."""
    vx = spec.G_sign * (spec.F.T @ (Y1 - Y_old)) / delta - spec.F.T @ L1
    if isinstance(spec.f, AffineIndicator):
        rA = spec.f.subgrad_distance(vx, X1)
        if not np.isfinite(rA):
            rA = np.linalg.norm(spec.f.A @ X1 - spec.f.b)
    else:
        rA = np.linalg.norm(vx - spec.f.grad(X1))
    g, target = spec.g, -(spec.G_sign * L1)
    if isinstance(g, HuberSmoothedL1):
        rB = np.linalg.norm(target - g.w * np.clip(Y1 / g.delta, -1.0, 1.0), axis=-1)
    else:
        rB = g.subgrad_distance(target, Y1)
    rc = s * s * (L1 - L_old) / delta - (spec.F @ X1 + spec.G_sign * Y1 - spec.h)
    scale = 1.0 + np.linalg.norm(X1) + np.linalg.norm(Y1) + np.linalg.norm(L1)
    return max(rA, rB, np.linalg.norm(rc)) / scale


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


RESIDUAL_RUNS = {
    "criterion_7_scalar_zero": ("scalar_lasso_smoothed", CRITERION_7, False),
    "criterion_7_scalar_off": ("scalar_lasso_smoothed", CRITERION_7, True),
    "criterion_7_lasso_zero": ("lasso_8x6_smoothed", CRITERION_7, False),
    "criterion_7_lasso_off": ("lasso_8x6_smoothed", CRITERION_7, True),
    "basis_pursuit_delta_s": ("basis_pursuit_10x30", IntegratorConfig(s=1.0, delta=1.0, T=40.0),
                              False),
}


@pytest.mark.parametrize("name, config, off", RESIDUAL_RUNS.values(), ids=RESIDUAL_RUNS.keys())
def test_bound_residual_keeps_the_reference_bits(monkeypatch, name, config, off):
    # every stored step's residual has the reference's bits; the loop makes no residual
    # call at any delta (a node is one Step call or one exact solve), and check_rows one
    # array call
    spec = get_instance(name)
    s, delta = config.s, config.delta
    calls = {"node": 0, "array": 0}
    bound = ImplicitStep.residual

    def compared(self, *args):
        got = bound(self, *args)
        if args[0].ndim == 1:
            calls["node"] += 1
            assert same_bits(got, reference_residual(spec, s, delta, *args))
        else:
            calls["array"] += 1
        return got

    monkeypatch.setattr(ImplicitStep, "residual", compared)
    init = (np.ones(spec.d1), np.zeros(spec.d2), np.zeros(spec.m)) if off else None
    trace = simulate_high_res(spec, config, init)
    steps = trace.computed_rows() - 1
    assert steps > 1 and calls == {"node": 0, "array": 1}
    monkeypatch.setattr(ImplicitStep, "residual", bound)
    step = ImplicitStep(spec, s, delta)
    for j in range(steps):
        args = (trace.ys[j], trace.lams[j], trace.xs[j + 1], trace.ys[j + 1], trace.lams[j + 1])
        assert same_bits(step.residual(*args), reference_residual(spec, s, delta, *args))


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
           -1e-310, 1.0, -1.0]


@given(w=st.floats(1e-6, 1e6), delta=st.floats(1e-6, 1e6),
       v=st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)), min_size=1, max_size=8),
       at_delta=st.lists(st.sampled_from([1.0, -1.0]), max_size=3))
@example(w=1.0, delta=1.0, v=SPECIAL, at_delta=[1.0, -1.0])
def test_huber_grad_has_np_clip_bits(w, delta, v, at_delta):
    # ties at +/-delta, signed zeros, infinities, NaN and subnormals included
    g = HuberSmoothedL1(w, delta)
    v = np.array(v + [sign * delta for sign in at_delta])
    with np.errstate(over="ignore", under="ignore"):
        want = w * np.clip(v / delta, -1.0, 1.0)
        got = g.grad(v)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class DoubledFactorStep(Step):
    """A Step holding the factor of twice its matrix: each solve returns half the
    solution, which misses the residual check (Cholesky path) or A x = b (LU path)
    wherever the right-hand side and b are non-zero."""

    def __init__(self, *args):
        super().__init__(*args)
        if self.quadratic:
            self._factor = (lapack_factor("dpbtrf", 2.0 * self.system, lower=1)[0], True)
        else:
            self._factor = lapack_factor("dgetrf", 2.0 * self.system)


@pytest.mark.parametrize("name, message", [
    ("tv_d50", r"^step k = 1: x-update solve residual .* exceeds 1e-10 \* \(1 \+ \|\|rhs\|\|\) "
               r"\(LAPACK dpbtrs info 0; condition estimate .*\)$"),
    ("basis_pursuit_10x30", r"^step k = 1: indicator x-update left the constraint set "
                            r"\(LAPACK dgetrs info 0; condition estimate .*\)$"),
])
def test_run_checks_every_solve_after_the_loop(monkeypatch, name, message):
    monkeypatch.setattr(solver, "Step", DoubledFactorStep)
    with pytest.raises(IllConditionedError, match=message):
        run(get_instance(name), SolverConfig(N=5))


def test_long_run_oracle_checks_each_block(monkeypatch):
    monkeypatch.setattr(oracle, "Step", DoubledFactorStep)
    with pytest.raises(IllConditionedError,
                       match=r"^long-run oracle, step k = 1: x-update solve residual"):
        long_run_oracle(get_instance("tv_d50"))


def off_newton(monkeypatch, shift=1e-6):
    """Shift every exact solve's X by shift; returns the list of nodes (1-based) that
    took the exact solve."""
    calls, exact = [], []
    call, newton = ImplicitStep.__call__, ImplicitStep._pattern_newton

    def counted(self, Y, Lam):
        calls.append(None)
        return call(self, Y, Lam)

    def shifted(self, Y, Lam):
        exact.append(len(calls))
        X, Y1, L1 = newton(self, Y, Lam)
        return X + shift, Y1, L1

    monkeypatch.setattr(ImplicitStep, "__call__", counted)
    monkeypatch.setattr(ImplicitStep, "_pattern_newton", shifted)
    return exact


def test_exact_solve_is_checked_after_the_loop(monkeypatch):
    exact = off_newton(monkeypatch)
    with pytest.raises(InnerSolveError) as exc:
        simulate_high_res(get_instance("lasso_8x6_smoothed"), SHORT)
    j = exact[0]
    assert str(exc.value).startswith(f"step t = {SHORT.delta * j!r}: implicit step residual ")
    assert str(exc.value).endswith(f" exceeds {ode.INNER_TOL!r}")


def test_checked_row_carries_its_t_through_a_pickle(monkeypatch):
    # Trace.raise_first names the row in the attribute t too, which a forked worker's
    # pickle keeps
    exact = off_newton(monkeypatch)
    with pytest.raises(InnerSolveError) as exc:
        simulate_high_res(get_instance("lasso_8x6_smoothed"), SHORT)
    again = pickle.loads(pickle.dumps(exc.value))
    for err in (exc.value, again):
        assert (type(err), err.k, err.t) == (InnerSolveError, None, SHORT.delta * exact[0])
        assert str(err) == str(exc.value)


def test_copied_rows_are_not_checked_again():
    # scalar_lasso repeats its row 35 at row 36; rows 37.. are copies, which no check reads
    spec = get_instance("scalar_lasso")
    trace = run(spec, SolverConfig(N=60))
    assert trace.repeat == (35, 1) and trace.computed_rows() == 37
    step = Step(spec, 1.0)
    trace.xs[37:] = np.nan
    step.check_rows(trace)
    trace.xs[36] = np.nan
    with pytest.raises(IllConditionedError, match=r"^step k = 36: x-update solve residual nan"):
        step.check_rows(trace)

    smooth = get_instance("scalar_lasso_smoothed")
    high = simulate_high_res(smooth, CRITERION_7)
    i, p = high.repeat
    implicit = ImplicitStep(smooth, 1.0, CRITERION_7.delta)
    high.lams[i + p + 1:] = np.nan
    implicit.check_rows(high)
    high.lams[i + p] = np.nan
    last = re.escape(repr(high.axis[i + p].item()))
    with pytest.raises(InnerSolveError, match=rf"^step t = {last}: implicit step residual nan"):
        implicit.check_rows(high)


def nan_at(monkeypatch, owner, call):
    """Make owner's step return a row of NaN at its call-th call."""
    calls = []
    step = owner.__call__

    def planted(self, *args):
        calls.append(None)
        row = step(self, *args)
        return tuple(np.full_like(v, np.nan) for v in row) if len(calls) == call else row

    monkeypatch.setattr(owner, "__call__", planted)


def test_nan_row_names_its_step(monkeypatch):
    # row 2 is NaN and so is every row stepped from it; the check names the first
    nan_at(monkeypatch, Step, 2)
    with pytest.raises(IllConditionedError, match=r"^step k = 2: x-update solve residual nan"):
        run(get_instance("tv_d50"), SolverConfig(N=5))


def test_nan_node_names_its_time(monkeypatch):
    # the NaN comes at the last node, so no later step's own x-update check meets it
    nan_at(monkeypatch, ImplicitStep, 3)
    with pytest.raises(InnerSolveError, match=r"^step t = 0\.75: implicit step residual nan"):
        simulate_high_res(get_instance("lasso_8x6_smoothed"), SHORT)


def test_nan_exact_solve_names_its_own_node(monkeypatch):
    # the exact solve of node 2 of 3 is NaN: it fails there, not at node 3's x-update
    settle, solves = ode.settle_pattern, []

    def planted(*args):
        solves.append(None)
        z = settle(*args)
        return np.full_like(z, np.nan) if len(solves) == 2 else z

    monkeypatch.setattr(ode, "settle_pattern", planted)
    with pytest.raises(InnerSolveError, match=r"^step t = 0\.5: implicit step's pattern system "
                                              r"has a non-finite solution$"):
        simulate_high_res(get_instance("lasso_8x6_smoothed"), SHORT)
    assert len(solves) == 2


def test_array_pass_only_screens(monkeypatch):
    # an array pass that flags every row rejects none that the single-step check accepts
    spec, smooth = get_instance("tv_d50"), get_instance("lasso_8x6_smoothed")
    trace = run(spec, SolverConfig(N=20))
    high = simulate_high_res(smooth, SHORT)
    step_residual, node_residual = Step._residual, ImplicitStep.residual

    def flagging_step(self, x, rhs):
        res, bound = step_residual(self, x, rhs)
        return (res, bound) if x.ndim == 1 else (2.0 * bound, bound)

    def flagging_node(self, *args):
        res = node_residual(self, *args)
        return res if args[0].ndim == 1 else np.full_like(res, 2.0 * ode.INNER_TOL)

    monkeypatch.setattr(Step, "_residual", flagging_step)
    monkeypatch.setattr(ImplicitStep, "residual", flagging_node)
    Step(spec, 1.0).check_rows(trace)
    ImplicitStep(smooth, SHORT.s, SHORT.delta).check_rows(high)
    trace.xs[7] *= 0.5
    with pytest.raises(IllConditionedError, match=r"^step k = 7: x-update solve residual"):
        Step(spec, 1.0).check_rows(trace)


@pytest.mark.parametrize("name, message", [
    ("tv_d50", r"^x-update solve residual .* exceeds 1e-10"),
    ("basis_pursuit_10x30", r"^indicator x-update left the constraint set"),
])
def test_admm_step_checks_its_solve(monkeypatch, name, message):
    monkeypatch.setattr(prox, "Step", DoubledFactorStep)
    spec = get_instance(name)
    with pytest.raises(IllConditionedError, match=message):
        solver.admm_step(solver.zero_state(spec), spec, 1.0)


def test_nan_node_fails_the_algebraic_leg(monkeypatch):
    nan_at(monkeypatch, ImplicitStep, 3)
    monkeypatch.setattr(ImplicitStep, "check_rows", lambda self, trace: None)
    message = r"^algebraic constraint violated at node 3 \(t = 0\.75\): nan$"
    with pytest.raises(InnerSolveError, match=message) as exc:
        simulate_high_res(get_instance("lasso_8x6_smoothed"), SHORT)
    assert (exc.value.k, exc.value.t) == (None, 0.75)


def plant_doubled_run(monkeypatch):
    monkeypatch.setattr(solver, "Step", DoubledFactorStep)


def plant_doubled_oracle(monkeypatch):
    monkeypatch.setattr(oracle, "Step", DoubledFactorStep)


MAIN_FAILURES = {
    "run_cholesky": (plant_doubled_run, ["solve", "--spec", "scalar_lasso", "--N", "5"],
                     "error: step k = 1: x-update solve residual"),
    "run_lu": (plant_doubled_run, ["solve", "--spec", "basis_pursuit_10x30", "--N", "5"],
               "error: step k = 1: indicator x-update left the constraint set"),
    "long_run_oracle": (plant_doubled_oracle, ["solve", "--spec", "tv_d50", "--N", "5"],
                        "error: long-run oracle, step k = 1: x-update solve residual"),
    "exact_solve": (off_newton, ["simulate", "--spec", "scalar_lasso_smoothed", "--delta", "0.25",
                                 "--horizon", "1"], "error: step t = "),
}


@pytest.mark.parametrize("plant, argv, message", MAIN_FAILURES.values(), ids=MAIN_FAILURES.keys())
def test_failed_check_exits_2_and_writes_nothing(monkeypatch, tmp_path, capsys, plant, argv,
                                                 message):
    plant(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


SADDLE_READERS = sorted(name for name in vars(diag) if name.startswith("check_"))


@pytest.mark.parametrize("name", SADDLE_READERS)
def test_every_check_refuses_a_trace_without_a_saddle(name):
    # a standard run on scalar_lasso for every check, and a trace of the check's own kind
    check = getattr(diag, name)
    spec, smooth = get_instance("scalar_lasso"), get_instance("lasso_8x6_smoothed")
    if name.startswith("check_theorem_3") or name == "check_continuous_strong_avg":
        own = simulate_high_res(smooth, IntegratorConfig(s=1.0, delta=0.25, T=1.0))
    else:
        own = run(spec, SolverConfig(N=5, variant=GENERAL if "general" in name else "standard"))
    for trace in (run(spec, SolverConfig(N=5)), own):
        with pytest.raises(ParameterError, match="^certificates need a saddle: the trace was "
                                                 "run without one"):
            check(trace)
