import re
from types import SimpleNamespace

import numpy as np
import pytest

from admmcert import acceptance, ode
from admmcert.diagnostics import (certify_continuous, check_continuous_strong_avg,
                                  check_theorem_3_2_weak, check_theorem_3_3_monotone)
from admmcert.errors import IllConditionedError, InnerSolveError, ParameterError
from admmcert.library import HUBER_DELTA, get_instance, get_saddle
from admmcert.ode import ImplicitStep, IntegratorConfig, simulate_high_res, simulate_low_res
from admmcert.problems import build_generalized_lasso
from admmcert.prox import Step
from admmcert.solver import SolverConfig, check_start, run


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            IntegratorConfig(s=1.0, delta=2.0, T=1.0)  # delta > s
        with pytest.raises(ParameterError):
            IntegratorConfig(s=1.0, delta=0.1, T=0.0)

    @pytest.mark.parametrize("s, delta, T, message", [
        (1, 1e-320, 1, "T/delta = 1/1e-320"),
        (1e300, 1e-300, 1e-10, "s/delta = 1e+300/1e-300"),  # T/delta = 1e290 is whole
    ])
    def test_overflowing_step_ratio_refused(self, s, delta, T, message):
        with pytest.raises(ParameterError, match=rf"^{re.escape(message)} overflows a float"):
            IntegratorConfig(s=s, delta=delta, T=T)

    def test_overflowing_step_ratio_refused_by_the_step(self):
        with pytest.raises(ParameterError, match=r"^s/delta = 1\.0/1e-320 overflows a float"):
            ImplicitStep(get_instance("scalar_lasso_smoothed"), 1.0, 1e-320)


class TestImplicitStepAtDeltaS:
    @pytest.mark.parametrize("name", ["scalar_lasso", "lasso_20x50", "tv_d50",
                                      "trend_d50", "basis_pursuit_10x30"])
    def test_matches_discrete_step_bitwise(self, name):
        spec = get_instance(name)
        step, implicit = Step(spec, 1.0), ImplicitStep(spec, 1.0, 1.0)
        x, y, lam = check_start(spec, None)
        Y, Lam = y, lam
        for _ in range(20):
            x, y, lam = step(x, y, lam)
            X, Y, Lam = implicit(Y, Lam)
            np.testing.assert_array_equal(X, x)
            np.testing.assert_array_equal(Y, y)
            np.testing.assert_array_equal(Lam, lam)

    def test_nonsmooth_needs_delta_equal_s(self):
        spec = get_instance("scalar_lasso")
        with pytest.raises(ParameterError, match="smoothed"):
            ImplicitStep(spec, 1.0, 0.5)

    @pytest.mark.parametrize("delta", [0.0, -0.5, 2.0, np.nan])
    def test_delta_outside_0_s_refused(self, delta):
        with pytest.raises(ParameterError, match=r"^need 0 < delta <= s$"):
            ImplicitStep(get_instance("scalar_lasso_smoothed"), 1.0, delta)

    @pytest.mark.parametrize("name", ["scalar_lasso", "scalar_lasso_smoothed"])
    def test_delta_equal_to_s_up_to_rounding_refused(self, name):
        # s/delta = 1.0000000000000002 rounds to 1: s up to rounding, not a micro-step,
        # refused with IntegratorConfig's message whether or not g is smooth
        spec, delta = get_instance(name), 0.9999999999999999
        with pytest.raises(ParameterError) as config_exc:
            IntegratorConfig(s=1.0, delta=delta, T=1.0)
        with pytest.raises(ParameterError) as step_exc:
            ImplicitStep(spec, 1.0, delta)
        assert str(step_exc.value) == str(config_exc.value)
        assert "delta = 0.9999999999999999 differs from s = 1.0" in str(step_exc.value)


class TestImplicitMicroSteps:
    def test_residual_certified_each_step(self):
        spec = get_instance("lasso_8x6_smoothed")
        s, delta = 1.0, 0.01
        step = ImplicitStep(spec, s, delta)
        _, Y, Lam = check_start(spec, None)
        for _ in range(30):
            _, Y, Lam = step(Y, Lam)
        # re-verify the step equations at the final state independently
        X1, Y1, L1 = step(Y, Lam)
        rA = spec.F.T @ spec.G @ (Y1 - Y) / delta - spec.F.T @ L1 - spec.f.grad(X1)
        rB = spec.G.T @ L1 + spec.g.grad(Y1)
        rC = s * s * (L1 - Lam) / delta - (spec.F @ X1 + spec.G @ Y1 - spec.h)
        scale = 1.0 + np.linalg.norm(X1) + np.linalg.norm(Y1) + np.linalg.norm(L1)
        assert max(np.linalg.norm(rA), np.linalg.norm(rB), np.linalg.norm(rC)) <= 1e-12 * scale

    def test_two_half_steps_approximate_one(self):
        # first-order scheme: refining the step changes the state only O(delta)
        spec = get_instance("scalar_lasso_smoothed")
        s = 1.0
        _, Y, Lam = check_start(spec, None)
        coarse, _, _ = ImplicitStep(spec, s, 0.1)(Y, Lam)
        half = ImplicitStep(spec, s, 0.05)
        fine, _, _ = half(*half(Y, Lam)[1:])
        assert abs(coarse[0] - fine[0]) < 0.05


class TestStepDispatch:
    """Below delta = s every node is the exact pattern solve, through LAPACK dgesv, for
    every f; at delta = s every node is the ADMM Step's own call."""

    @pytest.mark.parametrize("off", [False, True], ids=["zero", "off"])
    @pytest.mark.parametrize("name", acceptance.SMOOTH_INSTANCES)
    def test_criterion_7_runs_take_no_sweep(self, monkeypatch, name, off):
        residual = ImplicitStep.residual

        def no_sweep(*args):
            raise AssertionError("a sweep's x-update ran")

        def arrays_only(self, *args):  # check_rows' one array pass, after the loop
            if args[0].ndim == 1:
                raise AssertionError("a single-node residual ran")
            return residual(self, *args)

        monkeypatch.setattr(Step, "x_update", no_sweep)
        monkeypatch.setattr(ImplicitStep, "residual", arrays_only)
        spec = get_instance(name)
        init = (np.ones(spec.d1), np.zeros(spec.d2), np.zeros(spec.m)) if off else None
        trace = simulate_high_res(spec, IntegratorConfig(s=1.0, delta=0.01, T=20.0), init)
        assert trace.computed_rows() > 1

    @pytest.mark.parametrize("name, delta, T", [
        ("basis_pursuit_10x30", 0.01, 2.0),  # an affine-indicator f, smoothed
        ("scalar_lasso_smoothed", 0.01, 20.0),  # the two criterion-7 runs
        ("lasso_8x6_smoothed", 0.01, 20.0),
        ("basis_pursuit_10x30", 1.0, 40.0),  # delta = s, l1 g and indicator f
        ("lasso_8x6_smoothed", 1.0, 20.0),
    ], ids=["indicator", "scalar_lasso_smoothed", "lasso_8x6_smoothed", "delta_s_indicator",
            "delta_s_lasso"])
    def test_each_node_is_one_step_call_or_one_exact_solve(self, monkeypatch, name, delta, T):
        # at delta = s each node is exactly one Step.__call__, below it one exact solve;
        # no x-update and no single-node residual runs, in the loop or after it
        calls = {"step": 0, "x_update": 0, "exact": 0, "node_residual": 0}

        def counted(owner, attr, key, nodes_only=False):
            method = getattr(owner, attr)

            def wrapper(self, *args):
                if not nodes_only or args[0].ndim == 1:
                    calls[key] += 1
                return method(self, *args)
            monkeypatch.setattr(owner, attr, wrapper)

        counted(Step, "__call__", "step")
        counted(Step, "x_update", "x_update")
        counted(ImplicitStep, "_pattern_newton", "exact")
        counted(ImplicitStep, "residual", "node_residual", nodes_only=True)
        spec = get_instance(name)
        if delta < 1.0 and not spec.g.smooth:
            spec = spec.smoothed(HUBER_DELTA)
        trace = simulate_high_res(spec, IntegratorConfig(s=1.0, delta=delta, T=T))
        steps = trace.computed_rows() - 1
        assert steps > 1
        one = "step" if delta == 1.0 else "exact"
        assert calls == {"step": 0, "x_update": 0, "exact": 0, "node_residual": 0, one: steps}

    def test_ill_conditioned_step_refused_at_build(self):
        # the micro-step's X is as non-unique as the x-update of Step(spec, s^2/delta)
        spec = get_instance("rank_deficient_lasso").smoothed(HUBER_DELTA)
        with pytest.raises(IllConditionedError, match=r"^x-update system has condition "
                                                      r"estimate 1\.\d{3}e\+17 > 1e\+12"):
            ImplicitStep(spec, 1.0, 0.01)

    def test_singular_pattern_system_falls_back_to_lstsq(self, monkeypatch):
        systems = []

        def singular(M, v):  # dgesv's (lu, piv, x, info) for an exactly singular M
            systems.append((M.copy(), v.copy()))
            return M, np.zeros(len(v), dtype=np.int32), np.full(len(v), np.nan), 1

        monkeypatch.setattr(ode._flapack, "dgesv", singular)
        spec = get_instance("lasso_8x6_smoothed")
        _, Y, Lam = check_start(spec, None)
        z = np.concatenate(ImplicitStep(spec, 1.0, 0.01)(Y, Lam))
        M, v = systems[-1]
        np.testing.assert_array_equal(z, np.linalg.lstsq(M, v, rcond=None)[0])


class TestIndicatorExactSolve:
    def test_pattern_newton_solves_the_step_for_an_affine_indicator_f(self):
        # every node of this run is the exact solve; for an indicator f the ADMM step
        # Step(spec, s^2/delta) solves the same step equations, so the two differ only
        # by the solves' rounding
        spec = get_instance("basis_pursuit_10x30").smoothed(HUBER_DELTA)
        F, G, h, A, b = spec.F, spec.G, spec.h, spec.f.A, spec.f.b
        s, delta = 1.0, 0.01
        trace = simulate_high_res(spec, IntegratorConfig(s=s, delta=delta, T=2.0))
        step, admm = ImplicitStep(spec, s, delta), Step(spec, s * s / delta)
        for j in (0, 1, 50, 199):
            Y, Lam = trace.ys[j], trace.lams[j]
            X1, Y1, L1 = step._pattern_newton(Y, Lam)
            np.testing.assert_array_equal(X1, trace.xs[j + 1])
            # x: F^T G dY/delta - F^T Lam lies in the normal cone of {A x = b}, range(A^T)
            vx = F.T @ G @ (Y1 - Y) / delta - F.T @ L1
            rA = vx - A.T @ np.linalg.lstsq(A.T, vx, rcond=None)[0]
            rB = G.T @ L1 + spec.g.grad(Y1)
            rC = s * s * (L1 - Lam) / delta - (F @ X1 + G @ Y1 - h)
            scale = 1.0 + np.linalg.norm(X1) + np.linalg.norm(Y1) + np.linalg.norm(L1)
            assert max(map(np.linalg.norm, (rA, rB, rC))) <= ode.INNER_TOL * scale
            assert np.linalg.norm(A @ X1 - b) <= ode.INNER_TOL * (1.0 + np.linalg.norm(b))
            # the same step as the ADMM step's, up to the solves' rounding
            for got, want in zip((X1, Y1, L1), admm(None, Y, Lam)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_step_off_the_constraint_set_is_measured_and_named(self):
        # a node planted off A x = b has no subgradient distance (it is inf); the residual
        # measures ||A X - b|| instead, so the error reports a finite residual
        spec = get_instance("basis_pursuit_10x30").smoothed(HUBER_DELTA)
        step = ImplicitStep(spec, 1.0, 0.25)
        trace = simulate_high_res(spec, IntegratorConfig(s=1.0, delta=0.25, T=1.0))
        trace.xs[2] += 1e-3 * spec.f.A[0]
        with pytest.raises(InnerSolveError, match=r"^step t = 0\.5: implicit step residual "
                                                  r"\d\.\d{3}e[-+]\d+ exceeds 1e-12$"):
            step.check_rows(trace)


class TestSimulateHighRes:
    def test_node_count_and_times(self):
        spec = get_instance("scalar_lasso_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.1, T=1.0)
        trace = simulate_high_res(spec, config)
        assert len(trace) == 11
        assert trace.axis[-1] == pytest.approx(1.0)

    def test_algebraic_constraint_on_nodes(self):
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.05, T=2.0)
        trace = simulate_high_res(spec, config)
        for j in range(1, len(trace)):
            alg = np.linalg.norm(spec.G.T @ trace.lams[j] + spec.g.grad(trace.ys[j]))
            assert alg <= 1e-11 * (1.0 + np.linalg.norm(trace.lams[j]))

    @staticmethod
    def overflowing_start(spec):
        # a NaN start is refused before any step; this finite one overflows in the first
        # step (the overflow is the point here)
        return np.zeros(spec.d1), np.full(spec.d2, np.finfo(float).max), np.zeros(spec.m)

    def test_failed_step_names_the_node(self):
        # at delta = s the step is the ADMM sweep, whose x-update solve check fails
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=0.25, delta=0.25, T=1.0)
        with pytest.raises(IllConditionedError, match=r"step t = 0\.25: .*condition estimate"), \
                np.errstate(over="ignore", invalid="ignore"):
            simulate_high_res(spec, config, self.overflowing_start(spec))

    def test_failed_exact_step_names_the_node(self):
        # below delta = s the step is the exact pattern solve, whose solution is not finite
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.25, T=1.0)
        with pytest.raises(InnerSolveError, match=r"^step t = 0\.25: implicit step's pattern "
                                                  r"system has a non-finite solution$"), \
                np.errstate(over="ignore", invalid="ignore"):
            simulate_high_res(spec, config, self.overflowing_start(spec))

    @pytest.mark.parametrize("name, delta", [("scalar_lasso_smoothed", 2.0),
                                             ("scalar_lasso_smoothed", 0.9999999999999999),
                                             ("scalar_lasso", 0.5)])
    def test_delta_refused_before_any_step(self, monkeypatch, name, delta):
        # a config that skipped IntegratorConfig's checks meets ImplicitStep's refusals,
        # with their messages, before a Step is built or an implicit step taken
        spec = get_instance(name)
        with pytest.raises(ParameterError) as step_exc:
            ImplicitStep(spec, 1.0, delta)

        def no_build(*args):
            raise AssertionError("a Step was built")

        monkeypatch.setattr(ode, "Step", no_build)
        monkeypatch.setattr(ImplicitStep, "__call__", no_build)
        config = SimpleNamespace(s=1.0, delta=delta, T=2.0)
        with pytest.raises(ParameterError) as sim_exc:
            simulate_high_res(spec, config)
        assert str(sim_exc.value) == str(step_exc.value)

    def test_csv_schema(self, tmp_path):
        spec = get_instance("scalar_lasso_smoothed")
        sad = get_saddle("scalar_lasso_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.5, T=2.0)
        trace = simulate_high_res(spec, config, saddle=sad)
        path = tmp_path / "cont.csv"
        trace.to_csv(path)
        header = path.read_text().split("\n", 1)[0]
        assert header == "t,X0,Y0,Lambda0,deviation,lyapunov,ne_continuous"


class TestLowRes:
    UNIT = IntegratorConfig(s=1.0, delta=0.1, T=1.0)

    def test_deviation_identically_zero(self):
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.01, T=5.0)
        trace = simulate_low_res(spec, config)
        assert float(np.max(trace.scalars["deviation"])) <= 1e-10

    def test_requires_smooth_terms(self):
        with pytest.raises(ParameterError, match="differentiable"):
            simulate_low_res(get_instance("scalar_lasso"), self.UNIT)

    def test_requires_invertible_FtF(self):
        # a difference F has a null direction (constants; lines too for trend), so the
        # flow matrix is singular: first, second differences and a short tv F
        for name in ("tv_d50", "trend_d50", "rank_deficient_lasso"):
            with pytest.raises(ParameterError, match="singular"):
                simulate_low_res(get_instance(name).smoothed(1e-3), self.UNIT)

    def test_flow_runs_with_no_dense_solve_or_eigensolver(self, monkeypatch):
        # the refusal reads F^T F's band (dsbevx), the flow factors it with dpbtrf
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called by the low-resolution flow")
            return call

        for name in ("dgetrf", "dgetrs"):
            monkeypatch.setattr(ode._flapack, name, refuse(name))
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse("eigvalsh"))
        for name in ("scalar_lasso_smoothed", "lasso_8x6_smoothed"):
            spec = get_instance(name)
            assert ode.low_res_refusal(spec) is None
            assert len(simulate_low_res(spec, self.UNIT)) == 11

    def test_band_flow_matches_a_dense_solve_on_a_non_integer_F(self):
        # every built-in the flow takes has F = I; an upper bidiagonal F with entries 1
        # and -0.3 is invertible and makes F^T F a tridiagonal band of non-integers,
        # whose banded Cholesky rounds otherwise than a dense solve (with -0.5 the
        # factor would be F^T itself, exactly)
        rng = np.random.default_rng(7)
        d, delta = 6, 0.01
        A = rng.standard_normal((8, d)) / np.sqrt(8.0)
        F = np.eye(d) - 0.3 * np.eye(d, k=1)
        spec = build_generalized_lasso(A, rng.standard_normal(8), F, 0.3).smoothed(HUBER_DELTA)
        assert spec.F_op.banded and spec.FtF_band.shape[0] == 2
        trace = simulate_low_res(spec, IntegratorConfig(s=1.0, delta=delta, T=2.0))

        def field(x):
            y = spec.G_sign * (spec.h - F @ x)
            return np.linalg.solve(F.T @ F, -spec.f.grad(x) - F.T @ spec.g.grad(y))

        want = [np.zeros(d)]
        for _ in range(len(trace) - 1):
            x = want[-1]
            k1 = field(x)
            k2 = field(x + 0.5 * delta * k1)
            k3 = field(x + 0.5 * delta * k2)
            k4 = field(x + delta * k3)
            want.append(x + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        want = np.array(want)
        assert np.max(np.abs(trace.xs - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("start", [None, 1.0, -1.0], ids=["zero", "plus_one", "minus_one"])
    @pytest.mark.parametrize("name", ["scalar_lasso_smoothed", "lasso_8x6_smoothed"])
    def test_algebraic_leg_exact_on_nodes(self, name, start):
        # the multiplier is -(G_sign * grad g(Y)), so G^T Lam + grad g(Y) is exactly 0
        spec = get_instance(name)
        init_x = None if start is None else np.full(spec.d1, start)
        trace = simulate_low_res(spec, self.UNIT, init_x)
        alg = spec.G_sign * trace.lams + spec.g.grad(trace.ys)
        assert np.all(alg == 0.0)

    def test_flow_decreases_objective(self):
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.01, T=5.0)
        trace = simulate_low_res(spec, config)
        obj = [spec.f.value(trace.xs[j]) + spec.g.value(trace.ys[j])
               for j in (0, len(trace) - 1)]
        assert obj[1] < obj[0]


@pytest.fixture(scope="module")
def high():
    spec = get_instance("lasso_8x6_smoothed")
    sad = get_saddle("lasso_8x6_smoothed")
    config = IntegratorConfig(s=1.0, delta=0.01, T=10.0)
    trace = simulate_high_res(spec, config, saddle=sad)
    return trace, spec, sad, config


class TestContinuousDiagnostics:
    def test_lyapunov_matches_discrete_formula(self, high):
        trace, spec, sad, _ = high
        val = trace.scalars["lyapunov"][0]
        gy = spec.G @ (trace.ys[0] - sad.y_star)
        expect = 0.5 * gy @ gy + 0.5 * sad.lambda_star @ sad.lambda_star
        assert val == pytest.approx(float(expect))

    def test_monotone_certificate(self, high):
        trace, spec, sad, config = high
        entry, = check_theorem_3_3_monotone(trace)
        assert entry.passed, entry.worst_slack
        assert entry.tolerance == pytest.approx(10 * config.delta)

    def test_weak_rate_certificate(self, high):
        trace, spec, sad, config = high
        entry, = check_theorem_3_2_weak(trace)
        assert entry.passed, entry.worst_slack

    def test_strong_avg_certificate(self, high):
        trace, spec, sad, config = high
        entry, = check_continuous_strong_avg(trace)
        assert entry.passed, entry.worst_slack

    def test_bundle(self, high):
        trace, spec, sad, config = high
        report = certify_continuous(trace)
        assert report.all_pass
        assert [e.theorem for e in report.entries] == [
            "theorem_3_3_lyapunov_monotone", "theorem_3_2_weak_rate",
            "theorem_3_4_strong_avg"]

    def test_ne_interior_only(self, high):
        trace, _, _, _ = high
        ne = trace.scalars["ne_continuous"]
        assert np.isnan(ne[0]) and np.isnan(ne[-1])
        assert np.all(np.isfinite(ne[1:-1])) and np.all(ne[1:-1] >= 0.0)


def _planted(size):
    """Criterion 7's run of lasso_8x6_smoothed (s = 1, delta = s/100, T = 20s) with X
    moved to x* + size * (1, ..., 1)/sqrt(d1) on the nodes 1..200, of [0, T/10], only."""
    name = "lasso_8x6_smoothed"
    spec, sad = get_instance(name), get_saddle(name)
    trace = simulate_high_res(spec, IntegratorConfig(s=1.0, delta=0.01, T=20.0), saddle=sad)
    trace.xs[1:201] = sad.x_star + size / np.sqrt(spec.d1)
    return trace


@pytest.mark.parametrize("check, size", [(check_continuous_strong_avg, 5.0),
                                         (check_theorem_3_2_weak, 3.0)])
def test_violation_early_in_the_horizon_fails_at_its_node(check, size):
    # the time means at the nodes nearest T/4, T/2 and T, all that were once read, dilute
    # the planted stretch below the bound; the means at its own nodes do not, and the
    # worst one names such a node
    trace = _planted(size)
    entry, = check(trace)
    assert not entry.passed and entry.worst_slack > entry.tolerance
    assert 1 <= entry.worst_index <= 200



class TestDeviation:
    def test_discrete_iterates_leave_hyperplane(self):
        # the dual correction pushes ADMM iterates off F x + G y = h ...
        spec = get_instance("scalar_lasso")
        trace = run(spec, SolverConfig(s=1.0, N=3))
        assert np.linalg.norm(spec.constraint_residual(trace.xs[1], trace.ys[1])) > 1e-3

    def test_off_hyperplane_start_decays(self):
        # ... while the high-resolution trajectory pulls back toward it
        spec = get_instance("scalar_lasso_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.01, T=20.0)
        init = (np.ones(spec.d1), np.zeros(spec.d2), np.zeros(spec.m))
        trace = simulate_high_res(spec, config, init)
        dev = trace.scalars["deviation"]
        assert dev[0] > 1e-3
        assert dev[-1] < dev[0]


def _start(block, value):
    """The zero start of lasso_8x6_smoothed (d1 = d2 = m = 6) with one block set to value."""
    init = [np.zeros(6) for _ in range(3)]
    init[block][:] = value
    return tuple(init)


RUN = lambda spec, init: run(spec, SolverConfig(N=2), init=init)
HIGH_DELTA_S = lambda spec, init: simulate_high_res(
    spec, IntegratorConfig(s=1.0, delta=1.0, T=3.0), init)
HIGH_MICRO = lambda spec, init: simulate_high_res(
    spec, IntegratorConfig(s=1.0, delta=0.1, T=3.0), init)
LOW = lambda spec, init: simulate_low_res(spec, IntegratorConfig(s=1.0, delta=0.1, T=1.0), init[0])
SHORT = (np.ones(1),) * 3
WRONG_LENGTH = r"^initial state dimensions do not match the problem$"
TWO_BLOCKS = (np.zeros(6), np.zeros(6))
WRONG_COUNT = r"^initial state has 2 blocks, expected 3 \(x, y, lambda\)$"

START_CALLS = {
    "run": (RUN, SHORT, WRONG_LENGTH),
    "high_res_delta_s": (HIGH_DELTA_S, SHORT, WRONG_LENGTH),
    "high_res_micro": (HIGH_MICRO, SHORT, WRONG_LENGTH),
    "low_res": (LOW, SHORT, WRONG_LENGTH),
    "run_two_blocks": (RUN, TWO_BLOCKS, WRONG_COUNT),
    "high_res_delta_s_two_blocks": (HIGH_DELTA_S, TWO_BLOCKS, WRONG_COUNT),
    "high_res_micro_two_blocks": (HIGH_MICRO, TWO_BLOCKS, WRONG_COUNT),
    "run_nan_x": (RUN, _start(0, np.nan), r"^initial x is not finite$"),
    "run_inf_y": (RUN, _start(1, np.inf), r"^initial y is not finite$"),
    "run_nan_lambda": (RUN, _start(2, np.nan), r"^initial lambda is not finite$"),
    "high_res_delta_s_inf_lambda": (HIGH_DELTA_S, _start(2, -np.inf),
                                    r"^initial lambda is not finite$"),
    "high_res_micro_nan_y": (HIGH_MICRO, _start(1, np.nan), r"^initial y is not finite$"),
    "low_res_nan_x": (LOW, _start(0, np.nan), r"^initial x is not finite$"),
    "low_res_inf_x": (LOW, _start(0, np.inf), r"^initial x is not finite$"),
}


@pytest.mark.parametrize("call, init, message", START_CALLS.values(), ids=START_CALLS.keys())
def test_start_of_wrong_length_refused(call, init, message):
    # a length-1 start on a d = 6 problem is refused, not broadcast across row 0, a
    # start without three blocks by its count, and a non-finite block by name, not
    # written into row 0
    with pytest.raises(ParameterError, match=message):
        call(get_instance("lasso_8x6_smoothed"), init)
