import numpy as np
import pytest

from admmcert.errors import InnerSolveError, ParameterError
from admmcert.library import get_instance, get_saddle
from admmcert.ode import (
    ContinuousState,
    IntegratorConfig,
    certify_continuous,
    check_continuous_strong_avg,
    check_theorem_3_2_weak,
    check_theorem_3_3_monotone,
    high_res_implicit_step,
    simulate_high_res,
    simulate_low_res,
)
from admmcert.solver import SolverConfig, admm_step, run, zero_state


def zero_cont(spec):
    return ContinuousState(np.zeros(spec.d1), np.zeros(spec.d2), np.zeros(spec.m), 0.0)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            IntegratorConfig(s=1.0, delta=2.0, T=1.0)  # delta > s
        with pytest.raises(ParameterError):
            IntegratorConfig(s=1.0, delta=0.1, T=0.0)


class TestImplicitStepAtDeltaS:
    @pytest.mark.parametrize("name", ["scalar_lasso", "lasso_20x50", "tv_d50",
                                      "trend_d50", "basis_pursuit_10x30"])
    def test_matches_discrete_step_bitwise(self, name):
        spec = get_instance(name)
        d = zero_state(spec)
        c = zero_cont(spec)
        for _ in range(20):
            d = admm_step(d, spec, 1.0)
            c = high_res_implicit_step(c, spec, 1.0, 1.0)
            np.testing.assert_array_equal(c.X, d.x)
            np.testing.assert_array_equal(c.Y, d.y)
            np.testing.assert_array_equal(c.Lam, d.lam)

    def test_nonsmooth_needs_delta_equal_s(self):
        spec = get_instance("scalar_lasso")
        with pytest.raises(ParameterError, match="smoothed"):
            high_res_implicit_step(zero_cont(spec), spec, 1.0, 0.5)


class TestImplicitMicroSteps:
    def test_residual_certified_each_step(self):
        spec = get_instance("lasso_8x6_smoothed")
        state = zero_cont(spec)
        s, delta = 1.0, 0.01
        for _ in range(30):
            state = high_res_implicit_step(state, spec, s, delta)
        # re-verify the step equations at the final state independently
        prev = state
        nxt = high_res_implicit_step(prev, spec, s, delta)
        rA = spec.FtG @ (nxt.Y - prev.Y) / delta - spec.F.T @ nxt.Lam - spec.f.grad(nxt.X)
        rB = spec.G.T @ nxt.Lam + spec.g.grad(nxt.Y)
        rC = s * s * (nxt.Lam - prev.Lam) / delta - (
            spec.F @ nxt.X + spec.G @ nxt.Y - spec.h)
        scale = 1.0 + np.linalg.norm(nxt.X) + np.linalg.norm(nxt.Y) + np.linalg.norm(nxt.Lam)
        assert max(np.linalg.norm(rA), np.linalg.norm(rB), np.linalg.norm(rC)) <= 1e-12 * scale

    def test_two_half_steps_approximate_one(self):
        # first-order scheme: refining the step changes the state only O(delta)
        spec = get_instance("scalar_lasso_smoothed")
        s = 1.0
        coarse = high_res_implicit_step(zero_cont(spec), spec, s, 0.1)
        fine = high_res_implicit_step(
            high_res_implicit_step(zero_cont(spec), spec, s, 0.05), spec, s, 0.05)
        assert abs(coarse.X[0] - fine.X[0]) < 0.05


class TestSimulateHighRes:
    def test_node_count_and_times(self):
        spec = get_instance("scalar_lasso_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.1, T=1.0)
        trace = simulate_high_res(spec, config, zero_cont(spec))
        assert len(trace) == 11
        assert trace.axis[-1] == pytest.approx(1.0)

    def test_algebraic_constraint_on_nodes(self):
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.05, T=2.0)
        trace = simulate_high_res(spec, config, zero_cont(spec))
        for j in range(1, len(trace)):
            alg = np.linalg.norm(spec.G.T @ trace.lams[j] + spec.g.grad(trace.ys[j]))
            assert alg <= 1e-11 * (1.0 + np.linalg.norm(trace.lams[j]))

    def test_failed_step_names_the_node(self):
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.25, T=1.0)
        init = ContinuousState(np.zeros(spec.d1), np.full(spec.d2, np.nan), np.zeros(spec.m), 0.0)
        with pytest.raises(InnerSolveError, match=r"node t = 0\.25: .*condition estimate"):
            simulate_high_res(spec, config, init)

    def test_csv_schema(self, tmp_path):
        spec = get_instance("scalar_lasso_smoothed")
        sad = get_saddle("scalar_lasso_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.5, T=2.0)
        trace = simulate_high_res(spec, config, zero_cont(spec),
                                  ref=(sad.y_star, sad.lambda_star))
        path = tmp_path / "cont.csv"
        trace.to_csv(path)
        header = path.read_text().split("\n", 1)[0]
        assert header == "t,X0,Y0,Lambda0,deviation,lyapunov,ne_continuous"


class TestLowRes:
    UNIT = IntegratorConfig(s=1.0, delta=0.1, T=1.0)

    def test_deviation_identically_zero(self):
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.01, T=5.0)
        trace = simulate_low_res(spec, config, np.zeros(spec.d1))
        assert float(np.max(trace.scalars["deviation"])) <= 1e-10

    def test_requires_smooth_terms(self):
        with pytest.raises(ParameterError, match="differentiable"):
            simulate_low_res(get_instance("scalar_lasso"), self.UNIT, np.zeros(1))

    def test_requires_invertible_FtF(self):
        # the first-difference F has a null direction, so the flow matrix is singular
        with pytest.raises(ParameterError, match="singular"):
            simulate_low_res(get_instance("tv_d50").smoothed(1e-3), self.UNIT, np.zeros(50))

    def test_requires_square_G(self):
        from admmcert.functions import HuberSmoothedL1, Quadratic
        from admmcert.problems import ProblemSpec
        spec = ProblemSpec(Quadratic([[1.0]], [1.0]), HuberSmoothedL1(1.0, 1e-3),
                           [[1.0], [0.0]], [[1.0], [1.0]], [0.0, 0.0])
        with pytest.raises(ParameterError, match="square"):
            simulate_low_res(spec, self.UNIT, np.zeros(1))

    def test_flow_decreases_objective(self):
        spec = get_instance("lasso_8x6_smoothed")
        config = IntegratorConfig(s=1.0, delta=0.01, T=5.0)
        trace = simulate_low_res(spec, config, np.zeros(spec.d1))
        obj = [spec.f.value(trace.xs[j]) + spec.g.value(trace.ys[j])
               for j in (0, len(trace) - 1)]
        assert obj[1] < obj[0]


@pytest.fixture(scope="module")
def high():
    spec = get_instance("lasso_8x6_smoothed")
    sad = get_saddle("lasso_8x6_smoothed")
    config = IntegratorConfig(s=1.0, delta=0.01, T=10.0)
    trace = simulate_high_res(spec, config, zero_cont(spec),
                              ref=(sad.y_star, sad.lambda_star))
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
        entry = check_theorem_3_3_monotone(trace, sad)
        assert entry.passed, entry.worst_slack
        assert entry.tolerance == pytest.approx(10 * config.delta)

    def test_weak_rate_certificate(self, high):
        trace, spec, sad, config = high
        entry = check_theorem_3_2_weak(trace, sad)
        assert entry.passed, entry.worst_slack

    def test_strong_avg_certificate(self, high):
        trace, spec, sad, config = high
        entry = check_continuous_strong_avg(trace, sad)
        assert entry.passed, entry.worst_slack

    def test_bundle(self, high):
        trace, spec, sad, config = high
        report = certify_continuous(trace, sad)
        assert report.all_pass
        assert [e.theorem for e in report.entries] == [
            "theorem_3_3_lyapunov_monotone", "theorem_3_2_weak_rate",
            "theorem_3_4_strong_avg"]

    def test_ne_interior_only(self, high):
        trace, _, _, _ = high
        ne = trace.scalars["ne_continuous"]
        assert np.isnan(ne[0]) and np.isnan(ne[-1])
        assert np.all(np.isfinite(ne[1:-1])) and np.all(ne[1:-1] >= 0.0)


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
        init = ContinuousState(np.ones(spec.d1), np.zeros(spec.d2), np.zeros(spec.m), 0.0)
        trace = simulate_high_res(spec, config, init)
        dev = trace.scalars["deviation"]
        assert dev[0] > 1e-3
        assert dev[-1] < dev[0]
