"""The exact-cycle shortcut: Trace.step_rows, the one loop that produces rows, stops
stepping at the first row equal bit for bit to an earlier one, and copies the rest
from the cycle.

Each case below is checked against a reference that computes every row: a plain
loop over Step or ImplicitStep, or, for the RK4 flow and the long-run oracle, the
same code with Trace.step_rows replaced by a loop that computes every row. The rows
must agree as int64 (so 0.0 and -0.0 differ), and the detected (first row of the
cycle, period) is pinned.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from admmcert import ode, solver
from admmcert.cli import main
from admmcert.errors import IllConditionedError, InnerSolveError
from admmcert.library import _difference_matrix, get_instance
from admmcert.ode import ImplicitStep, IntegratorConfig, simulate_high_res, simulate_low_res
from admmcert.oracle import long_run_oracle
from admmcert.problems import build_generalized_lasso, save_instance
from admmcert.prox import Step
from admmcert.solver import GENERAL, SolverConfig, Trace, check_start, run

SMOOTH_CONFIG = IntegratorConfig(s=1.0, delta=0.01, T=20.0)


def first_repeat(xs, ys, lams):
    """(i, p) of the first row i + p equal bit for bit to an earlier row i, or None."""
    seen = {}
    for j, row in enumerate(zip(xs, ys, lams)):
        key = b"".join(v.tobytes() for v in row)
        if key in seen:
            return seen[key], j - seen[key]
        seen[key] = j
    return None


def stepped_rows(step, start, n):
    """n rows from start, every one computed by step(row) -> next row."""
    rows = [start]
    for _ in range(n - 1):
        rows.append(step(*rows[-1]))
    return [np.array(col) for col in zip(*rows)]


def every_row(trace, step, row):
    """Trace.step_rows without the shortcut: every row computed, no repeat reported."""
    for j in range(len(trace)):
        if j:
            row = step(*row)
        trace.xs[j], trace.ys[j], trace.lams[j] = row
    return trace


def assert_same_bits(trace, xs, ys, lams):
    for got, want in zip((trace.xs, trace.ys, trace.lams), (xs, ys, lams)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name, N, factor, repeat", [
    ("tv_d50", 3000, None, (2784, 1)),
    ("lasso_8x6", 1000, None, (436, 10)),
    ("trend_d50", 35000, None, (34552, 84)),
    ("rank_deficient_lasso", 1000, 1.1, (602, 116)),
])
def test_run_matches_every_step_computed(name, N, factor, repeat):
    spec = get_instance(name)
    if factor is None:
        config, r = SolverConfig(s=1.0, N=N), None
    else:
        r = factor * spec.FtF_norm
        config = SolverConfig(s=1.0, N=N, variant=GENERAL, r=r)
    trace = run(spec, config)
    rows = stepped_rows(Step(spec, 1.0, r), tuple(check_start(spec, None)), N + 1)
    assert_same_bits(trace, *rows)
    assert trace.repeat == first_repeat(*rows) == repeat


def test_high_res_matches_every_step_computed():
    spec = get_instance("scalar_lasso_smoothed")
    trace = simulate_high_res(spec, SMOOTH_CONFIG)
    implicit = ImplicitStep(spec, 1.0, SMOOTH_CONFIG.delta)
    rows = stepped_rows(lambda X, Y, Lam: implicit(Y, Lam), tuple(check_start(spec, None)),
                        len(trace))
    assert_same_bits(trace, *rows)
    assert trace.repeat == first_repeat(*rows) == (1713, 1)


def test_low_res_matches_every_step_computed(monkeypatch):
    spec = get_instance("scalar_lasso_smoothed")
    trace = simulate_low_res(spec, SMOOTH_CONFIG)
    assert trace.repeat == (1670, 1)
    monkeypatch.setattr(Trace, "step_rows", every_row)
    full = simulate_low_res(spec, SMOOTH_CONFIG)
    assert full.repeat is None
    assert_same_bits(trace, full.xs, full.ys, full.lams)
    assert first_repeat(full.xs, full.ys, full.lams) == (1670, 1)


@pytest.mark.parametrize("name", ["tv_d50", "trend_d50", "lasso_20x50", "basis_pursuit_10x30",
                                  "lasso_8x6_smoothed"])
def test_long_run_oracle_matches_every_step_computed(monkeypatch, name):
    spec = get_instance(name)
    got = long_run_oracle(spec, tol=1e-9)
    monkeypatch.setattr(Trace, "step_rows", every_row)
    want = long_run_oracle(spec, tol=1e-9)
    assert got.kkt_residual == want.kkt_residual
    for a, b in zip((got.x_star, got.y_star, got.lambda_star),
                    (want.x_star, want.y_star, want.lambda_star)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_stalled_oracle_matches_every_step_computed(monkeypatch, tmp_path, capsys):
    # the stall repro of test_oracle: its states cycle with period 2 from step 126
    rng = np.random.default_rng(0)
    path = tmp_path / "stall.txt"
    save_instance(build_generalized_lasso(np.eye(20), 1e6 * rng.standard_normal(20),
                                          _difference_matrix(20, 1), 0.5e6), path)
    argv = ["solve", "--spec", str(path), "--N", "100", "--out", str(tmp_path / "out")]
    got = main(argv), capsys.readouterr().err
    monkeypatch.setattr(Trace, "step_rows", every_row)
    assert (main(argv), capsys.readouterr().err) == got
    assert got[0] == 2 and "stalled at iteration 50200" in got[1]


def test_every_entry_point_steps_through_step_rows(monkeypatch):
    calls = []
    step_rows = Trace.step_rows

    def counting(trace, *args):
        calls.append(trace.axis_name)
        return step_rows(trace, *args)

    monkeypatch.setattr(Trace, "step_rows", counting)
    spec, config = get_instance("scalar_lasso_smoothed"), IntegratorConfig(s=1.0, delta=0.5, T=2.0)
    run(spec, SolverConfig(s=1.0, N=5))
    assert calls == ["k"]
    simulate_high_res(spec, config)
    simulate_low_res(spec, config)
    assert calls == ["k", "t", "t"]
    long_run_oracle(spec, tol=1e-9)
    assert len(calls) > 3 and set(calls[3:]) == {"k"}


def test_loops_stop_stepping_at_the_repeat(monkeypatch):
    calls = []

    class CountingStep(Step):
        def __call__(self, *args):
            calls.append(None)
            return super().__call__(*args)

    monkeypatch.setattr(solver, "Step", CountingStep)
    trace = run(get_instance("scalar_lasso"), SolverConfig(s=1.0, N=50))
    assert trace.repeat == (35, 1) and len(calls) == 36


@pytest.mark.parametrize("delta", [0.01, 0.002, 1 / 3, 0.1])
def test_axes_are_the_running_sums(delta):
    spec = get_instance("scalar_lasso_smoothed")
    config = IntegratorConfig(s=1.0, delta=delta, T=2.0)
    high, low = simulate_high_res(spec, config), simulate_low_res(spec, config)
    t, running = 0.0, []
    for _ in range(len(high)):
        running.append(t)
        t = t + delta
    assert high.axis.tolist() == running
    assert low.axis.tolist() == [j * delta for j in range(len(low))]


def test_failed_step_still_names_its_k(monkeypatch):
    class FailingStep(Step):
        calls = 0

        def __call__(self, *args):
            FailingStep.calls += 1
            if FailingStep.calls == 5:
                raise IllConditionedError("planted failure")
            return super().__call__(*args)

    monkeypatch.setattr(solver, "Step", FailingStep)
    with pytest.raises(IllConditionedError, match=r"^step k = 5: planted failure$"):
        run(get_instance("tv_d50"), SolverConfig(s=1.0, N=50))


def test_failed_low_res_solve_names_its_t(monkeypatch):
    monkeypatch.setattr(ode, "_flapack",
                        SimpleNamespace(dpbtrs=lambda *args, **kwargs: (args[-1], 1)))
    with pytest.raises(IllConditionedError,
                       match=r"^step t = 0\.01: low-resolution flow solve failed"):
        simulate_low_res(get_instance("scalar_lasso_smoothed"), SMOOTH_CONFIG)


def _round_trips(exc):
    """exc, and exc after a pickle round trip, as verify's forked worker sends it back."""
    return [exc, pickle.loads(pickle.dumps(exc))]


def test_failed_step_carries_its_k_and_t_as_attributes(monkeypatch):
    class FailingStep(Step):
        calls = 0

        def __call__(self, *args):
            FailingStep.calls += 1
            if FailingStep.calls == 5:
                raise IllConditionedError("planted failure")
            return super().__call__(*args)

    monkeypatch.setattr(solver, "Step", FailingStep)
    with pytest.raises(IllConditionedError) as exc:
        run(get_instance("tv_d50"), SolverConfig(s=1.0, N=50))
    for err in _round_trips(exc.value):
        assert type(err) is IllConditionedError and str(err) == "step k = 5: planted failure"
        assert (err.k, err.t) == (5, None) and type(err.k) is int

    monkeypatch.setattr(ode, "_flapack",
                        SimpleNamespace(dpbtrs=lambda *args, **kwargs: (args[-1], 1)))
    with pytest.raises(IllConditionedError) as exc:
        simulate_low_res(get_instance("scalar_lasso_smoothed"), SMOOTH_CONFIG)
    for err in _round_trips(exc.value):
        assert str(err).startswith("step t = 0.01: low-resolution flow solve failed")
        assert (err.k, err.t) == (None, 0.01)


def test_errors_outside_a_row_carry_no_row():
    for err in _round_trips(InnerSolveError("no row")):
        assert (str(err), err.k, err.t) == ("no row", None, None)


class TestFill:
    """Trace.step_rows on hand-made rows (x, y, lam) = (a, -a, 2a) of one coordinate each,
    replayed by a step that returns the next of the given rows."""

    @staticmethod
    def stepped(values, n):
        rows = iter([(np.array([a]), np.array([-a]), np.array([2.0 * a])) for a in values])
        calls = []

        def replay(*row):
            calls.append(None)
            return next(rows)

        trace = Trace(SimpleNamespace(d1=1, d2=1, m=1), n).step_rows(replay, next(rows))
        return trace, len(calls)

    @pytest.mark.parametrize("values, n, steps, repeat, xs", [
        ([1.0, 2.0, 3.0, 3.0], 7, 3, (2, 1), [1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0]),
        ([1.0, 2.0, 3.0, 4.0, 2.0], 9, 4, (1, 3), [1.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 2.0, 3.0]),
        ([5.0, 6.0, 5.0], 6, 2, (0, 2), [5.0, 6.0, 5.0, 6.0, 5.0, 6.0]),
        ([1.0, 2.0, 3.0, 2.0], 4, 3, (1, 2), [1.0, 2.0, 3.0, 2.0]),  # last row: nothing to fill
    ])
    def test_rows_after_the_repeat_follow_the_cycle(self, values, n, steps, repeat, xs):
        trace, calls = self.stepped(values, n)
        assert calls == steps and trace.repeat == repeat
        assert trace.xs[:, 0].tolist() == xs
        assert trace.ys[:, 0].tolist() == [-a for a in xs]
        assert trace.lams[:, 0].tolist() == [2.0 * a for a in xs]

    def test_signed_zeros_are_not_a_repeat(self):
        trace, calls = self.stepped([0.0, -0.0, 0.0], 4)
        assert (calls, trace.repeat) == (2, (0, 2))  # only the third row repeats (the first)
        trace, calls = self.stepped([1.0, 0.0, -0.0], 3)
        assert (calls, trace.repeat) == (2, None)
        assert np.signbit(trace.xs[:, 0]).tolist() == [False, False, True]

    def test_nan_payloads_compare_as_bits(self):
        quiet = np.array([np.nan])
        other = (quiet.view(np.int64) + 1).view(float)
        zero = np.zeros(1)
        rows = iter([(other, zero, zero), (quiet, zero, zero), (other, zero, zero)])
        trace = Trace(SimpleNamespace(d1=1, d2=1, m=1), 5)
        trace.step_rows(lambda *row: next(rows), (quiet, zero, zero))
        q, o = quiet.view(np.int64)[0], other.view(np.int64)[0]
        assert trace.repeat == (0, 2)
        assert trace.xs.view(np.int64)[:, 0].tolist() == [q, o, q, o, q]
