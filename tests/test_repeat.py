"""The exact-cycle shortcut: a loop that stores rows stops stepping at the first row
equal bit for bit to an earlier one, and copies the rest from the cycle.

Each case below is checked against a reference that computes every row: a plain
loop over Step or ImplicitStep, or, for the RK4 flow, the integrator itself with
the repeat never reported. The rows must agree as int64 (so 0.0 and -0.0 differ),
and the detected (first row of the cycle, period) is pinned.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from admmcert import solver
from admmcert.errors import IllConditionedError
from admmcert.library import get_instance
from admmcert.ode import ImplicitStep, IntegratorConfig, simulate_high_res, simulate_low_res
from admmcert.prox import Step
from admmcert.solver import GENERAL, RowMemo, SolverConfig, Trace, check_start, run

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


def assert_same_bits(trace, xs, ys, lams):
    for got, want in zip((trace.xs, trace.ys, trace.lams), (xs, ys, lams)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name, N, factor, repeat", [
    ("tv_d50", 3000, None, (2745, 2)),
    ("lasso_8x6", 1000, None, (438, 9)),
    ("trend_d50", 7100, None, (7023, 26)),
    ("rank_deficient_lasso", 1000, 1.1, (874, 16)),
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
    assert trace.repeat == first_repeat(*rows) == (1665, 1)


def test_low_res_matches_every_step_computed(monkeypatch):
    spec = get_instance("scalar_lasso_smoothed")
    trace = simulate_low_res(spec, SMOOTH_CONFIG)
    assert trace.repeat == (1670, 1)
    store = RowMemo.store
    monkeypatch.setattr(RowMemo, "store", lambda *args: store(*args) and False)
    full = simulate_low_res(spec, SMOOTH_CONFIG)
    assert full.repeat is None
    assert_same_bits(trace, full.xs, full.ys, full.lams)
    assert first_repeat(full.xs, full.ys, full.lams) == (1670, 1)


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


class TestFill:
    """Trace.store on hand-made rows (x, y, lam) = (a, -a, 2a) of one coordinate each."""

    @staticmethod
    def stored(values, n):
        trace = Trace(SimpleNamespace(d1=1, d2=1, m=1), n)
        for j, a in enumerate(values):
            if trace.store(j, np.array([a]), np.array([-a]), np.array([2.0 * a])):
                return trace, j
        return trace, None

    @pytest.mark.parametrize("values, n, stop, repeat, xs", [
        ([1.0, 2.0, 3.0, 3.0], 7, 3, (2, 1), [1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0]),
        ([1.0, 2.0, 3.0, 4.0, 2.0], 9, 4, (1, 3), [1.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 2.0, 3.0]),
        ([5.0, 6.0, 5.0], 6, 2, (0, 2), [5.0, 6.0, 5.0, 6.0, 5.0, 6.0]),
        ([1.0, 2.0, 3.0, 2.0], 4, 3, (1, 2), [1.0, 2.0, 3.0, 2.0]),  # last row: nothing to fill
    ])
    def test_rows_after_the_repeat_follow_the_cycle(self, values, n, stop, repeat, xs):
        trace, j = self.stored(values, n)
        assert j == stop and trace.repeat == repeat
        assert trace.xs[:, 0].tolist() == xs
        assert trace.ys[:, 0].tolist() == [-a for a in xs]
        assert trace.lams[:, 0].tolist() == [2.0 * a for a in xs]

    def test_signed_zeros_are_not_a_repeat(self):
        trace, j = self.stored([0.0, -0.0, 0.0], 4)
        assert (j, trace.repeat) == (2, (0, 2))  # only the third row repeats (the first)
        trace, j = self.stored([1.0, 0.0, -0.0], 3)
        assert (j, trace.repeat) == (None, None)
        assert np.signbit(trace.xs[:, 0]).tolist() == [False, False, True]

    def test_nan_payloads_compare_as_bits(self):
        quiet = np.array([np.nan])
        other = quiet.view(np.int64) + 1
        memo = RowMemo(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)))
        zero = np.zeros(1)
        assert not memo.store(0, quiet, zero, zero)
        assert not memo.store(1, other.view(float), zero, zero)
        assert memo.store(2, quiet, zero, zero) and memo.repeat == (0, 2)


class TestWindow:
    """A RowMemo with n slots keeps the last n - 1 rows, as the long-run oracle's does."""

    @staticmethod
    def window(values, n):
        memo = RowMemo(np.zeros((n, 1)), np.zeros((n, 1)), np.zeros((n, 1)))
        zero = np.zeros(1)
        for j, a in enumerate(values):
            if memo.store(j, np.array([a]), zero, zero):
                break
        return memo

    def test_period_below_the_window_is_found(self):
        memo = self.window([7.0, 1.0, 2.0, 3.0, 1.0], 4)
        assert memo.repeat == (1, 3)
        xs = memo.blocks[0][:, 0]
        assert xs[memo.source(np.arange(1, 12))].tolist() == [1.0, 2.0, 3.0] * 3 + [1.0, 2.0]

    def test_period_of_the_window_size_is_not(self):
        memo = self.window([1.0, 2.0, 3.0, 1.0, 2.0, 3.0], 3)
        assert memo.repeat is None
        assert memo.blocks[0][:, 0].tolist() == [1.0, 2.0, 3.0]  # rows 3, 4, 5
