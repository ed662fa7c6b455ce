import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from admmcert.errors import IllConditionedError, ParameterError
from admmcert.library import get_instance, get_saddle
from admmcert.problems import kkt_residuals
from admmcert.solver import (
    GENERAL,
    IterateState,
    SolverConfig,
    Trace,
    WRITE_BLOCK,
    admm_step,
    default_r,
    run,
    write_csv,
    zero_state,
)
from test_row_passes import DERANDOMIZED

# cells whose text or bits are easy to get wrong: signed zeros, NaNs with other sign
# bits and payloads (all written "nan"), infinities, subnormals and the extremes
QUIET_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
SPECIAL_CELLS = [0.0, -0.0, np.nan, -np.nan, QUIET_NAN_PAYLOAD, np.inf, -np.inf, 5e-324,
                 -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0, -2.5]


@st.composite
def tables(draw):
    """(axis, (n, c) table): rows that repeat the row above, cells that repeat the cell
    above or flip its sign (0.0 <-> -0.0), and fresh cells, with an int or a float axis."""
    n, c = draw(st.integers(0, 8)), draw(st.integers(0, 5))
    cell = st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats(allow_subnormal=True))
    table = np.empty((n, c))
    for j in range(n):
        repeat = j > 0 and draw(st.booleans())  # a run of equal rows
        for i in range(c):
            move = "new" if j == 0 else "keep" if repeat else draw(
                st.sampled_from(["keep", "negate", "new"]))
            if move == "new":
                table[j, i] = draw(cell)
            else:
                table[j, i] = table[j - 1, i] if move == "keep" else -table[j - 1, i]
    if draw(st.booleans()):
        k0 = draw(st.integers(0, 10**6))
        axis = list(range(k0, k0 + n))
    else:
        axis = [draw(st.floats(allow_subnormal=True)) for _ in range(n)]
    return axis, table


def _non_adjacent_repeats():
    # each column cycles through three values, so a value comes back two rows later,
    # in the same block and in the next, never in the row above
    n = 3 * WRITE_BLOCK + 5
    values = np.array([0.1, -2.5, 1e-300])
    table = np.stack([np.roll(values, i)[np.arange(n) % 3] for i in range(4)], axis=1)
    return list(range(n)), table


def _special_values():
    # signed zeros, NaNs with other signs and payloads, infinities and subnormals, in
    # every column at shifted phases, over two block boundaries
    n, cells = 2 * WRITE_BLOCK + 7, np.array(SPECIAL_CELLS)
    index = (np.arange(n)[:, None] // 2 + np.arange(5)[None, :] * 3) % cells.size
    return [0.5 * j for j in range(n)], cells[index]


def _block_boundary():
    # constant but for changes exactly at the last row of the first block and at the
    # first row of the second, where a block's formatted cells start anew
    n = 2 * WRITE_BLOCK + 1
    table = np.full((n, 3), 0.25)
    table[WRITE_BLOCK - 1:, 0] = -0.0
    table[WRITE_BLOCK:, 1] = np.nan
    table[WRITE_BLOCK:, 2] = 0.25 + 1e-16 * np.arange(n - WRITE_BLOCK)
    return list(range(n)), table


BLOCK_TABLES = {
    "non_adjacent_repeats": _non_adjacent_repeats,
    "special_values": _special_values,
    "block_boundary": _block_boundary,
    "single_row": lambda: ([7], np.array([[-0.0, QUIET_NAN_PAYLOAD, np.inf, 0.1]])),
}


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(s=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(N=0)
        with pytest.raises(ParameterError):
            SolverConfig(variant="weird")


class TestAdmmStep:
    def test_scalar_first_step_closed_form(self):
        # x1 = argmin (x-1)^2 + x^2/2 = 2/3; y1 = shrink(2/3, 1) = 0; lam1 = 2/3
        spec = get_instance("scalar_lasso")
        state = admm_step(zero_state(spec), spec, 1.0)
        assert state.x[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert state.y[0] == 0.0
        assert state.lam[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_dual_step_identity(self):
        # s * (lam_{k+1} - lam_k) equals the constraint violation at the new point
        spec = get_instance("tv_d50")
        s = 0.7
        state = zero_state(spec)
        for _ in range(3):
            prev = state
            state = admm_step(prev, spec, s)
            viol = spec.constraint_residual(state.x, state.y)
            np.testing.assert_allclose(s * (state.lam - prev.lam), viol, atol=1e-13)

    def test_fixed_point_is_saddle(self):
        spec = get_instance("scalar_lasso")
        sad = get_saddle("scalar_lasso")
        st = IterateState(sad.x_star, sad.y_star, sad.lambda_star, 0)
        nxt = admm_step(st, spec, 1.0)
        np.testing.assert_allclose(nxt.x, sad.x_star, atol=1e-12)
        np.testing.assert_allclose(nxt.y, sad.y_star, atol=1e-12)
        np.testing.assert_allclose(nxt.lam, sad.lambda_star, atol=1e-12)

    def test_converges_to_saddle(self):
        spec = get_instance("lasso_8x6")
        sad = get_saddle("lasso_8x6")
        trace = run(spec, SolverConfig(s=1.0, N=2000), saddle=sad)
        assert max(kkt_residuals(spec, trace.xs[-1], trace.ys[-1], trace.lams[-1])) < 1e-8


class TestGeneralStep:
    def test_r_below_spectrum_rejected(self):
        spec = get_instance("scalar_lasso")
        with pytest.raises(ParameterError, match="greater than the maximum eigenvalue"):
            admm_step(zero_state(spec), spec, 1.0, r=0.5)

    def test_default_r_margin(self):
        spec = get_instance("tv_d50")
        assert default_r(spec) == pytest.approx(1.5 * spec.FtF_norm)

    def test_general_converges_on_rank_deficient(self):
        spec = get_instance("rank_deficient_lasso")
        sad = get_saddle("rank_deficient_lasso")
        trace = run(spec, SolverConfig(s=1.0, N=3000, variant=GENERAL), saddle=sad)
        assert max(kkt_residuals(spec, trace.xs[-1], trace.ys[-1], trace.lams[-1])) < 1e-6


class TestRun:
    def test_dimension_check(self):
        spec = get_instance("scalar_lasso")
        bad = (np.zeros(2), np.zeros(1), np.zeros(1))
        with pytest.raises(ParameterError, match="dimensions"):
            run(spec, SolverConfig(N=2), init=bad)

    def test_trace_lengths_and_diagnostics(self):
        spec = get_instance("scalar_lasso")
        sad = get_saddle("scalar_lasso")
        trace = run(spec, SolverConfig(s=1.0, N=10), saddle=sad)
        assert len(trace) == 11
        for col in ("primal_res", "dual_x_res", "dual_y_res", "objective", "lyapunov", "ne"):
            assert len(trace.scalars[col]) == 11
        assert trace.scalars["lyapunov"][0] == pytest.approx(0.625)
        assert trace.scalars["ne"][0] == pytest.approx(2.0 / 9.0)
        assert np.isnan(trace.scalars["ne"][-1])  # no successor state

    @pytest.mark.parametrize("name", ["tv_d50", "basis_pursuit_10x30"])
    def test_nan_start_names_the_failing_step(self, name):
        # the per-step solve check catches a non-finite iterate (Cholesky and LU paths). A
        # NaN start is refused before any step, so this finite one makes F^T lam overflow
        # (the overflow is the point here)
        spec = get_instance(name)
        lam = np.zeros(spec.m)
        lam[:2] = np.finfo(float).max, -np.finfo(float).max
        init = (np.zeros(spec.d1), np.zeros(spec.d2), lam)
        with pytest.raises(IllConditionedError, match=r"step k = 1: .*condition estimate"), \
                np.errstate(over="ignore", invalid="ignore"):
            run(spec, SolverConfig(N=5), init=init)

    def test_deterministic_rerun(self):
        spec = get_instance("tv_d50")
        a = run(spec, SolverConfig(s=1.0, N=50))
        b = run(spec, SolverConfig(s=1.0, N=50))
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.lams, b.lams)


class TestTraceSerialization:
    def test_csv_schema(self, tmp_path):
        spec = get_instance("scalar_lasso")
        sad = get_saddle("scalar_lasso")
        trace = run(spec, SolverConfig(s=1.0, N=5), saddle=sad)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,x0,y0,lambda0,primal_res,dual_x_res,dual_y_res,objective,lyapunov,ne"
        assert len(lines) == 7

    def test_csv_floats_roundtrip(self, tmp_path):
        spec = get_instance("lasso_8x6")
        trace = run(spec, SolverConfig(s=1.0, N=3))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().split("\n")
        row1 = [float(v) for v in lines[2].split(",")]
        np.testing.assert_array_equal(row1[1:1 + spec.d1], trace.xs[1])

    @pytest.mark.parametrize("resize", [lambda c: c[:-1], lambda c: np.append(c, 0.0)],
                             ids=["short", "long"])
    def test_csv_refuses_ragged_scalar_column(self, tmp_path, resize):
        spec = get_instance("scalar_lasso")
        trace = run(spec, SolverConfig(s=1.0, N=5))
        trace.scalars["objective"] = resize(trace.scalars["objective"])
        path = tmp_path / "trace.csv"
        with pytest.raises(RuntimeError, match="header's 10 columns"):
            trace.to_csv(path)
        assert not path.exists()  # refused before anything is written

    @DERANDOMIZED
    @given(tables())
    def test_write_csv_equals_repr_of_every_cell(self, drawn):
        axis, table = drawn
        columns = ["a"] + [f"c{i}" for i in range(table.shape[1])]
        expected = "".join(",".join(map(repr, [a] + row)) + "\n"
                           for a, row in zip(axis, table.tolist()))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            write_csv(path, columns, axis, table)
            with open(path, "rb") as fh:
                written = fh.read()
        assert written == (",".join(columns) + "\n" + expected).encode()

    @pytest.mark.parametrize("case", sorted(BLOCK_TABLES))
    def test_write_csv_bytes_across_blocks(self, tmp_path, case):
        # write_csv formats each distinct bit pattern once per block of WRITE_BLOCK rows;
        # its bytes must equal those of a plain writer that formats every cell
        axis, table = BLOCK_TABLES[case]()
        columns = ["k"] + [f"c{i}" for i in range(table.shape[1])]
        path = tmp_path / "t.csv"
        write_csv(path, columns, axis, table)
        expected = ",".join(columns) + "\n" + "".join(
            ",".join(map(repr, [a] + row)) + "\n" for a, row in zip(axis, table.tolist()))
        assert path.read_bytes() == expected.encode()

    def test_write_csv_refuses_rows_that_do_not_match_the_axis(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match="one row per axis value"):
            write_csv(path, ["k", "v"], [0, 1, 2], np.zeros((2, 1)))
        assert not path.exists()

    def test_json_sorted_and_stable(self, tmp_path):
        spec = get_instance("scalar_lasso")
        trace = run(spec, SolverConfig(s=1.0, N=4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        trace.to_json(p1)
        trace.to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert "rows" not in payload  # the rows are only in the CSV
        assert payload["rows_file"] == "trace.csv"
        csv = tmp_path / payload["rows_file"]
        trace.to_csv(csv)
        assert payload["columns"] == csv.read_text().split("\n", 1)[0].split(",")
        assert SolverConfig(**payload["config"]) == trace.config
