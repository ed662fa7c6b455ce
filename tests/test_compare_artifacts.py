"""The artifact comparator on planted differences: one ulp, the sign of a zero, a NaN
payload and a flipped flag."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from compare_artifacts import compare_column, main

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "compare_artifacts.py")
QUIET_NAN, PAYLOAD_NAN = np.array([0x7FF8_0000_0000_0000, 0x7FF8_0000_0000_0001]).view(np.float64)
HEADER = "t,X0,Y0,lyapunov\n"
ROWS = ["0.0,0.0,0.0,nan", "0.5,0.25,-1.5,0.125", "1.0,0.3333333333333333,0.0,nan"]


def test_one_ulp():
    a = np.array([1.0, 2.0, 3.0])
    b = a.copy()
    b[1] = np.nextafter(2.0, 3.0)
    diff = compare_column(a, b)
    assert (diff.cells, diff.first_row, diff.max_ulps) == (1, 1, 1)
    assert diff.max_abs == 2.0 ** -51 and diff.max_abs_row == 1
    assert diff.max_rel == 2.0 ** -51 / b[1]
    assert (diff.nan_cells, diff.zero_sign_cells) == (0, 0)


def test_ulps_across_zero():
    diff = compare_column([5e-324], [-5e-324])  # the two smallest subnormals
    assert diff.max_ulps == 2


def test_sign_of_a_zero():
    diff = compare_column([1.0, 0.0], [1.0, -0.0])
    assert (diff.cells, diff.first_row, diff.zero_sign_cells) == (1, 1, 1)
    assert diff.max_abs == 0.0 and diff.max_ulps == 0


def test_nan_payload():
    # two NaNs differ only when their bits do, so equal NaN cells are never reported
    assert compare_column([QUIET_NAN, 1.0], [QUIET_NAN, 1.0]) is None
    diff = compare_column([1.0, QUIET_NAN], [1.0, PAYLOAD_NAN])
    assert (diff.cells, diff.first_row, diff.nan_cells) == (1, 1, 1)
    assert diff.max_ulps == 0 and diff.max_abs == 0.0  # no finite cell differs


def write_run(path, rows=ROWS, passed=True, slack=-0.25):
    path.mkdir()
    (path / "high_res.csv").write_text(HEADER + "\n".join(rows) + "\n")
    report = {"all_pass": passed, "criteria": [
        {"id": 7, "pass": passed, "details": {"worst_slack": slack, "nodes": 2}}]}
    (path / "report.json").write_text(json.dumps(report, sort_keys=True) + "\n")
    (path / "metadata.txt").write_text(f"created: {path.name}\n")  # the sidecar differs


def compare(tmp_path, capsys, argv=(), **b):
    write_run(tmp_path / "A")
    write_run(tmp_path / "B", **b)
    status = main([str(tmp_path / "A"), str(tmp_path / "B"), *argv])
    return status, capsys.readouterr().out.splitlines()


def test_identical_runs(tmp_path, capsys):
    status, lines = compare(tmp_path, capsys)
    assert status == 0
    assert lines == ["high_res.csv: identical bytes", "report.json: identical bytes",
                     "flags changed: none"]


def test_one_ulp_and_a_signed_zero_in_a_csv(tmp_path, capsys):
    rows = ["0.0,0.0,0.0,nan", "0.5,0.25,-1.5000000000000002,0.125",
            "1.0,0.3333333333333333,-0.0,nan"]
    status, lines = compare(tmp_path, capsys, rows=rows)
    assert status == 0
    assert lines[:4] == [
        "high_res.csv: differs",
        "  Y0: 2 differing cells; first row 1; max abs 2.220e-16 (row 1); max rel 1.480e-16; "
        "max ulps 1; 1 signed zero",
        "  3 of 4 columns identical, 3 rows",
        "report.json: identical bytes",
    ]


def test_one_ulp_in_a_json_leaf(tmp_path, capsys):
    status, lines = compare(tmp_path, capsys, slack=np.nextafter(-0.25, 0.0))
    assert status == 0
    assert lines[2:5] == [
        "  criteria[7].details.worst_slack: abs 2.776e-17; rel 1.110e-16; ulps 1; "
        "A -0.25, B -0.24999999999999997",
        "  2 of 3 numeric leaves identical",
        "flags changed: none",
    ]


def test_flipped_flag(tmp_path, capsys):
    status, lines = compare(tmp_path, capsys, passed=False)
    assert status == 1
    assert lines[-3:] == ["flags changed:", "  all_pass: True -> False",
                          "  criteria[7].pass: True -> False"]


@pytest.mark.parametrize("codes, status", [(("0", "0"), 0), (("0", "1"), 1)])
def test_exit_codes(tmp_path, capsys, codes, status):
    got, lines = compare(tmp_path, capsys, argv=["--exit", *codes])
    assert got == status
    assert lines[-1] == f"exit codes: A {codes[0]}, B {codes[1]}"
    assert ("  exit code: 0 -> 1" in lines) == (status == 1)


def test_missing_file_is_a_difference(tmp_path, capsys):
    status, lines = compare(tmp_path, capsys)
    assert status == 0
    os.remove(tmp_path / "B" / "report.json")
    assert main([str(tmp_path / "A"), str(tmp_path / "B")]) == 1
    assert "report.json: only in A" in capsys.readouterr().out.splitlines()


def test_script_exit_status(tmp_path):
    write_run(tmp_path / "A")
    write_run(tmp_path / "B", passed=False)
    done = subprocess.run([sys.executable, SCRIPT, str(tmp_path / "A"), str(tmp_path / "B")],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "  all_pass: True -> False" in done.stdout.splitlines()
