"""Acceptance gate: one test (one pass/fail line under pytest -v) per criterion.

Tolerances are pinned inside the library (1e-12 bitwise identity and
monotonicity, 1e-9 inequalities, 1e-8 saddle residuals, 1e-7 oracle
agreement, 10*delta continuous comparisons); each test asserts the
criterion's own pass flag and surfaces the numeric details on failure.
"""

import os
import subprocess
import sys

import pytest

import admmcert
from admmcert import acceptance


@pytest.fixture(scope="module")
def results():
    out = acceptance.run_all()
    return {c["id"]: c for c in out["criteria"]}


def _check(results, cid):
    crit = results[cid]
    assert crit["pass"], f"criterion {cid} failed: {crit['details']}"


def test_criterion_1_implicit_euler_matches_admm(results):
    # delta = s identity, <= 1e-12 relative, 100 steps, 5 instances, under 5 s
    _check(results, 1)


def test_criterion_2_energy_decay_with_numerical_error(results):
    # E(k+1) - E(k) + NE(k) <= 0 within 1e-9 on 1000-step runs
    _check(results, 2)


def test_criterion_3_prefix_rate_bounds(results):
    # average and min of ||G dy||^2 + s^2||dlam||^2 <= C/(N+1) at every prefix
    _check(results, 3)


def test_criterion_4_ne_monotone_and_last_iterate(results):
    # NE nonincreasing within 1e-12; last-iterate bound at every prefix
    _check(results, 4)


def test_criterion_5_strong_average_and_telescoped_sum(results):
    # ||xbar - x*||^2 <= C/(mu s (N+1)) up to N = 1e4; sum NE <= E(0)
    _check(results, 5)


def test_criterion_6_r_proximal_rates_and_rank_deficiency(results):
    # r in {1.1, 2, 10} * ||F^T F||; standard update rejected on the
    # rank-deficient instance while the r-proximal variant passes its bounds
    _check(results, 6)


def test_criterion_7_continuous_suite(results):
    # monotone Lyapunov within 10*delta at delta = s/100 over T = 20s;
    # weak/strong time-average bounds; deviation contrast; under 60 s
    _check(results, 7)


def test_criterion_8_oracle_cross_validation(results):
    # both oracles agree <= 1e-7 where both apply; all saddles <= 1e-8
    _check(results, 8)


def test_criterion_9_verify_is_byte_deterministic(results, tmp_path):
    # in-process repetition (part of the suite) ...
    _check(results, 9)
    # ... and two fresh processes produce byte-identical report JSON; the
    # children import the package from where this process found it
    src = os.path.dirname(os.path.dirname(admmcert.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    reports = []
    for sub in ("v1", "v2"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "admmcert.cli", "verify", "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append((out / "verify_report.json").read_bytes())
    assert reports[0] == reports[1]
