"""Acceptance gate: one test (one pass/fail line under pytest -v) per criterion.

Tolerances are pinned inside the library (1e-12 bitwise identity and
monotonicity, 1e-9 inequalities, 1e-8 saddle residuals, 1e-7 oracle
agreement, 10*delta continuous comparisons); each test asserts the
criterion's own pass flag and surfaces the numeric details on failure.
"""

import inspect
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import admmcert
from admmcert import acceptance, cli, errors
from admmcert.errors import ParameterError


@pytest.fixture(scope="module")
def results():
    out = acceptance.run_all()
    return {c["id"]: c for c in out["criteria"]}


def _child_env():
    """The environment of a child that imports the package from where this process found it."""
    src = os.path.dirname(os.path.dirname(admmcert.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


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
    # ... and two fresh processes produce byte-identical report JSON
    env = _child_env()
    reports = []
    for sub in ("v1", "v2"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "admmcert.cli", "verify", "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append((out / "verify_report.json").read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# run_all's split: the entries at positions 1, 7 and 9 run in a forked worker.
# Stand-ins replace the criteria before the fork, so the worker sees them.


def _stand_in(cid):
    return lambda: {"id": cid, "title": f"stand-in {cid}", "pass": cid % 2 == 1,
                    "details": {"value": cid / 7.0}}


@pytest.fixture
def stand_ins(monkeypatch):
    entries = [_stand_in(cid) for cid in range(1, 10)]
    monkeypatch.setattr(acceptance, "CRITERIA", entries)
    return entries


def test_run_all_returns_the_criteria_in_order(stand_ins):
    assert acceptance.run_all() == {"criteria": [fn() for fn in stand_ins]}


def test_run_all_runs_each_wrapped_entry_once(stand_ins, tmp_path):
    # wrapped in place, as perfbench/traced.py wraps the criteria
    log = tmp_path / "calls"

    def logged(fn, cid):
        def call():
            with open(log, "a") as fh:
                fh.write(f"{cid} {os.getpid()}\n")
            return fn()
        return call

    acceptance.CRITERIA[:] = [logged(fn, cid) for cid, fn in enumerate(acceptance.CRITERIA, 1)]
    out = acceptance.run_all()
    assert [c["id"] for c in out["criteria"]] == list(range(1, 10))
    calls = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(cid) for cid, _ in calls) == list(range(1, 10))
    away = {int(cid) for cid, pid in calls if int(pid) != os.getpid()}
    assert away == {i + 1 for i in acceptance.WORKER_POSITIONS} == {1, 7, 9}


def test_worker_exception_reaches_the_caller(stand_ins, tmp_path, capsys):
    def bad():
        raise ParameterError("stand-in 7 refuses its r")

    acceptance.CRITERIA[6] = bad
    with pytest.raises(ParameterError, match="^stand-in 7 refuses its r$"):
        acceptance.run_all()
    assert cli.main(["verify", "--out", str(tmp_path / "v")]) == cli.EXIT_USAGE
    assert "error: stand-in 7 refuses its r" in capsys.readouterr().err


def test_dead_worker_exits_2(tmp_path):
    # in a child process, so that a hang fails on the timeout instead of stalling the suite
    script = textwrap.dedent("""
        import os, sys
        from admmcert import acceptance, cli
        acceptance.CRITERIA[:] = [lambda cid=cid: {"id": cid, "title": "", "pass": True,
                                                   "details": {}} for cid in range(1, 10)]
        acceptance.CRITERIA[0] = lambda: os._exit(1)
        sys.exit(cli.main(["verify", "--out", sys.argv[1]]))
    """)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "v")],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == cli.EXIT_USAGE, proc.stdout + proc.stderr
    assert "criteria 1, 7 and 9" in proc.stderr
    assert not (tmp_path / "v" / "verify_report.json").exists()


def test_cli_import_leaves_scipy_linalg_unloaded():
    # a fresh interpreter: this process has scipy.linalg loaded by other tests
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import admmcert.cli
        from admmcert import library, prox
        assert "scipy.linalg" not in sys.modules, "admmcert.cli imported scipy.linalg"
        chol = prox.FactorizationCache().get(library.get_instance("lasso_8x6"), 1.0)
        kkt = prox.FactorizationCache().get(library.get_instance("basis_pursuit_10x30"), 1.0)
        assert "scipy.linalg" not in sys.modules, "building a Step imported scipy.linalg"
        import scipy.linalg
        assert sys.modules["scipy.linalg._flapack"] is prox._flapack
        assert chol._lapack is scipy.linalg.lapack.dpotrs
        assert kkt._lapack is scipy.linalg.lapack.dgetrs
        for step, solve in ((chol, scipy.linalg.cho_solve), (kkt, scipy.linalg.lu_solve)):
            b = np.arange(1.0, step.matrix.shape[0] + 1.0)
            x = solve(step._factor, b)
            assert np.linalg.norm(step.matrix @ x - b) <= 1e-9 * np.linalg.norm(b)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.AdmmError)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    # a worker's exception reaches the caller pickled
    args = ("no saddle", 1e-3) if cls is errors.OracleConvergenceError else ("no saddle",)
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) == "no saddle"
    assert getattr(back, "best_residual", None) == getattr(exc, "best_residual", None)
