"""The acceptance suite: nine end-to-end criteria, each a pure function of
the built-in instances.

Every criterion returns a plain dict with an ``id``, ``title``, ``pass``
flag and numeric details, so the aggregate report serializes to
byte-identical JSON across runs.
"""

from __future__ import annotations

import json
import time

import numpy as np

from . import diagnostics as diag
from . import library
from .errors import AdmmError, IllConditionedError
from .ode import IntegratorConfig, simulate_high_res, simulate_low_res
from .oracle import long_run_oracle, sign_pattern_oracle
from .prox import Step
from .solver import GENERAL, SolverConfig, run

CORE_INSTANCES = ["scalar_lasso", "lasso_20x50", "tv_d50", "trend_d50", "basis_pursuit_10x30"]
STRONG_INSTANCES = ["scalar_lasso", "tv_d50", "trend_d50", "lasso_8x6"]
SMOOTH_INSTANCES = ["scalar_lasso_smoothed", "lasso_8x6_smoothed"]

_S = 1.0
_run_cache = {}


def _standard_trace(name, N):
    key = (name, N)
    if key not in _run_cache:
        spec = library.get_instance(name)
        saddle = library.get_saddle(name)
        _run_cache[key] = run(spec, SolverConfig(s=_S, N=N), saddle=saddle)
    return _run_cache[key]


def _result(cid, title, passed, details):
    return {"id": cid, "title": title, "pass": bool(passed), "details": details}


def criterion_1():
    """Implicit Euler with step delta = s reproduces the discrete iteration."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    for name in CORE_INSTANCES:
        spec = library.get_instance(name)
        trace = run(spec, SolverConfig(s=_S, N=100))
        high = simulate_high_res(spec, IntegratorConfig(s=_S, delta=_S, T=100 * _S))
        worst = max(float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))
                    for a, b in ((high.xs, trace.xs), (high.ys, trace.ys),
                                 (high.lams, trace.lams)))
        details[name] = worst
        ok = ok and worst <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 5.0
    return _result(1, "implicit-Euler identity at delta = s (100 steps, 5 instances)",
                   ok, {"worst_relative": details, "runtime_limit_s": 5.0,
                        "within_runtime": elapsed <= 5.0})


def _core_criterion(cid, title, check):
    """Run check(trace) -> entries on the 1000-step run of every core
    instance. The criterion passes when every entry does; an instance's details
    are the worst slack of its one entry, or a dict of them by theorem."""
    details = {}
    ok = True
    for name in CORE_INSTANCES:
        entries = check(_standard_trace(name, 1000))
        details[name] = (entries[0].worst_slack if len(entries) == 1
                         else {e.theorem: e.worst_slack for e in entries})
        ok = ok and all(e.passed for e in entries)
    return _result(cid, title, ok, details)


def criterion_2():
    """Energy decay E(k+1) - E(k) + NE(k) <= 0 on 1000-step runs."""
    return _core_criterion(2, "per-step energy decay with numerical error (1e-9)",
                           diag.check_convergence1)


def criterion_3():
    """Average and min rate bounds at every prefix N <= 1000."""
    return _core_criterion(3, "prefix average/min rate bounds", diag.check_rate_theorem_4_3)


def criterion_4():
    """NE monotone (1e-12) and last-iterate bound at every prefix."""
    return _core_criterion(4, "numerical-error monotonicity and last-iterate rate",
                           lambda trace: diag.check_ne_monotone_theorem_5(trace)[:2])


def criterion_5():
    """Strong-average bound for N <= 1e4 plus telescoped NE sum <= E(0)."""
    details = {}
    ok = True
    for name in STRONG_INSTANCES:
        trace = _standard_trace(name, 10_000)
        strong, = diag.check_strong_avg_theorem_4_4(trace)
        tele, = diag.check_ne_telescoping(trace)
        details[name] = {"strong_avg": strong.worst_slack, "ne_telescoping": tele.worst_slack,
                         "mu": strong.constants["mu"]}
        ok = ok and strong.passed and tele.passed
    return _result(5, "strongly convex average bound and telescoped error sum", ok, details)


def criterion_6():
    """r-proximal rate bounds at r in {1.1, 2, 10} * ||F^T F||, incl. a
    rank-deficient instance where the standard x-update must be rejected."""
    details = {}
    ok = True
    names = CORE_INSTANCES + ["rank_deficient_lasso"]
    for name in names:
        spec = library.get_instance(name)
        saddle = library.get_saddle(name)
        per = {}
        for factor in (1.1, 2.0, 10.0):
            r = factor * spec.FtF_norm
            trace = run(spec, SolverConfig(s=_S, N=1000, variant=GENERAL, r=r), saddle=saddle)
            entries = diag.check_general_rates_theorems_6(trace)
            per[f"r={factor}x"] = max(e.worst_slack for e in entries)
            ok = ok and all(e.passed for e in entries)
        details[name] = per

    spec = library.get_instance("rank_deficient_lasso")
    try:
        Step(spec, _S)  # the standard step's x-system is refused
        rejected = False
    except IllConditionedError:
        rejected = True
    details["standard_update_rejected_on_rank_deficient"] = rejected
    ok = ok and rejected
    return _result(6, "r-proximal variant rates and rank-deficient handling", ok, details)


def criterion_7():
    """Continuous certificates on smoothed instances at delta = s/100, T = 20s."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    config = IntegratorConfig(s=_S, delta=_S / 100.0, T=20.0 * _S)
    for name in SMOOTH_INSTANCES:
        spec = library.get_instance(name)
        saddle = library.get_saddle(name)
        high = simulate_high_res(spec, config, saddle=saddle)
        report = diag.certify_continuous(high)

        low = simulate_low_res(spec, config, saddle=saddle)
        low_dev = float(np.max(low.scalars["deviation"]))

        off = (np.ones(spec.d1), np.zeros(spec.d2), np.zeros(spec.m))
        off_trace = simulate_high_res(spec, config, off, saddle=saddle)
        dev = off_trace.scalars["deviation"]
        dev_ok = dev[0] > 1e-3 and dev[-1] < dev[0]

        details[name] = {
            "certificates": {e.theorem: e.worst_slack for e in report.entries},
            "low_res_max_deviation": low_dev,
            "off_hyperplane_dev_t0": float(dev[0]),
            "off_hyperplane_dev_T": float(dev[-1]),
        }
        ok = ok and report.all_pass and low_dev <= 1e-10 and dev_ok
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 60.0
    details["within_runtime"] = elapsed <= 60.0
    return _result(7, "continuous suite: monotone Lyapunov, rates, deviations", ok, details)


def criterion_8():
    """Sign-pattern and long-run oracles agree; every saddle is re-certified."""
    details = {}
    ok = True
    for name in ("scalar_lasso", "rank_deficient_lasso"):
        spec = library.get_instance(name)
        sp = sign_pattern_oracle(spec, tol=1e-8)
        lr = long_run_oracle(spec, tol=1e-9)
        # x* may be non-unique (rank-deficient A); y* and lambda* are determined
        gap = max(float(np.max(np.abs(sp.y_star - lr.y_star))),
                  float(np.max(np.abs(sp.lambda_star - lr.lambda_star))))
        details[name] = {"oracle_gap": gap, "kkt_sign_pattern": sp.kkt_residual,
                         "kkt_long_run": lr.kkt_residual}
        ok = ok and gap <= 1e-7 and sp.kkt_residual <= 1e-8 and lr.kkt_residual <= 1e-8
    for name in library.instance_names():
        saddle = library.get_saddle(name)
        details.setdefault("certified_residuals", {})[name] = saddle.kkt_residual
        ok = ok and saddle.kkt_residual <= 1e-8
    return _result(8, "saddle oracle cross-validation", ok, details)


def criterion_9():
    """Certificate JSON is byte-identical across repeated pipeline runs."""
    def one_pass():
        spec = library.get_instance("scalar_lasso")
        trace = run(spec, SolverConfig(s=_S, N=500), saddle=library.get_saddle("scalar_lasso"))
        return diag.certify_standard(trace).to_json_bytes()

    first, second = one_pass(), one_pass()
    # the full aggregate report is compared across processes by the test suite
    identical = first == second
    return _result(9, "byte-identical certificate JSON on repeated runs", identical,
                   {"bytes": len(first), "identical": identical})


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9]

# Positions in CRITERIA (criteria 1, 7 and 9) that run_all sends to a second
# process. They need only the instances, the smoothed saddles and scalar_lasso's
# saddle, which the worker rebuilds in about 0.02 s; criteria 2-5 share
# _run_cache and 6 and 8 reuse the core saddles, so those stay in the caller.
# Measured on a 2-core x86-64 machine, the caller's group (criteria 2-6 and 8)
# took about 1.16 s of CPU and the worker's (1, 7 and 9) about 0.46 s, so the
# caller, not the worker's criterion 7, sets verify's wall time; moving
# criterion 6 to the worker did not shorten it. The split is by position, not by
# function, because callers may replace the list's entries with wrappers.
WORKER_POSITIONS = (0, 6, 8)


def _run_positions(positions):
    return [CRITERIA[i]() for i in positions]


def _work(reader, writer):
    # without the read end here, a send to a caller that is gone fails instead of blocking
    reader.close()
    try:
        out = ("ok", _run_positions(WORKER_POSITIONS))
    except Exception as exc:
        out = ("err", exc)
    writer.send(out)


def run_all():
    """Every criterion's result, in CRITERIA order.

    The entries at WORKER_POSITIONS run in one forked process while this
    process runs the rest. The fork inherits the imported package and the
    entries of CRITERIA as they are now, and exits once it has sent its
    results. A criterion's exception there re-raises here with its type and
    message; a worker that dies raises AdmmError naming its criteria.
    """
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    reader, writer = fork.Pipe(duplex=False)
    worker = fork.Process(target=_work, args=(reader, writer))
    worker.start()
    writer.close()  # so that recv() sees EOF once the worker is gone
    here = [i for i in range(len(CRITERIA)) if i not in WORKER_POSITIONS]
    try:
        results = dict(zip(here, _run_positions(here)))
        status, away = reader.recv()
    except EOFError:
        worker.join()
        raise AdmmError("the worker process running criteria 1, 7 and 9 died before it "
                        f"returned (exit code {worker.exitcode})") from None
    except BaseException:
        worker.kill()
        raise
    finally:
        reader.close()
        worker.join()
    if status == "err":
        raise away
    results.update(zip(WORKER_POSITIONS, away))
    return {"criteria": [results[i] for i in range(len(CRITERIA))]}


def report_bytes(results):
    """Deterministic serialization: float values via repr, keys sorted."""
    return (json.dumps(results, sort_keys=True, default=lambda v: v.item()) + "\n").encode()
