"""Traced run of one admmcert subcommand, for the per-layer metrics.

    python3 perfbench/traced.py CONFIG_JSON REPORT_PATH

perfbench/run.py starts this in its own process with the package under test on
PYTHONPATH. It imports admmcert.cli, wraps the package functions and methods
the subcommand reaches so that each call records a span (name, parent, start,
end), and then calls admmcert.cli.main with the command's own argv: the code
that runs is the CLI's, so its outputs must hash the same as the untraced
command's, which run.py checks. Functions that other modules imported by name
(cli, acceptance, library) are wrapped in those modules as well.
Spans stay in memory; the metrics derived from them and the span list go to
REPORT_PATH as JSON at the end. The process exits with the command's code.

For `verify` the nine built-ins and their saddle points are built first, in
their own spans, so that the criteria run with a warm memo.

After the command, untraced probes outside the root span time the
ProblemSpec constructor, the first (factorizing) x-update, warm x- and
y-updates and a bare ADMM step, 1000 calls each, and the cost of one span.
"""

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

S = 1.0  # the CLI's default --s, which every workload keeps
PROBE_CALLS = 1000
OVERHEAD_CALLS = 2000
OVERHEAD_BATCHES = 7
VERIFY_PROBE_INSTANCE = "tv_d50"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name, start=None):
        rec = [name, self._open[-1] if self._open else None, None, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter() if start is None else start
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def spanned(self, fn, name, hook=None):
        """fn with each call in a span; hook(args, result, seconds) runs after it closes."""
        def traced(*args, **kwargs):
            with self.span(name):
                rec = self.spans[-1]
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(args, out, rec[3] - rec[2])
            return out

        return traced

    def wrap(self, owner, attr, name, hook=None):
        """Replace owner.attr (a module function or a class method) with a spanned call."""
        setattr(owner, attr, self.spanned(getattr(owner, attr), name, hook))

    def total(self, name):
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def self_times(self):
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        layers = {}
        for (name, _, _, _), t in zip(self.spans, own):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        return layers


def pattern_rank(y):
    """Index of y's sign pattern in the enumeration order of sign_pattern_oracle."""
    rank = 0
    for v in y:
        rank = 3 * rank + (0 if v < 0 else 1 if v == 0 else 2)
    return rank


def instrument(tracer):
    """Wrap the package's entry points; returns the specs loaded and the solver runs."""
    from admmcert import acceptance, cli, diagnostics, library, ode, oracle, problems, solver

    loaded = []  # distinct specs returned by load_instance / get_instance, in order
    runs = []  # (spec, iterations, seconds) of each solver.run call

    def certificates(_, out, __):
        if hasattr(out, "entries"):  # a CertificateReport
            out = out.entries
        entries = out if isinstance(out, list) else [out]
        tracer.count("diagnostics.certificates", len(entries))
        tracer.count("diagnostics.failed", sum(not e.passed for e in entries))

    def keep(_, spec, __):
        if not any(spec is s for s in loaded):
            loaded.append(spec)

    def saddle(_, out, __):
        tracer.counts["oracle.kkt_residual"] = max(tracer.counts.get("oracle.kkt_residual", 0.0),
                                                   out.kkt_residual)

    def enumerated(_, out, __):
        tracer.count("oracle.enumeration_calls", 1)
        tracer.count("oracle.patterns_tried", pattern_rank(out.y_star) + 1)

    for name in sorted(vars(diagnostics)):
        if name.startswith("check_"):
            tracer.wrap(diagnostics, name, f"diagnostics.{name}", certificates)

    hooks = {
        "load_instance": ("problems.load", keep),
        "get_instance": ("library.get_instance", keep),
        "saddle_point_oracle": ("oracle.saddle", saddle),
        "sign_pattern_oracle": ("oracle.sign_pattern", enumerated),
        "long_run_oracle": ("oracle.long_run",
                            lambda *_: tracer.count("oracle.long_run_calls", 1)),
        "run": ("solver.run", lambda args, trace, sec: runs.append((args[0], len(trace) - 1, sec))),
        "simulate_high_res": ("ode.high_res",
                              lambda _, t, __: tracer.count("ode.implicit_steps", len(t) - 1)),
        "simulate_low_res": ("ode.low_res", None),
        "certify_standard": ("diagnostics.certify", None),
        "certify_general": ("diagnostics.certify", None),
        "certify_continuous": ("ode.certify_continuous", certificates),
        "cmd_solve": ("cli.solve", None),
        "cmd_verify": ("cli.verify", None),
    }
    # wrapped wherever they are defined or were imported by name
    for module in (problems, library, oracle, solver, ode, diagnostics, acceptance, cli):
        for attr, (span, hook) in hooks.items():
            if attr in vars(module):
                tracer.wrap(module, attr, span, hook)

    for owner, attr, span in ((solver.Trace, "to_csv", "solver.to_csv"),
                              (solver.Trace, "to_json", "solver.to_json"),
                              (diagnostics.CertificateReport, "save", "diagnostics.save")):
        tracer.wrap(owner, attr, span)
    # acceptance.run_all calls the criteria through this list
    acceptance.CRITERIA[:] = [tracer.spanned(fn, f"acceptance.criterion_{i}")
                              for i, fn in enumerate(acceptance.CRITERIA, 1)]
    return loaded, runs


def warm_library(tracer):
    from admmcert import library

    names = library.instance_names()
    with tracer.span("library.instances"):
        for name in names:
            library.get_instance(name)
    with tracer.span("library.saddles"):
        for name in names:
            library.get_saddle(name)


def _us_quantiles(samples):
    us = [1e6 * t for t in samples]
    return statistics.median(us), statistics.quantiles(us, n=100)[98]


def probe(spec, build):
    """Untraced layer timings on the command's instance (tv_d50 for verify)."""
    from admmcert import prox, solver
    from admmcert.problems import ProblemSpec

    clock = time.perf_counter
    m = {}
    t0 = clock()
    for built in build:
        ProblemSpec(built.f, built.g, built.F, built.G, built.h)
    m["problems.spec_build_s"] = clock() - t0

    state = solver.zero_state(spec)
    t0 = clock()
    prox.x_update(spec, state.y, state.lam, S, prox.FactorizationCache())
    m["prox.factor_s"] = clock() - t0

    cache = prox.FactorizationCache()
    state = solver.admm_step(state, spec, S, cache)
    states, steps = [], []
    for _ in range(PROBE_CALLS):
        t0 = clock()
        state = solver.admm_step(state, spec, S, cache)
        steps.append(clock() - t0)
        states.append(state)
    m["solver.step_us.p50"], m["solver.step_us.p99"] = _us_quantiles(steps)

    cache = prox.FactorizationCache()
    prox.x_update(spec, state.y, state.lam, S, cache)
    xs, ys = [], []
    for st in states:
        t0 = clock()
        prox.x_update(spec, st.y, st.lam, S, cache)
        xs.append(clock() - t0)
        t0 = clock()
        prox.y_update(spec, st.x, st.lam, S)
        ys.append(clock() - t0)
    m["prox.x_update_us.p50"], m["prox.x_update_us.p99"] = _us_quantiles(xs)
    m["prox.y_update_us.p50"], m["prox.y_update_us.p99"] = _us_quantiles(ys)
    return m


class _Noop:
    def call(self, *args):
        return args


def span_cost():
    """Seconds one wrapped call adds over a plain call: median over batches."""
    plain, wrapped = _Noop(), _Noop()
    tracer = Tracer()
    tracer.wrap(wrapped, "call", "noop", lambda *_: None)
    clock = time.perf_counter
    costs = []
    for _ in range(OVERHEAD_BATCHES):
        tracer.spans.clear()
        t0 = clock()
        for _ in range(OVERHEAD_CALLS):
            plain.call(1)
        t1 = clock()
        for _ in range(OVERHEAD_CALLS):
            wrapped.call(1)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / OVERHEAD_CALLS)
    return statistics.median(costs)


def _mb(path):
    return os.path.getsize(path) / 1e6 if os.path.exists(path) else 0.0


def span_metrics(tracer, runs, out):
    total = tracer.total
    counts = tracer.counts
    m = {
        "cli.import_s": total("cli.import"),
        "problems.load_s": total("problems.load"),
        "oracle.saddle_s": total("oracle.saddle"),
        "oracle.enumeration_calls": counts.get("oracle.enumeration_calls", 0),
        "oracle.long_run_calls": counts.get("oracle.long_run_calls", 0),
        "oracle.kkt_residual": counts.get("oracle.kkt_residual", 0.0),
        "oracle.patterns_tried": counts.get("oracle.patterns_tried", 0),
        "solver.iters": sum(n for _, n, _ in runs),
        "solver.run_s": total("solver.run"),
        "solver.to_csv_s": total("solver.to_csv"),
        "solver.to_json_s": total("solver.to_json"),
        "solver.csv_mb": _mb(os.path.join(out, "trace.csv")),
        "solver.json_mb": _mb(os.path.join(out, "trace.json")),
        "diagnostics.certify_s": total("diagnostics.certify"),
        "diagnostics.certificates": counts.get("diagnostics.certificates", 0),
        "diagnostics.failed": counts.get("diagnostics.failed", 0),
        "ode.implicit_steps": counts.get("ode.implicit_steps", 0),
        "ode.high_res_s": total("ode.high_res"),
        "ode.low_res_s": total("ode.low_res"),
        "library.instances_s": total("library.instances"),
        "library.saddles_s": total("library.saddles"),
    }
    for name in sorted({s[0] for s in tracer.spans}):
        if name.startswith(("diagnostics.check_", "acceptance.criterion_")):
            m[name + "_s"] = total(name)
    iters, steps = m["solver.iters"], m["ode.implicit_steps"]
    m["solver.run_us_per_iter"] = 1e6 * m["solver.run_s"] / iters if iters else 0.0
    m["ode.high_res_us_per_step"] = 1e6 * m["ode.high_res_s"] / steps if steps else 0.0
    for layer, t in tracer.self_times().items():
        m[f"self.{layer}_s"] = t
    m["trace.total_s"] = total("process")
    m["trace.accounted_share"] = 1.0 - m["self.process_s"] / m["trace.total_s"]
    m["trace.spans"] = len(tracer.spans)
    return m


def main():
    cfg = json.loads(sys.argv[1])
    report_path = sys.argv[2]
    tracer = Tracer()
    # the root span starts when run.py spawned this process, like its wall clock
    started = time.perf_counter() - (time.time() - cfg["spawned_at"])
    with tracer.span("process", start=started):
        with tracer.span("cli.import"):
            from admmcert import cli, library
        loaded, runs = instrument(tracer)
        if cfg["command"] == "verify":
            warm_library(tracer)
        rc = cli.main(cfg["argv"])

    if cfg["command"] == "verify":
        target = library.get_instance(VERIFY_PROBE_INSTANCE)
    else:
        target = loaded[0]
    metrics = span_metrics(tracer, runs, cfg["out"])
    metrics.update(probe(target, loaded))
    # `run` per iteration on the probed instance only, less the bare step timed there
    own = [(n, sec) for spec, n, sec in runs if spec is target]
    iters = sum(n for n, _ in own)
    metrics["solver.record_us_per_iter"] = (
        1e6 * sum(sec for _, sec in own) / iters - metrics["solver.step_us.p50"] if iters else 0.0)
    metrics["trace.span_cost_us"] = 1e6 * span_cost()
    metrics["trace.overhead_est_s"] = 1e-6 * metrics["trace.span_cost_us"] * len(tracer.spans)
    spans = [{"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in tracer.spans]
    with open(report_path, "w") as fh:
        json.dump({"metrics": metrics, "spans": spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
