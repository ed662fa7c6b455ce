#!/usr/bin/env python3
"""admmcert benchmark: CLI workloads timed end to end, plus a traced run.

Run from the repository root (the package is taken from ./src, not from an
installed copy):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0

--trace 0 runs the workload's CLI command in fresh child processes, one at a
time, for about --seconds and at least twice (so that output hashes can be
compared between repeats of the seed), and reports the end-to-end
metrics. --trace 1 runs the command once untraced, then once more through
perfbench/traced.py, in its own process, which calls the CLI in-process with
a span around each call into the package, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those listed
in BENCHMARK.json. The line before it, prefixed with "record ", holds the
machine block, the generated inputs and every sample.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

BUDGET_S = 170.0  # the whole benchmark run, set-up included, must end within 180 s
MIN_SAMPLES = 2
MAX_SAMPLES = 50
SETUP_REPS = 5
DEFAULT_SEED = 1
BLAS_THREADS = 1

# params are the CLI flags of the command; the solve instance is generated
# from the seed, verify runs the fixed built-ins. See README.md for the
# workloads that were tried and dropped.
WORKLOADS = {
    "solve-tv-d600": {
        "command": "solve", "generate": ["tv", "--dims", "600"], "params": {"N": 500},
        "hashed": ["certificates.json", "trace.csv"],
    },
    "verify": {"command": "verify", "params": {}, "hashed": ["verify_report.json"]},
}

# --tiny: the same workloads at sizes that finish in seconds (smoke test only).
TINY = {
    "solve-tv-d600": {"generate": ["tv", "--dims", "40"], "params": {"N": 100}},
}

SETUP_CODE = {
    "file": "import sys, admmcert; admmcert.load_instance(sys.argv[1])",
    "verify": "from admmcert import library\n"
              "for name in library.instance_names(): library.get_instance(name)",
}

MACHINE_CODE = r"""
import ctypes, glob, json, os, sys
import numpy, scipy, admmcert
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                   "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"admmcert": os.path.realpath(admmcert.__file__),
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no package source, broken interpreter)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one string-hash seed for every child, so that dict and set layouts are
    # the same in every process and do not add to the spread between samples
    env["PYTHONHASHSEED"] = "0"
    # Single-threaded BLAS: on a shared 2-core box two OpenBLAS threads made
    # repeated solve-tv-d600 runs spread +-4% against +-1% for one thread, for
    # a 3% gain at d = 600. cpu_s still shows any thread a change adds.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts one child at a time, each bounded by what is left of the budget."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline

    def left(self):
        return self.deadline - time.perf_counter()

    def run(self, argv, log_path):
        """Run argv to completion; returns (exit code, wall s, cpu s, peak RSS MB)."""
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.left(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def python(self, args, log_path, what):
        rc, wall, _, _ = self.run([sys.executable, *args], log_path)
        if rc != 0:
            with open(log_path, errors="replace") as fh:
                raise BenchError(f"{what} failed (exit {rc}): {fh.read()[-2000:]}")
        return wall


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def machine_block(runner, work):
    log = os.path.join(work, "machine.log")
    runner.python(["-c", MACHINE_CODE], log, "machine probe")
    with open(log) as fh:
        info = json.loads(fh.read().strip().splitlines()[-1])
    if os.path.commonpath([info["admmcert"], SRC]) != SRC:
        raise BenchError(f"admmcert imported from {info['admmcert']}, not from {SRC}")
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    info.update(nproc=len(os.sched_getaffinity(0)), cpu_model=model)
    return info


def prepare_inputs(wl, seed, runner, work):
    """Generate the workload's instance from the seed; returns the input record."""
    if "generate" not in wl:
        return {"spec": None, "seed_dependent": False,
                "note": "built-in instances; the seed does not change the inputs"}
    path = os.path.join(work, "instance.txt")
    runner.python(["-m", "admmcert.cli", "generate", *wl["generate"], "--seed", str(seed),
                   "--out", path], os.path.join(work, "generate.log"), "generate")
    kind, _, dims = wl["generate"]
    return {"kind": kind, "dims": dims, "seed": seed, "seed_dependent": True,
            "spec": path, "sha256": sha256(path)}


def setup_once(wl, inputs, runner, work):
    """Wall time of a fresh process that imports admmcert and builds the specs."""
    if wl["command"] == "verify":
        args = ["-c", SETUP_CODE["verify"]]
    else:
        args = ["-c", SETUP_CODE["file"], inputs["spec"]]
    return runner.python(args, os.path.join(work, "setup.log"), "set-up")


def cli_args(wl, inputs, out):
    args = [wl["command"], "--out", out]
    if inputs["spec"] is not None:
        args += ["--spec", inputs["spec"]]
    for flag, value in wl["params"].items():
        args += [f"--{flag}", str(value)]
    return args


def check_outputs(wl, out):
    """Reasons the outputs in `out` are wrong; empty when they pass."""
    missing = [name for name in wl["hashed"] if not os.path.exists(os.path.join(out, name))]
    if missing:
        return [f"missing {', '.join(missing)}"]
    try:
        return _output_problems(wl, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _output_problems(wl, out):
    if wl["command"] == "solve":
        with open(os.path.join(out, "certificates.json")) as fh:
            certs = json.load(fh)
        failing = [c["theorem"] for c in certs["certificates"] if not c["pass"]]
        if failing or not certs["all_pass"] or not certs["certificates"]:
            return [f"certificates failed: {failing}"]
    else:
        with open(os.path.join(out, "verify_report.json")) as fh:
            criteria = json.load(fh)["criteria"]
        failing = [c["id"] for c in criteria if not c["pass"]]
        if failing or len(criteria) != 9:
            return [f"verify criteria failed: {failing} of {len(criteria)}"]
    return []


def output_record(wl, out):
    size = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
               if f != "metadata.txt")
    hashes = {name: sha256(os.path.join(out, name)) for name in wl["hashed"]
              if os.path.exists(os.path.join(out, name))}
    return size / 1e6, hashes


def cli_sample(wl, inputs, runner, work, i):
    out = os.path.join(work, f"out{i}")
    rc, wall, cpu, rss = runner.run([sys.executable, "-m", "admmcert.cli",
                                     *cli_args(wl, inputs, out)], out + ".log")
    artifact_mb, hashes = output_record(wl, out) if os.path.isdir(out) else (0.0, {})
    problems = [f"exit code {rc}"] if rc != 0 else []
    if os.path.isdir(out):
        problems += check_outputs(wl, out)
    shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "artifact_mb": artifact_mb,
            "hashes": hashes, "problems": problems}


def check_repeats(samples):
    """A hash that differs from the first sample's fails the later sample."""
    ref = samples[0]["hashes"]
    for s in samples[1:]:
        for name, digest in s["hashes"].items():
            if name in ref and digest != ref[name]:
                s["problems"].append(f"{name} differs from sample 0")


def measure_untraced(wl, inputs, runner, work, seconds, record):
    # Set-up runs are interleaved with the samples so that their median spans
    # the run rather than one stretch of it. After MIN_SAMPLES, a set-up plus
    # sample pair starts only when a pair of median length still ends within
    # --seconds, so a run does not overrun by up to one sample.
    setups, samples, pairs = [], [], []
    t0 = time.perf_counter()
    while len(samples) < MAX_SAMPLES and runner.left() > 0 and (
            len(samples) < MIN_SAMPLES
            or time.perf_counter() - t0 + statistics.median(pairs) <= seconds):
        t = time.perf_counter()
        setups.append(setup_once(wl, inputs, runner, work))
        samples.append(cli_sample(wl, inputs, runner, work, len(samples)))
        pairs.append(time.perf_counter() - t)
    while len(setups) < SETUP_REPS and runner.left() > 0:
        setups.append(setup_once(wl, inputs, runner, work))
    if not samples:
        raise BenchError("the time budget ran out before the first sample")
    record["setup_s"] = setups
    check_repeats(samples)
    record["samples"] = samples
    failed = sum(bool(s["problems"]) for s in samples)
    # Times are the slowest sample's. On the shared 2-core machine this was
    # tuned on, speed jumps up by as much as 1.8x for stretches of seconds to
    # minutes; the slowest sample of a run reflects its usual speed and
    # varied about half as much from run to run as the median did
    # (README.md, "Budget and steadiness").
    metrics = {key: max(s[key] for s in samples) for key in ("wall_s", "cpu_s")}
    metrics.update({key: statistics.median(s[key] for s in samples)
                    for key in ("peak_rss_mb", "artifact_mb")})
    metrics["setup_s"] = statistics.median(record["setup_s"])
    metrics["pass_ratio"] = (len(samples) - failed) / len(samples)
    return len(samples), failed, metrics


def measure_traced(wl, inputs, runner, work, record):
    base = cli_sample(wl, inputs, runner, work, 0)
    out = os.path.join(work, "traced")
    os.makedirs(out)
    report_path = os.path.join(work, "traced.json")
    cfg = {"command": wl["command"], "argv": cli_args(wl, inputs, out), "out": out,
           "spawned_at": time.time()}
    rc, wall, _, _ = runner.run([sys.executable, os.path.join(HERE, "traced.py"),
                                 json.dumps(cfg), report_path], out + ".log")
    traced = {"problems": [f"exit code {rc}"] if rc != 0 else [], "wall_s": wall}
    metrics = {}
    if rc == 0:
        with open(report_path) as fh:
            report = json.load(fh)
        metrics = report["metrics"]
        traced["problems"] += check_outputs(wl, out)
        for name, digest in output_record(wl, out)[1].items():
            if name in base["hashes"] and digest != base["hashes"][name]:
                traced["problems"].append(f"traced {name} differs from the CLI's")
        record["spans"] = report["spans"]
    record["samples"] = [base, traced]
    return 2, bool(base["problems"]) + bool(traced["problems"]), metrics


def load_metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)
    # SIGTERM unwinds through Runner.run, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + BUDGET_S

    if not os.path.isfile(os.path.join(SRC, "admmcert", "cli.py")):
        print(f"error: no package source at {SRC}/admmcert", file=sys.stderr)
        return 2
    wl = dict(WORKLOADS[args.workload])
    if args.tiny:
        wl.update(TINY.get(args.workload, {}))
    names = load_metric_names(args.trace)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(child_env(), deadline)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "load_before": os.getloadavg()}
    try:
        record["machine"] = machine_block(runner, work)
        inputs = prepare_inputs(wl, args.seed, runner, work)
        record["inputs"] = inputs
        if args.trace:
            attempted, failed, metrics = measure_traced(wl, inputs, runner, work, record)
        else:
            attempted, failed, metrics = measure_untraced(wl, inputs, runner, work,
                                                          args.seconds, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["load_after"] = os.getloadavg()

    unexercised = [n for n, _ in names if n not in metrics]
    result = {n: {"value": metrics.get(n, 0), "unit": u} for n, u in names}
    for s in record["samples"]:
        for problem in s["problems"]:
            print(f"FAILED: {problem}")
    for n, u in names:
        print(f"{args.workload} {n} = {result[n]['value']!r} {u}")
    if unexercised:
        print(f"not exercised by this workload (reported as 0): {', '.join(unexercised)}")
    print(f"samples: {attempted}, failed: {failed}, machine: {json.dumps(record['machine'])}")
    print("record " + json.dumps(record))
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
