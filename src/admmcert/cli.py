"""Command-line entry point.

Subcommands: generate (write an instance file), solve (run the iteration and
certify it), simulate (discrete / low-resolution / high-resolution runs side
by side), verify (full acceptance suite), report (summarize a certificate
file). All outputs are a pure function of the instance file and the manifest;
wall-clock timestamps go only into a sidecar metadata file.

Manifests are flat key=value files with [section] headers (configparser
syntax); command-line flags override manifest values.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import json
import os
import sys

import numpy as np

from . import acceptance, library
from .diagnostics import certify_general, certify_standard
from .errors import AdmmError, ParameterError
from .ode import ContinuousState, IntegratorConfig, simulate_high_res, simulate_low_res
from .oracle import saddle_point_oracle
from .problems import build_basis_pursuit, build_generalized_lasso, load_instance, save_instance
from .solver import GENERAL, TRACE_CSV, SolverConfig, run, write_csv

EXIT_PASS = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2


def _write_sidecar(outdir, note):
    path = os.path.join(outdir, "metadata.txt")
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w") as fh:
        fh.write(f"created: {stamp}\n{note}\n")


def _load_manifest(path):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"manifest {path!r} not found")
    return cp


def _manifest_get(cp, section, key, fallback=None):
    if cp is None:
        return fallback
    return cp.get(section, key, fallback=fallback)


def _resolve(args, cp, section, key, cast, fallback):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    raw = _manifest_get(cp, section, key, None)
    if raw is None:
        return fallback
    return cast(raw)


def _load_spec(args, cp):
    spec_path = args.spec or _manifest_get(cp, "instance", "spec")
    if spec_path is None:
        raise FileNotFoundError("no instance given: pass --spec or set [instance] spec")
    if spec_path in library.INSTANCES:
        return spec_path, library.get_instance(spec_path)
    return spec_path, load_instance(spec_path)


def _outdir(args, cp):
    out = args.out or _manifest_get(cp, "output", "dir") or "out"
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args):
    rng = np.random.default_rng(args.seed)
    dims = [int(v) for v in args.dims.split(",")]
    kind = args.kind
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive")
    if kind == "lasso":
        if len(dims) != 2:
            raise ValueError("lasso needs dims m,d")
        m, d = dims
        A = rng.standard_normal((m, d))
        b = rng.standard_normal(m)
        spec = build_generalized_lasso(A, b, np.eye(d), 0.5)
    elif kind in ("tv", "trend"):
        if len(dims) != 1:
            raise ValueError(f"{kind} needs a single dimension d")
        d = dims[0]
        order = 1 if kind == "tv" else 2
        if d < order + 1:
            raise ValueError(f"{kind} filtering needs d >= {order + 1}")
        A = np.eye(d)
        b = rng.standard_normal(d)
        spec = build_generalized_lasso(A, b, library._difference_matrix(d, order), 0.5)
    elif kind == "basis_pursuit":
        if len(dims) != 2:
            raise ValueError("basis_pursuit needs dims m,d")
        m, d = dims
        if m > d:
            raise ValueError("basis_pursuit needs m <= d")
        A = rng.standard_normal((m, d))
        x0 = np.zeros(d)
        x0[rng.choice(d, size=max(1, m // 3), replace=False)] = rng.standard_normal(max(1, m // 3))
        spec = build_basis_pursuit(A, A @ x0)
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    out = args.out or f"{kind}_instance.txt"
    save_instance(spec, out)
    print(f"wrote {out}")
    return EXIT_PASS


def cmd_solve(args):
    cp = _load_manifest(args.manifest) if args.manifest else None
    s = float(_resolve(args, cp, "solver", "s", float, 1.0))
    N = int(_resolve(args, cp, "solver", "N", int, 1000))
    variant = _resolve(args, cp, "solver", "variant", str, "standard")
    r = _resolve(args, cp, "solver", "r", float, None)
    tol = float(_resolve(args, cp, "diagnostics", "tol", float, 1e-8))
    if N < 2:
        raise ParameterError(f"N = {N!r}: solve certifies the run, and its NE checks need "
                             "N >= 2 steps")
    if r is not None and variant != GENERAL:
        raise ParameterError(f"r = {r!r} applies only to the r-proximal step: "
                             "pass --variant general or set [solver] variant = general")
    config = SolverConfig(s=s, N=N, variant=variant, r=r)
    name, spec = _load_spec(args, cp)
    out = _outdir(args, cp)

    saddle = saddle_point_oracle(spec, tol)
    trace = run(spec, config, saddle=saddle)
    trace.to_csv(os.path.join(out, TRACE_CSV))
    trace.to_json(os.path.join(out, "trace.json"))
    report = (certify_general if variant == GENERAL else certify_standard)(trace, saddle)
    report.save(os.path.join(out, "certificates.json"))
    _write_sidecar(out, f"solve {name} variant={variant} s={s!r} N={N}")
    for entry in report.entries:
        print(f"{entry.theorem}: {'pass' if entry.passed else 'FAIL'} "
              f"(worst slack {entry.worst_slack!r})")
    if not report.all_pass:
        print("failing: " + ", ".join(report.failing()), file=sys.stderr)
        return EXIT_CERT_FAIL
    return EXIT_PASS


def cmd_simulate(args):
    cp = _load_manifest(args.manifest) if args.manifest else None
    name, spec = _load_spec(args, cp)
    s = float(_resolve(args, cp, "solver", "s", float, 1.0))
    delta = float(_resolve(args, cp, "simulate", "delta", float, s / 100.0))
    T = float(_resolve(args, cp, "simulate", "horizon", float, 20.0 * s))
    tol = float(_resolve(args, cp, "diagnostics", "tol", float, 1e-8))
    config = IntegratorConfig(s=s, delta=delta, T=T)  # refused steps exit before any write
    out = _outdir(args, cp)

    if delta < s and not spec.g.smooth:
        spec = spec.smoothed(library.HUBER_DELTA)
    saddle = saddle_point_oracle(spec, tol)
    ref = (saddle.y_star, saddle.lambda_star)

    init = ContinuousState(np.zeros(spec.d1), np.zeros(spec.d2), np.zeros(spec.m), 0.0)
    high = simulate_high_res(spec, config, init, ref=ref)
    written = []

    def path(fname):  # every table goes through here, so the closing line names it
        written.append(fname)
        return os.path.join(out, fname)

    high.to_csv(path("high_res.csv"))

    solver_cfg = SolverConfig(s=s, N=max(1, int(round(T / s))))
    trace = run(spec, solver_cfg, saddle=saddle)
    trace.to_csv(path("discrete.csv"))

    low = None
    if spec.f.smooth and spec.g.smooth and spec.d2 == spec.m:
        low = simulate_low_res(spec, config, np.zeros(spec.d1), ref=ref)
        low.to_csv(path("low_res.csv"))
    per = int(round(s / delta))  # a whole number, checked by IntegratorConfig
    ks = np.arange(len(trace))
    ks = ks[ks * per < len(high)]  # discrete steps k with a high-resolution node at k*s
    js = ks * per
    dev_l = low.scalars["deviation"][js] if low is not None else np.full(len(ks), np.nan)
    table = np.column_stack([high.axis[js], high.scalars["deviation"][js], dev_l,
                             trace.scalars["primal_res"][ks], high.scalars["lyapunov"][js],
                             trace.scalars["lyapunov"][ks]])
    write_csv(path("comparison.csv"),
              ["t", "deviation_high_res", "deviation_low_res", "deviation_discrete",
               "lyapunov_high_res", "lyapunov_discrete"], table.tolist())
    _write_sidecar(out, f"simulate {name} s={s!r} delta={delta!r} T={T!r}")
    print("wrote " + ", ".join(f"{out}/{fname}" for fname in written))
    return EXIT_PASS


def cmd_verify(args):
    out = args.out or "verify_out"
    os.makedirs(out, exist_ok=True)
    results = acceptance.run_all()
    path = os.path.join(out, "verify_report.json")
    with open(path, "wb") as fh:
        fh.write(acceptance.report_bytes(results))
    _write_sidecar(out, "verify")
    ok = True
    for crit in results["criteria"]:
        status = "pass" if crit["pass"] else "FAIL"
        print(f"criterion {crit['id']}: {status} — {crit['title']}")
        ok = ok and crit["pass"]
    print(f"report: {path}")
    return EXIT_PASS if ok else EXIT_CERT_FAIL


def cmd_report(args):
    path = args.spec
    if path is None:
        raise FileNotFoundError("report needs --spec pointing at a certificate JSON")
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
    entries = payload.get("certificates") if isinstance(payload, dict) else payload
    keys = ("theorem", "pass", "worst_slack", "tolerance")
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) and all(k in e for k in keys) for e in entries)):
        raise ValueError(f"{path} is not a certificate file: it needs a list of entries with "
                         f"{', '.join(keys)}, or an object holding one under 'certificates'")
    ok = True
    for e in entries:
        status = "pass" if e["pass"] else "FAIL"
        print(f"{e['theorem']}: {status} worst_slack={e['worst_slack']!r} "
              f"tol={e['tolerance']!r}")
        ok = ok and e["pass"]
    return EXIT_PASS if ok else EXIT_CERT_FAIL


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="admmcert",
                                description="solve, simulate and certify the two-block iteration")
    sub = p.add_subparsers(dest="command", required=True)
    flags = {
        "kind": dict(choices=["lasso", "tv", "trend", "basis_pursuit"]),
        "--dims": dict(required=True, help="comma-separated dimensions"),
        "--spec": dict(help="instance file path or built-in instance name"),
        "--out": dict(help="output directory"),
        "--manifest": dict(help="key=value manifest file"),
        "--s": dict(type=float, help="step/penalty parameter"),
        "--N": dict(type=int, help="iteration count"),
        "--variant": dict(choices=["standard", "general"]),
        "--r": dict(type=float, help="proximal weight; needs the general variant"),
        "--delta": dict(type=float, help="integrator micro-step"),
        "--horizon": dict(type=float, help="integration horizon T"),
        "--seed": dict(type=int, default=0, help="generator seed"),
        "--tol": dict(type=float, help="saddle tolerance, in [1e-12, inf)"),
    }
    # each subcommand declares only the flags it reads
    for name, fn, names in (
            ("generate", cmd_generate, ["kind", "--dims", "--seed", "--out"]),
            ("solve", cmd_solve, ["--spec", "--out", "--manifest", "--s", "--N", "--variant",
                                  "--r", "--tol"]),
            ("simulate", cmd_simulate, ["--spec", "--out", "--manifest", "--s", "--delta",
                                        "--horizon", "--tol"]),
            ("verify", cmd_verify, ["--out"]),
            ("report", cmd_report, ["--spec"])):
        sp = sub.add_parser(name)
        for flag in names:
            sp.add_argument(flag, **flags[flag])
        sp.set_defaults(func=fn)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdmmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
