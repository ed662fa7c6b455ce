"""The package's public names: each one in __all__ resolves, in sorted order, once."""

import importlib.util
import json
import pathlib
import re

import numpy as np

import admmcert
from admmcert.library import get_instance


def test_every_export_resolves():
    missing = [name for name in admmcert.__all__ if not hasattr(admmcert, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    names = admmcert.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_certificates_live_in_diagnostics():
    # ode only integrates: every check and bundle, continuous ones included, is defined
    # in diagnostics (ode imports solver.check_start, which it does not define)
    assert admmcert.certify_continuous is admmcert.diagnostics.certify_continuous
    ode = admmcert.ode
    assert [name for name, obj in vars(ode).items()
            if name.startswith(("check_", "certify_"))
            and getattr(obj, "__module__", None) == ode.__name__] == []


def test_traced_names_resolve_in_diagnostics():
    # the benchmark's per-layer check metrics, and the bundles its tracer hooks, are
    # read off diagnostics by name: a renamed or deleted function would read 0
    root = pathlib.Path(__file__).resolve().parents[1]
    metrics = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    checks = [m.group(1) for m in map(re.compile(r"diagnostics\.(check_\w+)_s").fullmatch,
                                          metrics) if m]
    hooked = re.findall(r'"(certify_\w+)":', (root / "perfbench" / "traced.py").read_text())
    assert checks and hooked  # the patterns still find the names they guard
    assert [n for n in checks + hooked
            if not callable(getattr(admmcert.diagnostics, n, None))] == []


def test_benchmark_probe_runs_on_the_names_it_calls():
    # perfbench/traced.py's probe times the one-step API (solver.zero_state and
    # admm_step, prox.FactorizationCache, x_update and y_update), which the package keeps
    # only for it: a deleted or reshaped name fails here, not silently under --trace 1
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    metrics = traced.probe(get_instance("tv_d50"), [get_instance("tv_d50")])
    assert metrics
    assert [k for k, v in metrics.items() if not np.isfinite(v)] == []
