import json

import numpy as np
import pytest

from admmcert import diagnostics as diag
from admmcert.errors import ParameterError
from admmcert.library import get_instance, get_saddle
from admmcert.ode import IntegratorConfig, simulate_high_res, simulate_low_res
from admmcert.solver import GENERAL, SolverConfig, run
from test_row_passes import inclusion_residuals, lemma_slacks


def scalar_run(N=200):
    spec = get_instance("scalar_lasso")
    sad = get_saddle("scalar_lasso")
    return run(spec, SolverConfig(s=1.0, N=N), saddle=sad), spec, sad


class TestEnergies:
    def test_lyapunov_initial_value(self):
        # from zeros with saddle (0.5, 0.5, 1): (1/2)*0.25 + (1/2)*1 = 0.625
        trace, _, _ = scalar_run(1)
        assert trace.scalars["lyapunov"][0] == pytest.approx(0.625)

    def test_numerical_error_first_step(self):
        # y0=0 -> y1=0, lam0=0 -> lam1=2/3: NE(0) = (1/2)(2/3)^2 = 2/9
        trace, _, _ = scalar_run(1)
        assert trace.scalars["ne"][0] == pytest.approx(2.0 / 9.0)

    def test_extended_lyapunov_exceeds_base_energy(self):
        trace, spec, sad = scalar_run(2)
        ext = diag._extended_energy(trace.xs[0], trace.ys[0], trace.lams[0], sad.x_star,
                                    sad.y_star, sad.lambda_star, spec, 1.0, 2.0)
        assert ext >= trace.scalars["lyapunov"][0]  # the added term is >= 0 for r > ||F^T F||


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name in ("scalar_lasso", "tv_d50", "basis_pursuit_10x30"):
        spec = get_instance(name)
        sad = get_saddle(name)
        out[name] = (run(spec, SolverConfig(s=1.0, N=300), saddle=sad), spec, sad)
    return out


class TestStandardChecks:
    def test_convergence1_all_instances(self, runs):
        for trace, spec, sad in runs.values():
            entry, = diag.check_convergence1(trace)
            assert entry.passed, entry.worst_slack

    def test_lemma_inequality_with_extra_probe(self, runs):
        trace, spec, sad = runs["tv_d50"]
        rng = np.random.default_rng(11)
        probe = (rng.standard_normal(spec.d1), rng.standard_normal(spec.d2),
                 rng.standard_normal(spec.m))
        slacks, _ = lemma_slacks(spec, trace, sad, 1.0, probe)
        assert max(slacks) <= diag.TOL_STEP

    def test_rate_4_3_start_at_saddle(self):
        spec = get_instance("scalar_lasso")
        sad = get_saddle("scalar_lasso")
        init = (sad.x_star, sad.y_star, sad.lambda_star)
        trace = run(spec, SolverConfig(s=1.0, N=10), init=init, saddle=sad)
        entry, = diag.check_rate_theorem_4_3(trace)
        assert entry.passed
        assert entry.constants["C"] == pytest.approx(0.0, abs=1e-20)

    def test_weak_rate_all_instances(self, runs):
        for trace, spec, sad in runs.values():
            entry, = diag.check_weak_rate_theorem_4_2(trace)
            assert entry.passed, (entry.theorem, entry.worst_slack)

    def test_weak_rate_zero_bound_probe(self, monkeypatch):
        # probe y = y0 and lam0 = 0 makes the bound exactly 0 at every prefix
        trace, spec, sad = scalar_run(50)
        monkeypatch.setattr(diag, "_weak_probes", lambda *_: [(sad.x_star, trace.ys[0])])
        entry, = diag.check_weak_rate_theorem_4_2(trace)
        assert entry.passed
        assert entry.constants["C_probe0"] == 0.0
        assert entry.worst_slack <= 0.0  # LHS <= 0 under a zero bound

    def test_strong_avg_requires_strong_convexity(self):
        spec = get_instance("basis_pursuit_10x30")
        with pytest.raises(ParameterError, match="strong convexity certificate unavailable"):
            diag.strong_convexity_modulus(spec)

    def test_strong_avg_scalar(self):
        trace, spec, sad = scalar_run(500)
        entry, = diag.check_strong_avg_theorem_4_4(trace)
        assert entry.passed
        assert entry.constants["mu"] == pytest.approx(2.0)
        assert "worst_slack_shifted" in entry.constants

    def test_ne_monotone_and_last_iterate(self, runs):
        for trace, spec, sad in runs.values():
            mono, last, triple = diag.check_ne_monotone_theorem_5(trace)
            assert mono.passed and mono.tolerance == 1e-12
            assert last.passed
            assert triple.passed

    def test_step_inclusion_residuals_near_zero(self, runs):
        trace, spec, _ = runs["tv_d50"]
        rx, ry, _ = inclusion_residuals(spec, trace, 1.0, None)
        assert np.max(rx) < 1e-8
        assert np.max(ry) < 1e-8


class TestGeneralChecks:
    def test_requires_general_trace(self):
        trace, spec, sad = scalar_run(10)
        with pytest.raises(ParameterError, match="r-proximal"):
            diag.check_general_rates_theorems_6(trace)

    def test_bundle_passes(self):
        spec = get_instance("rank_deficient_lasso")
        sad = get_saddle("rank_deficient_lasso")
        r = 2.0 * spec.FtF_norm
        trace = run(spec, SolverConfig(s=1.0, N=400, variant=GENERAL, r=r), saddle=sad)
        entries = diag.check_general_rates_theorems_6(trace)
        names = [e.theorem for e in entries]
        assert names == ["theorem_6_1_x_diff_rate", "theorem_6_2_x_diff_last",
                         "theorem_6_extended_ne_monotone",
                         "theorem_6_extended_lyapunov_monotone"]
        assert all(e.passed for e in entries)

    def test_general_step_inclusions(self):
        spec = get_instance("lasso_8x6")
        sad = get_saddle("lasso_8x6")
        r = 1.1 * spec.FtF_norm
        trace = run(spec, SolverConfig(s=1.0, N=50, variant=GENERAL, r=r), saddle=sad)
        rx, ry, _ = inclusion_residuals(spec, trace, 1.0, r)
        assert np.max(rx) < 1e-8
        assert np.max(ry) < 1e-8


class TestCertificateTable:
    @pytest.fixture(scope="class")
    def traces(self):
        """Each bundle with a trace it certifies; between them they report every row."""
        spec, sad = get_instance("scalar_lasso"), get_saddle("scalar_lasso")
        general = SolverConfig(s=1.0, N=50, variant=GENERAL, r=2.0 * spec.FtF_norm)
        smooth, smooth_sad = get_instance("lasso_8x6_smoothed"), get_saddle("lasso_8x6_smoothed")
        high = simulate_high_res(smooth, IntegratorConfig(s=1.0, delta=0.25, T=5.0),
                                 saddle=smooth_sad)
        return [(diag.certify_standard, run(spec, SolverConfig(s=1.0, N=50), saddle=sad)),
                (diag.certify_general, run(spec, general, saddle=sad)),
                (diag.certify_continuous, high)]

    def test_bundles_report_every_row_once_in_table_order(self, traces):
        reported = []
        for bundle, trace in traces:
            names = [e.theorem for e in bundle(trace).entries]
            assert names == [name for name in diag.CERTIFICATES if name in names]
            reported += names
        assert reported == list(diag.CERTIFICATES)

    def test_every_check_returns_a_list_of_entries(self, traces, monkeypatch):
        # what perfbench's tracer counts: it wraps each diagnostics.check_* and reads
        # .passed on every entry it returns
        names = [n for n in vars(diag) if n.startswith("check_")]
        returned = {}
        for name in names:
            def wrapped(*args, _check=getattr(diag, name), _name=name):
                returned[_name] = _check(*args)
                return returned[_name]
            monkeypatch.setattr(diag, name, wrapped)
        for bundle, trace in traces:
            bundle(trace)
        assert sorted(returned) == sorted(names)  # every check runs in some bundle
        for out in returned.values():
            assert isinstance(out, list) and out
            assert all(isinstance(e, diag.CertificateEntry) for e in out)

    def test_entry_reads_tolerance_and_constants_from_table_and_trace(self, traces):
        for bundle, trace in traces:
            for e in bundle(trace).entries:
                rule = diag.CERTIFICATES[e.theorem]
                assert e.tolerance == (10.0 * trace.config.delta if rule == "continuous" else
                                       {"step": 1e-9, "rate": 1e-9, "mono": 1e-12}[rule])
                assert e.constants["s"] == 1.0
                assert e.constants.get("r") == trace.r
                assert e.constants.get("delta") == getattr(trace.config, "delta", None)


def test_trace_carries_its_saddle_and_bundles_refuse_one_without():
    spec, smooth = get_instance("scalar_lasso"), get_instance("lasso_8x6_smoothed")
    sad, smooth_sad = get_saddle("scalar_lasso"), get_saddle("lasso_8x6_smoothed")
    config = IntegratorConfig(s=1.0, delta=0.25, T=1.0)
    assert run(spec, SolverConfig(s=1.0, N=5), saddle=sad).saddle is sad
    assert simulate_high_res(smooth, config, saddle=smooth_sad).saddle is smooth_sad
    assert simulate_low_res(smooth, config, saddle=smooth_sad).saddle is smooth_sad
    general = SolverConfig(s=1.0, N=5, variant=GENERAL)
    for bundle, trace in ((diag.certify_standard, run(spec, SolverConfig(s=1.0, N=5))),
                          (diag.certify_general, run(spec, general)),
                          (diag.certify_continuous, simulate_high_res(smooth, config))):
        assert trace.saddle is None and np.all(np.isnan(trace.scalars["lyapunov"]))
        with pytest.raises(ParameterError, match="^certificates need a saddle: the trace "
                                                 "was run without one"):
            bundle(trace)


class TestReportSerialization:
    def test_json_schema_and_determinism(self, tmp_path):
        trace, spec, sad = scalar_run(100)
        report = diag.certify_standard(trace)
        assert report.all_pass
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        report.save(p1)
        diag.certify_standard(trace).save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert payload["all_pass"] is True
        for cert in payload["certificates"]:
            assert set(cert) == {"theorem", "pass", "worst_slack", "worst_index",
                                 "tolerance", "constants"}

    def test_failing_entry_reported(self):
        report = diag.CertificateReport()
        report.entries.append(diag.CertificateEntry("demo", False, 1.0, 3, 1e-9, {}))
        assert not report.all_pass
        assert report.failing() == ["demo"]
