import itertools
import re

import numpy as np
import pytest

from admmcert import oracle
from admmcert.cli import main
from admmcert.errors import InnerSolveError, OracleConvergenceError, ParameterError
from admmcert.library import _difference_matrix, get_instance
from admmcert.oracle import long_run_oracle, saddle_point_oracle, sign_pattern_oracle
from admmcert.problems import build_generalized_lasso, kkt_residuals, load_instance, save_instance


def enumerated_saddle(spec, tol=1e-8):
    """Brute-force reference: the first of all 3^d2 sign patterns, in itertools order,
    whose KKT system (the one sign_pattern_oracle assembles, solved by the same
    lstsq) is consistent and whose solution meets tol. Returns (x, y, lam)."""
    assert spec.d2 <= 6, "the reference enumerates 3^d2 patterns"
    d1, d2, m, w, f = spec.d1, spec.d2, spec.m, spec.g.w, spec.f
    for sigma in itertools.product((-1.0, 0.0, 1.0), repeat=d2):
        sigma = np.array(sigma)
        P = np.flatnonzero(sigma != 0.0)
        p = P.size
        M = np.zeros((d1 + p + m, d1 + p + m))
        M[:d1, :d1] = 2.0 * (f.A.T @ f.A)
        M[:d1, d1 + p:] = spec.F.T
        M[d1:d1 + p, d1 + p:] = spec.G.T[P, :]
        M[d1 + p:, :d1] = spec.F
        M[d1 + p:, d1:d1 + p] = spec.G[:, P]
        v = np.concatenate([2.0 * f.gram_rhs, -w * sigma[P], spec.h])
        z, *_ = np.linalg.lstsq(M, v, rcond=None)
        if np.linalg.norm(M @ z - v) > 1e-8 * (1.0 + np.linalg.norm(v)):
            continue
        y = np.zeros(d2)
        y[P] = z[d1:d1 + p]
        x, lam = z[:d1], z[d1 + p:]
        if max(kkt_residuals(spec, x, y, lam)) <= tol:
            return x, y, lam
    raise AssertionError("no sign pattern satisfies the KKT conditions")


def generated(tmp_path, kind, dims, seed):
    path = tmp_path / f"{kind}.txt"
    assert main(["generate", kind, "--dims", dims, "--seed", str(seed),
                 "--out", str(path)]) == 0
    return load_instance(path)


class TestSignPattern:
    def test_scalar_lasso_analytic_saddle(self):
        # unique minimizer of (x-1)^2 + |x| is 0.5, multiplier 2(1 - 0.5) = 1
        sad = sign_pattern_oracle(get_instance("scalar_lasso"))
        assert sad.x_star[0] == pytest.approx(0.5, abs=1e-12)
        assert sad.y_star[0] == pytest.approx(0.5, abs=1e-12)
        assert sad.lambda_star[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_support_case(self):
        # heavy weight forces y* = 0: minimizer of (x-1)^2 + 5|x|
        spec = build_generalized_lasso([[1.0]], [1.0], [[1.0]], 5.0)
        sad = sign_pattern_oracle(spec)
        assert sad.y_star[0] == 0.0
        assert max(kkt_residuals(spec, sad.x_star, sad.y_star, sad.lambda_star)) <= 1e-8

    @pytest.mark.parametrize("name", ["scalar_lasso", "rank_deficient_lasso", "lasso_8x6",
                                      "zero_support"])
    def test_active_set_matches_enumeration_bitwise(self, name):
        spec = (build_generalized_lasso([[1.0]], [1.0], [[1.0]], 5.0) if name == "zero_support"
                else get_instance(name))
        sad = sign_pattern_oracle(spec)
        for got, want in zip((sad.x_star, sad.y_star, sad.lambda_star),
                             enumerated_saddle(spec)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["lasso_20x16_seed0", "lasso_20x50", "tv_d50",
                                      "trend_d50"])
    def test_active_set_agrees_with_long_run_past_the_cap(self, tmp_path, name):
        spec = (generated(tmp_path, "lasso", "20,16", 0) if name == "lasso_20x16_seed0"
                else get_instance(name))
        sp = sign_pattern_oracle(spec)
        lr = long_run_oracle(spec, tol=1e-9)
        gap = max(np.max(np.abs(sp.y_star - lr.y_star)),
                  np.max(np.abs(sp.lambda_star - lr.lambda_star)))
        assert gap <= 1e-7
        assert sp.kkt_residual <= 1e-8

    def test_affine_indicator_f_rejected(self):
        with pytest.raises(ParameterError, match="quadratic f"):
            sign_pattern_oracle(get_instance("basis_pursuit_10x30"))

    def test_indicator_instance_rejected_without_l1(self):
        spec = get_instance("scalar_lasso").smoothed(1e-3)
        with pytest.raises(ParameterError, match="w\\|\\|.\\|\\|_1"):
            sign_pattern_oracle(spec)


class TestLongRun:
    def test_agrees_with_sign_pattern(self):
        spec = get_instance("scalar_lasso")
        sp = sign_pattern_oracle(spec, tol=1e-10)
        lr = long_run_oracle(spec, tol=1e-10)
        np.testing.assert_allclose(lr.x_star, sp.x_star, atol=1e-8)
        np.testing.assert_allclose(lr.lambda_star, sp.lambda_star, atol=1e-8)

    def test_budget_exhaustion_reports_best(self):
        spec = get_instance("tv_d50")
        with pytest.raises(OracleConvergenceError) as exc:
            long_run_oracle(spec, tol=1e-15, budget=200)
        assert exc.value.best_residual > 0.0

    def test_stalled_residual_exits_before_the_budget(self, monkeypatch, tmp_path, capsys):
        # scaled by 1e6, this tv instance's best KKT residual stops at 3.3e-9, above
        # the 1e-9 that solve's default tol asks of the long run. Its state at step 128
        # repeats that at step 126 bit for bit, so the oracle's second block stops
        # stepping there, and its 500 later blocks take their states from that cycle
        # without stepping
        rng = np.random.default_rng(0)
        path = tmp_path / "stall.txt"
        save_instance(build_generalized_lasso(np.eye(20), 1e6 * rng.standard_normal(20),
                                              _difference_matrix(20, 1), 0.5e6), path)
        calls = []

        class CountingStep(oracle.Step):
            def __call__(self, *args):
                calls.append(None)
                return super().__call__(*args)

        monkeypatch.setattr(oracle, "Step", CountingStep)
        assert main(["solve", "--spec", str(path), "--N", "100",
                     "--out", str(tmp_path / "out")]) == 2
        assert len(calls) == 128
        err = capsys.readouterr().err
        assert "stalled at iteration 50200: its best residual 3.279e-09" in err
        assert not (tmp_path / "out").exists()  # refused before any output

    def test_rank_deficient_y_lambda_unique(self):
        # x* is non-unique along the shared null direction; y*, lambda* are not
        spec = get_instance("rank_deficient_lasso")
        sp = sign_pattern_oracle(spec)
        lr = long_run_oracle(spec, tol=1e-9)
        np.testing.assert_allclose(lr.y_star, sp.y_star, atol=1e-7)
        np.testing.assert_allclose(lr.lambda_star, sp.lambda_star, atol=1e-7)


class TestDispatcher:
    def test_tol_floor(self):
        with pytest.raises(ParameterError, match="1e-12"):
            saddle_point_oracle(get_instance("scalar_lasso"), tol=1e-13)

    def test_routes_small_l1_to_sign_pattern(self):
        sad = saddle_point_oracle(get_instance("rank_deficient_lasso"))
        assert sad.kkt_residual <= 1e-8

    @pytest.mark.parametrize("case", ["past_the_cap", "indicator_f"])
    def test_routes_to_long_run(self, tmp_path, case):
        spec = (get_instance("lasso_20x50") if case == "past_the_cap"
                else generated(tmp_path, "basis_pursuit", "4,9", 0))  # d2 = 9, under the cap
        sad = saddle_point_oracle(spec, tol=1e-8)
        lr = long_run_oracle(spec, tol=1e-9)
        for got, want in zip((sad.x_star, sad.y_star, sad.lambda_star),
                             (lr.x_star, lr.y_star, lr.lambda_star)):
            assert np.array_equal(got, want)

    def test_routes_smoothed_to_long_run(self):
        sad = saddle_point_oracle(get_instance("scalar_lasso_smoothed"))
        assert sad.kkt_residual <= 1e-9  # long-run path stops at tol/10

    def test_every_library_saddle_certified(self):
        from admmcert import library
        for name in library.instance_names():
            sad = library.get_saddle(name)
            spec = library.get_instance(name)
            assert max(kkt_residuals(spec, sad.x_star, sad.y_star, sad.lambda_star)) <= 1e-8


def drawn(seed, kind, m, d):
    """A small generalized lasso with w = 0.5, from default_rng(seed): A (m x d) and b
    standard normal, F the identity ("lasso"), first differences ("tv") or a standard
    normal d x d matrix ("general")."""
    rng = np.random.default_rng(seed)
    A, b = rng.standard_normal((m, d)), rng.standard_normal(m)
    F = {"lasso": np.eye(d), "tv": _difference_matrix(d, 1)}.get(kind)
    if F is None:
        F = rng.standard_normal((d, d))
    return build_generalized_lasso(A, b, F, 0.5)


class TestFallback:
    """Where the active set fails, the dispatcher falls back on the long run."""

    @pytest.mark.parametrize("seed, kind, m, d, error, reason", [
        # A of rank 2 < d = 6: the settled pattern's system is inconsistent
        (1, "lasso", 2, 6, OracleConvergenceError, "misses the KKT conditions"),
        (7, "general", 3, 5, InnerSolveError, "did not settle within 500 passes"),
        (20, "tv", 4, 7, InnerSolveError, "did not settle within 500 passes"),
    ], ids=["lasso_rank_2", "general_cycling", "tv_cycling"])
    def test_long_run_certifies_where_the_active_set_fails(self, seed, kind, m, d, error,
                                                          reason):
        spec = drawn(seed, kind, m, d)
        with pytest.raises(error, match=reason):
            sign_pattern_oracle(spec, 1e-8)
        sad = saddle_point_oracle(spec, 1e-8)
        lr = long_run_oracle(spec, 1e-9)
        for got, want in zip((sad.x_star, sad.y_star, sad.lambda_star),
                             (lr.x_star, lr.y_star, lr.lambda_star)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert max(kkt_residuals(spec, sad.x_star, sad.y_star, sad.lambda_star)) <= 1e-9

    def test_solve_runs_where_the_active_set_fails(self, tmp_path, capsys):
        path = tmp_path / "tv.txt"
        save_instance(drawn(20, "tv", 4, 7), path)
        out = tmp_path / "out"
        assert main(["solve", "--spec", str(path), "--N", "50", "--out", str(out)]) == 0
        assert "error" not in capsys.readouterr().err
        assert (out / "certificates.json").exists()

    def test_both_oracles_failing_names_both(self, monkeypatch, tmp_path, capsys):
        def stalled(spec, tol):
            raise OracleConvergenceError("long-run oracle stalled (planted)", 3e-3)

        monkeypatch.setattr(oracle, "long_run_oracle", stalled)
        with pytest.raises(OracleConvergenceError) as exc:
            saddle_point_oracle(drawn(1, "lasso", 2, 6))
        assert exc.value.best_residual == 3e-3
        assert re.fullmatch(r"sign-pattern oracle: the settled sign pattern misses the KKT "
                            r"conditions by \S+ > 1e-08; then the long-run oracle: long-run "
                            r"oracle stalled \(planted\)", str(exc.value))
        path = tmp_path / "tv.txt"
        save_instance(drawn(20, "tv", 4, 7), path)
        assert main(["solve", "--spec", str(path), "--N", "50",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: sign-pattern oracle: pattern search did not settle within 500 passes; "
            "then the long-run oracle: long-run oracle stalled (planted)\n")
