import importlib.machinery
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from test_step_bits import plus_identity_instance

from admmcert.errors import IllConditionedError, InnerSolveError, ParameterError
from admmcert import band, prox
from admmcert.library import get_instance, instance_names
from admmcert.problems import build_basis_pursuit, build_generalized_lasso
from admmcert.prox import (
    COND_LIMIT,
    FactorizationCache,
    INNER_MAX,
    SOLVE_TOL,
    huber_prox,
    lapack_factor,
    settle_pattern,
    soft_threshold,
    sym_cond,
    x_update,
    y_update,
)
from admmcert.solver import SolverConfig, run

finite_vec = arrays(np.float64, st.integers(1, 8),
                    elements=st.floats(-1e6, 1e6, allow_nan=False))


class TestSettlePattern:
    @staticmethod
    def _search(table, start):
        """settle_pattern over a lookup table pattern -> observed pattern, logging
        every pattern it solves."""
        solved = []

        def solve(pattern):
            solved.append(tuple(pattern))
            return np.array(table[tuple(pattern)])

        return settle_pattern(solve, lambda z: z, np.array(start)), solved

    def test_block_update_takes_the_whole_observed_pattern(self):
        z, solved = self._search({(0, 0): (1, -1), (1, -1): (1, -1)}, (0, 0))
        assert solved == [(0, 0), (1, -1)]
        np.testing.assert_array_equal(z, [1, -1])

    def test_repeat_falls_back_to_one_region_on_the_least_index(self):
        # block updates 2-cycle between (-1, 1) and (1, -1); at the repeat the
        # fallback moves coordinate 0 of (1, -1) one region, to 0, and not
        # straight to the observed -1
        table = {(-1, 1): (1, -1), (1, -1): (-1, 1), (0, -1): (0, -1)}
        z, solved = self._search(table, (-1, 1))
        assert solved == [(-1, 1), (1, -1), (0, -1)]
        np.testing.assert_array_equal(z, [0, -1])

    def test_budget_names_the_pass_count(self):
        # the observed region always lies on the far side of the current one
        calls = []

        def solve(pattern):
            calls.append(1)
            return pattern

        with pytest.raises(InnerSolveError, match=f"within {INNER_MAX} passes"):
            settle_pattern(solve, lambda p: np.where(p > 0, -1, 1), np.array([1]))
        assert len(calls) == INNER_MAX


class TestSoftThreshold:
    def test_basic_values(self):
        np.testing.assert_allclose(soft_threshold(np.array([3.0, -3.0, 0.5]), 1.0),
                                   [2.0, -2.0, 0.0])

    def test_tie_maps_to_zero(self):
        assert soft_threshold(np.array([1.0]), 1.0)[0] == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            soft_threshold(np.array([1.0]), -0.1)

    @given(finite_vec, st.floats(0.0, 100.0))
    def test_nonexpansive(self, v, t):
        u = v + 0.5
        lhs = np.linalg.norm(soft_threshold(u, t) - soft_threshold(v, t))
        assert lhs <= np.linalg.norm(u - v) + 1e-9

    @given(finite_vec, st.floats(0.0, 100.0))
    def test_prox_optimality(self, v, t):
        # p = prox minimizes t*|z| + (1/2)(z - v)^2, so t*sign-subgradient holds
        p = soft_threshold(v, t)
        res = np.where(p != 0.0, p - v + t * np.sign(p), np.maximum(np.abs(v) - t, 0.0))
        assert np.max(np.abs(res)) <= 1e-9 * (1.0 + np.max(np.abs(v)))


class TestHuberProx:
    def test_matches_soft_threshold_outside(self):
        v = np.array([5.0, -4.0])
        np.testing.assert_allclose(huber_prox(v, 1.0, 1.0, 1e-3),
                                   soft_threshold(v, 1.0))

    def test_linear_shrink_inside(self):
        # |v| <= delta + t*w: scaled by delta/(delta + t*w)
        out = huber_prox(np.array([0.5]), 1.0, 1.0, 1.0)
        assert out[0] == pytest.approx(0.25)

    def test_prox_stationarity(self):
        from admmcert.functions import HuberSmoothedL1
        g = HuberSmoothedL1(0.7, 0.01)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(20) * 2
        t = 1.3
        p = huber_prox(v, t, g.w, g.delta)
        # stationarity: t * g'(p) + p - v = 0
        res = t * g.grad(p) + p - v
        assert np.max(np.abs(res)) < 1e-12


class TestXUpdates:
    def test_quadratic_solves_stationarity(self):
        spec = get_instance("lasso_8x6")
        rng = np.random.default_rng(1)
        y, lam, s = rng.standard_normal(spec.d2), rng.standard_normal(spec.m), 0.7
        x = x_update(spec, y, lam, s)
        grad = s * spec.f.grad(x) + spec.F.T @ (spec.F @ x + spec.G @ y - spec.h + s * lam)
        assert np.linalg.norm(grad) < 1e-9

    def test_indicator_stays_feasible_and_stationary(self):
        spec = get_instance("basis_pursuit_10x30")
        rng = np.random.default_rng(2)
        y, lam, s = rng.standard_normal(spec.d2), rng.standard_normal(spec.m), 1.0
        x = x_update(spec, y, lam, s)
        assert np.linalg.norm(spec.f.A @ x - spec.f.b) < 1e-9
        # residual of the subproblem gradient must lie in range(A^T)
        target = -spec.F.T @ (spec.F @ x + spec.G @ y - spec.h + s * lam)
        assert spec.f.subgrad_distance(target, x) < 1e-8

    def test_singular_system_rejected_with_hint(self):
        spec = get_instance("rank_deficient_lasso")
        with pytest.raises(IllConditionedError, match="r-proximal"):
            x_update(spec, np.zeros(spec.d2), np.zeros(spec.m), 1.0)

    def test_general_update_handles_singular_system(self):
        spec = get_instance("rank_deficient_lasso")
        x = x_update(spec, np.zeros(spec.d2), np.zeros(spec.m), 1.0,
                     r=2.0 * spec.FtF_norm, x_k=np.zeros(spec.d1))
        assert np.all(np.isfinite(x))

    def test_general_update_requires_r_above_spectrum(self):
        spec = get_instance("scalar_lasso")
        with pytest.raises(ParameterError, match="greater than the maximum eigenvalue"):
            x_update(spec, np.zeros(1), np.zeros(1), 1.0, r=0.5, x_k=np.zeros(1))

    def test_general_reduces_to_standard_at_fixed_point(self):
        # when x_k already solves the standard subproblem, both updates agree
        spec = get_instance("lasso_8x6")
        rng = np.random.default_rng(3)
        y, lam, s = rng.standard_normal(spec.d2), rng.standard_normal(spec.m), 1.0
        x_std = x_update(spec, y, lam, s)
        x_gen = x_update(spec, y, lam, s, r=2.0 * spec.FtF_norm, x_k=x_std)
        np.testing.assert_allclose(x_gen, x_std, atol=1e-10)

    def test_general_indicator_update_checks_constraint(self):
        # the r-proximal indicator solve gets the standard path's A x = b check
        spec = get_instance("basis_pursuit_10x30")
        op = FactorizationCache().get(spec, 1.0, 2.0 * spec.FtF_norm)
        rng = np.random.default_rng(6)
        x_k, y, lam = (rng.standard_normal(n) for n in (spec.d1, spec.d2, spec.m))
        x = op.x_update(y, lam, x_k)
        assert np.linalg.norm(spec.f.A @ x - spec.f.b) <= 1e-10 * (1.0 + np.linalg.norm(spec.f.b))
        wrong = op.system.copy()
        wrong[spec.d1:, :spec.d1] *= 2.0  # a factor whose solution has 2 A x = b
        op._factor = scipy.linalg.lu_factor(wrong)
        with pytest.raises(IllConditionedError, match="left the constraint set"):
            op.x_update(y, lam, x_k)


class TestLapack:
    def test_loader_returns_the_registered_module(self):
        module = sys.modules["scipy.linalg._flapack"]
        assert band._load_linalg("_flapack") is module is prox._flapack

    def test_missing_module_names_its_path(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError, match=r"scipy.linalg._flapack\.missing\.so"):
            band._load_linalg("_flapack")

    def test_indefinite_matrix_refused_by_dpotrf(self):
        with pytest.raises(IllConditionedError, match=r"LAPACK dpotrf .*\(info 2\)"):
            lapack_factor("dpotrf", np.array([[1.0, 0.0], [0.0, -1.0]]), lower=1, clean=0)

    def test_singular_matrix_refused_by_dgetrf(self):
        with pytest.raises(IllConditionedError, match=r"LAPACK dgetrf .*\(info 2\)"):
            lapack_factor("dgetrf", np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_failed_band_solve_names_the_step(self, monkeypatch):
        # a non-zero info from the x-update's dpbtrs raises in the step, naming its row
        solve = prox._flapack.dpbtrs
        monkeypatch.setattr(prox._flapack, "dpbtrs", lambda *a, **k: (solve(*a, **k)[0], 1))
        with pytest.raises(IllConditionedError, match=r"^step k = 1: x-update solve residual "
                                                      r".*\(LAPACK dpbtrs info 1; "):
            run(get_instance("lasso_8x6"), SolverConfig(s=1.0, N=3))

    @pytest.mark.parametrize("name", ["lasso_8x6", "basis_pursuit_10x30"])
    def test_factor_matches_scipy_linalg(self, name):
        spec = get_instance(name)
        step = FactorizationCache().get(spec, 1.0)
        if step.quadratic:  # the lower band of the dense M, at the bandwidth the step read
            M = dense_x_system(spec, 1.0, None)
            lower = np.array([np.concatenate([np.diagonal(M, -k), np.zeros(k)])
                              for k in range(step.kd + 1)])
            np.testing.assert_array_equal(step.system, lower)
            expected = scipy.linalg.cholesky_banded(lower, lower=True), True
        else:
            expected = scipy.linalg.lu_factor(step.system)
        assert len(step._factor) == len(expected)
        for got, want in zip(step._factor, expected):
            np.testing.assert_array_equal(got, want)


def _one_row_F_instance():
    """A least-squares instance whose F is one dense row: its band reaches d - 1
    above the diagonal, wider than dgbmv takes for a 1-row matrix."""
    rng = np.random.default_rng(12)
    return build_generalized_lasso(np.eye(6), rng.standard_normal(6), np.ones((1, 6)), 0.5)


BAND_CASES = {  # instance, r factor of ||F^T F||, kd of the x-system, F through dgbmv
    "tv_d50": (lambda: get_instance("tv_d50"), None, 1, True),
    "trend_d50": (lambda: get_instance("trend_d50"), None, 2, True),
    "lasso_20x50": (lambda: get_instance("lasso_20x50"), None, 49, True),
    "tv_d50_r_proximal": (lambda: get_instance("tv_d50"), 2.0, 0, True),
    "plus_identity": (plus_identity_instance, None, 4, False),
    "one_row_F": (_one_row_F_instance, None, 5, False),
}


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_step_factors_at_the_band_and_picks_the_F_product(case):
    build, factor, kd, banded = BAND_CASES[case]
    spec = build()
    r = None if factor is None else factor * spec.FtF_norm
    step = prox.Step(spec, 0.8, r)
    assert step.kd == kd
    assert step._factor[0].shape == (kd + 1, spec.d1)
    assert step.F.banded is banded
    rng = np.random.default_rng(7)
    for _ in range(5):
        x_k, y, lam = (rng.standard_normal(n) for n in (spec.d1, spec.d2, spec.m))
        assert np.allclose(step.F.dot(x_k), spec.F @ x_k, rtol=1e-14, atol=1e-14)
        assert np.allclose(step.F.tdot(lam), spec.F.T @ lam, rtol=1e-14, atol=1e-14)
        x = step.x_update(y, lam, x_k)
        FtF = spec.F.T @ spec.F
        P_x = FtF @ x if r is None else r * (x - x_k) + FtF @ x_k
        rhs = 2.0 * 0.8 * spec.f.gram_rhs + spec.F.T @ (spec.h - spec.G @ y - 0.8 * lam)
        res = np.linalg.norm(2.0 * 0.8 * (spec.f.A.T @ spec.f.A) @ x + P_x - rhs)
        assert res <= SOLVE_TOL * (1.0 + np.linalg.norm(rhs))


def dense_x_system(spec, s, r):
    """The dense x-system of a least-squares f, 2s A^T A + F^T F, or + r I when r is
    given: what Step assembles in band storage."""
    P = spec.F.T @ spec.F if r is None else r * np.eye(spec.d1)
    return 2.0 * s * (spec.f.A.T @ spec.f.A) + P


def _x_systems():
    """(label, step, M) for every built-in Step, at three s and, for the r-proximal
    step, three r: M is the dense x-system, rebuilt here, or the step's KKT matrix."""
    for name in instance_names():
        spec = get_instance(name)
        for s in (0.1, 1.0, 10.0):
            for r in (None, 1.1 * spec.FtF_norm, 2.0 * spec.FtF_norm, 10.0 * spec.FtF_norm):
                try:
                    step = prox.Step(spec, s, r)
                except IllConditionedError:
                    assert name == "rank_deficient_lasso" and r is None
                    continue
                M = dense_x_system(spec, s, r) if step.quadratic else step.system
                yield f"{name}/s={s}/r={r}", step, M


class TestSymCond:
    def test_matches_svd_condition_number(self):
        # a least-squares step's estimate comes from its band (band_cond), an
        # indicator's from its dense KKT matrix (sym_cond)
        checked = {True: 0, False: 0}
        for label, step, M in _x_systems():
            want = np.linalg.cond(M)
            if want < 1e6:
                assert step.cond == pytest.approx(want, rel=1e-8), label
                checked[step.quadratic] += 1
        # every least-squares step but rank_deficient_lasso's three refused standard ones
        assert checked[True] == 8 * 3 * 4 - 3 and checked[False] >= 3 * 4

    def test_rank_deficient_system_exceeds_the_limit(self):
        spec = get_instance("rank_deficient_lasso")
        M = dense_x_system(spec, 1.0, None)
        assert sym_cond(M) > COND_LIMIT
        assert band.band_cond(band.band_storage(M, spec.d1 - 1, 0)) > COND_LIMIT
        with pytest.raises(IllConditionedError, match="condition estimate .* > 1e\\+12"):
            prox.Step(spec, 1.0)

    @pytest.mark.parametrize("M", [np.zeros((3, 3)), np.diag([1.0, 0.0]),
                                   np.array([[np.inf, 0.0], [0.0, 1.0]]),
                                   np.array([[np.nan, 0.0], [0.0, 1.0]])])
    def test_singular_or_non_finite_is_inf_without_warning(self, M):
        assert sym_cond(M) == np.inf  # filterwarnings = error turns a warning into a failure


class TestYUpdates:
    def test_l1_update_is_shrink(self):
        spec = get_instance("scalar_lasso")
        # u = G_sign*(h - F x - s lam) = -(0 - x - lam) with s=1
        y = y_update(spec, np.array([3.0]), np.array([0.0]), 1.0)
        assert y[0] == pytest.approx(2.0)

    def test_huber_update_stationarity(self):
        spec = get_instance("lasso_8x6").smoothed(1e-3)
        rng = np.random.default_rng(4)
        x, lam, s = rng.standard_normal(spec.d1), rng.standard_normal(spec.m), 0.8
        y = y_update(spec, x, lam, s)
        grad = s * spec.g.grad(y) + spec.G.T @ (spec.F @ x + spec.G @ y - spec.h + s * lam)
        assert np.linalg.norm(grad) < 1e-10


class TestStepSize:
    # the dual step divides by s, so no step is built for s outside (0, inf)
    @pytest.mark.parametrize("name", ["lasso_8x6", "basis_pursuit_10x30"],
                             ids=["cholesky", "kkt"])
    @pytest.mark.parametrize("s", [np.inf, 0.0, np.nan])
    def test_step_refuses_s(self, name, s):
        spec = get_instance(name)
        with pytest.raises(ParameterError, match=rf"^step size s = {s!r} must be positive"):
            prox.Step(spec, s)
        with pytest.raises(ParameterError, match="step size s"):
            FactorizationCache().get(spec, s)


class TestFactorizationCache:
    def test_reuse_and_keying(self):
        spec = get_instance("lasso_8x6")
        cache = FactorizationCache()
        y, lam = np.zeros(spec.d2), np.zeros(spec.m)
        x_update(spec, y, lam, 1.0, cache)
        assert len(cache) == 1
        x_update(spec, y, lam, 1.0, cache)
        assert len(cache) == 1  # same s reuses the factorization
        x_update(spec, y, lam, 0.5, cache)
        assert len(cache) == 2  # new s gets its own entry
        x_update(spec, y, lam, 0.5, cache, r=2.0 * spec.FtF_norm, x_k=np.zeros(spec.d1))
        assert len(cache) == 3  # and so does the r-proximal step

    def test_distinct_problems_do_not_collide(self):
        a = build_generalized_lasso([[1.0]], [1.0], [[1.0]], 1.0)
        b = build_generalized_lasso([[2.0]], [1.0], [[1.0]], 1.0)
        cache = FactorizationCache()
        xa = x_update(a, np.zeros(1), np.zeros(1), 1.0, cache)
        xb = x_update(b, np.zeros(1), np.zeros(1), 1.0, cache)
        assert len(cache) == 2
        assert not np.allclose(xa, xb)
