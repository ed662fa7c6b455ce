import importlib.machinery
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from admmcert.errors import IllConditionedError, InnerSolveError, ParameterError
from admmcert import prox
from admmcert.library import get_instance, instance_names
from admmcert.problems import build_basis_pursuit, build_generalized_lasso
from admmcert.prox import (
    COND_LIMIT,
    FactorizationCache,
    INNER_MAX,
    huber_prox,
    lapack_factor,
    settle_pattern,
    soft_threshold,
    sym_cond,
    x_update,
    y_update,
)

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
        wrong = op.matrix.copy()
        wrong[spec.d1:, :spec.d1] *= 2.0  # a factor whose solution has 2 A x = b
        op._factor = scipy.linalg.lu_factor(wrong)
        with pytest.raises(IllConditionedError, match="left the constraint set"):
            op.x_update(y, lam, x_k)


class TestLapack:
    def test_loader_returns_the_registered_module(self):
        assert prox._load_flapack() is sys.modules["scipy.linalg._flapack"] is prox._flapack

    def test_missing_module_names_its_path(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError, match=r"scipy.linalg._flapack\.missing\.so"):
            prox._load_flapack()

    def test_indefinite_matrix_refused_by_dpotrf(self):
        with pytest.raises(IllConditionedError, match=r"LAPACK dpotrf .*\(info 2\)"):
            lapack_factor("dpotrf", np.array([[1.0, 0.0], [0.0, -1.0]]), lower=1, clean=0)

    def test_singular_matrix_refused_by_dgetrf(self):
        with pytest.raises(IllConditionedError, match=r"LAPACK dgetrf .*\(info 2\)"):
            lapack_factor("dgetrf", np.array([[1.0, 2.0], [2.0, 4.0]]))

    @pytest.mark.parametrize("name", ["lasso_8x6", "basis_pursuit_10x30"])
    def test_factor_matches_scipy_linalg(self, name):
        step = FactorizationCache().get(get_instance(name), 1.0)
        if step.quadratic:
            expected = scipy.linalg.cho_factor(step.matrix, lower=True)
        else:
            expected = scipy.linalg.lu_factor(step.matrix)
        assert len(step._factor) == len(expected)
        for got, want in zip(step._factor, expected):
            np.testing.assert_array_equal(got, want)


def _x_systems():
    """(label, M) for every built-in x-system or KKT matrix a Step builds, at three s
    and, for the r-proximal step, three r; and every F^T F."""
    for name in instance_names():
        spec = get_instance(name)
        yield f"{name}/FtF", spec.FtF
        for s in (0.1, 1.0, 10.0):
            for r in (None, 1.1 * spec.FtF_norm, 2.0 * spec.FtF_norm, 10.0 * spec.FtF_norm):
                try:
                    yield f"{name}/s={s}/r={r}", prox.Step(spec, s, r).matrix
                except IllConditionedError:
                    assert name == "rank_deficient_lasso" and r is None


class TestSymCond:
    def test_matches_svd_condition_number(self):
        checked = 0
        for label, M in _x_systems():
            want = np.linalg.cond(M)
            if want < 1e6:
                assert sym_cond(M) == pytest.approx(want, rel=1e-8), label
                checked += 1
        assert checked >= 9 * 3

    def test_rank_deficient_system_exceeds_the_limit(self):
        spec = get_instance("rank_deficient_lasso")
        assert sym_cond(2.0 * spec.f.gram + spec.FtF) > COND_LIMIT
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
