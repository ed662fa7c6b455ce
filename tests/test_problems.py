import numpy as np
import pytest

from admmcert.errors import ProblemConstructionError
from admmcert.functions import AffineIndicator, HuberSmoothedL1, Quadratic, ScaledL1
from admmcert.problems import (
    ProblemSpec,
    build_basis_pursuit,
    build_generalized_lasso,
    kkt_residuals,
    load_instance,
    save_instance,
)


def scalar_spec():
    return build_generalized_lasso([[1.0]], [1.0], [[1.0]], 1.0)


class TestQuadratic:
    def test_value_has_no_half_factor(self):
        f = Quadratic([[1.0], [2.0]], [1.0, 0.0])
        # ||(x, 2x) - (1, 0)||^2 at x = 3 is 4 + 36
        assert f.value(np.array([3.0])) == pytest.approx(40.0)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        A, b = rng.standard_normal((5, 3)), rng.standard_normal(5)
        f = Quadratic(A, b)
        x = rng.standard_normal(3)
        eps = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            fd = (f.value(x + e) - f.value(x - e)) / (2 * eps)
            assert f.grad(x)[i] == pytest.approx(fd, rel=1e-5)

    def test_strong_convexity_modulus(self):
        f = Quadratic(np.diag([1.0, 3.0]), np.zeros(2))
        assert f.strong_convexity_modulus() == pytest.approx(2.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ProblemConstructionError, match="empty data matrix"):
            Quadratic(np.zeros((0, 3)), np.zeros(0))


class TestScaledL1:
    def test_subgrad_distance_interval_at_zero(self):
        g = ScaledL1(1.0)
        assert g.subgrad_distance(np.array([0.5]), np.array([0.0])) == 0.0
        assert g.subgrad_distance(np.array([1.5]), np.array([0.0])) == pytest.approx(0.5)

    def test_subgrad_distance_point_off_zero(self):
        g = ScaledL1(2.0)
        assert g.subgrad_distance(np.array([2.0]), np.array([3.0])) == 0.0
        assert g.subgrad_distance(np.array([-2.0]), np.array([3.0])) == pytest.approx(4.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ProblemConstructionError):
            ScaledL1(0.0)


class TestAffineIndicator:
    def test_rank_deficient_rejected(self):
        with pytest.raises(ProblemConstructionError, match="ill-posed"):
            AffineIndicator([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])

    def test_value_and_membership(self):
        f = AffineIndicator([[1.0, 1.0]], [2.0])
        assert f.value(np.array([1.0, 1.0])) == 0.0
        assert f.value(np.array([1.0, 3.0])) == np.inf

    def test_subgrad_distance_is_range_projection(self):
        f = AffineIndicator([[1.0, 0.0]], [1.0])
        # at a feasible point, subdifferential is span{(1,0)}
        d = f.subgrad_distance(np.array([5.0, 2.0]), np.array([1.0, 7.0]))
        assert d == pytest.approx(2.0)


class TestHuberSmoothedL1:
    def test_below_l1_and_within_half_width(self):
        g = HuberSmoothedL1(2.0, 0.1)
        l1 = ScaledL1(2.0)
        v = np.linspace(-1, 1, 41)
        hv = np.array([g.value(np.array([t])) for t in v])
        lv = np.array([l1.value(np.array([t])) for t in v])
        assert np.all(hv <= lv + 1e-15)
        assert np.all(lv - hv <= 2.0 * 0.1 / 2 + 1e-15)

    def test_grad_clips(self):
        g = HuberSmoothedL1(1.0, 0.5)
        assert g.grad(np.array([0.25]))[0] == pytest.approx(0.5)
        assert g.grad(np.array([10.0]))[0] == pytest.approx(1.0)


class TestProblemSpec:
    def test_dimension_mismatch(self):
        with pytest.raises(ProblemConstructionError):
            ProblemSpec(Quadratic([[1.0]], [1.0]), ScaledL1(1.0),
                        [[1.0]], [[1.0], [1.0]], [0.0])

    def test_infeasible_constraint_rejected(self):
        # F = G = 0 rows cannot reach h != 0
        with pytest.raises(ProblemConstructionError, match="infeasible"):
            ProblemSpec(Quadratic([[1.0]], [1.0]), ScaledL1(1.0),
                        [[0.0]], [[0.0]], [1.0])

    def test_g_sign_detection(self):
        spec = scalar_spec()
        assert spec.G_sign == -1.0
        spec2 = ProblemSpec(Quadratic([[1.0]], [1.0]), ScaledL1(1.0),
                            [[1.0]], [[1.0]], [0.0])
        assert spec2.G_sign == 1.0
        spec3 = ProblemSpec(Quadratic([[1.0]], [1.0]), ScaledL1(1.0),
                            [[1.0]], [[2.0]], [0.0])
        assert spec3.G_sign is None

    def test_arrays_frozen(self):
        spec = scalar_spec()
        with pytest.raises(ValueError):
            spec.F[0, 0] = 2.0

    def test_smoothed_swaps_regularizer(self):
        sm = scalar_spec().smoothed(1e-3)
        assert isinstance(sm.g, HuberSmoothedL1)
        assert sm.g.delta == 1e-3


class TestKKTResiduals:
    def test_saddle_is_a_root(self):
        spec = scalar_spec()
        res = kkt_residuals(spec, np.array([0.5]), np.array([0.5]), np.array([1.0]))
        assert max(res) <= 1e-12

    def test_origin_with_unit_multiplier(self):
        # at (0, 0, 1): primal 0, dual_y 0, but x-stationarity needs lambda = 2
        spec = scalar_spec()
        primal, dual_x, dual_y = kkt_residuals(spec, np.zeros(1), np.zeros(1), np.ones(1))
        assert primal == 0.0
        assert dual_y == 0.0
        assert dual_x == pytest.approx(1.0)


class TestInstanceFile:
    def test_roundtrip(self, tmp_path):
        spec = build_generalized_lasso(
            np.random.default_rng(3).standard_normal((4, 3)),
            np.random.default_rng(4).standard_normal(4),
            np.diff(np.eye(3), axis=0), 0.25)
        path = tmp_path / "inst.txt"
        save_instance(spec, path)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.F, spec.F)
        np.testing.assert_array_equal(loaded.G, spec.G)
        np.testing.assert_array_equal(loaded.f.A, spec.f.A)
        assert loaded.g.w == spec.g.w

    def test_huber_variant_roundtrip(self, tmp_path):
        spec = scalar_spec().smoothed(1e-3)
        path = tmp_path / "inst.txt"
        save_instance(spec, path)
        loaded = load_instance(path)
        assert isinstance(loaded.g, HuberSmoothedL1)
        assert loaded.g.delta == 1e-3

    def test_indicator_roundtrip(self, tmp_path):
        spec = build_basis_pursuit(np.array([[1.0, 2.0, 0.5]]), np.array([1.0]))
        path = tmp_path / "bp.txt"
        save_instance(spec, path)
        loaded = load_instance(path)
        assert isinstance(loaded.f, AffineIndicator)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("[A]\n1.0\n")
        with pytest.raises(ProblemConstructionError, match="missing sections"):
            load_instance(path)
