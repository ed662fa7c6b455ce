import re

import numpy as np
import pytest

from admmcert import band
from admmcert.cli import main
from admmcert.errors import ProblemConstructionError
from admmcert.functions import AffineIndicator, HuberSmoothedL1, Quadratic, ScaledL1
from admmcert.library import get_instance, instance_names
from admmcert.problems import (
    ProblemSpec,
    build_basis_pursuit,
    build_generalized_lasso,
    kkt_residuals,
    load_instance,
    save_instance,
)


def same_bits(actual, expected):
    """Equal arrays, bit for bit: 0.0 and -0.0 differ."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def float_blocks(path):
    """Every numeric block of an instance file, parsed cell by cell with float(); a band
    block's rows (its header m,n,kl,ku first) are kept as a list."""
    blocks, name = {}, None
    for line in path.read_text().split("\n"):
        if line.startswith("["):
            name = line[1:-1]
            blocks[name] = []
        elif line and name not in ("f.variant", "g.variant"):
            blocks[name].append([float(v) for v in line.split(",")])
    return {k: v if k.endswith(".band") else np.array(v) for k, v in blocks.items() if v}


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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_g_plus_minus_identity_is_feasible_without_lstsq(self, monkeypatch, sign):
        # y = G (h - F x) solves F x + G y = h for every x when G = +/-I: building
        # the problem runs no least-squares feasibility solve
        def no_lstsq(*args, **kwargs):
            raise AssertionError("lstsq ran for G = +/-I")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        rng = np.random.default_rng(11)
        F, h = 1e3 * rng.standard_normal((6, 4)), rng.standard_normal(6)
        spec = ProblemSpec(Quadratic(rng.standard_normal((5, 4)), np.ones(5)), ScaledL1(1.0),
                           F, sign * np.eye(6), h)
        assert spec.G_sign == sign
        x = rng.standard_normal(4)
        y = spec.G @ (h - F @ x)
        scale = np.abs(F @ x).max() + np.abs(h).max()
        assert np.abs(spec.constraint_residual(x, y)).max() <= 4 * np.finfo(float).eps * scale

    def test_g_sign_detection(self):
        spec = scalar_spec()
        assert spec.G_sign == -1.0
        spec2 = ProblemSpec(Quadratic([[1.0]], [1.0]), ScaledL1(1.0),
                            [[1.0]], [[1.0]], [0.0])
        assert spec2.G_sign == 1.0

    @pytest.mark.parametrize("G", [2.0 * np.eye(2), np.eye(2)[::-1], np.eye(2, 3),
                                   np.zeros((2, 2))],
                             ids=["2I", "permuted_I", "non_square", "zero"])
    def test_g_other_than_plus_minus_identity_refused(self, tmp_path, capsys, G):
        # the step reads G y as G_sign * y, so any other G is refused when the problem
        # is built, and a file holding one exits 2 before the oracle runs
        A, b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0, 3.0])
        F, h = np.eye(2), np.zeros(2)
        shape = f"G ({G.shape[0]}x{G.shape[1]}) is not +I or -I"
        with pytest.raises(ProblemConstructionError, match=re.escape(shape)):
            ProblemSpec(Quadratic(A, b), ScaledL1(0.5), F, G, h)

        def block(M):
            return "\n".join(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(M))

        path = tmp_path / "inst.txt"
        path.write_text("\n".join([
            "[f.variant]", "quadratic", "[g.variant]", "scaled_l1,0.5",
            "[A]", block(A), "[b]", block(b.reshape(-1, 1)), "[F]", block(F),
            "[G]", block(G), "[h]", block(h.reshape(-1, 1))]) + "\n")
        out = tmp_path / "out"
        assert main(["solve", "--spec", str(path), "--out", str(out)]) == 2
        assert shape in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", instance_names())
    def test_rebuilt_from_its_own_parts(self, name):
        # perfbench/traced.py times ProblemSpec(spec.f, spec.g, spec.F, spec.G, spec.h)
        spec = get_instance(name)
        again = ProblemSpec(spec.f, spec.g, spec.F, spec.G, spec.h)
        assert again.G_sign == spec.G_sign
        same_bits(again.FtF_band, spec.FtF_band)
        assert again.FtF_norm == spec.FtF_norm
        # G is kept as its sign and built when read, as a read-only array
        same_bits(spec.G, spec.G_sign * np.eye(spec.m))
        with pytest.raises(ValueError):
            spec.G[0, 0] = 0.0
        with pytest.raises(AttributeError):
            spec.G = np.eye(spec.m)
        assert "G" not in vars(spec)
        assert not hasattr(spec, "tag")

    def test_arrays_frozen(self):
        spec = scalar_spec()
        with pytest.raises(ValueError):
            spec.F[0, 0] = 2.0

    def test_smoothed_swaps_regularizer(self):
        sm = scalar_spec().smoothed(1e-3)
        assert isinstance(sm.g, HuberSmoothedL1)
        assert sm.g.delta == 1e-3

    def test_smoothed_keeps_an_already_smoothed_spec(self):
        sm = scalar_spec().smoothed(1e-3)
        assert sm.smoothed(0.5) is sm and sm.g.delta == 1e-3


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

    @pytest.mark.parametrize("kind, dims", [("tv", "30"), ("lasso", "12,9"),
                                            ("basis_pursuit", "5,11")])
    def test_blocks_parse_to_the_bits_of_float(self, tmp_path, kind, dims):
        path = tmp_path / "inst.txt"
        assert main(["generate", kind, "--dims", dims, "--seed", "4", "--out", str(path)]) == 0
        spec = load_instance(path)
        expected = float_blocks(path)
        for name, got in (("A", spec.f.A), ("b", spec.f.b), ("F", spec.F), ("G", spec.G),
                          ("h", spec.h)):
            if f"{name}.band" in expected:  # each cell the band stores, at its (i, j)
                (m, n, kl, ku), *rows = expected[f"{name}.band"]
                assert got.shape == (m, n)
                i, j = np.indices(got.shape)
                on = (i - j <= kl) & (j - i <= ku)
                want = band._band_matrix(np.array(rows), got.shape, int(kl), int(ku))
                got, want = got[on], want[on]
            else:
                want = expected[name].reshape(got.shape)
            same_bits(got, want)

    def test_stress_values_parse_to_the_bits_of_float(self, tmp_path):
        # 20 000 cells of A, from subnormal to 1e150 (A^T A stays finite), in the
        # generator's repr and in other notations float() reads
        rng = np.random.default_rng(7)
        v = rng.standard_normal(20_000) * 10.0 ** rng.integers(-330, 150, 20_000)
        v[:8] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, 0.1, 1 / 3]
        forms = ["{!r}", "{:.17e}", "{:.6g}", "{:+.3E}", "{:.0f}", " {!r} "]
        cells = [forms[i % len(forms)].format(x) for i, x in enumerate(v.tolist())]
        rows = [",".join(cells[i:i + 100]) for i in range(0, len(cells), 100)]
        # a dense A, which the file keeps as a dense block
        spec = ProblemSpec(Quadratic(np.ones((200, 100)), np.zeros(200)), ScaledL1(1.0),
                           np.eye(100), -np.eye(100), np.zeros(100))
        path = tmp_path / "inst.txt"
        save_instance(spec, path)
        text = path.read_text().split("\n")
        i = text.index("[A]")
        path.write_text("\n".join(text[:i + 1] + rows + text[i + 201:]))
        A = load_instance(path).f.A
        same_bits(A, np.array([[float(c) for c in row.split(",")] for row in rows]))

    def test_save_load_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 3))
        A[0] = [-0.0, 5e-324, -1e150]  # A^T A stays finite
        b = np.array([-0.0, 0.1, 1e-310, 3e300])
        h = np.array([-0.0, 2.0**-1074, 1 / 3])
        F = rng.standard_normal((3, 3))
        spec = ProblemSpec(Quadratic(A, b), ScaledL1(0.3), F, -np.eye(3), h)
        path = tmp_path / "inst.txt"
        save_instance(spec, path)
        loaded = load_instance(path)
        for got, want in ((loaded.f.A, A), (loaded.f.b, b), (loaded.F, F),
                          (loaded.G, spec.G), (loaded.h, h)):
            same_bits(got, want)
        assert loaded.g.w == 0.3

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("[A]\n1.0\n")
        with pytest.raises(ProblemConstructionError, match="missing sections"):
            load_instance(path)
