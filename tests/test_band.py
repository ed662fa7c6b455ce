"""The band module and the banded solve path it carries.

Banded's row products must keep the bits of the dense products on the identity and
first-difference bands every built-in difference operator has, and stay within the
rounding bound of a three-term sum on second differences. The band eigenvalues must
match the dense eigensolvers, and `solve` on a banded instance must run with no dense
decomposition and no d x d temporary.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from admmcert import band, ode, prox
from admmcert.cli import main
from admmcert.functions import Quadratic, ScaledL1
from admmcert.library import (_difference_matrix, difference_operator, get_instance,
                              instance_names)
from admmcert.problems import ProblemSpec
from test_prox import _x_systems
from test_row_passes import DERANDOMIZED

U = 2.0 ** -53  # unit roundoff of float64
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.7976931348623157e308, -1e-310]


def _operators(d):
    """(name, A) for the bands whose rows have one or two +/-1 terms; d >= 3 leaves
    each narrow enough for dgbmv (kl + ku + 1 <= rows)."""
    return [("identity", np.eye(d)), ("first_differences", _difference_matrix(d, 1)),
            ("first_differences_T", _difference_matrix(d, 1).T.copy())]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _rows(draw, shape, elements):
    return draw(arrays(np.float64, shape, elements=elements))


@DERANDOMIZED
@given(d=st.integers(3, 9), n=st.integers(1, 6), data=st.data())
@example(d=3, n=2, data=None)
def test_rows_have_the_dense_bits_on_one_and_two_term_bands(d, n, data):
    finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False,
                                                            allow_infinity=False))
    for name, A in _operators(d):
        op = band.Banded(A)
        assert op.banded, name
        m = A.shape[0]
        if data is None:  # every row of signed zeros: the dense sum starts from +0.0
            x, v = np.full((n, A.shape[1]), -0.0), np.full((n, m), -0.0)
        else:
            x = _rows(data.draw, (n, A.shape[1]), finite)
            v = _rows(data.draw, (n, m), finite)
        with np.errstate(over="ignore"):
            assert np.array_equal(_bits(op.dot(x)), _bits(x @ A.T)), name
            assert np.array_equal(_bits(op.tdot(v)), _bits(v @ A)), name


@DERANDOMIZED
@given(d=st.integers(3, 9), n=st.integers(1, 6), data=st.data())
def test_non_finite_rows_spread_only_along_the_band(d, n, data):
    # the dense product multiplies an inf or NaN by every zero of A, so NaN fills the
    # row; the banded one keeps the dense bits wherever the dense value is not NaN
    cell = st.one_of(st.sampled_from(SPECIAL + [np.inf, -np.inf, np.nan]), st.floats())
    for name, A in _operators(d):
        op = band.Banded(A)
        x = _rows(data.draw, (n, A.shape[1]), cell)
        v = _rows(data.draw, (n, A.shape[0]), cell)
        with np.errstate(invalid="ignore", over="ignore"):
            pairs = [(op.dot(x), x @ A.T), (op.tdot(v), v @ A)]
        for got, want in pairs:
            keep = ~np.isnan(want)
            assert np.array_equal(_bits(got)[keep], _bits(want)[keep]), name
            assert not np.any(np.isnan(got) & keep), name


@DERANDOMIZED
@given(d=st.integers(3, 12), n=st.integers(1, 6), data=st.data())
def test_second_difference_rows_within_the_three_term_rounding_bound(d, n, data):
    # a row (1, -2, 1) sums three exact products with two roundings, in another order
    # than the dense product may: each sum is within gamma_2 = 2u/(1 - 2u) of the exact
    # one, relative to the sum of the terms' magnitudes (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2002, section 3.1), so the two differ by at
    # most 2 gamma_2 times |A| |x|
    A = _difference_matrix(d, 2)
    op = band.Banded(A)
    gamma2 = 2 * U / (1 - 2 * U)
    x = _rows(data.draw, (n, d), st.floats(-1e100, 1e100))
    v = _rows(data.draw, (n, A.shape[0]), st.floats(-1e100, 1e100))
    for got, want, scale in ((op.dot(x), x @ A.T, np.abs(x) @ np.abs(A).T),
                             (op.tdot(v), v @ A, np.abs(v) @ np.abs(A))):
        assert np.all(np.abs(got - want) <= 2 * gamma2 * scale)


@pytest.mark.parametrize("d", [1, 2, 7, 40])
def test_vector_and_row_products_agree_with_dense_on_symmetric_bands(d):
    # Banded.symmetric, from lower band storage: banded for a narrow band, dense else
    rng = np.random.default_rng(d)
    for kd in sorted({0, 1, min(2, d - 1), d - 1}):
        lower = rng.standard_normal((kd + 1, d))
        M = np.zeros((d, d))
        for o in range(kd + 1):
            M += np.diag(lower[o, :d - o], -o) + (np.diag(lower[o, :d - o], o) if o else 0)
        op = band.Banded.symmetric(lower)
        assert op.banded == (2 * kd + 1 <= d)
        x = rng.standard_normal((3, d))
        np.testing.assert_allclose(op.dot(x), x @ M, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(op.dot(x[0]), M @ x[0], rtol=1e-13, atol=1e-13)


def _dense_cases():
    """(name, A) for the dense-form tests: banded, each narrow enough for dgbmv."""
    rng = np.random.default_rng(11)
    random = rng.standard_normal((9, 7))
    i, j = np.indices(random.shape)
    random[(i - j > 2) | (j - i > 1)] = 0.0
    signed = _difference_matrix(6, 1)
    signed[2, 2] = signed[4, 5] = -0.0  # -0.0 on the band, at either end of a row
    return _operators(8) + [("second_differences", _difference_matrix(8, 2)),
                            ("random_banded", random), ("band_with_minus_zero", signed)]


@pytest.mark.parametrize("name,A", _dense_cases(), ids=[n for n, _ in _dense_cases()])
def test_dense_form_has_the_band_bits(name, A):
    # every entry on the band keeps its bits, -0.0 included; off the band dense()
    # writes 0.0, also where A held -0.0 (as -np.diff leaves in a difference matrix)
    op = band.Banded(A)
    assert op.banded
    M = op.dense()
    assert M.shape == A.shape and not M.flags.writeable
    i, j = np.indices(A.shape)
    on = (i - j <= op.kl) & (j - i <= op.ku)
    assert np.array_equal(_bits(M)[on], _bits(A)[on])
    assert np.array_equal(M, A)
    assert np.array_equal(_bits(M)[~on], _bits(np.zeros_like(A))[~on])


def test_dense_form_of_a_wide_matrix_is_the_stored_array():
    A = np.random.default_rng(12).standard_normal((4, 6))
    op = band.Banded(A)
    assert not op.banded
    assert op.dense() is A and not A.flags.writeable


@pytest.mark.parametrize("name,A", _dense_cases(), ids=[n for n, _ in _dense_cases()])
def test_band_storage_loads_to_the_banded_of_the_dense_matrix(name, A):
    # from_band on the band widened by a zero diagonal on each side, with 7.0 in every
    # cell off the matrix, drops both and gives the Banded the dense scan gives
    want = band.Banded(A)
    (m, n), kl, ku = A.shape, want.kl + 1, want.ku + 1
    ab = band.band_storage(A, kl, ku)
    for o in range(-ku, kl + 1):  # band row ku + o holds A[j + o, j]
        j = np.arange(n)
        ab[ku + o, (j + o < 0) | (j + o >= m)] = 7.0
    got = band.Banded.from_band(A.shape, kl, ku, ab)
    assert (got.shape, got.kl, got.ku, got.banded) == (want.shape, want.kl, want.ku, True)
    assert np.array_equal(_bits(got.band), _bits(want.band))


def test_band_too_wide_for_dgbmv_loads_dense():
    A = np.random.default_rng(13).standard_normal((5, 5))
    op = band.Banded.from_band(A.shape, 4, 4, band.band_storage(A, 4, 4))
    assert not op.banded and (op.kl, op.ku) == (4, 4)
    assert np.array_equal(_bits(op.dense()), _bits(A)) and not op.dense().flags.writeable


@pytest.mark.parametrize("d,order", [(3, 1), (9, 1), (5, 2), (9, 2)])
def test_difference_operator_is_the_banded_of_the_difference_matrix(d, order):
    # each d leaves the band narrow enough for dgbmv: order + 1 <= d - order rows
    got, want = difference_operator(d, order), band.Banded(_difference_matrix(d, order))
    assert (got.shape, got.kl, got.ku) == (want.shape, want.kl, want.ku)
    assert np.array_equal(_bits(got.band), _bits(want.band))


def _old_symmetric_matrix(lower):
    """The dense symmetric matrix of a lower band, as band built it before
    Banded.dense took its place: the reference for its bits."""
    kd, d = lower.shape[0] - 1, lower.shape[1]
    M = np.zeros((d, d))
    for o in range(kd + 1):
        i = np.arange(d - o)
        M[i + o, i] = M[i, i + o] = lower[o, :d - o]
    return M


def test_symmetric_dense_form_keeps_the_old_bits_on_every_built_in_band():
    lowers = [(label, step.system) for label, step, _ in _x_systems() if step.quadratic]
    for name in instance_names():
        spec = get_instance(name)
        lowers.append((f"{name}/FtF", spec.FtF_band))
        if isinstance(spec.f, Quadratic):
            lowers.append((f"{name}/gram", spec.f.gram_band))
    for label, lower in lowers:
        got = band.Banded.symmetric(lower).dense()
        assert np.array_equal(_bits(got), _bits(_old_symmetric_matrix(lower))), label


@pytest.mark.parametrize("name", instance_names())
def test_dense_gram_at_every_site_has_the_bits_of_the_dense_product(name):
    # the indicator's KKT block (prox.Step), the implicit step's x-block
    # (ode._newton_system) and the active-set system (oracle.sign_pattern_oracle) take
    # their Gram matrix from the band; on every built-in it has A.T @ A's bits
    spec = get_instance(name)
    F = spec.F
    FtF = band.Banded.symmetric(spec.FtF_band).dense()
    assert np.array_equal(_bits(FtF), _bits(F.T @ F))
    if isinstance(spec.f, Quadratic):
        A = spec.f.A
        gram = band.Banded.symmetric(spec.f.gram_band).dense()
        assert np.array_equal(_bits(gram), _bits(A.T @ A))
        block = ode._newton_system(spec, 1.0, 0.5)[0][:spec.d1, :spec.d1]
        assert np.array_equal(_bits(block), _bits(-2.0 * 0.5 * (A.T @ A)))
    else:
        block = prox.Step(spec, 1.0).system[:spec.d1, :spec.d1]
        assert np.array_equal(_bits(block), _bits(F.T @ F))


def _nonzero_bandwidths(A):
    """The definition bandwidths replaced: np.nonzero's index arrays."""
    i, j = np.nonzero(A)
    return int(np.max(i - j, initial=0)), int(np.max(j - i, initial=0))


@DERANDOMIZED
@given(arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(0, 9)),
              elements=st.sampled_from([0.0, -0.0, 1.0, np.nan, -2.5])))
def test_bandwidths_match_the_nonzero_definition(A):
    assert band.bandwidths(A) == _nonzero_bandwidths(A)


def test_bandwidths_scan_across_row_blocks():
    d = band.ROW_BLOCK_CELLS // 100 + 300  # rows in more than one block of 100 columns
    A = np.zeros((d, 100))
    A[-1, 0], A[5, 99] = 1.0, -1.0
    assert band.bandwidths(A) == _nonzero_bandwidths(A) == (d - 1, 94)


@pytest.mark.parametrize("name", instance_names())
def test_gram_bands_have_the_bits_of_the_dense_products(name):
    # F^T F and A^T A are integers on every banded built-in, so any summation order
    # gives the dense bits; a dense A or F takes the dense product itself
    spec = get_instance(name)
    pairs = [(spec.FtF_band, spec.F)]
    if isinstance(spec.f, Quadratic):
        pairs.append((spec.f.gram_band, spec.f.A))
    for lower, A in pairs:
        G = A.T @ A
        want = band.trimmed(band.band_storage(G, G.shape[0] - 1, 0))
        assert np.array_equal(_bits(lower), _bits(want))


@pytest.mark.parametrize("name", instance_names())
def test_FtF_norm_within_8_ulps_of_the_largest_singular_value_squared(name):
    spec = get_instance(name)
    want = np.linalg.svd(spec.F, compute_uv=False)[0] ** 2
    assert abs(spec.FtF_norm - want) <= 8 * np.spacing(want)


def test_band_extremes_match_eigvalsh_on_every_built_in_x_system():
    narrow = 0
    for label, step, M in _x_systems():
        if step.quadratic:  # standard and r-proximal, at every s and r
            ev = np.linalg.eigvalsh(M)
            lo, hi = band.band_extremes(step.system)
            assert lo == pytest.approx(ev[0], rel=1e-12), label
            assert hi == pytest.approx(ev[-1], rel=1e-12), label
            narrow += 2 * step.kd + 1 <= M.shape[0]
    assert narrow >= 3 * 3 * 4  # scalar_lasso, tv_d50, trend_d50 go through dsbevx


@DERANDOMIZED
@given(m=st.integers(1, 8), n=st.integers(1, 8), kl=st.integers(0, 7), ku=st.integers(0, 7),
       data=st.data())
def test_band_kernels_match_dense_on_any_band(m, n, kl, ku, data):
    # tall, wide, zero rows and integer entries: Gram band, products and extremes
    A = data.draw(arrays(np.float64, (m, n), elements=st.one_of(
        st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))))
    i, j = np.indices((m, n))
    A[(i - j > kl) | (j - i > ku)] = 0.0
    op = band.Banded(A)
    G = A.T @ A
    lower = band.gram_band(op)
    np.testing.assert_allclose(band.Banded.symmetric(lower).dense(), G, rtol=1e-13, atol=1e-12)
    x = data.draw(arrays(np.float64, (3, n), elements=st.floats(-10.0, 10.0)))
    v = data.draw(arrays(np.float64, (3, m), elements=st.floats(-10.0, 10.0)))
    for got, want in ((op.dot(x), x @ A.T), (op.tdot(v), v @ A), (op.dot(x[0]), A @ x[0]),
                      (op.tdot(v[0]), A.T @ v[0])):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)
    ev = np.linalg.eigvalsh(G)
    scale = 1e-12 * max(1.0, abs(ev[-1]))
    lo, hi = band.band_extremes(lower)
    assert abs(lo - ev[0]) <= scale and abs(hi - ev[-1]) <= scale


def test_band_extremes_of_a_band_that_splits_into_blocks():
    # dsbevx's range "I" misses lambda_max of this split tridiagonal (info 2); the
    # extremes then come from all eigenvalues
    lower = np.array([[1.0, 2.0, 4.0], [1.0, 0.0, 0.0]])
    lo, hi = band.band_extremes(lower)
    assert lo == pytest.approx((3 - 5 ** 0.5) / 2, rel=1e-15) and hi == 4.0


def test_band_extremes_refuse_a_non_finite_band():
    assert band.band_extremes(np.array([[1.0, np.inf, 2.0]])) == (-np.inf, np.inf)
    assert band.band_cond(np.array([[1.0, np.nan, 2.0], [0.5, 0.5, 0.0]])) == np.inf


def test_strong_convexity_modulus_is_the_gram_bands_smallest_eigenvalue():
    for name in ("tv_d50", "lasso_8x6", "trend_d50"):
        f = get_instance(name).f
        want = 2.0 * np.linalg.eigvalsh(f.A.T @ f.A)[0]
        assert f.strong_convexity_modulus() == pytest.approx(want, rel=1e-12)


def test_solve_on_a_banded_instance_runs_no_dense_decomposition(tmp_path, monkeypatch,
                                                                 capsys):
    spec_path = str(tmp_path / "tv.txt")
    assert main(["generate", "tv", "--dims", "300", "--seed", "3", "--out", spec_path]) == 0

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called on solve's banded path")
        return call

    for name in ("svd", "eigvalsh", "eigh", "cond"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    assert main(["solve", "--spec", spec_path, "--N", "50", "--out",
                 str(tmp_path / "out")]) == 0
    assert "called on solve's banded path" not in capsys.readouterr().err


def _tv_inputs(d):
    """The dense inputs of a tv instance, built before any tracing: A = I, b, F, -I, h."""
    rng = np.random.default_rng(5)
    return (np.eye(d), rng.standard_normal(d), _difference_matrix(d, 1), -np.eye(d - 1),
            np.zeros(d - 1))


def test_spec_and_step_build_no_d_by_d_temporary():
    d = 1200
    A, b, F, G, h = _tv_inputs(d)
    tracemalloc.start()
    try:
        spec = ProblemSpec(Quadratic(A, b), ScaledL1(0.5), F, G, h)
        prox.Step(spec, 1.0)
        prox.Step(spec, 1.0, 1.5 * spec.FtF_norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(d kd) with kd = 1, and the row blocks of the bandwidth scan: a d x d float64
    # array alone would take d * d * 8 = 11.5 MB
    assert peak < 64 * d * 8 + 8 * band.ROW_BLOCK_CELLS


def test_spec_keeps_no_d_by_d_array_once_its_inputs_are_dropped():
    # the dense inputs are traced too, so a spec holding any of them would keep
    # d * d * 8 = 11.5 MB; F and A are kept only as their bands. A small spec built
    # first leaves the modules numpy imports on first use out of the count
    d = 1200
    A, b, F, G, h = _tv_inputs(8)
    ProblemSpec(Quadratic(A, b), ScaledL1(0.5), F, G, h)
    tracemalloc.start()
    try:
        inputs = _tv_inputs(d)
        A, b, F, G, h = inputs
        spec = ProblemSpec(Quadratic(A, b), ScaledL1(0.5), F, G, h)
        del inputs, A, b, F, G, h
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spec.F_op.banded and spec.f.A_op.banded
    assert kept < 64 * d * 8


def test_smoothed_spec_shares_the_operators_and_builds_no_dense_form():
    # a spec rebuilt from the dense spec.F and spec.G would take d * d * 8 = 11.5 MB
    d = 1200
    A, b, F, G, h = _tv_inputs(d)
    spec = ProblemSpec(Quadratic(A, b), ScaledL1(0.5), F, G, h)
    tracemalloc.start()
    try:
        smooth = spec.smoothed(1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * d * 8
    assert smooth.g.w == 0.5 and smooth.g.delta == 1e-3 and spec.g.w == 0.5
    assert smooth.F_op is spec.F_op and smooth.FtF_band is spec.FtF_band and smooth.f is spec.f
