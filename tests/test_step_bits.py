"""The step operator gives the same bits as the plain textbook loop.

The reference loop below writes each step out with dense G and F products,
scipy's checked solves (a banded Cholesky of the x-system at its own
bandwidth), the public prox functions and ProblemSpec.constraint_residual.
`run` (and the implicit-Euler step at delta = s) must reproduce its iterates
exactly, on the Cholesky and the LU paths, standard and r-proximal, for
G = -I and G = +I, from non-zero starts. The energy columns and residuals, which
read G y as G_sign * y, must equal their dense @ G.T forms.
"""

import numpy as np
import pytest
import scipy.linalg

from admmcert import diagnostics as diag
from admmcert.functions import Quadratic, ScaledL1
from admmcert.library import get_instance, get_saddle
from admmcert.ode import ImplicitStep
from admmcert.problems import ProblemSpec, SaddlePoint, kkt_residuals
from admmcert.prox import huber_prox, soft_threshold
from admmcert.solver import GENERAL, STANDARD, SolverConfig, default_r, run

STEPS = 50


def lower_band(M):
    """M in lower symmetric band storage, at the bandwidth its nonzeros reach."""
    i, j = np.nonzero(M)
    kd = int(np.max(np.abs(i - j), initial=0))
    ab = np.zeros((kd + 1, M.shape[0]))
    for k in range(kd + 1):
        ab[k, :M.shape[0] - k] = np.diagonal(M, -k)
    return ab


def reference_rows(spec, s, r, x, y, lam, n=STEPS):
    """(xs, ys, lams) of n steps from (x, y, lam), one expression per update. The
    cases' F rows have one or two terms (or F is dense), where the dense products
    have the bits of the step's banded ones."""
    f = spec.f
    P = spec.F.T @ spec.F if r is None else r * np.eye(spec.d1)
    quadratic = isinstance(f, Quadratic)
    if quadratic:
        factor = (scipy.linalg.cholesky_banded(lower_band(2.0 * s * (f.A.T @ f.A) + P), lower=True),
                  True)
    else:
        m1 = f.A.shape[0]
        factor = scipy.linalg.lu_factor(np.block([[P, f.A.T], [f.A, np.zeros((m1, m1))]]))
    rows = []
    for _ in range(n):
        v = spec.h - spec.G @ y - s * lam
        if r is None:
            drive = spec.F.T @ v
        else:  # F^T v + r x - F^T F x, with F^T F x through F
            drive = spec.F.T @ (v - spec.F @ x) + r * x
        if quadratic:
            x = scipy.linalg.cho_solve_banded(factor, 2.0 * s * f.gram_rhs + drive)
        else:
            x = scipy.linalg.lu_solve(factor, np.concatenate([drive, f.b]))[: spec.d1]
        u = spec.G_sign * (spec.h - spec.F @ x - s * lam)
        if isinstance(spec.g, ScaledL1):
            y = soft_threshold(u, s * spec.g.w)
        else:
            y = huber_prox(u, s, spec.g.w, spec.g.delta)
        lam = lam + spec.constraint_residual(x, y) / s
        rows.append((x, y, lam))
    return [np.array(col) for col in zip(*rows)]


def plus_identity_instance():
    """A least-squares instance with G = +I and a non-zero h."""
    rng = np.random.default_rng(11)
    return ProblemSpec(Quadratic(rng.standard_normal((6, 5)), rng.standard_normal(6)),
                       ScaledL1(0.3), rng.standard_normal((4, 5)), np.eye(4),
                       rng.standard_normal(4))


def start(spec, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(spec.d1), rng.standard_normal(spec.d2), rng.standard_normal(spec.m)


CASES = [
    ("tv_d50", STANDARD, 1.0),
    ("lasso_20x50", STANDARD, 0.7),
    ("basis_pursuit_10x30", STANDARD, 1.0),
    ("basis_pursuit_10x30", GENERAL, 1.3),
    ("rank_deficient_lasso", GENERAL, 1.0),
    ("lasso_8x6_smoothed", STANDARD, 0.8),
    ("plus_identity", STANDARD, 0.9),
    ("plus_identity", GENERAL, 0.9),
]


def instance(name):
    return plus_identity_instance() if name == "plus_identity" else get_instance(name)


@pytest.mark.parametrize("name, variant, s", CASES,
                         ids=[f"{n}-{v}" for n, v, _ in CASES])
def test_run_matches_reference_loop(name, variant, s):
    spec = instance(name)
    x0, y0, lam0 = start(spec, 3)
    r = default_r(spec) if variant == GENERAL else None
    trace = run(spec, SolverConfig(s=s, N=STEPS, variant=variant), init=(x0, y0, lam0))
    xs, ys, lams = reference_rows(spec, s, r, x0, y0, lam0)
    assert np.array_equal(trace.xs[1:], xs)
    assert np.array_equal(trace.ys[1:], ys)
    assert np.array_equal(trace.lams[1:], lams)


@pytest.mark.parametrize("name", ["tv_d50", "basis_pursuit_10x30", "plus_identity"])
def test_implicit_step_at_delta_s_matches_reference_loop(name):
    spec, s = instance(name), 1.0
    x0, y0, lam0 = start(spec, 4)
    xs, ys, lams = reference_rows(spec, s, None, x0, y0, lam0)
    step, Y, Lam = ImplicitStep(spec, s, s), y0, lam0
    for j in range(STEPS):
        X, Y, Lam = step(Y, Lam)
        assert np.array_equal(X, xs[j])
        assert np.array_equal(Y, ys[j])
        assert np.array_equal(Lam, lams[j])


def dense_energy(y, lam, ref_y, ref_lam, G, s):
    """The textbook energy (1/2s)||G(y - ref_y)||^2 + (s/2)||lam - ref_lam||^2."""
    return diag._sq((y - ref_y) @ G.T) / (2.0 * s) + s * diag._sq(lam - ref_lam) / 2.0


@pytest.mark.parametrize("name", ["tv_d50", "plus_identity"])
@pytest.mark.parametrize("from_zero", [True, False], ids=["zero_start", "random_start"])
def test_sign_flip_matches_dense_g(name, from_zero):
    spec, s = instance(name), 0.9
    if name == "tv_d50":
        ref = get_saddle(name)
    else:
        ref = SaddlePoint(*start(spec, 5), 0.0)
    init = None if from_zero else start(spec, 6)
    trace = run(spec, SolverConfig(s=s, N=STEPS), init=init, saddle=ref)
    xs, ys, ls, G = trace.xs, trace.ys, trace.lams, spec.G
    if from_zero:  # the shrink leaves signed zeros, the case a sign flip could get wrong
        assert np.signbit(ys[ys == 0.0]).any() and not np.signbit(ys[ys == 0.0]).all()

    lyap = dense_energy(ys, ls, ref.y_star, ref.lambda_star, G, s)
    ne = dense_energy(ys[1:], ls[1:], ys[:-1], ls[:-1], G, s)
    for got, want in ((trace.scalars["lyapunov"], lyap), (trace.scalars["ne"][:-1], ne)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    residual = xs @ spec.F.T + ys @ G.T - spec.h
    assert np.array_equal(spec.constraint_residual(xs, ys), residual)
    want = (np.linalg.norm(residual, axis=-1), spec.f.subgrad_distance(-(ls @ spec.F), xs),
            spec.g.subgrad_distance(-(ls @ G), ys))
    for got, expected in zip(kkt_residuals(spec, xs, ys, ls), want):
        assert np.array_equal(got, expected)
