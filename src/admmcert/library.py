"""Built-in problem instances used by the test suites and the CLI.

All randomness goes through numpy's default generator (PCG64) with a fixed
per-instance seed, so every builder is reproducible bit for bit. Saddle
points are computed once per name, to tolerance 1e-8, and memoized.
"""

from __future__ import annotations

import numpy as np

from .band import Banded
from .errors import ParameterError
from .oracle import saddle_point_oracle
from .problems import build_basis_pursuit, build_generalized_lasso

HUBER_DELTA = 1e-3


def _difference_matrix(d, order=1):
    """Rows like (1, -1, 0, ...) for order 1 and (1, -2, 1, 0, ...) for order 2."""
    D = np.eye(d)
    for _ in range(order):
        D = -np.diff(D, axis=0)
    return D


def difference_operator(d, order=1):
    """The (d - order) x d difference matrix of _difference_matrix as the Banded of its
    band, built in O(d): row i holds the stencil (1, -1) or (1, -2, 1) from column i,
    with the bits -np.diff gives it, so the band is the one Banded reads off the
    dense matrix."""
    stencil = _difference_matrix(order + 1, order)[0]
    m = d - order
    ab = np.zeros((order + 1, d))  # F[i, i + t] in band row ku - t = order - t
    for t, c in enumerate(stencil):
        ab[order - t, t:t + m] = c
    return Banded.from_band((m, d), 0, order, ab)


def scalar_lasso():
    """min (x - 1)^2 + |y| s.t. x = y. Saddle: (0.5, 0.5, 1) by hand."""
    return build_generalized_lasso([[1.0]], [1.0], [[1.0]], 1.0)


def lasso_20x50():
    rng = np.random.default_rng(20250501)
    A = rng.standard_normal((20, 50)) / np.sqrt(20.0)
    x0 = np.zeros(50)
    idx = rng.choice(50, size=6, replace=False)
    x0[idx] = rng.standard_normal(6)
    b = A @ x0 + 0.01 * rng.standard_normal(20)
    return build_generalized_lasso(A, b, np.eye(50), 0.5)


def tv_d50():
    """Total-variation denoising: identity data term, first differences in y."""
    rng = np.random.default_rng(20250502)
    t = np.linspace(0.0, 1.0, 50)
    signal = np.where(t < 0.4, 1.0, np.where(t < 0.7, -0.5, 0.8))
    b = signal + 0.05 * rng.standard_normal(50)
    return build_generalized_lasso(np.eye(50), b, _difference_matrix(50, 1), 0.4)


def trend_d50():
    """Piecewise-linear trend filtering: second differences in y."""
    rng = np.random.default_rng(20250503)
    t = np.linspace(0.0, 1.0, 50)
    signal = np.where(t < 0.5, 2.0 * t, 1.0 - 1.5 * (t - 0.5))
    b = signal + 0.03 * rng.standard_normal(50)
    return build_generalized_lasso(np.eye(50), b, _difference_matrix(50, 2), 0.3)


def basis_pursuit_10x30():
    rng = np.random.default_rng(20250504)
    A = rng.standard_normal((10, 30)) / np.sqrt(10.0)
    x0 = np.zeros(30)
    idx = rng.choice(30, size=3, replace=False)
    x0[idx] = rng.standard_normal(3)
    b = A @ x0
    return build_basis_pursuit(A, b)


def rank_deficient_lasso():
    """A and F share the all-ones null direction, so 2s A^T A + F^T F is
    singular for every s and the standard x-update has no factorization;
    the r-proximal variant still runs."""
    rng = np.random.default_rng(20250505)
    A = rng.standard_normal((3, 6))
    A = A - A.mean(axis=1, keepdims=True)  # rows sum to zero: A @ ones = 0
    b = rng.standard_normal(3)
    return build_generalized_lasso(A, b, _difference_matrix(6, 1), 0.7)


def lasso_8x6():
    """Small over-determined lasso; F = I and G = -I keep both continuous
    models applicable once the regularizer is smoothed."""
    rng = np.random.default_rng(20250506)
    A = rng.standard_normal((8, 6)) / np.sqrt(8.0)
    x0 = np.array([1.5, 0.0, -0.8, 0.0, 0.0, 0.6])
    b = A @ x0 + 0.02 * rng.standard_normal(8)
    return build_generalized_lasso(A, b, np.eye(6), 0.3)


def scalar_lasso_smoothed():
    return scalar_lasso().smoothed(HUBER_DELTA)


def lasso_8x6_smoothed():
    return lasso_8x6().smoothed(HUBER_DELTA)


INSTANCES = {
    "scalar_lasso": scalar_lasso,
    "lasso_20x50": lasso_20x50,
    "tv_d50": tv_d50,
    "trend_d50": trend_d50,
    "basis_pursuit_10x30": basis_pursuit_10x30,
    "rank_deficient_lasso": rank_deficient_lasso,
    "lasso_8x6": lasso_8x6,
    "scalar_lasso_smoothed": scalar_lasso_smoothed,
    "lasso_8x6_smoothed": lasso_8x6_smoothed,
}

_spec_cache = {}
_saddle_cache = {}


def instance_names():
    return sorted(INSTANCES)


def get_instance(name):
    if name not in INSTANCES:
        raise ParameterError(f"unknown instance {name!r}; choose from {instance_names()}")
    if name not in _spec_cache:
        _spec_cache[name] = INSTANCES[name]()
    return _spec_cache[name]


def get_saddle(name):
    if name not in _saddle_cache:
        _saddle_cache[name] = saddle_point_oracle(get_instance(name), 1e-8)
    return _saddle_cache[name]
