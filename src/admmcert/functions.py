"""Separable objective terms: least squares, weighted l1, affine indicator, Huber.

Each class evaluates its function and measures distances to its
subdifferential, which is what the dual residuals and every optimality
inclusion check are built from. Every method takes one point as a (d,)
vector or a whole trace as an (n, d) array, one point per row, and returns
one value per point.
"""

from __future__ import annotations

import numpy as np

from .band import Banded, band_extremes, gram_band
from .errors import ProblemConstructionError

# Membership tolerance for the affine indicator: points produced by the
# equality-constrained x-update satisfy their constraint to ~1e-10.
INDICATOR_FEAS_TOL = 1e-8
INDICATOR_RANK_TOL = 1e-10  # A is rank-deficient when sigma_min <= this * sigma_max


def _as_matrix(M, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0 or M.shape[0] == 0:
        raise ProblemConstructionError(f"empty data matrix {name!r}")
    return M


def _as_vector(v, name):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1:
        raise ProblemConstructionError(f"{name!r} must be a vector")
    return v


class Quadratic:
    """f(v) = ||A v - b||^2 (no 1/2 factor; strong convexity modulus 2*lam_min(A^T A)).
    A, a matrix or a band.Banded, is kept only as A_op, and f.A built from it when
    read, and A^T A only as its lower band storage gram_band: a banded A keeps no
    d x d array."""

    smooth = True

    def __init__(self, A, b):
        self.A_op = A if isinstance(A, Banded) else Banded(_as_matrix(A, "A"))
        self.b = _as_vector(b, "b")
        rows, self.dim = self.A_op.shape
        if rows != self.b.shape[0]:
            raise ProblemConstructionError(
                f"rows of A ({rows}) do not match length of b ({self.b.shape[0]})"
            )
        self.gram_band = gram_band(self.A_op)
        self.gram_rhs = self.A_op.tdot(self.b)
        self.b.flags.writeable = False

    @property
    def A(self):
        """The read-only matrix A; a banded A is built anew at each read."""
        return self.A_op.dense()

    def value(self, v):
        r = self.A_op.dot(v) - self.b
        return np.sum(r * r, axis=-1)

    def grad(self, v):
        return 2.0 * self.A_op.tdot(self.A_op.dot(v) - self.b)

    def subgrad_distance(self, target, at):
        return np.linalg.norm(target - self.grad(at), axis=-1)

    def strong_convexity_modulus(self):
        return 2.0 * band_extremes(self.gram_band)[0]


class ScaledL1:
    """g(v) = w * ||v||_1 with w > 0."""

    smooth = False

    def __init__(self, w):
        w = float(w)
        if not 0 < w < np.inf:
            raise ProblemConstructionError(f"l1 weight must be positive and finite (got {w!r})")
        self.w = w

    def value(self, v):
        return self.w * np.sum(np.abs(v), axis=-1)

    def subgrad_distance(self, target, at):
        # Coordinatewise: [-w, w] at zero, the single point w*sign elsewhere.
        # d is updated in place, so a whole-trace call holds few (n, d) temporaries.
        at = np.asarray(at, dtype=float)
        d = np.abs(np.asarray(target, dtype=float) - self.w * np.sign(at))
        np.subtract(d, self.w, out=d, where=at == 0.0)
        return np.linalg.norm(np.maximum(d, 0.0, out=d), axis=-1)


class AffineIndicator:
    """f(v) = 0 if A v = b, +inf otherwise. A must have full row rank."""

    smooth = False

    def __init__(self, A, b):
        self.A = _as_matrix(A, "A")
        self.b = _as_vector(b, "b")
        if self.A.shape[0] != self.b.shape[0]:
            raise ProblemConstructionError(
                f"rows of A ({self.A.shape[0]}) do not match length of b ({self.b.shape[0]})"
            )
        sv = np.linalg.svd(self.A, compute_uv=False)
        if sv[-1] <= INDICATOR_RANK_TOL * sv[0] or self.A.shape[0] > self.A.shape[1]:
            raise ProblemConstructionError("indicator set ill-posed: A is rank-deficient")
        self.dim = self.A.shape[1]
        self.A.flags.writeable = False
        self.b.flags.writeable = False

    def feasible(self, v):
        return np.max(np.abs(v @ self.A.T - self.b), axis=-1) <= INDICATOR_FEAS_TOL

    def value(self, v):
        return np.where(self.feasible(v), 0.0, np.inf)[()]  # [()]: a scalar for one point

    def subgrad_distance(self, target, at):
        # Subdifferential on the feasible set is range(A^T); empty off it.
        nu, *_ = np.linalg.lstsq(self.A.T, target.T, rcond=None)
        dist = np.linalg.norm(target - (self.A.T @ nu).T, axis=-1)
        return np.where(self.feasible(at), dist, np.inf)[()]


class HuberSmoothedL1:
    """C^1 smoothing of w*||v||_1: quadratic on [-delta, delta], linear outside.

    Pointwise below w*|v| and within w*delta/2 of it.
    """

    smooth = True

    def __init__(self, w, delta):
        w = float(w)
        delta = float(delta)
        if not (0 < w < np.inf and 0 < delta < np.inf):
            raise ProblemConstructionError(
                f"Huber weight and width must be positive and finite (got {w!r}, {delta!r})")
        self.w = w
        self.delta = delta

    def value(self, v):
        a = np.abs(np.asarray(v, dtype=float))
        per = np.where(a <= self.delta, a * a / (2.0 * self.delta), a - self.delta / 2.0)
        return self.w * np.sum(per, axis=-1)

    def grad(self, v):
        # np.clip's bits, NaN included, without its Python wrapper
        v = np.asarray(v, dtype=float)
        return self.w * np.minimum(np.maximum(v / self.delta, -1.0), 1.0)

    def subgrad_distance(self, target, at):
        return np.linalg.norm(np.asarray(target, dtype=float) - self.grad(at), axis=-1)
