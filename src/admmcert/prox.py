"""Closed-form subproblem solvers for the x- and y-updates.

The x-update for a quadratic f solves (2s A^T A + F^T F) x = rhs; for an
affine indicator it solves the equality-constrained least-squares KKT
system. The r-proximal variant replaces F^T F on the left by r*I, which
stays solvable even when A and F share a null direction. Each of the four
cases is one XUpdate, factored once per (problem, s, r) and cached.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import IllConditionedError, ParameterError, UnsupportedProblemError
from .functions import AffineIndicator, HuberSmoothedL1, Quadratic, ScaledL1

COND_LIMIT = 1e12


def soft_threshold(v, t):
    """Componentwise shrink: sign(v) * max(|v| - t, 0). Ties at |v| = t map to 0."""
    if t < 0:
        raise ParameterError("shrink threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def huber_prox(v, t, w, delta):
    """prox of t * huber_{w,delta} applied componentwise."""
    if t < 0:
        raise ParameterError("prox step must be nonnegative")
    v = np.asarray(v, dtype=float)
    cut = delta + t * w
    quad = np.abs(v) <= cut
    return np.where(quad, v * (delta / cut), v - t * w * np.sign(v))


class XUpdate:
    """The x-update of one (problem, s, r): a factored affine system, built once.

    With P = F^T F (standard step, r is None) or P = r*I (r-proximal step) and
    c = F^T (h - G y_k - s lam_k), plus r x_k - F^T F x_k for the r-proximal
    step, a quadratic f solves (2s A^T A + P) x = 2s A^T b + c by Cholesky, and
    an affine-indicator f solves the KKT system [[P, A^T], [A, 0]] (x, nu) = (c, b)
    by LU. Every solve is checked: the linear residual for a quadratic f, the
    constraint A x = b for an indicator f.
    """

    def __init__(self, spec, s, r=None):
        if r is not None and not r > spec.FtF_norm:
            raise ParameterError(
                f"r = {r!r} must be greater than the maximum eigenvalue of F^T F "
                f"({spec.FtF_norm!r})"
            )
        f = spec.f
        P = spec.FtF if r is None else r * np.eye(spec.d1)
        self.quadratic = isinstance(f, Quadratic)
        if self.quadratic:
            M = 2.0 * s * f.gram + P
            what, hint = "x-update system", "; use the r-proximal variant instead"
        elif isinstance(f, AffineIndicator):
            m1 = f.A.shape[0]
            M = np.block([
                [P, f.A.T],
                [f.A, np.zeros((m1, m1))],
            ])
            what, hint = "KKT system", ""
        else:
            raise UnsupportedProblemError(f"no closed-form x-update for {type(f).__name__}")
        cond = float(np.linalg.cond(M))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise IllConditionedError(
                f"{what} has condition estimate {cond:.3e} > {COND_LIMIT:.0e}{hint}"
            )
        self.spec, self.s, self.r, self.matrix = spec, s, r, M
        if self.quadratic:
            self._factor = scipy.linalg.cho_factor(M, lower=True)
        else:
            self._factor = scipy.linalg.lu_factor(M)

    def __call__(self, y_k, lambda_k, x_k=None):
        spec, s, r, f = self.spec, self.s, self.r, self.spec.f
        drive = spec.F.T @ (spec.h - spec.G @ y_k - s * lambda_k)
        if r is not None:
            drive = drive + r * x_k - spec.FtF @ x_k
        if self.quadratic:
            rhs = 2.0 * s * f.gram_rhs + drive
            x = scipy.linalg.cho_solve(self._factor, rhs)
            res = np.linalg.norm(self.matrix @ x - rhs)
            if res > 1e-10 * (1.0 + np.linalg.norm(rhs)):
                raise IllConditionedError(f"x-update solve residual {res:.3e} exceeds tolerance")
            return x
        x = scipy.linalg.lu_solve(self._factor, np.concatenate([drive, f.b]))[: spec.d1]
        if np.linalg.norm(f.A @ x - f.b) > 1e-10 * (1.0 + np.linalg.norm(f.b)):
            raise IllConditionedError("indicator x-update left the constraint set")
        return x


class FactorizationCache:
    """One XUpdate per (problem tag, s, r), built on first use."""

    def __init__(self):
        self._store = {}

    def get(self, spec, s, r=None):
        key = (spec.tag, float(s), None if r is None else float(r))
        op = self._store.get(key)
        if op is None:
            op = self._store[key] = XUpdate(spec, s, r)
        return op

    def __len__(self):
        return len(self._store)


def x_update(spec, y_k, lambda_k, s, cache=None, r=None, x_k=None):
    """x_{k+1} of the standard step, or of the r-proximal step around x_k when r is given."""
    cache = cache if cache is not None else FactorizationCache()
    return cache.get(spec, s, r)(y_k, lambda_k, x_k)


def l1_y_update(spec, x_next, lambda_k, s):
    """y-update for g = w||.||_1 with G = +/-I: a shrink of c*(h - Fx - s*lam)."""
    if spec.G_sign is None:
        raise UnsupportedProblemError("general G y-update unsupported; need G = +I or -I")
    if not isinstance(spec.g, ScaledL1):
        raise UnsupportedProblemError("l1_y_update requires g = w||.||_1")
    u = spec.G_sign * (spec.h - spec.F @ x_next - s * lambda_k)
    return soft_threshold(u, s * spec.g.w)


def huber_y_update(spec, x_next, lambda_k, s):
    """y-update for the Huber-smoothed regularizer with G = +/-I."""
    if spec.G_sign is None:
        raise UnsupportedProblemError("general G y-update unsupported; need G = +I or -I")
    g = spec.g
    u = spec.G_sign * (spec.h - spec.F @ x_next - s * lambda_k)
    return huber_prox(u, s, g.w, g.delta)


def y_update(spec, x_next, lambda_k, s):
    if isinstance(spec.g, ScaledL1):
        return l1_y_update(spec, x_next, lambda_k, s)
    if isinstance(spec.g, HuberSmoothedL1):
        return huber_y_update(spec, x_next, lambda_k, s)
    raise UnsupportedProblemError(f"no closed-form y-update for {type(spec.g).__name__}")
