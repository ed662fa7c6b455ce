"""Closed-form subproblem solvers, and the one step operator per (problem, s, r).

The x-update for a quadratic f solves (2s A^T A + F^T F) x = rhs; for an
affine indicator it solves the equality-constrained least-squares KKT
system. The r-proximal variant replaces F^T F on the left by r*I, which
stays solvable even when A and F share a null direction. The y-update is a
componentwise shrink (or Huber prox) and needs G = +I or -I. A Step owns
the whole iteration of one (problem, s, r): it is built once and cached,
and each call does only the per-step work. settle_pattern finds the region
pattern of a piecewise-linear system for the implicit step and the oracle.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import IllConditionedError, InnerSolveError, ParameterError, UnsupportedProblemError
from .functions import AffineIndicator, HuberSmoothedL1, Quadratic, ScaledL1

COND_LIMIT = 1e12
SOLVE_TOL = 1e-10  # relative residual every x-update solve must reach
INNER_MAX = 500  # linear solves settle_pattern may spend before it gives up


def _load_flapack():
    """scipy's compiled LAPACK module, scipy/linalg/_flapack, loaded from its file.

    scipy.linalg hands back these same routines for float64 data, so every factor
    and solve has the bits it would have through scipy.linalg, without that
    package's import (about 0.3 s and 18 MB at start-up). The module is entered in
    sys.modules, where a later `import scipy.linalg` finds and reuses it.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")  # locates the package, runs none of it
    if scipy_spec is None:
        raise ImportError("scipy is not installed; its LAPACK module scipy/linalg/_flapack "
                          "is required")
    base = os.path.join(scipy_spec.submodule_search_locations[0], "linalg", "_flapack")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK module is missing: no {paths[0]}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()


def lapack_factor(name, M, **options):
    """The outputs of the LAPACK factorization `name` ("dpotrf" or "dgetrf") of M but
    its info; a non-zero info raises IllConditionedError naming the routine."""
    *factor, info = getattr(_flapack, name)(M, **options)
    if info:
        raise IllConditionedError(
            f"LAPACK {name} failed on the {M.shape[0]}x{M.shape[1]} matrix (info {info})")
    return tuple(factor)


def sym_cond(M):
    """The 2-norm condition number of a symmetric M, max|lambda| / min|lambda| over its
    eigenvalues: what np.linalg.cond(M) gets from a full SVD, at a fraction of the
    cost. inf when M is singular or not finite."""
    if not np.isfinite(M).all():
        return math.inf
    ev = np.abs(np.linalg.eigvalsh(M))
    lo = float(ev.min())
    return float(ev.max()) / lo if lo > 0.0 else math.inf


def _norm(v):
    """||v|| for a (d,) vector: the same bits as np.linalg.norm, without its dispatch."""
    return math.sqrt(v @ v)


def _shrink(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _huber(v, cut, ratio, tw):
    quad = np.abs(v) <= cut
    return np.where(quad, v * ratio, v - tw * np.sign(v))


def soft_threshold(v, t):
    """Componentwise shrink: sign(v) * max(|v| - t, 0). Ties at |v| = t map to 0."""
    if t < 0:
        raise ParameterError("shrink threshold must be nonnegative")
    return _shrink(np.asarray(v, dtype=float), t)


def huber_prox(v, t, w, delta):
    """prox of t * huber_{w,delta} applied componentwise."""
    if t < 0:
        raise ParameterError("prox step must be nonnegative")
    cut = delta + t * w
    return _huber(np.asarray(v, dtype=float), cut, delta / cut, t * w)


def settle_pattern(solve, pattern_of, start):
    """The solution z = solve(p) of a pattern p (an int vector of regions -1, 0, 1)
    with pattern_of(z) == p, searched from start. Each pass adopts the whole
    observed pattern until one repeats; from then on it moves only the least-index
    coordinate that differs, one region toward the observed one (a least-index
    rule as in Cottle, Pang & Stone, The Linear Complementarity Problem, 1992)."""
    pattern, seen, block = start, set(), True
    for _ in range(INNER_MAX):
        z = solve(pattern)
        observed = pattern_of(z)
        if np.array_equal(observed, pattern):
            return z
        seen.add(pattern.tobytes())
        block = block and observed.tobytes() not in seen
        if block:
            pattern = observed
        else:
            i = np.flatnonzero(observed != pattern)[0]
            pattern = pattern.copy()
            pattern[i] += np.sign(observed[i] - pattern[i])
    raise InnerSolveError(f"pattern search did not settle within {INNER_MAX} passes")


class YUpdate:
    """The y-update of one (problem, s): y = prox_{s g}(G (h - F x_{k+1} - s lam_k)),
    valid for G = +/-I. The prox (shrink for w||.||_1, Huber prox for its smoothing)
    and its parameters are chosen and validated once, when the update is built."""

    def __init__(self, spec, s):
        if not s >= 0:  # the weight w is positive, so this also bounds the threshold s*w
            raise ParameterError(f"prox step s = {s!r} must be nonnegative")
        g = spec.g
        if isinstance(g, ScaledL1):
            self._prox, self._params = _shrink, (s * g.w,)
        elif isinstance(g, HuberSmoothedL1):
            cut = g.delta + s * g.w
            self._prox, self._params = _huber, (cut, g.delta / cut, s * g.w)
        else:
            raise UnsupportedProblemError(f"no closed-form y-update for {type(g).__name__}")
        self.G_sign, self._h, self._F, self._s = spec.G_sign, spec.h, spec.F, s

    def __call__(self, x_next, lambda_k):
        return self.from_Fx(self._F @ x_next, lambda_k)

    def from_Fx(self, Fx, lambda_k):
        """The y-update from F x_{k+1}, for a caller that needs F x_{k+1} again."""
        u = self.G_sign * (self._h - Fx - self._s * lambda_k)
        return self._prox(u, *self._params)


class Step:
    """One ADMM step of one (problem, s, r), with everything that does not change
    between steps built once: the factored x-system and the LAPACK routine that
    solves it, the constant part of its right-hand side, and the y-update.

    With P = F^T F (standard step, r is None) or P = r*I (r-proximal step) and
    c = F^T (h - G y_k - s lam_k), plus r x_k - F^T F x_k for the r-proximal
    step, a quadratic f solves (2s A^T A + P) x = 2s A^T b + c by Cholesky, and
    an affine-indicator f solves the KKT system [[P, A^T], [A, 0]] (x, nu) = (c, b)
    by LU. G = +/-I is required, so G y is G_sign * y. Every solve is checked: the
    linear residual for a quadratic f, the constraint A x = b for an indicator f,
    so that a non-finite iterate or a failed solve raises IllConditionedError.
    """

    def __init__(self, spec, s, r=None):
        self.y_update = YUpdate(spec, s)
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
        cond = sym_cond(M)
        if not cond <= COND_LIMIT:
            raise IllConditionedError(
                f"{what} has condition estimate {cond:.3e} > {COND_LIMIT:.0e}{hint}"
            )
        self.spec, self.s, self.r, self.matrix, self.cond = spec, s, r, M, cond
        self.G_sign, self._F, self._Ft = spec.G_sign, spec.F, spec.F.T
        # the routines and options of scipy.linalg's cho_factor(M, lower=True) and
        # lu_factor(M), and the layouts they return: (c, lower) and (lu, piv)
        if self.quadratic:
            c, = lapack_factor("dpotrf", M, lower=1, clean=0)
            self._factor, self._lapack = (c, True), _flapack.dpotrs
            self._rhs0 = 2.0 * s * f.gram_rhs
        else:
            self._factor, self._lapack = lapack_factor("dgetrf", M), _flapack.dgetrs
            self._tol = SOLVE_TOL * (1.0 + np.linalg.norm(f.b))

    def x_update(self, y_k, lambda_k, x_k=None):
        """x_{k+1}; the r-proximal step needs x_k, the standard one ignores it."""
        spec, r = self.spec, self.r
        drive = self._Ft @ (spec.h - self.G_sign * y_k - self.s * lambda_k)
        if r is not None:
            drive = drive + r * x_k - spec.FtF @ x_k
        if self.quadratic:
            rhs = self._rhs0 + drive
            x, info = self._lapack(self._factor[0], rhs, lower=True)
            res = _norm(self.matrix @ x - rhs)
            if info or not res <= SOLVE_TOL * (1.0 + _norm(rhs)):
                raise IllConditionedError(
                    f"x-update solve residual {res:.3e} exceeds {SOLVE_TOL:.0e} * (1 + ||rhs||) "
                    f"(LAPACK dpotrs info {info}; condition estimate {self.cond:.3e})")
            return x
        f = spec.f
        z, info = self._lapack(*self._factor, np.concatenate([drive, f.b]))
        x = z[: spec.d1]
        if info or not _norm(f.A @ x - f.b) <= self._tol:
            raise IllConditionedError(
                f"indicator x-update left the constraint set (LAPACK dgetrs info {info}; "
                f"condition estimate {self.cond:.3e})")
        return x

    def __call__(self, x_k, y_k, lambda_k):
        """(x, y, lam)_{k+1}: x-minimization, y-minimization, dual ascent; F x_{k+1}
        is computed once, for the y-update and the dual step."""
        x1 = self.x_update(y_k, lambda_k, x_k)
        Fx = self._F @ x1
        y1 = self.y_update.from_Fx(Fx, lambda_k)
        return x1, y1, lambda_k + (Fx + self.G_sign * y1 - self.spec.h) / self.s


class FactorizationCache:
    """Values built once and reused: one Step per (problem tag, s, r), and whatever
    else a caller keeps under its own key."""

    def __init__(self):
        self._store = {}

    def get(self, spec, s, r=None):
        key = (spec.tag, float(s), None if r is None else float(r))
        return self.keep(key, lambda: Step(spec, s, r))

    def keep(self, key, build):
        """The value stored under key, from build() on first use."""
        value = self._store.get(key)
        if value is None:
            value = self._store[key] = build()
        return value

    def __len__(self):
        return len(self._store)


def x_update(spec, y_k, lambda_k, s, cache=None, r=None, x_k=None):
    """x_{k+1} of the standard step, or of the r-proximal step around x_k when r is given."""
    cache = cache if cache is not None else FactorizationCache()
    return cache.get(spec, s, r).x_update(y_k, lambda_k, x_k)


def y_update(spec, x_next, lambda_k, s):
    """y_{k+1} for g = w||.||_1 or its Huber smoothing, with G = +/-I."""
    return YUpdate(spec, s)(x_next, lambda_k)
