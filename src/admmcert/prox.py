"""Closed-form subproblem solvers, and the one step operator per (problem, s, r).

The x-update for a quadratic f solves (2s A^T A + F^T F) x = rhs by a
Cholesky factor in LAPACK band storage, at the bandwidth of the system's
nonzeros, assembled from the band storage of A^T A and F^T F that the problem
keeps, so that total variation and trend filtering (A = I, F a difference
operator) build, check and solve it at O(d) a step with no d x d array; F x
and F^T v go through the spec's band.Banded F. For an affine indicator it
solves the dense equality-constrained least-squares KKT system. The
r-proximal variant replaces F^T F on the left by r*I, which stays solvable
even when A and F share a null direction. The y-update is a componentwise
shrink (or Huber prox) and needs G = +I or -I. Step, the one step class, owns
the whole iteration of one (problem, s, r), y-update included: the loop that
runs it builds it once, and each call does only the per-step work.
settle_pattern finds the region pattern of a piecewise-linear system, whose
block matrix pattern_system builds for the saddle oracle and the implicit step.

A step checks only LAPACK's info. The loop that runs it checks every x-update
solve of the run afterwards, in one array pass over the stored rows
(Step.check_rows); a single step (Step.check_step) and x_update check their own
solve.
"""

from __future__ import annotations

import math

import numpy as np

from .band import Banded, _fblas, _flapack, band_cond, trimmed  # noqa: F401 (_fblas: prox._fblas)
from .errors import IllConditionedError, InnerSolveError, ParameterError, UnsupportedProblemError
from .functions import AffineIndicator, HuberSmoothedL1, Quadratic, ScaledL1

COND_LIMIT = 1e12
SOLVE_TOL = 1e-10  # relative residual every x-update solve must reach
INNER_MAX = 500  # linear solves settle_pattern may spend before it gives up
R_PROXIMAL_HINT = "; use the r-proximal variant instead"  # the standard step's remedy


def lapack_factor(name, M, **options):
    """The outputs of the LAPACK factorization `name` ("dpbtrf" of band storage or
    "dgetrf") of an n x n matrix but its info; a non-zero info raises
    IllConditionedError naming the routine."""
    *factor, info = getattr(_flapack, name)(M, **options)
    if info:
        n = M.shape[1]
        raise IllConditionedError(f"LAPACK {name} failed on the {n}x{n} matrix (info {info})")
    return tuple(factor)


def sym_cond(M):
    """The 2-norm condition number of a dense symmetric M, max|lambda| / min|lambda|
    over its eigenvalues: what np.linalg.cond(M) gets from a full SVD, at a fraction
    of the cost. inf when M is singular or not finite. It serves only the indefinite
    KKT system of an indicator f; a least-squares x-system and the low-resolution
    flow's F^T F take band.band_cond of their band."""
    if not np.isfinite(M).all():
        return math.inf
    ev = np.abs(np.linalg.eigvalsh(M))
    lo = float(ev.min())
    return float(ev.max()) / lo if lo > 0.0 else math.inf


def row_norms(v):
    """||v|| of each row of an (n, d) array (or of a (d,) vector): numpy's own expression
    for np.linalg.norm(v, axis=-1), so the same bits, without its Python wrapper."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


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


def pattern_system(spec, s=None, delta=None):
    """The pattern-independent block matrix K, constant right-hand side and x, y, lam
    slices of a pattern search's system (an indicator f's nu last: -A^T at (x, nu) and
    A x = b, unscaled). With no delta: the saddle's KKT rows 2 A^T A x + F^T lam =
    2 A^T b, G_sign lam_i = 0 and F x + G y = h (A^T A from gram_band). With delta: the
    implicit-Euler step's, those x and lam rows times -delta plus G_sign F^T at (x, y)
    and s^2 I at (lam, lam), so a step adds G_sign F^T Y_old and s^2 Lam_old to rhs."""
    f, F, Gs = spec.f, spec.F, spec.G_sign  # F read once: a banded F is built at each read
    indicator = isinstance(f, AffineIndicator)
    d1, d2, m = spec.d1, spec.d2, spec.m
    x, y, lam = slice(0, d1), slice(d1, d1 + d2), slice(d1 + d2, d1 + d2 + m)
    n = lam.stop + (f.A.shape[0] if indicator else 0)
    c = 1.0 if delta is None else -delta  # the x and lam rows' scale
    K, rhs = np.zeros((n, n)), np.zeros(n)
    if indicator:
        K[x, lam.stop:] = -f.A.T
        K[lam.stop:, x] = f.A
        rhs[lam.stop:] = f.b
    else:
        K[x, x] = c * (2.0 * Banded.symmetric(f.gram_band).dense())
        rhs[x] = 2.0 * f.gram_rhs
    rhs[x] *= c  # also an indicator's zeros: a step's -0.0 drive then keeps its sign
    K[x, lam] = c * F.T
    K[lam, x] = c * F
    np.fill_diagonal(K[lam, y], c * Gs)  # G = G_sign * I, square
    np.fill_diagonal(K[y, lam], Gs)
    rhs[lam] = c * spec.h
    if delta is not None:
        K[x, y] = Gs * F.T
        K[lam, lam] = s * s * np.eye(m)
    return K, rhs, (x, y, lam)


def _x_system(gram, FtF, r):
    """The lower band storage of 2s A^T A + F^T F, or of 2s A^T A + r I when r is
    given, from the lower bands gram of 2s A^T A and FtF of F^T F: each entry is the
    sum the dense matrices would form, trimmed to the bandwidth its nonzeros reach."""
    P = FtF if r is None else np.full((1, gram.shape[1]), r)
    M = np.zeros((max(gram.shape[0], P.shape[0]), gram.shape[1]))
    M[:gram.shape[0]] = gram
    M[:P.shape[0]] += P
    return trimmed(M)


def _y_prox(spec, s):
    """The prox of the y-update of one (problem, s), y = prox_{s g}(G (h - F x_{k+1} -
    s lam_k)) for G = +/-I, and its parameters: shrink for w||.||_1, Huber prox for its
    smoothing."""
    if not 0 < s < math.inf:  # also refuses nan; the dual step divides by s
        raise ParameterError(f"step size s = {s!r} must be positive and finite")
    g = spec.g
    if isinstance(g, ScaledL1):
        return _shrink, (s * g.w,)
    if isinstance(g, HuberSmoothedL1):
        cut = g.delta + s * g.w
        return _huber, (cut, g.delta / cut, s * g.w)
    raise UnsupportedProblemError(f"no closed-form y-update for {type(g).__name__}")


class Step:
    """One ADMM step of one (problem, s, r), with everything that does not change
    between steps built once: the factored x-system and the LAPACK routine that
    solves it, the products with F, the constant part of its right-hand
    side, and the y-update's prox with its parameters (_y_prox).

    With P = F^T F (standard step, r is None) or P = r*I (r-proximal step) and
    c = F^T (h - G y_k - s lam_k), plus r x_k - F^T F x_k for the r-proximal
    step, a quadratic f solves (2s A^T A + P) x = 2s A^T b + c by a banded
    Cholesky: M = 2s A^T A + P is assembled in LAPACK symmetric band storage from
    the lower bands of A^T A and F^T F (or r on the diagonal), at the bandwidth kd
    its nonzeros reach (kd = d - 1 for a dense M, 1 for total variation with
    A = I, 2 for trend filtering), factored by dpbtrf and solved by dpbtrs at
    O(d kd) a step; its condition estimate comes from the band's extreme
    eigenvalues (band_cond), and its solve checks go through its band (Banded), so
    no d x d array is built for a banded M. An affine-indicator f solves the dense
    KKT system [[P, A^T], [A, 0]] (x, nu) = (c, b) by LU (dgetrf, dgetrs), with
    the condition estimate sym_cond. F x and F^T v go through the spec's Banded F;
    the implicit step at delta = s is this call itself, so it has the step's bits.
    G = +/-I is required, so G y is G_sign * y and the y-update is
    prox(G_sign * (h - F x_{k+1} - s lam_k)). The factored system is kept as
    system: M's lower band storage, or the dense KKT matrix. A call checks only
    LAPACK's info; check_rows checks every solve of a finished run in one pass,
    check_step that of one step: the linear residual for a quadratic f, the
    constraint A x = b for an indicator f, so that a non-finite iterate or a
    failed solve raises IllConditionedError.
    """

    def __init__(self, spec, s, r=None):
        self._prox, self._params = _y_prox(spec, s)
        if r is not None and not spec.FtF_norm < r < math.inf:  # also refuses nan
            raise ParameterError(
                f"r = {r!r} must be finite and greater than the maximum eigenvalue of "
                f"F^T F ({spec.FtF_norm!r})"
            )
        f = spec.f
        self.quadratic = isinstance(f, Quadratic)
        if self.quadratic:
            M = _x_system(2.0 * s * f.gram_band, spec.FtF_band, r)
            cond = band_cond(M)
            what, hint = "x-update system", R_PROXIMAL_HINT
        elif isinstance(f, AffineIndicator):
            m1 = f.A.shape[0]
            M = np.block([
                [Banded.symmetric(spec.FtF_band).dense() if r is None
                 else r * np.eye(spec.d1), f.A.T],
                [f.A, np.zeros((m1, m1))],
            ])
            cond = sym_cond(M)
            what, hint = "KKT system", ""
        else:
            raise UnsupportedProblemError(f"no closed-form x-update for {type(f).__name__}")
        if not cond <= COND_LIMIT:
            # the hint names the r-proximal step as the remedy: that step names its r
            hint = hint if r is None else f" at r = {r!r}"
            raise IllConditionedError(
                f"{what} has condition estimate {cond:.3e} > {COND_LIMIT:.0e}{hint}"
            )
        self.spec, self.s, self.r, self.system, self.cond = spec, s, r, M, cond
        self.G_sign, self.F = spec.G_sign, spec.F_op
        # the routines and options of scipy.linalg's cholesky_banded(ab, lower=True)
        # and lu_factor(M), and the layouts their solves take: (cb, lower) and (lu, piv)
        if self.quadratic:
            self.kd, self._M = M.shape[0] - 1, Banded.symmetric(M)
            cb, = lapack_factor("dpbtrf", M, lower=1)
            self._factor, self._lapack = (cb, True), _flapack.dpbtrs
            self._rhs0 = 2.0 * s * f.gram_rhs
        else:
            self._factor, self._lapack = lapack_factor("dgetrf", M), _flapack.dgetrs

    def _drive(self, x_k, y_k, lambda_k):
        """c of one step, or of each row of (n, d) arrays of rows: F^T v with
        v = h - G y_k - s lam_k, and for the r-proximal step F^T (v - F x_k) + r x_k,
        which is F^T v + r x_k - F^T F x_k with two products, not three."""
        v = self.spec.h - self.G_sign * y_k - self.s * lambda_k
        if self.r is None:
            return self.F.tdot(v)
        return self.F.tdot(v - self.F.dot(x_k)) + self.r * x_k

    def _rhs(self, x_k, y_k, lambda_k):
        """The right-hand side the x-update from (x_k, y_k, lambda_k) solves: 2s A^T b + c
        for a quadratic f, (c, b) for an indicator f."""
        drive = self._drive(x_k, y_k, lambda_k)
        if self.quadratic:
            return self._rhs0 + drive
        return np.concatenate([drive, self.spec.f.b])

    def _solve(self, y_k, lambda_k, x_k):
        """x_{k+1} and the right-hand side it solved; raises only on LAPACK's info."""
        rhs = self._rhs(x_k, y_k, lambda_k)
        if self.quadratic:
            x, info = self._lapack(self._factor[0], rhs, lower=True)
        else:
            z, info = self._lapack(*self._factor, rhs)
            x = z[: self.spec.d1]
        if info:
            raise IllConditionedError(self._failure(self._residual(x, rhs)[0], info))
        return x, rhs

    def _residual(self, x, rhs):
        """The residual of a solve and the bound it must not exceed, for one x_{k+1} or
        for each row of an (n, d1) array, with the right-hand sides solved: ||M x - rhs||
        and SOLVE_TOL (1 + ||rhs||) for a quadratic f; ||A x - b|| and SOLVE_TOL
        (1 + ||b||) for an indicator f, which needs no rhs."""
        if self.quadratic:
            res, c = self._M.dot(x), rhs
        else:
            res, c = x @ self.spec.f.A.T, self.spec.f.b
        res -= c  # in place: a run's pass holds one (n, d1) array fewer
        norm = np.linalg.norm if x.ndim == 1 else row_norms
        return norm(res), SOLVE_TOL * (1.0 + norm(c))

    def _failure(self, res, info=0):
        if self.quadratic:
            return (f"x-update solve residual {res:.3e} exceeds {SOLVE_TOL:.0e} * (1 + ||rhs||) "
                    f"(LAPACK dpbtrs info {info}; condition estimate {self.cond:.3e})")
        return (f"indicator x-update left the constraint set (LAPACK dgetrs info {info}; "
                f"condition estimate {self.cond:.3e})")

    def _check(self, x, rhs):
        res, bound = self._residual(x, rhs)
        if not res <= bound:
            raise IllConditionedError(self._failure(res))

    def __call__(self, x_k, y_k, lambda_k):
        """(x, y, lam)_{k+1}: x-minimization, y-minimization, dual ascent; F x_{k+1}
        is computed once, for the y-update and the dual step. The solve is not checked
        here: check_rows checks a run's, check_step a single step's."""
        x1 = self._solve(y_k, lambda_k, x_k)[0]
        Fx = self.F.dot(x1)
        y1 = self._prox(self.G_sign * (self.spec.h - Fx - self.s * lambda_k), *self._params)
        return x1, y1, lambda_k + (Fx + self.G_sign * y1 - self.spec.h) / self.s

    def check_step(self, x_k, y_k, lambda_k, x1):
        """The x-update check of the step from (x_k, y_k, lambda_k) to x1, with the
        single-step kernels: its right-hand side is rebuilt, which has the bits of the
        one solved. Raises IllConditionedError."""
        self._check(x1, self._rhs(x_k, y_k, lambda_k))

    def check_rows(self, trace):
        """The x-update checks of every row trace.step_rows computed with this step:
        one array pass over the rows, row j's right-hand side rebuilt from row j - 1,
        and check_step on a row the pass flags (Trace.raise_first). Copied rows, after
        trace.repeat, need none. Raises IllConditionedError naming the first failing
        row (step k = 5: ...)."""
        n = trace.computed_rows()
        xs, ys, ls = trace.xs[:n], trace.ys[:n], trace.lams[:n]
        rhs = self._rhs(xs[:-1], ys[:-1], ls[:-1]) if self.quadratic else None
        res, bound = self._residual(xs[1:], rhs)
        trace.raise_first(res, bound, lambda j: self.check_step(xs[j - 1], ys[j - 1], ls[j - 1],
                                                                xs[j]))


class FactorizationCache:
    """One Step per (problem, s, r), built on first use and reused. The key holds the
    spec object itself, which the cache keeps alive, so no later spec can share it."""

    def __init__(self):
        self._store = {}

    def get(self, spec, s, r=None):
        key = (spec, float(s), None if r is None else float(r))
        step = self._store.get(key)
        if step is None:
            step = self._store[key] = Step(spec, s, r)
        return step

    def __len__(self):
        return len(self._store)


def x_update(spec, y_k, lambda_k, s, cache=None, r=None, x_k=None):
    """x_{k+1} of the standard step, or of the r-proximal step around x_k, checked."""
    step = (cache if cache is not None else FactorizationCache()).get(spec, s, r)
    x, rhs = step._solve(y_k, lambda_k, x_k)
    step._check(x, rhs)
    return x


def y_update(spec, x_next, lambda_k, s):
    """y_{k+1} for g = w||.||_1 or its Huber smoothing, with G = +/-I: Step's y-update."""
    prox, params = _y_prox(spec, s)
    return prox(spec.G_sign * (spec.h - spec.F_op.dot(x_next) - s * lambda_k), *params)
