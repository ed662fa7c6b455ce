"""Reference saddle points, computed two independent ways.

For an l1 regularizer in at most 12 coordinates, every support/sign pattern
of y is enumerated and its KKT linear system solved; otherwise (or as a
cross-check) a long r-proximal ADMM run drives the KKT residuals below the
requested tolerance. Every returned saddle is re-certified by evaluating the
KKT residuals at it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import IllConditionedError, OracleConvergenceError, ParameterError
from .functions import AffineIndicator, ScaledL1
from .problems import SaddlePoint, kkt_residuals
from .prox import FactorizationCache
from .solver import default_r

SIGN_PATTERN_MAX_DIM = 12
LONG_RUN_BUDGET = 10_000_000
_CHECK_EVERY = 100


def sign_pattern_oracle(spec, tol=1e-8):
    """Enumerate support/sign patterns of y and solve each pattern's KKT system."""
    if not isinstance(spec.g, ScaledL1):
        raise ParameterError("sign-pattern oracle requires g = w||.||_1")
    if spec.d2 > SIGN_PATTERN_MAX_DIM:
        raise ParameterError(
            f"sign-pattern oracle limited to d2 <= {SIGN_PATTERN_MAX_DIM} (got {spec.d2})"
        )
    w = spec.g.w
    d1, d2, m = spec.d1, spec.d2, spec.m
    f = spec.f
    indicator = isinstance(f, AffineIndicator)
    m1 = f.A.shape[0] if indicator else 0

    best_res = np.inf
    for sigma in itertools.product((-1.0, 0.0, 1.0), repeat=d2):
        sigma = np.array(sigma)
        P = np.flatnonzero(sigma != 0.0)
        p = P.size
        # unknowns: x, y_P, lam (+ nu for an indicator f)
        nun = d1 + p + m + m1
        rows = []
        rhs = []
        if indicator:
            # stationarity in x: A^T nu + F^T lam = 0; feasibility A x = b
            blk = np.zeros((d1, nun))
            blk[:, d1 + p:d1 + p + m] = spec.F.T
            blk[:, d1 + p + m:] = f.A.T
            rows.append(blk)
            rhs.append(np.zeros(d1))
            blk = np.zeros((m1, nun))
            blk[:, :d1] = f.A
            rows.append(blk)
            rhs.append(f.b)
        else:
            # 2 A^T A x + F^T lam = 2 A^T b
            blk = np.zeros((d1, nun))
            blk[:, :d1] = 2.0 * f.gram
            blk[:, d1 + p:d1 + p + m] = spec.F.T
            rows.append(blk)
            rhs.append(2.0 * f.gram_rhs)
        if p:
            # (G^T lam)_P = -w * sigma_P
            blk = np.zeros((p, nun))
            blk[:, d1 + p:d1 + p + m] = spec.G.T[P, :]
            rows.append(blk)
            rhs.append(-w * sigma[P])
        # F x + G_P y_P = h
        blk = np.zeros((m, nun))
        blk[:, :d1] = spec.F
        if p:
            blk[:, d1:d1 + p] = spec.G[:, P]
        rows.append(blk)
        rhs.append(spec.h)

        M = np.vstack(rows)
        v = np.concatenate(rhs)
        z, *_ = np.linalg.lstsq(M, v, rcond=None)
        if np.linalg.norm(M @ z - v) > 1e-8 * (1.0 + np.linalg.norm(v)):
            continue
        x = z[:d1]
        y = np.zeros(d2)
        y[P] = z[d1:d1 + p]
        lam = z[d1 + p:d1 + p + m]
        res = max(kkt_residuals(spec, x, y, lam))
        best_res = min(best_res, res)
        if res <= tol:
            return SaddlePoint(x, y, lam, res)
    raise OracleConvergenceError(
        f"no sign pattern satisfied the KKT conditions within {tol!r} "
        f"(best residual {best_res:.3e})", best_res)


def long_run_oracle(spec, tol=1e-8, budget=LONG_RUN_BUDGET):
    """Drive the r-proximal iteration from zero until all KKT residuals fall below tol."""
    step = FactorizationCache().get(spec, 1.0, default_r(spec))
    x, y, lam = np.zeros(spec.d1), np.zeros(spec.d2), np.zeros(spec.m)
    best_res = np.inf
    try:
        for it in range(budget):
            x, y, lam = step(x, y, lam)
            if (it + 1) % _CHECK_EVERY == 0 or it + 1 == budget:
                res = max(kkt_residuals(spec, x, y, lam))
                best_res = min(best_res, res)
                if res <= tol:
                    return SaddlePoint(x, y, lam, res)
    except IllConditionedError as exc:
        raise IllConditionedError(f"long-run oracle, step k = {it + 1}: {exc}") from None
    raise OracleConvergenceError(
        f"long-run oracle did not reach {tol!r} within {budget} iterations "
        f"(best residual {best_res:.3e})", best_res)


def saddle_point_oracle(spec, tol=1e-8):
    """Certified saddle point: sign-pattern enumeration when available, long run otherwise."""
    if not 1e-12 <= tol < np.inf:  # also refuses nan
        raise ParameterError(f"saddle tolerance tol = {tol!r} is not certifiable: "
                             "it must lie in [1e-12, inf)")
    if isinstance(spec.g, ScaledL1) and spec.d2 <= SIGN_PATTERN_MAX_DIM:
        return sign_pattern_oracle(spec, tol)
    return long_run_oracle(spec, tol / 10.0)
