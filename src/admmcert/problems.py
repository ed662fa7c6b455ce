"""Constrained problem model: min f(x) + g(y) subject to F x + G y = h, G = +I or -I.

Holds the problem container, the canonical builders (generalized lasso,
basis pursuit), KKT residuals, and the instance file format. The container
keeps F only as one band.Banded, shared by every step, residual and
certificate, and F^T F only as its lower band, whose largest eigenvalue is
||F^T F||: a banded F keeps no d x d array, and spec.F builds one when read.
"""

from __future__ import annotations

import copy

import numpy as np

from .band import Banded, band_extremes, gram_band
from .errors import ProblemConstructionError
from .functions import AffineIndicator, HuberSmoothedL1, Quadratic, ScaledL1


class ProblemSpec:
    """Immutable problem instance (f, g, F, G, h). G must be +I or -I; the spec keeps
    only its sign, G_sign, and builds the matrix G_sign * I when spec.G is read.
    F is kept only as F_op (band.Banded), and spec.F built from it when read; FtF_band
    is F^T F's lower band storage, and FtF_norm = ||F^T F|| its largest eigenvalue."""

    def __init__(self, f, g, F, G, h):
        self.f = f
        self.g = g
        F = np.atleast_2d(np.asarray(F, dtype=float))
        G = np.atleast_2d(np.asarray(G, dtype=float))
        self.h = np.atleast_1d(np.asarray(h, dtype=float))

        self.m, self.d1 = F.shape
        if G.shape[0] != self.m:
            raise ProblemConstructionError(
                f"rows of G ({G.shape[0]}) do not match rows of F ({self.m})"
            )
        self.d2 = G.shape[1]
        if self.h.shape[0] != self.m:
            raise ProblemConstructionError(
                f"length of h ({self.h.shape[0]}) does not match rows of F ({self.m})"
            )
        if getattr(self.f, "dim", self.d1) != self.d1:
            raise ProblemConstructionError("f acts on a space of the wrong dimension")
        if getattr(self.g, "dim", self.d2) != self.d2:
            raise ProblemConstructionError("g acts on a space of the wrong dimension")

        # the y-update needs G = c*I with c in {+1, -1}, so every kernel reads G y as
        # G_sign * y; y = c (h - F x) solves the constraint for every x
        self.G_sign = _identity_sign(G) if self.d2 == self.m else None
        if self.G_sign is None:
            raise ProblemConstructionError(
                f"G ({self.m}x{self.d2}) is not +I or -I; the y-update step needs G = +I or -I")

        self.F_op = Banded(F)
        self.FtF_band = gram_band(self.F_op)
        self.FtF_norm = band_extremes(self.FtF_band)[1]
        self.h.flags.writeable = False

    @property
    def F(self):
        """The read-only m x d1 matrix F; a banded F is built anew at each read."""
        return self.F_op.dense()

    @property
    def G(self):
        """The read-only m x m matrix G_sign * I, built anew at each read."""
        G = self.G_sign * np.eye(self.m)
        G.flags.writeable = False
        return G

    def constraint_residual(self, x, y):
        """F x + G y - h for one pair of (d,) vectors or row by row for (n, d) arrays."""
        return self.F_op.dot(x) + self.G_sign * y - self.h

    def objective(self, x, y):
        return self.f.value(x) + self.g.value(y)

    def smoothed(self, huber_delta):
        """Replace an l1 regularizer by its Huber smoothing (for continuous runs) in a
        copy that shares F_op, the bands and h; a Huber g is kept as it is."""
        if isinstance(self.g, HuberSmoothedL1):
            return self
        if not isinstance(self.g, ScaledL1):
            raise ProblemConstructionError("only an l1 regularizer can be smoothed")
        spec = copy.copy(self)
        spec.g = HuberSmoothedL1(self.g.w, huber_delta)
        return spec


def _identity_sign(G):
    """+1.0 or -1.0 when the square G is +I or -I, else None; read off G's diagonal and
    its count of nonzeros, with no identity matrix built."""
    diagonal = np.diagonal(G)
    for sign in (1.0, -1.0):
        if np.all(diagonal == sign) and np.count_nonzero(G) == G.shape[0]:
            return sign
    return None


class SaddlePoint:
    """Certified reference solution (x*, y*, lambda*) with its KKT residual."""

    def __init__(self, x_star, y_star, lambda_star, kkt_residual):
        self.x_star = np.asarray(x_star, dtype=float)
        self.y_star = np.asarray(y_star, dtype=float)
        self.lambda_star = np.asarray(lambda_star, dtype=float)
        self.kkt_residual = float(kkt_residual)
        for arr in (self.x_star, self.y_star, self.lambda_star):
            arr.flags.writeable = False


def build_generalized_lasso(A, b, F_reg, w):
    """min ||A x - b||^2 + w ||y||_1 subject to F_reg x - y = 0."""
    f = Quadratic(A, b)
    F_reg = np.atleast_2d(np.asarray(F_reg, dtype=float))
    if F_reg.shape[1] != f.dim:
        raise ProblemConstructionError(
            f"columns of F_reg ({F_reg.shape[1]}) do not match columns of A ({f.dim})"
        )
    m = F_reg.shape[0]
    return ProblemSpec(f, ScaledL1(w), F_reg, -np.eye(m), np.zeros(m))


def build_basis_pursuit(A, b):
    """min ||y||_1 subject to A x = b and x - y = 0."""
    f = AffineIndicator(A, b)
    d = f.dim
    return ProblemSpec(f, ScaledL1(1.0), np.eye(d), -np.eye(d), np.zeros(d))


def kkt_residuals(spec, x, y, lam):
    """(primal, dual_x, dual_y): constraint norm and subgradient-membership distances,
    for one point or row by row for (n, d) arrays."""
    primal = np.linalg.norm(spec.constraint_residual(x, y), axis=-1)
    dual_x = spec.f.subgrad_distance(-spec.F_op.tdot(lam), x)
    dual_y = spec.g.subgrad_distance(-(spec.G_sign * lam), y)
    return primal, dual_x, dual_y


# ---------------------------------------------------------------------------
# Instance file format: named CSV blocks, row-major, decimal floats. numpy's loadtxt
# parses the blocks; it reads what float() reads, to the same bits, but refuses the
# '_' digit separators and non-ASCII digits that float() accepts.

_VARIANT_NAMES = {
    Quadratic: "quadratic",
    ScaledL1: "scaled_l1",
    AffineIndicator: "affine_indicator",
    HuberSmoothedL1: "huber_l1",
}


def _fmt_matrix(M):
    M = np.atleast_2d(M)
    return "\n".join(",".join(repr(float(v)) for v in row) for row in M)


def save_instance(spec, path):
    f_line = _VARIANT_NAMES[type(spec.f)]
    g = spec.g
    if isinstance(g, ScaledL1):
        g_line = f"scaled_l1,{g.w!r}"
    elif isinstance(g, HuberSmoothedL1):
        g_line = f"huber_l1,{g.w!r},{g.delta!r}"
    else:
        raise ProblemConstructionError("only l1-type g variants are serializable")
    parts = [
        "[f.variant]", f_line,
        "[g.variant]", g_line,
        "[A]", _fmt_matrix(spec.f.A),
        "[b]", _fmt_matrix(spec.f.b.reshape(-1, 1)),
        "[F]", _fmt_matrix(spec.F),
        "[G]", _fmt_matrix(spec.G),
        "[h]", _fmt_matrix(spec.h.reshape(-1, 1)),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def load_instance(path):
    sections = {}
    current = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                sections[current] = []
            else:
                if current is None:
                    raise ProblemConstructionError(f"malformed instance file {path}")
                sections[current].append(line)

    required = ["f.variant", "g.variant", "A", "b", "F", "G", "h"]
    missing = [k for k in required if not sections.get(k)]
    if missing:
        raise ProblemConstructionError(f"instance file missing sections {missing}")

    def block(name, vector=False):
        lines = sections[name]
        try:
            M = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            widths = sorted({line.count(",") + 1 for line in lines})
            if len(widths) == 1:
                raise ProblemConstructionError(f"block [{name}] of {path}: {exc}") from None
        else:
            widths = [M.shape[1]]
        if len(widths) != 1 or (vector and widths != [1]):
            need = "one entry per row" if vector else "rows of equal length"
            raise ProblemConstructionError(
                f"block [{name}] of {path} needs {need} (got row lengths {widths})")
        if not np.all(np.isfinite(M)):
            raise ProblemConstructionError(f"block [{name}] of {path} has non-finite entries")
        return M[:, 0] if vector else M

    A = block("A")
    b = block("b", vector=True)
    f_kind = sections["f.variant"][0]
    if f_kind == "quadratic":
        f = Quadratic(A, b)
    elif f_kind == "affine_indicator":
        f = AffineIndicator(A, b)
    else:
        raise ProblemConstructionError(f"unknown f variant {f_kind!r}")

    g_kind, *g_args = sections["g.variant"][0].split(",")
    g_class = {"scaled_l1": ScaledL1, "huber_l1": HuberSmoothedL1}.get(g_kind)
    if g_class is None:
        raise ProblemConstructionError(f"unknown g variant {g_kind!r}")
    try:
        g = g_class(*map(float, g_args))
    except (TypeError, ValueError) as exc:  # a missing, extra or bad parameter
        raise ProblemConstructionError(f"block [g.variant] of {path}: {exc}") from None

    return ProblemSpec(f, g, block("F"), block("G"), block("h", vector=True))
