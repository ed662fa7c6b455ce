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

from .band import Banded, band_extremes, gram_band, identity
from .errors import ProblemConstructionError
from .functions import AffineIndicator, HuberSmoothedL1, Quadratic, ScaledL1


class ProblemSpec:
    """Immutable problem instance (f, g, F, G, h). G must be +I or -I; the spec keeps
    only its sign, G_sign, and builds the matrix G_sign * I when spec.G is read.
    F and G may each be a matrix or a band.Banded. F is kept only as F_op (band.Banded),
    and spec.F built from it when read; FtF_band is F^T F's lower band storage, and
    FtF_norm = ||F^T F|| its largest eigenvalue."""

    def __init__(self, f, g, F, G, h):
        self.f = f
        self.g = g
        F, G = (M if isinstance(M, Banded) else np.atleast_2d(np.asarray(M, dtype=float))
                for M in (F, G))
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

        self.F_op = F if isinstance(F, Banded) else Banded(F)
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
    its count of nonzeros, or off a Banded G's one diagonal, with no identity matrix
    built."""
    if isinstance(G, Banded):
        diagonal = G.band[0] if G.banded and G.kl == G.ku == 0 else None
    else:
        diagonal = np.diagonal(G) if np.count_nonzero(G) == G.shape[0] else None
    for sign in (1.0, -1.0):
        if diagonal is not None and np.all(diagonal == sign):
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
    """min ||A x - b||^2 + w ||y||_1 subject to F_reg x - y = 0. A and F_reg may each
    be a matrix or a band.Banded; G = -I is built as its band."""
    f = Quadratic(A, b)
    if not isinstance(F_reg, Banded):
        F_reg = np.atleast_2d(np.asarray(F_reg, dtype=float))
    m, cols = F_reg.shape
    if cols != f.dim:
        raise ProblemConstructionError(
            f"columns of F_reg ({cols}) do not match columns of A ({f.dim})"
        )
    return ProblemSpec(f, ScaledL1(w), F_reg, identity(m, -1.0), np.zeros(m))


def build_basis_pursuit(A, b):
    """min ||y||_1 subject to A x = b and x - y = 0."""
    f = AffineIndicator(A, b)
    d = f.dim
    return ProblemSpec(f, ScaledL1(1.0), identity(d), identity(d, -1.0), np.zeros(d))


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
# '_' digit separators and non-ASCII digits that float() accepts. A matrix (A, F or G)
# is either the dense block [A] or the band block [A.band]: a header line m,n,kl,ku,
# then kl + ku + 1 rows of n cells, LAPACK general band storage (band.band_storage:
# row ku + i - j of column j holds A[i, j]; the cells off the matrix are 0).
# save_instance writes the band block of every matrix its Banded keeps banded
# (kl + ku + 1 <= m), so G = +/-I always, and the dense block of every other.

_VARIANT_NAMES = {
    Quadratic: "quadratic",
    ScaledL1: "scaled_l1",
    AffineIndicator: "affine_indicator",
    HuberSmoothedL1: "huber_l1",
}
_MATRICES = ("A", "F", "G")


def _fmt_matrix(M):
    M = np.atleast_2d(M)
    return "\n".join(",".join(repr(float(v)) for v in row) for row in M)


def _matrix_block(name, M):
    """The lines of matrix M's block: [name.band] when M is a Banded that keeps its band,
    else the dense [name]."""
    if isinstance(M, Banded) and M.banded:
        (m, n), kl, ku = M.shape, M.kl, M.ku
        return [f"[{name}.band]", f"{m},{n},{kl},{ku}", _fmt_matrix(M.band)]
    return [f"[{name}]", _fmt_matrix(M.dense() if isinstance(M, Banded) else M)]


def save_instance(spec, path):
    f_line = _VARIANT_NAMES[type(spec.f)]
    g = spec.g
    if isinstance(g, ScaledL1):
        g_line = f"scaled_l1,{g.w!r}"
    elif isinstance(g, HuberSmoothedL1):
        g_line = f"huber_l1,{g.w!r},{g.delta!r}"
    else:
        raise ProblemConstructionError("only l1-type g variants are serializable")
    A = spec.f.A_op if isinstance(spec.f, Quadratic) else spec.f.A
    parts = [
        "[f.variant]", f_line,
        "[g.variant]", g_line,
        *_matrix_block("A", A),
        "[b]", _fmt_matrix(spec.f.b.reshape(-1, 1)),
        *_matrix_block("F", spec.F_op),
        *_matrix_block("G", identity(spec.m, spec.G_sign)),
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

    both = [f"[{k}] and [{k}.band]" for k in _MATRICES if k in sections and f"{k}.band" in sections]
    if both:
        raise ProblemConstructionError(f"instance file {path} has both {', '.join(both)}")
    banded = {k: f"{k}.band" in sections for k in _MATRICES}
    required = ["f.variant", "g.variant", "b", "h"]
    required += [f"{k}.band" if banded[k] else k for k in _MATRICES]
    missing = [k for k in required if not sections.get(k)]
    if missing:
        raise ProblemConstructionError(f"instance file missing sections {missing}")

    def parse(name, lines, vector=False):
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

    def block(name, vector=False):
        return parse(name, sections[name], vector)

    def matrix(name, rows, cols=None):
        """The dense block [name], or the Banded of the band block [name.band], whose
        header must give rows (and cols) when they are known."""
        if not banded[name]:
            return block(name)
        name = f"{name}.band"
        header, *lines = sections[name]

        def refuse(why):
            return ProblemConstructionError(f"block [{name}] of {path}: {why}")

        fields = [v.strip() for v in header.split(",")]
        if len(fields) != 4 or not all(v.isascii() and v.isdigit() for v in fields):
            raise refuse(f"its header {header!r} is not m,n,kl,ku (four whole numbers)")
        m, n, kl, ku = map(int, fields)
        if not (kl < m and ku < n):
            raise refuse(f"kl = {kl} and ku = {ku} must be below m = {m} and n = {n}")
        if m != rows or cols not in (None, n):
            want = f"{rows}x{cols}" if cols is not None else f"{rows} rows"
            raise refuse(f"its {m}x{n} matrix does not fit the instance, which needs {want}")
        if len(lines) != kl + ku + 1:
            raise refuse(f"needs kl + ku + 1 = {kl + ku + 1} band rows (got {len(lines)})")
        ab = parse(name, lines)
        if ab.shape[1] != n:
            raise refuse(f"needs rows of n = {n} cells (got {ab.shape[1]})")
        for r in range(kl + ku + 1):  # the cells of row ku + o off the matrix: j < j0, j >= j1
            j0 = max(0, ku - r)
            j1 = max(j0, min(n, m + ku - r))
            if np.any(ab[r, :j0] != 0) or np.any(ab[r, j1:] != 0):
                raise refuse(f"band row {r} has a nonzero cell off the {m}x{n} matrix")
        return Banded.from_band((m, n), kl, ku, ab)

    b = block("b", vector=True)
    h = block("h", vector=True)
    A = matrix("A", b.shape[0])
    f_kind = sections["f.variant"][0]
    if f_kind == "quadratic":
        f = Quadratic(A, b)
    elif f_kind == "affine_indicator":
        f = AffineIndicator(A.dense() if isinstance(A, Banded) else A, b)
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

    F = matrix("F", h.shape[0], f.dim)
    G = matrix("G", h.shape[0], h.shape[0])
    if banded["G"] and _identity_sign(G) is None:
        raise ProblemConstructionError(f"block [G.band] of {path}: G is not +I or -I; "
                                       "its band must be one diagonal of all +1 or all -1")
    return ProblemSpec(f, g, F, G, h)
