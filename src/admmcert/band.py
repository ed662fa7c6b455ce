"""Band matrices: LAPACK band storage, products at the band and band eigenvalues.

A difference operator F, an identity A and the x-system 2s A^T A + F^T F they make
have a few nonzero diagonals. Banded applies such a matrix to a vector through BLAS
dgbmv and to the rows of an (n, .) array diagonal by diagonal, gram_band forms
A^T A's lower band from A's band, and band_extremes reads the extreme eigenvalues of
a symmetric band through LAPACK dsbevx. A Banded is built from a dense matrix, by
scanning its bandwidths, or straight from its band (Banded.from_band, as an instance
file's band block is read). So only Banded.dense builds a d x d array for a banded
matrix; a matrix whose band is nearly full keeps its dense array and products.

LAPACK and BLAS come from scipy's compiled modules, loaded from their files
(_load_linalg), not through the scipy.linalg package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import IllConditionedError

ROW_BLOCK_CELLS = 1 << 15  # cells of the product temporary a row block of Banded takes


def _load_linalg(name):
    """scipy's compiled module scipy/linalg/<name> (_flapack for LAPACK, _fblas for
    BLAS), loaded from its file.

    scipy.linalg hands back these same routines for float64 data, so every factor,
    solve and product has the bits it would have through scipy.linalg, without that
    package's import (about 0.3 s and 18 MB at start-up). The module is entered in
    sys.modules, where a later `import scipy.linalg` finds and reuses it.
    """
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")  # locates the package, runs none of it
    if scipy_spec is None:
        raise ImportError(f"scipy is not installed; its module scipy/linalg/{name} "
                          "is required")
    base = os.path.join(scipy_spec.submodule_search_locations[0], "linalg", name)
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's compiled module is missing: no {paths[0]}")
    spec = importlib.util.spec_from_file_location(full, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


_flapack = _load_linalg("_flapack")
_fblas = _load_linalg("_fblas")


def bandwidths(A):
    """(kl, ku): how far the nonzeros of A reach below and above its diagonal, from
    the first and the last nonzero column of each row. A is scanned as a boolean mask
    a block of rows at a time, so no temporary is larger than ROW_BLOCK_CELLS."""
    m, n = A.shape
    kl = ku = 0
    step = max(1, ROW_BLOCK_CELLS // max(n, 1))
    for i0 in range(0, m, step):
        mask = A[i0:i0 + step] != 0
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size:
            first = mask[rows].argmax(axis=1)
            last = n - 1 - mask[rows, ::-1].argmax(axis=1)
            kl = max(kl, int(np.max(i0 + rows - first)))
            ku = max(ku, int(np.max(last - rows - i0)))
    return kl, ku


def band_storage(A, kl, ku):
    """A's band in LAPACK general band storage: row ku + i - j of column j holds
    A[i, j]. With ku = 0 it is the lower symmetric band storage of dpbtrf."""
    ab = np.zeros((kl + ku + 1, A.shape[1]))
    for o in range(-ku, kl + 1):  # the diagonal i - j = o, from column j0
        diagonal, j0 = np.diagonal(A, -o), max(0, -o)
        ab[ku + o, j0:j0 + diagonal.size] = diagonal
    return ab


def trimmed(lower):
    """A lower symmetric band without its trailing all-zero diagonals: the bandwidth
    its nonzeros reach (a NaN counts as nonzero)."""
    nonzero = np.flatnonzero(lower.any(axis=1))
    return lower[:nonzero[-1] + 1 if nonzero.size else 1]


class Banded:
    """A fixed (m, n) matrix A, applied as A x by dot and as A^T v by tdot, to a vector
    or to each row of an (rows, .) array.

    Where the band is narrow (kl + ku + 1 <= m; f2py's dgbmv refuses a wider one), A
    is kept in general band storage only: a vector goes through BLAS dgbmv, and rows
    sum the band's diagonals, each output entry in ascending order of the summed
    index from a zero accumulator, in blocks of rows, so that the only (rows, .)
    array is the output. With one or two +/-1 terms per entry (identity and first
    differences) each product is exact and the sum is rounded once, so the result
    has the bits of the dense product, signed zeros included (a NaN or inf spreads
    only along the band, where the dense product spreads it over the whole row).
    A wider A keeps its dense products x @ A.T and v @ A (for a vector, the bits of
    A @ x and A.T @ v).
    """

    def __init__(self, A):
        self.shape, (kl, ku) = A.shape, bandwidths(A)
        if kl + ku + 1 <= A.shape[0]:
            self._set_band(kl, ku, band_storage(A, kl, ku))
        else:
            self.kl, self.ku, self.banded, self.A = kl, ku, False, A
            A.flags.writeable = False

    @classmethod
    def from_band(cls, shape, kl, ku, ab):
        """The matrix of the given shape whose general band storage is ab (row ku + i - j
        of column j holds A[i, j]). Trailing all-zero diagonals are dropped, as
        bandwidths drops them from a dense matrix (_trimmed_band), so the band and the
        dense form of one matrix give the same kl, ku and band. A band too wide for
        dgbmv is kept dense."""
        op = cls.__new__(cls)
        op.shape = shape
        op._set_band(*_trimmed_band(shape, kl, ku, ab))
        return op

    @classmethod
    def symmetric(cls, lower):
        """The symmetric d x d matrix whose lower band storage is lower, kept with its
        bandwidth kd as given (a dense matrix where 2 kd + 1 > d)."""
        op = cls.__new__(cls)
        kd, d = lower.shape[0] - 1, lower.shape[1]
        op.shape = d, d
        ab = np.zeros((2 * kd + 1, d))  # row kd - o, column j: the upper entry M[j - o, j]
        ab[kd:] = lower
        for o in range(1, kd + 1):
            ab[kd - o, o:] = lower[o, :d - o]
        op._set_band(kd, kd, ab)
        return op

    def dense(self):
        """A as a read-only (m, n) array: the stored one, or built from the band with its
        bits; an entry off the band is 0.0, also where the A it came from held -0.0."""
        if not self.banded:
            return self.A
        return _band_matrix(self.band, self.shape, self.kl, self.ku)

    def _set_band(self, kl, ku, ab):
        """Keep the band ab, or for a band too wide for dgbmv the dense matrix it
        stores."""
        m, n = self.shape
        self.kl, self.ku, self.banded = kl, ku, kl + ku + 1 <= m
        if not self.banded:
            self.A = _band_matrix(ab, self.shape, kl, ku)
            return
        self.band = ab
        self._args = m, n, kl, ku, 1.0, ab
        # trans goes by position, after beta = 0 and a y whose zeros only fix its
        # length: f2py takes about 1 us a call to parse a keyword
        self._tail = 1, 0, 0.0, np.zeros(n), 1, 0, 1
        # the row products' terms (src, i0, i1, c): out[:, i0:i1] += x[:, src:] * c.
        # A x sums over the columns j = i + o, o ascending, where A[i, i + o] is in
        # band row ku - o; A^T v over the rows i = j + p, p ascending, where
        # A[j + p, j] is in band row ku + p
        self._dot_terms = [(i0 + o, i0, i1, ab[ku - o, i0 + o:i1 + o])
                           for o in range(-kl, ku + 1)
                           for i0, i1 in [(max(0, -o), min(m, n - o))] if i0 < i1]
        self._tdot_terms = [(j0 + p, j0, j1, ab[ku + p, j0:j1])
                            for p in range(-ku, kl + 1)
                            for j0, j1 in [(max(0, -p), min(n, m - p))] if j0 < j1]

    def dot(self, x):
        """A x for a vector x, or A x_j for each row x_j of an (rows, n) array."""
        if not self.banded:
            return x @ self.A.T
        if x.ndim == 1:
            return _fblas.dgbmv(*self._args, x)
        return _rows(x, self.shape[0], self._dot_terms)

    def tdot(self, v):
        """A^T v for a vector v, or A^T v_j for each row v_j of an (rows, m) array."""
        if not self.banded:
            return v @ self.A
        if v.ndim == 1:
            return _fblas.dgbmv(*self._args, v, *self._tail)
        return _rows(v, self.shape[1], self._tdot_terms)


def identity(m, c=1.0):
    """c I, of size m x m, as the Banded of its one diagonal: no m x m array is built."""
    return Banded.from_band((m, m), 0, 0, np.full((1, m), c))


def _trimmed_band(shape, kl, ku, ab):
    """(kl, ku, band): a copy of the general band storage ab of an m x n matrix, its
    cells off the matrix (the corners) 0.0 whatever ab held there, cut to the first
    and last diagonals that hold a nonzero (a NaN counts), as bandwidths reads them
    off a dense matrix and trimmed off a lower band."""
    m, n = shape
    band = np.zeros((kl + ku + 1, n))
    for o in range(-ku, kl + 1):  # the diagonal i - j = o, on the columns j0:j1
        j0 = max(0, -o)
        j1 = max(j0, min(n, m - o))  # j0 where the diagonal is off the matrix
        band[ku + o, j0:j1] = ab[ku + o, j0:j1]
    held = np.flatnonzero(band.any(axis=1)) - ku
    kl_, ku_ = max(0, int(held.max(initial=0))), max(0, -int(held.min(initial=0)))
    return kl_, ku_, band[ku - ku_:ku + kl_ + 1]


def _band_matrix(ab, shape, kl, ku):
    """The read-only matrix of the given shape whose general band storage is ab."""
    (m, n), M = shape, np.zeros(shape)
    for o in range(-ku, kl + 1):  # the diagonal i - j = o from (j0 + o, j0), flat stride n + 1
        j0 = max(0, -o)
        size = max(0, min(m - j0 - o, n - j0))  # none where the diagonal is off the matrix
        M.reshape(-1)[(j0 + o) * n + j0::n + 1][:size] = ab[ku + o, j0:j0 + size]
    M.flags.writeable = False
    return M


def _rows(x, width, terms):
    """The (rows, width) sum of the terms (src, i0, i1, c), in order, each adding
    x[:, src:src + i1 - i0] * c to columns i0:i1, from zeros, a block of rows at a time."""
    out = np.zeros((x.shape[0], width))
    step = max(1, ROW_BLOCK_CELLS // max(width, 1))
    buf = np.empty((min(step, x.shape[0]), width))
    for b0 in range(0, x.shape[0], step):
        b1 = min(b0 + step, x.shape[0])
        for src, i0, i1, c in terms:
            prod = buf[:b1 - b0, :i1 - i0]
            np.multiply(x[b0:b1, src:src + i1 - i0], c, out=prod)
            acc = out[b0:b1, i0:i1]
            np.add(acc, prod, out=acc)
    return out


def gram_band(op):
    """The lower symmetric band storage of A^T A for the Banded op of A, trimmed to
    the bandwidth its nonzeros reach. A narrow band sums, for each diagonal of A^T A,
    the products of A's band entries over A's rows in ascending order, from a zero
    accumulator; a dense A takes the dense product A.T @ A."""
    if not op.banded:
        G = op.A.T @ op.A
        return trimmed(band_storage(G, G.shape[0] - 1, 0))
    m, n = op.shape
    kl, ku, ab = op.kl, op.ku, op.band
    lower = np.zeros((min(kl + ku, n - 1) + 1, n))  # A^T A is n x n
    # entry (j + o, j) sums A[i, j] A[i, j + o] over the rows i = j - t, t descending;
    # A[j - t, j] is in band row ku - t, A[j - t, j + o] in band row ku - t - o
    for o in range(lower.shape[0]):
        acc = lower[o, :n - o]
        for t in range(ku - o, -kl - 1, -1):
            acc += ab[ku - t, :n - o] * ab[ku - t - o, o:]
    return trimmed(lower)


def band_extremes(lower):
    """(lambda_min, lambda_max) of the symmetric matrix with lower band storage lower.
    A narrow band (2 kd + 1 <= d, as for Banded) goes through LAPACK dsbevx: range "I"
    picks each eigenvalue by its index, and abstol = 2 * the safe minimum (as
    scipy.linalg.eig_banded sets it) bisects to full accuracy. A wider band is a
    dense matrix, and takes np.linalg.eigvalsh. (-inf, inf)
    when an entry is not finite, so that every bound read from them refuses."""
    if not np.isfinite(lower).all():
        return -math.inf, math.inf
    kd, n = lower.shape[0] - 1, lower.shape[1]
    if 2 * kd + 1 > n:
        ev = np.linalg.eigvalsh(Banded.symmetric(lower).dense())
        return float(ev[0]), float(ev[-1])
    extremes = []
    for i in (1, n):
        w, found, info = _dsbevx(lower, i, i)
        if info or found != 1:
            # LAPACK's own cure when range "I" misses the eigenvalue it was asked for
            # (dstebz's info 2, seen when the band splits into diagonal blocks): all
            # eigenvalues, range "A"
            w, found, info = _dsbevx(lower, 1, n, everything=True)
            if info or found != n:
                raise IllConditionedError(f"LAPACK dsbevx failed on the {n}x{n} band "
                                          f"(info {info})")
            return float(w[0]), float(w[n - 1])
        extremes.append(float(w[0]))
    return tuple(extremes)


def _dsbevx(lower, il, iu, everything=False):
    """dsbevx's eigenvalues il..iu (range "I"), or all of them, of a lower band; returns
    (w, how many it found, info)."""
    w, _, found, _, info = _flapack.dsbevx(lower, 0.0, 0.0, il, iu, compute_v=0,
                                           range=0 if everything else 2, lower=1,
                                           abstol=2.0 * _flapack.dlamch("s"), overwrite_ab=0)
    return w, found, info


def band_cond(lower):
    """The 2-norm condition number of a positive semidefinite symmetric band,
    lambda_max / lambda_min; inf when it is singular or not finite. Rounding can leave
    the smallest eigenvalue of a singular one slightly negative, and its magnitude is
    then the estimate's denominator, as it is for max|lambda| / min|lambda|."""
    lo, hi = band_extremes(lower)
    if not math.isfinite(hi) or lo == 0.0:
        return math.inf
    return max(abs(lo), abs(hi)) / abs(lo)
