#!/usr/bin/env python3
"""Compare two artifact directories cell by cell.

    python tests/compare_artifacts.py A B [--exit CODE_A CODE_B]

Every file the two directories share is compared, except the sidecar
metadata.txt, whose wall-clock stamp is never byte-compared. A file with the
same bytes on both sides is reported as identical. Otherwise:

- a CSV file, every cell a number, is compared column by column (by header
  name);
- a JSON file is compared leaf by leaf, each leaf named by its path, e.g.
  criteria[7].details.lasso_8x6_smoothed.certificates.theorem_3_2_weak_rate
  (a list element that is an object with an "id" or "theorem" key is named by
  it, otherwise by its index);
- any other file only as bytes.

Numbers are compared as float64 bit patterns, so 0.0 and -0.0 differ, and two
NaNs differ only when their payloads do. For each CSV column and each numeric
JSON leaf that differs, the report gives the largest absolute and relative
difference, the largest distance in ulps (0 for a zero whose sign changed; none
for a NaN), the number of differing cells and the first differing row (0 is the
first row under the header).

Separately, it lists every boolean JSON leaf that changed (each pass flag and
all_pass), and the two exit codes when --exit gives them. It exits 1 when a
flag or the exit code changed, or when the two sides do not have the same
files, columns, row counts or JSON keys, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

SIDECAR = "metadata.txt"
SIGN_MASK = np.int64(0x7FFF_FFFF_FFFF_FFFF)


@dataclass
class ColumnDiff:
    """How two float64 columns of one name differ: cells is the count of cells whose
    bits differ, of which nan_cells involve a NaN and zero_sign_cells are a zero whose
    sign changed; the maxima are over the other cells."""

    cells: int
    first_row: int
    max_abs: float
    max_abs_row: int
    max_rel: float
    max_ulps: int
    nan_cells: int
    zero_sign_cells: int


def _ordered(bits):
    """float64 bit patterns as integers in the order of the floats they encode, so that
    neighbouring floats are one apart and 0.0 and -0.0 are both 0 (Python ints, which
    cannot overflow when subtracted)."""
    return [int(b) for b in np.where(bits >= 0, bits, -(bits & SIGN_MASK))]


def compare_column(a, b):
    """The ColumnDiff of two equally long float64 arrays, or None when all bits agree."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    ia, ib = a.view(np.int64), b.view(np.int64)
    rows = np.flatnonzero(ia != ib)
    if not rows.size:
        return None
    va, vb = a[rows], b[rows]
    nan = np.isnan(va) | np.isnan(vb)
    zero_sign = (va == 0.0) & (vb == 0.0)
    keep = ~nan
    with np.errstate(invalid="ignore", over="ignore"):
        absd = np.abs(va[keep] - vb[keep])
        scale = np.maximum(np.abs(va[keep]), np.abs(vb[keep]))
        rel = np.where(np.isinf(absd), np.inf, absd / np.where(scale > 0.0, scale, 1.0))
    ulps = [abs(x - y) for x, y in zip(_ordered(ia[rows][keep]), _ordered(ib[rows][keep]))]
    top = int(np.argmax(absd)) if absd.size else None
    return ColumnDiff(
        cells=int(rows.size), first_row=int(rows[0]),
        max_abs=float(absd[top]) if top is not None else 0.0,
        max_abs_row=int(rows[keep][top]) if top is not None else int(rows[0]),
        max_rel=float(rel.max()) if rel.size else 0.0,
        max_ulps=max(ulps, default=0),
        nan_cells=int(nan.sum()), zero_sign_cells=int(zero_sign.sum()))


def _plural(n, word):
    return f"{n} {word}{'' if n == 1 else 's'}"


def describe(name, diff):
    """One report line for a differing CSV column."""
    parts = [_plural(diff.cells, 'differing cell'), f"first row {diff.first_row}",
             f"max abs {diff.max_abs:.3e} (row {diff.max_abs_row})",
             f"max rel {diff.max_rel:.3e}", f"max ulps {diff.max_ulps}"]
    if diff.nan_cells:
        parts.append(_plural(diff.nan_cells, "NaN cell"))
    if diff.zero_sign_cells:
        parts.append(_plural(diff.zero_sign_cells, "signed zero"))
    return f"  {name}: " + "; ".join(parts)


def describe_leaf(name, diff, va, vb):
    """One report line for a differing numeric JSON leaf."""
    if diff.nan_cells:
        what = "NaN"
    elif diff.zero_sign_cells:
        what = "signed zero"
    else:
        what = f"abs {diff.max_abs:.3e}; rel {diff.max_rel:.3e}; ulps {diff.max_ulps}"
    return f"  {name}: {what}; A {va!r}, B {vb!r}"


def compare_csv(path_a, path_b, out):
    """Report lines for two CSV files; returns True when their shapes differ."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    head_a, head_b = rows_a.pop(0), rows_b.pop(0)
    broken = False
    for side, cols in (("A", set(head_a) - set(head_b)), ("B", set(head_b) - set(head_a))):
        if cols:
            out.append(f"  columns only in {side}: {', '.join(sorted(cols))}")
            broken = True
    if len(rows_a) != len(rows_b):
        out.append(f"  rows: {len(rows_a)} in A, {len(rows_b)} in B; "
                   f"the first {min(len(rows_a), len(rows_b))} are compared")
        broken = True
    n = min(len(rows_a), len(rows_b))
    cols_a = dict(zip(head_a, zip(*rows_a[:n]))) if n else dict.fromkeys(head_a, ())
    cols_b = dict(zip(head_b, zip(*rows_b[:n]))) if n else dict.fromkeys(head_b, ())
    same = 0
    for name in [c for c in head_a if c in cols_b]:
        diff = compare_column(list(map(float, cols_a[name])), list(map(float, cols_b[name])))
        if diff is None:
            same += 1
        else:
            out.append(describe(name, diff))
    out.append(f"  {same} of {len(head_a)} columns identical, {n} rows")
    return broken


def leaves(node, path=""):
    """(path, value) of every leaf of a parsed JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            label = i
            if isinstance(item, dict):
                label = item.get("id", item.get("theorem", i))
            yield from leaves(item, f"{path}[{label}]")
    else:
        yield path, node


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_json(path_a, path_b, out, flags):
    """Report lines for two JSON files, and changed boolean leaves appended to flags;
    returns True when their key sets differ."""
    with open(path_a) as fa, open(path_b) as fb:
        la, lb = dict(leaves(json.load(fa))), dict(leaves(json.load(fb)))
    broken = False
    for side, keys in (("A", la.keys() - lb.keys()), ("B", lb.keys() - la.keys())):
        for key in sorted(keys):
            out.append(f"  only in {side}: {key}")
            broken = True
            if isinstance((la if side == "A" else lb)[key], bool):
                flags.append(f"{key}: only in {side}")
    numbers = same = 0
    for key in [k for k in la if k in lb]:
        va, vb = la[key], lb[key]
        if isinstance(va, bool) or isinstance(vb, bool):
            if va is not vb:
                flags.append(f"{key}: {va!r} -> {vb!r}")
        elif _number(va) and _number(vb):
            numbers += 1
            diff = compare_column([va], [vb])
            if diff is None:
                same += 1
            else:
                out.append(describe_leaf(key, diff, va, vb))
        elif va != vb:
            out.append(f"  {key}: {va!r} -> {vb!r}")
    out.append(f"  {same} of {numbers} numeric leaves identical")
    return broken


def compare_dirs(dir_a, dir_b, exit_codes=None):
    """(report lines, exit status) for two artifact directories."""
    files_a = {f for f in os.listdir(dir_a) if f != SIDECAR}
    files_b = {f for f in os.listdir(dir_b) if f != SIDECAR}
    out, flags, broken = [], [], False
    for side, only in (("A", files_a - files_b), ("B", files_b - files_a)):
        for fname in sorted(only):
            out.append(f"{fname}: only in {side}")
            broken = True
    for fname in sorted(files_a & files_b):
        pa, pb = os.path.join(dir_a, fname), os.path.join(dir_b, fname)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                out.append(f"{fname}: identical bytes")
                continue
        out.append(f"{fname}: differs")
        if fname.endswith(".csv"):
            broken = compare_csv(pa, pb, out) or broken
        elif fname.endswith(".json"):
            broken = compare_json(pa, pb, out, flags) or broken
    if exit_codes is not None and exit_codes[0] != exit_codes[1]:
        flags.append(f"exit code: {exit_codes[0]} -> {exit_codes[1]}")
    out.append("flags changed:" + ("".join(f"\n  {f}" for f in flags) if flags else " none"))
    if exit_codes is not None:
        out.append(f"exit codes: A {exit_codes[0]}, B {exit_codes[1]}")
    return out, 1 if flags or broken else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("a", help="the first artifact directory (the parent's run)")
    parser.add_argument("b", help="the second artifact directory (the change's run)")
    parser.add_argument("--exit", nargs=2, type=int, metavar=("CODE_A", "CODE_B"),
                        help="the exit codes of the two runs")
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not os.path.isdir(d):
            parser.error(f"not a directory: {d}")
    lines, status = compare_dirs(args.a, args.b, args.exit)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
