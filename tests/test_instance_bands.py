"""Band blocks in the instance file.

A banded matrix is written as its LAPACK general band storage and read straight into a
band.Banded, so that a band file and the dense file of one instance give the same
operators and the same run, a malformed band block exits 2 naming the block, and
`generate tv` and `load_instance` stay O(d) in memory.
"""

import tracemalloc

import numpy as np
import pytest

from admmcert import band
from admmcert.cli import main
from admmcert.problems import _fmt_matrix, load_instance
from compare_artifacts import compare_dirs


def _blocks(path):
    """The instance file as [(name, lines)], in file order."""
    blocks = []
    for line in path.read_text().split("\n"):
        if line.startswith("["):
            blocks.append((line[1:-1], []))
        elif line:
            blocks[-1][1].append(line)
    return blocks


def _write(path, blocks):
    path.write_text("".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                            for name, lines in blocks))


def _generated(tmp_path, kind="tv", dims="600", name="band.txt"):
    path = tmp_path / name
    assert main(["generate", kind, "--dims", dims, "--seed", "1", "--out", str(path)]) == 0
    return path


def _dense_copy(path, out):
    """The instance at path with each band block [M.band] rewritten as the dense block
    [M] of the matrix its Banded stores (Banded.dense)."""
    spec = load_instance(path)
    dense = {"A": spec.f.A_op.dense(), "F": spec.F_op.dense(),
             "G": band.identity(spec.m, spec.G_sign).dense()}
    _write(out, [(name[:-5], _fmt_matrix(dense[name[:-5]]).split("\n"))
                 if name.endswith(".band") else (name, lines)
                 for name, lines in _blocks(path)])
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_band_and_dense_files_give_the_same_operators_and_run(tmp_path, capsys):
    band_path = _generated(tmp_path)
    dense_path = _dense_copy(band_path, tmp_path / "dense.txt")
    names = [name for name, _ in _blocks(band_path)]
    assert {"A.band", "F.band", "G.band"} <= set(names)
    assert not {"A.band", "F.band", "G.band"} & {name for name, _ in _blocks(dense_path)}
    got, want = load_instance(band_path), load_instance(dense_path)
    for op, ref in ((got.F_op, want.F_op), (got.f.A_op, want.f.A_op)):
        assert (op.shape, op.kl, op.ku, op.banded) == (ref.shape, ref.kl, ref.ku, True)
        assert np.array_equal(_bits(op.band), _bits(ref.band))
    assert got.G_sign == want.G_sign == -1.0
    for a, b in ((got.FtF_band, want.FtF_band), (got.f.gram_band, want.f.gram_band),
                 (got.f.b, want.f.b), (got.h, want.h)):
        assert np.array_equal(_bits(a), _bits(b))
    assert got.FtF_norm == want.FtF_norm

    runs = []
    for path in (band_path, dense_path):
        out = tmp_path / f"run_{path.stem}"
        runs.append((str(out), main(["solve", "--spec", str(path), "--N", "50",
                                     "--out", str(out)])))
    capsys.readouterr()
    (dir_a, code_a), (dir_b, code_b) = runs
    lines, status = compare_dirs(dir_a, dir_b, (code_a, code_b))
    assert status == 0 and code_a == 0, lines
    assert "trace.csv: identical bytes" in lines and "certificates.json: identical bytes" in lines


def test_save_writes_a_band_block_exactly_when_the_operator_is_banded(tmp_path):
    # a lasso's random A is dense; its F = I and G = -I are bands. The band file of the
    # tv instance is about 25 KB, where the dense one took 4.7 MB
    lasso = _blocks(_generated(tmp_path, "lasso", "12,9", "lasso.txt"))
    assert [name for name, _ in lasso] == ["f.variant", "g.variant", "A", "b", "F.band",
                                           "G.band", "h"]
    assert dict(lasso)["F.band"] == ["9,9,0,0", ",".join(["1.0"] * 9)]
    assert _generated(tmp_path).stat().st_size < 30_000


def test_trend_band_loads_with_the_dense_bands(tmp_path):
    band_path = _generated(tmp_path, "trend", "40")
    got = load_instance(band_path)
    want = load_instance(_dense_copy(band_path, tmp_path / "dense.txt"))
    assert (got.F_op.kl, got.F_op.ku) == (want.F_op.kl, want.F_op.ku) == (0, 2)
    assert np.array_equal(_bits(got.F_op.band), _bits(want.F_op.band))
    assert np.array_equal(_bits(got.FtF_band), _bits(want.FtF_band))


def test_band_block_trims_its_zero_diagonals(tmp_path):
    # a header wider than the nonzeros reach loads as the same Banded as the tight one
    path = _generated(tmp_path, "tv", "6")
    blocks = _blocks(path)
    for i, (name, lines) in enumerate(blocks):
        if name == "F.band":
            blocks[i] = (name, ["5,6,1,2", "0.0,0.0,0.0,0.0,0.0,0.0", *lines[1:],
                                "0.0,0.0,0.0,0.0,0.0,0.0"])
    wide = tmp_path / "wide.txt"
    _write(wide, blocks)
    got, want = load_instance(wide).F_op, load_instance(path).F_op
    assert (got.kl, got.ku) == (want.kl, want.ku) == (0, 1)
    assert np.array_equal(_bits(got.band), _bits(want.band))


def _replace(lines, i, cell):
    """The band lines with cell i of the first band row (after the header) replaced."""
    row = lines[1].split(",")
    row[i] = cell
    return [lines[0], ",".join(row), *lines[2:]]


@pytest.mark.parametrize("name, mutate, message", [
    ("F.band", lambda lines: ["5,6,0", *lines[1:]], "its header '5,6,0' is not m,n,kl,ku"),
    ("F.band", lambda lines: ["5,6,0,x", *lines[1:]], "is not m,n,kl,ku"),
    ("F.band", lambda lines: ["5,6,-1,1", *lines[1:]], "is not m,n,kl,ku"),
    ("F.band", lambda lines: ["5,6,5,1", *lines[1:]], "kl = 5 and ku = 1 must be below"),
    ("F.band", lambda lines: lines[:-1], "needs kl + ku + 1 = 2 band rows (got 1)"),
    ("F.band", lambda lines: [lines[0]] + [line.rsplit(",", 1)[0] for line in lines[1:]],
     "needs rows of n = 6 cells (got 5)"),
    ("F.band", lambda lines: [lines[0], lines[1] + ",1.0", *lines[2:]],
     "needs rows of equal length"),
    ("F.band", lambda lines: _replace(lines, 2, "nan"), "has non-finite entries"),
    ("F.band", lambda lines: _replace(lines, 3, "inf"), "has non-finite entries"),
    # band row 0 holds F[j - 1, j]: its column 0 is off the matrix
    ("F.band", lambda lines: _replace(lines, 0, "1.0"), "band row 0 has a nonzero cell off"),
    ("F.band", lambda lines: ["4,6,0,1", *lines[1:]],
     "its 4x6 matrix does not fit the instance, which needs 5x6"),
    ("F.band", lambda lines: ["5,5,0,1", *(line.split(",", 1)[1] for line in lines[1:])],
     "its 5x5 matrix does not fit the instance, which needs 5x6"),
    ("A.band", lambda lines: ["5,6,0,0", *lines[1:]],
     "its 5x6 matrix does not fit the instance, which needs 6 rows"),
    ("G.band", lambda lines: ["5,6,0,0", lines[1] + ",-1.0"],
     "its 5x6 matrix does not fit the instance, which needs 5x5"),
    ("G.band", lambda lines: _replace(lines, 2, "1.0"), "G is not +I or -I"),
    ("G.band", lambda lines: _replace(lines, 0, "-2.0"), "G is not +I or -I"),
], ids=["short_header", "text_in_header", "negative_kl", "kl_past_m", "missing_row",
        "short_rows", "ragged_row", "nan_cell", "inf_cell", "corner", "rows_not_h",
        "cols_not_A", "rows_not_b", "G_not_square", "G_mixed_signs", "G_two"])
def test_malformed_band_block_exits_2_naming_it(tmp_path, capsys, name, mutate, message):
    path = _generated(tmp_path, "tv", "6")
    blocks = [(n, mutate(lines) if n == name else lines) for n, lines in _blocks(path)]
    _write(path, blocks)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["solve", "--spec", str(path), "--N", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"block [{name}] of {path}" in err and message in err, err
    assert not out.exists()


def test_dense_and_band_block_of_one_matrix_refused(tmp_path, capsys):
    path = _generated(tmp_path, "tv", "6")
    blocks = _blocks(path)
    dense_F = _blocks(_dense_copy(path, tmp_path / "dense.txt"))[4]
    assert dense_F[0] == "F"
    _write(path, blocks + [dense_F])
    assert main(["solve", "--spec", str(path), "--N", "10", "--out", str(tmp_path / "o")]) == 2
    assert "has both [F] and [F.band]" in capsys.readouterr().err


def test_generate_and_load_stay_linear_in_d(tmp_path):
    # a d x d float64 array alone would take d * d * 8 = 80 GB; the bound is the one the
    # banded spec build keeps at d = 1200 (tests/test_band.py). Only tv: trend's
    # F^T F band (kd = 2) takes dsbevx O(d^2) time to reduce, minutes at this d
    d = 100_000
    path = tmp_path / "tv.txt"
    load_instance(_generated(tmp_path, "tv", "8", "small.txt"))  # numpy's first-use imports
    tracemalloc.start()
    try:
        assert main(["generate", "tv", "--dims", str(d), "--seed", "1", "--out", str(path)]) == 0
        spec = load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.F_op.banded and spec.f.A_op.banded and spec.d1 == d
    assert peak < 64 * d * 8 + 8 * band.ROW_BLOCK_CELLS
