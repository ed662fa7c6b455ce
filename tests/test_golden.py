"""Golden bytes: the artifacts of four small CLI runs, pinned by sha256.

The instances are one-dimensional (d1 = d2 = m = 1), so every product is a
scalar multiply and the hashes do not depend on the BLAS build. Any change in
the last bit of any written number, or in a column name, fails this test; a
change that is meant to alter the artifacts must update the hashes and say so.
"""

import hashlib

import pytest

from admmcert.cli import main

GOLDEN = {
    "solve": (
        ["solve", "--spec", "scalar_lasso", "--N", "50"],
        {
            "certificates.json": "407387fd374d55efe66c033e13bc3c38fcf65b44aa0e4d18290c123c7ee27cee",
            "trace.csv": "7ee79f21ab291ac19066f93f35200899662971386faa054a0e4427b0ea18e19d",
            "trace.json": "2af47f8536f165ef042c8d63b5d614e9790bf037229ab6f8845ab0178650b389",
        },
    ),
    "solve_general": (
        ["solve", "--spec", "scalar_lasso", "--N", "50", "--variant", "general", "--r", "2.0"],
        {
            "certificates.json": "9ebfcbee91f40b4e3ace8327c7c529460eaabbc9aa87ce9ab058c7bfee4d78f0",
            "trace.csv": "a41d2cc058842f42497fae9158efbc868114e5ddcfef52ed673e14c241593292",
            "trace.json": "d62bf6bbc7f72e0baf4758643920934ff26962672230b82b414aac26d304860e",
        },
    ),
    # at T = 20 the high-resolution run computes 1,714 implicit steps, each an exact
    # pattern solve, and row 1714 repeats row 1713, so this case also pins the rows
    # copied after an exact repeat (at T <= 10 no row repeats); its key is kept from
    # when a least-squares f still tried an ADMM step first below delta = s, which this
    # run accepted at rows 1664-1666
    "simulate_accepted_sweep": (
        ["simulate", "--spec", "scalar_lasso_smoothed", "--delta", "0.01", "--horizon", "20"],
        {
            "comparison.csv": "9191fe1eb281497cdb7319d087c1ab1585202ee9f19460e8f3c842ffa6bd6967",
            "discrete.csv": "f84aebb55f1e06d6fed82c31f5a34fe43030eb379183fc52513d5f666a92a555",
            "high_res.csv": "ec68f8955a5227a5603e8a0de8dcdf59a6036738dfa6f6bac0c1c4e93fa4f719",
            "low_res.csv": "994c5464f52f6b60ae5777851d1a89242e9eedd25944423f998efc4f3a03de53",
        },
    ),
    "simulate": (
        ["simulate", "--spec", "scalar_lasso_smoothed", "--delta", "0.01", "--horizon", "1"],
        {
            "comparison.csv": "eeb973584ba5ca98bd1c0bd9396f9cc5748b769dbadd503177065f81b94ea164",
            "discrete.csv": "ed9c6c9c55a29644d59dbaa140fcfd44212b35fb10c3eee6d7c2b52d9259372e",
            "high_res.csv": "c7d6c3ddf590dee9aa08b5866b6e938413d85f06253e6fdca376aab9555150b0",
            "low_res.csv": "68596530d51a2baa526a6c59bd99eb95a0860ea6b3a3608c8a5c99bc2186c7c5",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_hashes(tmp_path, name):
    argv, expected = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    actual = {fname: hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
              for fname in expected}
    assert actual == expected
