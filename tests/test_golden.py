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
            "certificates.json": "875407ea52791f418892a032165d2c267bf0b2484ab10643c1efeb30c5d758c5",
            "trace.csv": "ad8f08224200ff943afe9cc1142da676b6c432e1551a1cac148a4762e915b801",
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
    # copied after an exact repeat (at T <= 10 no row repeats); it is named for the
    # ADMM-shaped sweeps it accepted at rows 1664-1666 while delta < s still tried one
    "simulate_accepted_sweep": (
        ["simulate", "--spec", "scalar_lasso_smoothed", "--delta", "0.01", "--horizon", "20"],
        {
            "comparison.csv": "d4b1c9baef4c40152b9211a49226828684237a0bb0c9900f1d7f590ce19e0746",
            "discrete.csv": "f2f8af2186a2a07f95c71b3f9cec607a038b929cf8d4394b05523704f52801d9",
            "high_res.csv": "5b04097430370fe3f17e6ea2c0096da556f79ac4410d7f1f4a0b662b4bd72afa",
            "low_res.csv": "d1adf2a92d5bf7faa1a64d17948a092f99c117fe8866f5865bc56550c60eb89d",
        },
    ),
    "simulate": (
        ["simulate", "--spec", "scalar_lasso_smoothed", "--delta", "0.01", "--horizon", "1"],
        {
            "comparison.csv": "4b819764261b9bf5c045cbaacf7d726eba227db28d3ea315f84238c5ec1b18f4",
            "discrete.csv": "5479685156185a1b15d49c221d08ffd5081b95ba45645731b0def3b06a471d3d",
            "high_res.csv": "6c11c78f75cb0a9351b386f39ec1b79fa6959ae7f2d10e9badf6ecac745298e8",
            "low_res.csv": "652c21a850fbc2f029a9e22f4a2b4654569ed8ab81906e387c3aca220388fc3d",
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
