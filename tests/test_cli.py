import json

import numpy as np
import pytest

from admmcert.cli import main
from admmcert.library import get_instance
from admmcert.problems import load_instance
from admmcert.solver import default_r


def test_generate_tv_first_difference(tmp_path):
    out = tmp_path / "tv4.txt"
    assert main(["generate", "tv", "--dims", "4", "--seed", "1", "--out", str(out)]) == 0
    spec = load_instance(out)
    expect = np.array([[1.0, -1.0, 0.0, 0.0],
                       [0.0, 1.0, -1.0, 0.0],
                       [0.0, 0.0, 1.0, -1.0]])
    np.testing.assert_array_equal(spec.F, expect)


def test_generate_trend_second_difference(tmp_path):
    out = tmp_path / "t4.txt"
    assert main(["generate", "trend", "--dims", "4", "--seed", "1", "--out", str(out)]) == 0
    spec = load_instance(out)
    np.testing.assert_array_equal(spec.F, [[1.0, -2.0, 1.0, 0.0], [0.0, 1.0, -2.0, 1.0]])


def test_generate_deterministic_per_seed(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["generate", "lasso", "--dims", "5,8", "--seed", "42", "--out", str(a)])
    main(["generate", "lasso", "--dims", "5,8", "--seed", "42", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_trend_dim_too_small(tmp_path, capsys):
    rc = main(["generate", "trend", "--dims", "2", "--seed", "1",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 2
    assert "needs d >= 3" in capsys.readouterr().err


def test_solve_scalar_lasso_all_pass(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--spec", "scalar_lasso", "--out", str(out), "--N", "200"])
    assert rc == 0
    payload = json.loads((out / "certificates.json").read_text())
    assert payload["all_pass"] is True
    assert (out / "trace.csv").exists()
    assert (out / "metadata.txt").exists()


def test_solve_bad_r_cites_precondition(tmp_path, capsys):
    rc = main(["solve", "--spec", "scalar_lasso", "--out", str(tmp_path / "o"),
               "--variant", "general", "--r", "0.5", "--N", "10"])
    assert rc == 2
    assert "greater than the maximum eigenvalue" in capsys.readouterr().err


def test_solve_general_without_r_certifies_at_default_r(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--spec", "rank_deficient_lasso", "--variant", "general",
                 "--N", "50", "--out", str(out)]) == 0
    entries = json.loads((out / "certificates.json").read_text())["certificates"]
    assert len(entries) == 4 and all(e["theorem"].startswith("theorem_6") for e in entries)
    r = default_r(get_instance("rank_deficient_lasso"))
    assert all(e["constants"]["r"] == r for e in entries)


def test_solve_rerun_identical_artifacts(tmp_path):
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    for o in (o1, o2):
        assert main(["solve", "--spec", "scalar_lasso", "--out", str(o), "--N", "100"]) == 0
    for fname in ("trace.csv", "trace.json", "certificates.json"):
        assert (o1 / fname).read_bytes() == (o2 / fname).read_bytes()


def test_solve_instance_file(tmp_path):
    inst = tmp_path / "inst.txt"
    main(["generate", "lasso", "--dims", "4,3", "--seed", "9", "--out", str(inst)])
    rc = main(["solve", "--spec", str(inst), "--out", str(tmp_path / "run"), "--N", "300"])
    assert rc == 0


def test_solve_manifest_overridden_by_flags(tmp_path):
    manifest = tmp_path / "m.ini"
    manifest.write_text(
        "[instance]\nspec = scalar_lasso\n[solver]\ns = 1.0\nN = 50\n"
        f"[output]\ndir = {tmp_path / 'mrun'}\n")
    rc = main(["solve", "--manifest", str(manifest), "--N", "75"])
    assert rc == 0
    rows = (tmp_path / "mrun" / "trace.csv").read_text().strip().split("\n")
    assert len(rows) == 77  # header + 76 states


def test_missing_spec_is_usage_error(tmp_path, capsys):
    rc = main(["solve", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "no instance given" in capsys.readouterr().err


def test_simulate_outputs_and_identity(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--spec", "scalar_lasso", "--out", str(out),
               "--delta", "1.0", "--horizon", "5.0"])
    assert rc == 0
    comp = (out / "comparison.csv").read_text().strip().split("\n")
    header = comp[0].split(",")
    i_hi = header.index("deviation_high_res")
    i_dis = header.index("deviation_discrete")
    for line in comp[1:]:
        vals = [float(v) for v in line.split(",")]
        # delta = s: the integrator IS the discrete iteration
        assert vals[i_hi] == pytest.approx(vals[i_dis], abs=1e-12)


def test_simulate_smooths_for_micro_steps(tmp_path, capsys):
    out = tmp_path / "sim2"
    rc = main(["simulate", "--spec", "scalar_lasso", "--out", str(out),
               "--delta", "0.05", "--horizon", "2.0"])
    assert rc == 0
    assert (out / "low_res.csv").exists()
    # the closing line names every table written, low_res.csv included
    named = capsys.readouterr().out.strip().removeprefix("wrote ").split(", ")
    assert sorted(named) == sorted(f"{out}/{p.name}" for p in out.glob("*.csv"))
    low = np.loadtxt(out / "low_res.csv", delimiter=",", skiprows=1)
    dev_col = low[:, 4]  # t, X0, Y0, Lambda0, deviation, ...
    assert np.max(dev_col) <= 1e-10


def test_report_from_solve_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--spec", "scalar_lasso", "--out", str(out), "--N", "100"])
    capsys.readouterr()
    rc = main(["report", "--spec", str(out / "certificates.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "theorem_4_3_rate: pass" in text


def test_report_flags_failure(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"all_pass": False, "certificates": [
        {"theorem": "demo", "pass": False, "worst_slack": 1.0,
         "worst_index": 0, "tolerance": 1e-9, "constants": {}}]}))
    assert main(["report", "--spec", str(path)]) == 1
    assert "demo: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("which", ["trace_json", "json_list"])
def test_report_refuses_a_file_that_is_not_certificates(tmp_path, capsys, which):
    if which == "trace_json":
        assert main(["solve", "--spec", "scalar_lasso", "--out", str(tmp_path), "--N", "5"]) == 0
        path = tmp_path / "trace.json"
    else:
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
    capsys.readouterr()
    assert main(["report", "--spec", str(path)]) == 2
    assert f"{path} is not a certificate file" in capsys.readouterr().err


@pytest.mark.parametrize("N", ["1", "0"])
def test_solve_rejects_too_few_steps_before_any_write(tmp_path, monkeypatch, capsys, N):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--spec", "scalar_lasso", "--out", "o", "--N", N]) == 2
    assert f"N = {N}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _mutated_instance(tmp_path, block, mutate):
    """A generated 4x3 lasso instance with the first line of one block rewritten."""
    path = tmp_path / "inst.txt"
    assert main(["generate", "lasso", "--dims", "4,3", "--seed", "9", "--out", str(path)]) == 0
    lines = path.read_text().split("\n")
    i = lines.index(f"[{block}]") + 1
    lines[i] = mutate(lines[i])
    path.write_text("\n".join(lines))
    return path


@pytest.mark.parametrize("block, mutate, message", [
    ("b", lambda line: "nan", "block [b] of"),
    ("A", lambda line: line.replace(line.split(",")[0], "inf", 1), "block [A] of"),
    ("A", lambda line: line.split(",")[0], "block [A] of"),  # a ragged row
    ("A", lambda line: line + ",", "block [A] of"),  # a truncated row
    ("b", lambda line: line + ",1.0", "block [b] of"),  # two entries in a vector block
    ("g.variant", lambda line: "scaled_l1,nan", "block [g.variant] of"),
    ("g.variant", lambda line: "scaled_l1", "block [g.variant] of"),  # no weight
    ("f.variant", lambda line: "", "missing sections ['f.variant']"),  # an empty block
], ids=["nan_b", "inf_A", "ragged_A", "truncated_A", "wide_b", "nan_weight", "no_weight",
        "empty_f"])
def test_solve_rejects_bad_instance_data(tmp_path, capsys, block, mutate, message):
    path = _mutated_instance(tmp_path, block, mutate)
    capsys.readouterr()
    rc = main(["solve", "--spec", str(path), "--out", str(tmp_path / "run"), "--N", "10"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("delta, horizon, message", [
    ("0.03", "1", "T/delta = "),
    ("0.3", "3", "s/delta = "),
    ("nan", "1", "positive and finite"),
    ("0.01", "inf", "positive and finite"),
    # s/delta = 1.0000000000000002 passes the whole-ratio check but is no micro-step
    ("0.9999999999999999", "1", "delta = 0.9999999999999999 differs from s = 1.0"),
])
def test_simulate_rejects_bad_steps(tmp_path, capsys, delta, horizon, message):
    rc = main(["simulate", "--spec", "scalar_lasso", "--out", str(tmp_path / "sim"),
               "--delta", delta, "--horizon", horizon])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()  # refused before the output directory is made


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
def test_solve_rejects_bad_tol(tmp_path, capsys, tol):
    rc = main(["solve", "--spec", "scalar_lasso", "--out", str(tmp_path / "o"), "--N", "10",
               f"--tol={tol}"])
    assert rc == 2
    assert "tol = " in capsys.readouterr().err
    assert not (tmp_path / "o" / "certificates.json").exists()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a flag the subcommand does not declare
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["verify", "--s", "3", "--N", "5", "--delta", "7"], "unrecognized arguments"),
    (["report", "--spec", "c.json", "--out", "x"], "unrecognized arguments"),
    (["generate", "tv", "--dims", "4", "--spec", "scalar_lasso"], "unrecognized arguments"),
    (["simulate", "--spec", "scalar_lasso", "--N", "5"], "unrecognized arguments"),
    (["simulate", "--spec", "scalar_lasso", "--r", "2.0"], "unrecognized arguments"),
    (["solve", "--spec", "scalar_lasso", "--delta", "0.5"], "unrecognized arguments"),
    (["solve", "--spec", "scalar_lasso", "--seed", "3"], "unrecognized arguments"),
    (["solve", "--spec", "scalar_lasso", "--r", "2.0"], "--variant general"),
    (["solve", "--spec", "scalar_lasso", "--r", "2.0", "--variant", "standard"],
     "--variant general"),
    (["solve", "--manifest", "m.ini"], "--variant general"),  # r set in the manifest
], ids=["verify", "report", "generate", "simulate_N", "simulate_r", "solve_delta", "solve_seed",
        "solve_r", "solve_r_standard", "solve_r_manifest"])
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.ini").write_text("[instance]\nspec = scalar_lasso\n[solver]\nr = 2.0\n")
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["m.ini"]  # refused before any write


# (dims, seed, delta, horizon) pairs on which the block-update pattern search cycled;
# lasso 12,10 seeds 0, 9 and 11 at delta = 0.01 also cycle when warm-started, so
# they need the single-coordinate fallback
CYCLING_SIMULATE_CASES = (
    [("12,10", seed, "0.002", "3") for seed in (0, 1, 4, 6, 9, 10, 11)]
    + [("12,10", seed, "0.01", "3") for seed in (0, 1, 4, 6, 7, 9, 10, 11)]
    + [("8,6", seed, delta, "4") for seed, delta in (
        (0, "0.01"), (1, "0.002"), (1, "0.01"), (2, "0.01"), (3, "0.002"), (3, "0.01"),
        (5, "0.002"), (5, "0.01"))])


@pytest.mark.parametrize("dims, seed, delta, horizon", CYCLING_SIMULATE_CASES)
def test_simulate_generated_lasso_settles_and_certifies(tmp_path, monkeypatch,
                                                        dims, seed, delta, horizon):
    import admmcert.cli as cli
    from admmcert.ode import certify_continuous

    seen = {}

    def keep(fn, key):
        def wrapped(*args, **kwargs):
            seen[key] = (args, fn(*args, **kwargs))
            return seen[key][1]
        return wrapped

    monkeypatch.setattr(cli, "simulate_high_res", keep(cli.simulate_high_res, "high"))
    monkeypatch.setattr(cli, "saddle_point_oracle", keep(cli.saddle_point_oracle, "saddle"))
    inst = tmp_path / "inst.txt"
    assert main(["generate", "lasso", "--dims", dims, "--seed", str(seed),
                 "--out", str(inst)]) == 0
    assert main(["simulate", "--spec", str(inst), "--delta", delta, "--horizon", horizon,
                 "--out", str(tmp_path / "sim")]) == 0
    report = certify_continuous(seen["high"][1], seen["saddle"][1])
    assert report.all_pass, report.failing()
