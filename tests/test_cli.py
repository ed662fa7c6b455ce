import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from admmcert import cli
from admmcert.cli import main
from admmcert.errors import ParameterError
from admmcert.library import get_instance
from admmcert.problems import build_generalized_lasso, load_instance, save_instance
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


@pytest.mark.parametrize("kind", ["tv", "trend"])
def test_generate_round_trips_the_bands(tmp_path, monkeypatch, kind):
    # the file writes F and A from their bands, so an off-band zero is 0.0 where
    # -np.diff left -0.0; the loaded spec keeps the bands of the one generate built
    built = []

    def save(spec, path):
        built.append(spec)
        save_instance(spec, path)

    monkeypatch.setattr(cli, "save_instance", save)
    out = tmp_path / f"{kind}.txt"
    assert main(["generate", kind, "--dims", "40", "--seed", "2", "--out", str(out)]) == 0
    spec, loaded = built[0], load_instance(out)
    for got, want in ((loaded.F_op.band, spec.F_op.band), (loaded.f.A_op.band, spec.f.A_op.band),
                      (loaded.FtF_band, spec.FtF_band), (loaded.f.gram_band, spec.f.gram_band)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    F_block = out.read_text().split("[F.band]\n")[1].split("[G.band]")[0]
    assert "-0.0" not in F_block.replace("\n", ",").split(",")


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


def test_solve_refuses_infinite_r_before_the_oracle(tmp_path, monkeypatch, capsys):
    def no_oracle(*args):
        raise AssertionError("the saddle oracle ran")

    monkeypatch.setattr(cli, "saddle_point_oracle", no_oracle)
    rc = main(["solve", "--spec", "scalar_lasso", "--out", str(tmp_path / "o"),
               "--variant", "general", "--r", "inf", "--N", "10"])
    assert rc == 2
    assert capsys.readouterr().err == "error: r = inf must be finite\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("a, d, argv, message", [
    # A = diag(a, 1/a, 1, ..., 1) and F = I in d coordinates: the x-system
    # 2s A^T A + r I has condition about 2s a^2 / r. The active set fails on the 2-d
    # instance, and the long run's r-proximal step, at its default r, is refused; the
    # 13-d instance goes to the long run directly
    (1e7, 2, ["--variant", "general", "--r", "100"],
     r"long-run oracle, x-update system has condition estimate 1\.333e\+14 > 1e\+12 "
     r"at r = 1\.5"),
    (1e7, 13, [], r"long-run oracle, x-update system has condition estimate 1\.333e\+14 > "
             r"1e\+12 at r = 1\.5"),
    # the oracle certifies at s = 1; the run's own r-proximal step at s = 1e5 is refused
    (1e4, 3, ["--variant", "general", "--s", "1e5"],
     r"x-update system has condition estimate 1\.33\de\+13 > 1e\+12 at r = 1\.5"),
], ids=["oracle_2d", "oracle_13d", "run"])
def test_r_proximal_refusal_names_its_r(tmp_path, capsys, a, d, argv, message):
    # the r-proximal step is the remedy the standard step's refusal names, so its own
    # refusal names its r instead
    inst, out = tmp_path / "stiff.txt", tmp_path / "o"
    A = np.diag([a, 1.0 / a] + [1.0] * (d - 2))
    save_instance(build_generalized_lasso(A, np.ones(d), np.eye(d), 0.5), inst)
    assert main(["solve", "--spec", str(inst), "--N", "5", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {message}\n", err), err
    assert not out.exists()


def test_solve_general_without_r_certifies_at_default_r(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--spec", "rank_deficient_lasso", "--variant", "general",
                 "--N", "50", "--out", str(out)]) == 0
    entries = json.loads((out / "certificates.json").read_text())["certificates"]
    assert len(entries) == 4 and all(e["theorem"].startswith("theorem_6") for e in entries)
    r = default_r(get_instance("rank_deficient_lasso"))
    assert all(e["constants"]["r"] == r for e in entries)


@pytest.mark.parametrize("argv, lines", [
    (["solve", "--spec", "scalar_lasso", "--N", "50"],
     ["trace.csv: row 36 repeats row 35 (period 1)"]),
    (["solve", "--spec", "tv_d50", "--N", "100"], []),
    (["simulate", "--spec", "scalar_lasso", "--horizon", "20"],
     ["high_res.csv: row 1714 repeats row 1713 (period 1)",
      "low_res.csv: row 1671 repeats row 1670 (period 1)"]),
], ids=["solve_repeats", "solve_no_repeat", "simulate"])
def test_repeat_noted_in_the_sidecar_only(tmp_path, argv, lines):
    # a loop that stopped stepping at an exact repeat says so in metadata.txt, and
    # nowhere in the byte-compared artifacts
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    noted = [line.split(";")[0] for line in (out / "metadata.txt").read_text().splitlines()
             if " repeats row " in line]
    assert noted == lines
    assert all("repeat" not in p.read_text() for p in out.iterdir() if p.name != "metadata.txt")


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


@pytest.mark.parametrize("name", ["tv_d50", "trend_d50", "basis_pursuit_10x30"])
def test_simulate_skips_the_low_res_flow_where_it_does_not_apply(tmp_path, name):
    # a difference operator leaves F^T F singular and basis pursuit's f is not
    # differentiable: the flow is skipped, and the other three runs are written
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", name, "--delta", "0.01", "--horizon", "1",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["comparison.csv", "discrete.csv",
                                                     "high_res.csv", "metadata.txt"]
    header, *rows = (out / "comparison.csv").read_text().splitlines()
    i = header.split(",").index("deviation_low_res")
    assert len(rows) == 2 and all(row.split(",")[i] == "nan" for row in rows)


@pytest.mark.parametrize("horizon, last", [("3.5", 3), ("2.5", 2)])
def test_simulate_discrete_steps_stop_at_the_horizon(tmp_path, horizon, last):
    # N is the whole part of T/s: no step past T, whichever way T/s rounds
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", "scalar_lasso_smoothed", "--s", "1", "--delta", "0.5",
                 "--horizon", horizon, "--out", str(out)]) == 0
    ks = [line.split(",")[0] for line in (out / "discrete.csv").read_text().splitlines()[1:]]
    assert ks == [str(k) for k in range(last + 1)]
    ts = [line.split(",")[0] for line in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert ts == [f"{k}.0" for k in range(last + 1)]


@pytest.mark.parametrize("runner", ["run", "simulate_low_res"])
def test_simulate_refused_run_leaves_no_directory(tmp_path, monkeypatch, capsys, runner):
    # all three runs are computed before the output directory is made
    import admmcert.cli as cli

    def refuse(*args, **kwargs):
        raise ParameterError("refused")

    monkeypatch.setattr(cli, runner, refuse)
    assert main(["simulate", "--spec", "scalar_lasso_smoothed", "--delta", "0.5",
                 "--horizon", "2", "--out", str(tmp_path / "sim")]) == 2
    assert "error: refused" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_simulate_refuses_an_ill_conditioned_micro_step(tmp_path, capsys):
    # smoothed at delta = 0.01, and unsmoothed at delta = s, where the step is
    # Step(spec, s), the implicit step's build refuses rank_deficient_lasso, whose step has
    # no unique X, before the output directory is made; simulate has no r-proximal
    # variant, so the refusal names the implicit step, not that remedy
    for argv, delta, cond in (([], "0.01", "1.193e+17"), (["--delta", "1"], "1.0", "1.697e+16")):
        assert main(["simulate", "--spec", "rank_deficient_lasso", *argv, "--out",
                     str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == (
            f"error: implicit step at delta = {delta}: x-update system has condition "
            f"estimate {cond} > 1e+12, so the step's X is not unique\n")
        assert not (tmp_path / "sim").exists()


def test_solve_exits_1_naming_the_failing_certificate(tmp_path, capsys):
    # the README's erratum: the printed Theorem 4.4 bound fails at N = 0 on this
    # instance, and its shifted reading passes
    inst, out = tmp_path / "inst.txt", tmp_path / "run"
    assert main(["generate", "lasso", "--dims", "20,9", "--seed", "1", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["solve", "--spec", str(inst), "--N", "1000", "--out", str(out)]) == 1
    assert "failing: theorem_4_4_strong_avg" in capsys.readouterr().err.splitlines()
    payload = json.loads((out / "certificates.json").read_text())
    assert payload["all_pass"] is False
    failing = [e for e in payload["certificates"] if not e["pass"]]
    assert [e["theorem"] for e in failing] == ["theorem_4_4_strong_avg"]
    assert failing[0]["worst_slack"] == pytest.approx(0.0549, abs=1e-4)
    assert failing[0]["constants"]["worst_slack_shifted"] < 0.0


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


@pytest.mark.parametrize("argv, rows", [
    (["solve", "--spec", "scalar_lasso", "--N", str(2**62)], "4.61169e+18"),
    (["simulate", "--spec", "scalar_lasso_smoothed", "--s", "1e-300", "--delta", "1e-300",
      "--horizon", "1"], "1e+300"),
])
def test_run_too_long_to_allocate_exits_2_before_any_write(tmp_path, monkeypatch, capsys,
                                                          argv, rows):
    # numpy refuses both sizes outright, without trying to allocate
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "o"]) == 2
    assert f"error: a trace of {rows} rows cannot be allocated" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_trace_out_of_memory_exits_2_before_any_write(tmp_path, monkeypatch, capsys):
    # a size numpy would try, and fail, to allocate: stand in for the failure
    zeros = np.zeros

    def no_memory(shape, *args, **kwargs):
        if np.prod(shape) > 10**9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", no_memory)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--spec", "scalar_lasso", "--out", "o", "--N", "100000000000"]) == 2
    assert ("error: a trace of 1e+11 rows cannot be allocated (Unable to allocate"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_simulate_step_ratio_past_int64(tmp_path, monkeypatch, capsys):
    # s/delta = 1e19 does not fit an int64: a horizon below s is refused, and from s on
    # the T/delta >= 1e19 nodes cannot be allocated; both exit 2 before any write
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--spec", "scalar_lasso_smoothed", "--s", "1", "--delta", "1e-19",
            "--out", "o", "--horizon"]
    assert main(argv + ["1e-19"]) == 2
    assert "horizon T = 1e-19 is shorter than the step s = 1.0" in capsys.readouterr().err
    assert main(argv + ["1"]) == 2
    assert "error: a trace of 1e+19 rows cannot be allocated" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--delta", "1e-320"], "T/delta = 20.0/1e-320 overflows a float"),
    (["--s", "1e300", "--delta", "1e-300"], "T/delta = 2e+301/1e-300 overflows a float"),
], ids=["subnormal_delta", "huge_s"])
def test_simulate_refuses_an_overflowing_step_ratio(tmp_path, monkeypatch, capsys, argv,
                                                    message):
    # a ratio of inf has no step count: refused by name, not by round(inf)'s OverflowError
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--spec", "scalar_lasso_smoothed", *argv, "--out", "o"]) == 2
    assert capsys.readouterr().err == f"error: {message}: pass a larger delta\n"
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_exits_2_without_a_traceback(tmp_path, monkeypatch, capsys):
    # generate lasso --dims 1000000,1000000 draws a dense A of 7.28 TiB: stand in for
    # numpy's refusal
    def no_memory(shape, *args, **kwargs):
        raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape {shape} "
                          "and data type float64")

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: SimpleNamespace(standard_normal=no_memory))
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "lasso", "--dims", "1000000,1000000", "--out", "lasso.txt"]) == 2
    assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 7.28 TiB for an "
                                       "array with shape (1000000, 1000000) and data type "
                                       "float64\n")
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_a_horizon_shorter_than_s(tmp_path, monkeypatch, capsys):
    # one discrete step of s = 1 would end at t = 1, past T = 0.5
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--spec", "scalar_lasso_smoothed", "--s", "1", "--delta", "0.5",
                 "--horizon", "0.5", "--out", "o"]) == 2
    assert ("error: horizon T = 0.5 is shorter than the step s = 1.0: the discrete run's "
            "first step would end past it") in capsys.readouterr().err
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
    ("A", lambda line: "1#" + line, "block [A] of"),  # '#' is no comment marker
    ("A", lambda line: "1,," + line.split(",", 2)[2], "block [A] of"),  # an empty field
    # float() reads '1_0' as 10.0; the block parser refuses digit separators
    ("A", lambda line: "1_0," + line.split(",", 1)[1], "block [A] of"),
], ids=["nan_b", "inf_A", "ragged_A", "truncated_A", "wide_b", "nan_weight", "no_weight",
        "empty_f", "hash_in_cell_A", "empty_field_A", "digit_separator_A"])
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


@pytest.mark.parametrize("argv, message", [
    (["generate", "lasso", "--dims", "0"], "dimensions must be positive"),
    (["generate", "lasso", "--dims", "5"], "lasso needs dims m,d"),
    (["generate", "tv", "--dims", "3,4"], "tv needs a single dimension d"),
    (["generate", "basis_pursuit", "--dims", "9,4"], "basis_pursuit needs m <= d"),
    (["report"], "report needs --spec"),
    (["report", "--spec", "m.ini"], "m.ini is not JSON"),
    (["solve", "--manifest", "missing.ini"], "manifest 'missing.ini' not found"),
], ids=["generate_zero_dim", "generate_lasso_one_dim", "generate_tv_two_dims",
        "generate_basis_pursuit_wide", "report_no_spec", "report_not_json",
        "solve_missing_manifest"])
def test_refused_input_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, argv,
                                                  message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.ini").write_text("[instance]\nspec = scalar_lasso\n")
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["m.ini"]


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
    from admmcert.diagnostics import certify_continuous

    seen = {}

    def keep(fn, key):
        def wrapped(*args, **kwargs):
            seen[key] = (args, fn(*args, **kwargs))
            return seen[key][1]
        return wrapped

    monkeypatch.setattr(cli, "simulate_high_res", keep(cli.simulate_high_res, "high"))
    inst = tmp_path / "inst.txt"
    assert main(["generate", "lasso", "--dims", dims, "--seed", str(seed),
                 "--out", str(inst)]) == 0
    assert main(["simulate", "--spec", str(inst), "--delta", delta, "--horizon", horizon,
                 "--out", str(tmp_path / "sim")]) == 0
    report = certify_continuous(seen["high"][1])
    assert report.all_pass, report.failing()
