import json
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from lslu import InputError
from lslu.cli import (COMMANDS, RunConfig, UsageError, config_errors, flag, main,
                      write_pgm)


def run_cli(*args):
    return main(list(args))


def test_solve_gravity_outputs(tmp_path):
    out = tmp_path / "run"
    code = run_cli("solve", "--problem", "gravity", "--n", "64",
                   "--noise-level", "1e-2", "--seed", "1",
                   "--method", "hybrid_lslu", "--lambda-rule", "wgcv",
                   "--stop-tol", "1e-4", "--maxiter", "50",
                   "--output-dir", str(out),
                   "--emit", "history_csv,summary_json,recon_pgm")
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "k,residual_norm,relative_error,lambda,ghat"
    assert len(history) > 1
    summary = json.loads((out / "summary.json").read_text())
    for key in ("k_stop", "stop_reason", "lambda_final", "relative_error_final"):
        assert key in summary
    assert summary["stop_reason"] == "ghat_tol"
    assert (out / "recon.pgm").read_bytes().startswith(b"P5\n")


def test_solve_deterministic_bytes(tmp_path):
    # every subcommand, plain and with a lambda value, writes the same
    # files with the same bytes when run twice
    common = ("--problem", "tomo", "--n", "16", "--seed", "7", "--maxiter", "10")
    lam = ("--lambda-value", "0.05")
    fixed = ("--method", "hybrid_lslu", "--lambda-rule", "fixed", *lam)
    runs = [("solve", "--method", "lslu", "--pivot", "sampled",
             "--sample-size", "25", "--pivot-seed", "3"),
            ("solve", *fixed, "--emit", "history_csv,summary_json,recon_pgm"),
            ("compare", "--method", "hybrid_lslu", "--sample-sizes", "25,50"),
            ("compare", *fixed, "--sample-sizes", "25,50"),
            ("uq", "--k-max", "6"),
            ("bounds",),
            ("bounds", *lam)]
    for i, args in enumerate(runs):
        outs = [tmp_path / f"{i}{side}" for side in "ab"]
        for out in outs:
            assert run_cli(*args, *common, "--output-dir", str(out)) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names and names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
                (args, name)


def test_solve_tomo_basis_images(tmp_path):
    out = tmp_path / "basis"
    code = run_cli("solve", "--problem", "tomo", "--n", "16",
                   "--method", "lslu", "--maxiter", "12",
                   "--output-dir", str(out), "--emit", "basis_pgm")
    assert code == 0
    for k in (2, 4, 6, 8, 10):
        for side in ("L", "D"):
            path = out / f"basis_{side}_k{k:02d}.pgm"
            assert path.exists(), path
            assert path.read_bytes().startswith(b"P5\n")


def test_compare_curves(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--problem", "tomo", "--n", "32",
                   "--noise-level", "1e-2", "--seed", "0", "--method", "lslu",
                   "--maxiter", "15", "--sample-sizes", "25,50,100",
                   "--output-dir", str(out))
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["k", "rel_error_lslu_full", "rel_error_lslu_s25",
                      "rel_error_lslu_s50", "rel_error_lslu_s100",
                      "rel_error_lsqr"]
    assert len(lines) == 16


def test_compare_single_size(tmp_path):
    out = tmp_path / "cmp1"
    code = run_cli("compare", "--problem", "gravity", "--n", "32",
                   "--method", "lslu", "--maxiter", "8",
                   "--sample-sizes", "10", "--output-dir", str(out))
    assert code == 0
    header = (out / "compare.csv").read_text().splitlines()[0].split(",")
    assert len(header) == 4  # k, full, s10, lsqr


def test_compare_seeds_only_the_sampled_variants(tmp_path):
    # without --pivot-seed the sampled variants draw from seed 0
    columns = {}
    for seed in (None, "0", "5"):
        out = tmp_path / f"seed{seed}"
        extra = () if seed is None else ("--pivot-seed", seed)
        assert run_cli("compare", "--problem", "tomo", "--n", "16", "--method", "lslu",
                       "--maxiter", "8", "--sample-sizes", "10", *extra,
                       "--output-dir", str(out)) == 0
        rows = [line.split(",") for line in
                (out / "compare.csv").read_text().splitlines()[1:]]
        columns[seed] = [list(col) for col in zip(*rows)]  # k, full, s10, lsqr
    assert columns["0"] == columns[None]
    assert columns["5"][2] != columns[None][2]
    assert [columns["5"][i] for i in (0, 1, 3)] == [columns[None][i] for i in (0, 1, 3)]


def test_uq_outputs(tmp_path):
    out = tmp_path / "uq"
    code = run_cli("uq", "--problem", "gravity", "--n", "32",
                   "--noise-level", "1e-2", "--seed", "0", "--k-max", "15",
                   "--output-dir", str(out))
    assert code == 0
    lines = (out / "uq.csv").read_text().splitlines()
    assert lines[0] == "k,sum_lslu,sum_lsqr,abs_diff"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 15
    for row in rows:
        assert abs(float(row[3])) <= 0.05 * abs(float(row[2]))


def test_library_warnings_without_source_paths(tmp_path, capsys):
    code = run_cli("uq", "--problem", "gravity", "--n", "64", "--k-max", "15",
                   "--pivot", "none", "--output-dir", str(tmp_path / "uq"))
    assert code == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ill-conditioned Gram matrix; truncating rank to")
    assert ".py:" not in err and "warnings.warn" not in err


@pytest.mark.parametrize("array, pixels", [
    ([[0.0, 1.0], [2.0, 4.0]], [0, 64, 128, 255]),
    (np.full((2, 2), 7.0), [0, 0, 0, 0]),
], ids=["scaled", "constant"])
def test_pgm_is_min_max_scaled(tmp_path, array, pixels):
    # a constant image, with no range to scale, is all black
    write_pgm(tmp_path / "image.pgm", array)
    assert (tmp_path / "image.pgm").read_bytes() == b"P5\n2 2\n255\n" + bytes(pixels)


def test_unread_lambda_value_warns(tmp_path, capsys):
    # a lambda value or rule a command does not read exits 1 as a flag,
    # naming it with why, and is skipped with one warning as a --config
    # key; where it is read, or none is given, nothing is said
    fields_cases = {
        ("lambda_value", "0.05", 0.05): [
            (("solve", "--method", "lslu"), "solve with --method lslu"),
            (("solve",), "solve with --lambda-rule wgcv"),
            (("compare", "--method", "lsqr", "--sample-sizes", "10"),
             "compare with --method lsqr"),
            (("compare", "--lambda-rule", "gcv", "--sample-sizes", "10"),
             "compare with --lambda-rule gcv"),
            (("solve", "--lambda-rule", "fixed"), None),
            (("compare", "--lambda-rule", "fixed", "--sample-sizes", "10"), None),
            (("bounds",), None)],
        ("lambda_rule", "gcv", "gcv"): [
            (("solve", "--method", "lslu"), "solve with --method lslu"),
            (("solve", "--method", "lsqr"), "solve with --method lsqr"),
            (("compare", "--method", "lsqr", "--sample-sizes", "10"),
             "compare with --method lsqr"),
            (("solve",), None),
            (("compare", "--sample-sizes", "10"), None)],
    }
    for (name, value, key_value), cases in fields_cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({name: key_value}))
        for i, (args, reason) in enumerate(cases):
            common = ("--n", "16", "--maxiter", "3")
            out = tmp_path / name / str(i)
            capsys.readouterr()
            assert run_cli(*args, flag(name), value, *common,
                           "--output-dir", str(out / "flag")) == (
                0 if reason is None else 1), args
            err = capsys.readouterr().err
            if reason is None:
                assert flag(name) not in err, (args, err)
            else:
                assert err.startswith(f"error: {flag(name)} is not read by {reason}: "
                                      "only"), err
                assert err.count("\n") == 1 and not (out / "flag").exists(), (args, err)
            assert run_cli(*args, "--config", str(path), *common,
                           "--output-dir", str(out / "key")) == 0, args
            err = capsys.readouterr().err
            if reason is None:
                assert name not in err, (args, err)
            else:
                assert err.startswith(
                    f"warning: {path}: {name} is not read by {reason}"), err
                assert err.count("\n") == 1, (args, err)
    for args in (("solve", "--method", "lslu"), ("uq", "--k-max", "3")):
        assert run_cli(*args, "--n", "16", "--maxiter", "3",
                       "--output-dir", str(tmp_path / "none")) == 0
        assert "lambda" not in capsys.readouterr().err


# per problem kind, a parameter it does not read, and a value another kind takes
_UNREAD_BY_PROBLEM = [("gravity", "angles", "7"), ("gravity", "detectors", "9"),
                      ("gravity", "matrix_file", "A.txt"), ("tomo", "depth", "5"),
                      ("tomo", "rhs_file", "b.txt"), ("dense_file", "n", "16"),
                      ("dense_file", "noise_level", "0.1"), ("dense_file", "seed", "2")]


@pytest.mark.parametrize("problem, name, value, command", [
    (*case, command) for case in _UNREAD_BY_PROBLEM for command in COMMANDS
    # compare and uq first say that they need a generated problem
    if case[0] != "dense_file" or command in ("solve", "bounds")])
def test_problem_parameter_the_problem_does_not_read(tmp_path, capsys, command,
                                                     problem, name, value):
    # a flag the chosen problem does not read exits 1 naming it and the
    # problem, and writes nothing
    rng = np.random.default_rng(0)
    mfile, rfile = tmp_path / "A.txt", tmp_path / "b.txt"
    np.savetxt(mfile, rng.standard_normal((20, 16)))
    np.savetxt(rfile, rng.standard_normal(20))
    problem_args = {"gravity": ("--n", "16"), "tomo": ("--n", "16"),
                    "dense_file": ("--matrix-file", str(mfile), "--rhs-file", str(rfile))}
    command_args = {"compare": ("--sample-sizes", "10"), "uq": ("--k-max", "3")}
    args = [command, "--problem", problem, *problem_args[problem], "--maxiter", "3",
            *command_args.get(command, ()), "--output-dir", str(tmp_path / "out")]
    if (name, value) in (("matrix_file", "A.txt"), ("rhs_file", "b.txt")):
        value = str(tmp_path / value)
    assert run_cli(*args, flag(name), value) == 1
    assert capsys.readouterr().err == (
        f"error: {flag(name)} is not read by {command} with --problem {problem}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem, name, value", _UNREAD_BY_PROBLEM)
def test_problem_config_key_the_problem_does_not_read(tmp_path, capsys, problem, name,
                                                       value):
    # as a --config key the same parameter is skipped with one warning,
    # and the files are those of a run without it
    rng = np.random.default_rng(0)
    mfile, rfile = tmp_path / "A.txt", tmp_path / "b.txt"
    np.savetxt(mfile, rng.standard_normal((20, 16)))
    np.savetxt(rfile, rng.standard_normal(20))
    base = {"problem": problem, "method": "lslu", "maxiter": 3}
    base.update({"n": 16} if problem != "dense_file"
                else {"matrix_file": str(mfile), "rhs_file": str(rfile)})
    outs = []
    for extra in ({name: value}, {}):
        path = tmp_path / f"cfg{len(outs)}.json"
        path.write_text(json.dumps({**base, **extra}))
        outs.append(tmp_path / f"out{len(outs)}")
        capsys.readouterr()
        assert run_cli("solve", "--config", str(path), "--output-dir", str(outs[-1])) == 0
        err = capsys.readouterr().err
        assert err == (f"warning: {path}: {name} is not read by solve with "
                       f"--problem {problem}\n" if extra else ""), err
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for file in names:
        assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), file


def test_uq_variance_images_for_2d_problem(tmp_path):
    out = tmp_path / "uq2d"
    code = run_cli("uq", "--problem", "tomo", "--n", "16", "--k-max", "8",
                   "--output-dir", str(out))
    assert code == 0
    assert (out / "variance_lslu.pgm").exists()
    assert (out / "variance_lsqr.pgm").exists()


def test_bounds_plain_and_hybrid(tmp_path):
    out1 = tmp_path / "b1"
    assert run_cli("bounds", "--problem", "gravity", "--n", "40",
                   "--maxiter", "10", "--output-dir", str(out1)) == 0
    lines = (out1 / "bounds.csv").read_text().splitlines()
    assert lines[0] == "k,r_lu,r_qr,kappa,lower_ok,upper_ok"
    assert all(line.endswith("true,true") for line in lines[1:])

    out2 = tmp_path / "b2"
    assert run_cli("bounds", "--problem", "gravity", "--n", "64",
                   "--lambda-value", "0.01", "--maxiter", "10",
                   "--output-dir", str(out2)) == 0
    lines = (out2 / "bounds.csv").read_text().splitlines()
    assert all(line.endswith("true,true") for line in lines[1:])


@pytest.mark.parametrize("method", [(), ("--method", "lslu")])
def test_bounds_does_not_read_stop_tol(tmp_path, capsys, method):
    # bounds reports every iteration up to --maxiter: a --stop-tol, alone
    # or after a --method it does not read either, exits 1 naming every
    # unread flag with its value, and writes nothing
    args = ("bounds", "--n", "16", "--maxiter", "4", *method, "--stop-tol", "1e-4")
    assert run_cli(*args, "--output-dir", str(tmp_path / "tol")) == 1
    err = capsys.readouterr().err
    assert err.endswith("error: unrecognized arguments: "
                        + " ".join((*method, "--stop-tol", "1e-4")) + "\n"), err
    assert not (tmp_path / "tol").exists()


@pytest.mark.parametrize("args", [
    ("--lambda-rule", "fixed"), ("--method", "hybrid_lsqr"),
], ids=["lambda-rule", "method"])
def test_bounds_names_solver_flags_it_ignores(tmp_path, capsys, args):
    # a solver flag bounds does not read exits 1 off its default too,
    # while the same run without it writes bounds.csv
    common = ("bounds", "--n", "16", "--maxiter", "3")
    assert run_cli(*common, "--output-dir", str(tmp_path / "plain")) == 0
    assert (tmp_path / "plain" / "bounds.csv").exists()
    capsys.readouterr()
    assert run_cli(*common, *args, "--output-dir", str(tmp_path / "set")) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: unrecognized arguments: {' '.join(args)}\n"), err
    assert not (tmp_path / "set").exists()


def test_bounds_default_solver_flags_print_nothing(tmp_path, capsys):
    assert run_cli("bounds", "--n", "16", "--maxiter", "3", "--pivot", "full",
                   "--output-dir", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == ""


@pytest.mark.parametrize("depth, what", [
    ("1e200", "the gravity kernel"), ("1e-200", "the gravity kernel"),
    ("1e-160", "the gravity kernel"), ("1e100", "the exact data's norm"),
    ("1e-100", "the exact data's norm")])
def test_extreme_depth_exits_1(tmp_path, capsys, depth, what):
    # a depth whose kernel or data over- or underflows is a usage error
    # naming --depth, with no numerical warning on the way
    assert run_cli("solve", "--n", "16", "--depth", depth,
                   "--output-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        f"error: --depth {float(depth)!r} over- or underflows {what}\n")


def test_solve_optimal_rule(tmp_path):
    out = tmp_path / "opt"
    code = run_cli("solve", "--problem", "gravity", "--n", "32",
                   "--method", "hybrid_lslu", "--lambda-rule", "optimal",
                   "--maxiter", "8", "--output-dir", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lambda_final"] > 0


def test_solve_fixed_zero_lambda_is_plain_lslu(tmp_path):
    # past semiconvergence the projected matrix is numerically rank
    # deficient; lam = 0 solves it as plain LSLU does
    common = ("--problem", "gravity", "--n", "64", "--maxiter", "50")
    hybrid, plain = tmp_path / "hybrid", tmp_path / "plain"
    assert run_cli("solve", *common, "--lambda-rule", "fixed", "--lambda-value", "0",
                   "--output-dir", str(hybrid)) == 0
    assert run_cli("solve", *common, "--method", "lslu",
                   "--output-dir", str(plain)) == 0
    assert ((hybrid / "history.csv").read_bytes()
            == (plain / "history.csv").read_bytes())


def test_dense_file_problem(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((6, 5))
    b = rng.standard_normal(6)
    mfile, rfile = tmp_path / "A.txt", tmp_path / "b.txt"
    np.savetxt(mfile, matrix)
    np.savetxt(rfile, b)
    out = tmp_path / "dense"
    code = run_cli("solve", "--problem", "dense_file",
                   "--matrix-file", str(mfile), "--rhs-file", str(rfile),
                   "--method", "lslu", "--maxiter", "5",
                   "--output-dir", str(out))
    assert code == 0
    assert (out / "history.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = {"problem": "gravity", "n": 16, "method": "lslu", "maxiter": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fromcfg"
    code = run_cli("solve", "--config", str(path), "--maxiter", "6",
                   "--output-dir", str(out))
    assert code == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert len(lines) == 7  # header + 6 iterations (flag overrode the file)


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli("solve", "--no-such-flag") == 1
    assert run_cli("solve", "--problem", "dense_file",
                   "--output-dir", str(tmp_path)) == 1
    bad = tmp_path / "missing.json"
    assert run_cli("solve", "--config", str(bad)) == 1

    # flag values the library's constructors reject, and JSON values that
    # do not parse as their flag text would; the message names the input
    cases = [
        (("--maxiter", "0"), "--maxiter must be at least 1, got 0"),
        (("--pivot", "sampled"), "sampled pivoting needs --sample-size >= 1"),
        (("--pivot", "sampled", "--sample-size", "0"),
         "--sample-size must be at least 1, got 0"),
        (("--stop-tol", "-1"), "--stop-tol must be finite and positive"),
        (("--method", "lslu", "--stop-tol", "1e-4"),
         "--stop-tol only applies to the hybrid methods"),
        (("--lambda-value", "nan"), "--lambda-value must be finite and nonnegative"),
        (("--lambda-rule", "fixed", "--lambda-value", "nan"),
         "--lambda-value must be finite and nonnegative"),
        (("--lambda-rule", "fixed"), "fixed rule needs a --lambda-value"),
        (("--method", "bogus"), "--method"),
        (("--emit", "bogus_target"), "'bogus_target' is not one of"),
        (("--emit", "history_csv,uq_csv"), "'uq_csv' is not one of"),
        (("--emit", "bounds_csv"), "'bounds_csv' is not one of"),
        (("--maxiter", "3.0"), "--maxiter"),
        (("--pivot", "full", "--sample-size", "25"),
         "--sample-size only applies to sampled pivoting"),
        (("--pivot", "sampled", "--sample-size", "5", "--pivot-seed", "-1"),
         "--pivot-seed must be at least 0, got -1"),
        # a pivot seed only steers sampled pivoting
        (("--pivot", "full", "--pivot-seed", "7"),
         "--pivot-seed only applies to sampled pivoting"),
        (("--pivot", "none", "--pivot-seed", "0"),
         "--pivot-seed only applies to sampled pivoting"),
        # generated-problem parameters the generators reject
        (("--problem", "tomo", "--n", "8", "--angles", "0"),
         "--angles must be at least 1, got 0"),
        (("--problem", "tomo", "--n", "8", "--detectors", "0"),
         "--detectors must be at least 1, got 0"),
        (("--problem", "tomo", "--n", "3"), "--n must be at least 4, got 3"),
        (("--n", "1"), "--n must be at least 2, got 1"),
        (("--depth", "-1"), "--depth must be finite and positive"),
        (("--depth", "inf"), "--depth must be finite and positive"),
        (("--noise-level", "nan"), "--noise-level must be finite and nonnegative"),
        (("--problem", "tomo", "--n", "8", "--noise-level", "-0.5"),
         "--noise-level must be finite and nonnegative"),
    ]
    for name, content, named in (("float_int", '{"maxiter": 3.0}', "maxiter"),
                                 ("not_object", "[1, 2]", "JSON object"),
                                 ("method", '{"method": "bogus"}', "method"),
                                 ("bool", '{"n": true}', "n")):
        path = tmp_path / f"{name}.json"
        path.write_text(content)
        cases.append((("--config", str(path)), named))
    for args, named in cases:
        capsys.readouterr()
        assert run_cli("solve", "--problem", "gravity", "--n", "16",
                       *args, "--output-dir", str(tmp_path / "out")) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, (args, err)
    assert run_cli("uq", "--n", "16", "--k-max", "0",
                   "--output-dir", str(tmp_path / "out")) == 1
    assert "--k-max must be at least 1, got 0" in capsys.readouterr().err
    assert run_cli("uq", "--n", "16", "--k-max", "3", "--reg", "-1",
                   "--output-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "error: --reg must be finite and positive, got -1.0\n")
    assert run_cli("bounds", "--n", "16", "--maxiter", "0",
                   "--output-dir", str(tmp_path / "out")) == 1
    assert "--maxiter must be at least 1, got 0" in capsys.readouterr().err
    assert run_cli("bounds", "--n", "16", "--maxiter", "3", "--lambda-value", "0",
                   "--output-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--lambda-value, got 0.0" in err
    assert run_cli("bounds", "--n", "16", "--maxiter", "3", "--lambda-value", "inf",
                   "--output-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--lambda-value, got inf" in err
    # each sampled variant runs once, and the error names --sample-sizes
    for sizes, message in (("5,5,0", "--sample-sizes repeats 5"),
                           ("5,0", "--sample-sizes must be at least 1, got 0"),
                           ("10,5,10", "--sample-sizes repeats 10")):
        assert run_cli("compare", "--n", "16", "--maxiter", "3", "--sample-sizes", sizes,
                       "--output-dir", str(tmp_path / "out")) == 1, sizes
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "compare.csv").exists()


@pytest.mark.parametrize("problem", ["gravity", "tomo"])
def test_negative_seed_exits_1(tmp_path, capsys, problem):
    assert run_cli("solve", "--problem", problem, "--n", "16", "--seed", "-1",
                   "--output-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_optimal_rule_needs_a_truth(tmp_path, capsys):
    mfile, rfile = tmp_path / "A.txt", tmp_path / "b.txt"
    np.savetxt(mfile, np.eye(3))
    np.savetxt(rfile, np.ones(3))
    assert run_cli("solve", "--problem", "dense_file", "--matrix-file", str(mfile),
                   "--rhs-file", str(rfile), "--lambda-rule", "optimal",
                   "--output-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "error: --lambda-rule optimal needs a problem with a known truth\n")


def _dense_files(tmp_path):
    # a 6-by-5 matrix and right-hand side as files, and bad variants of each
    rng = np.random.default_rng(3)
    matrix, rhs = rng.standard_normal((6, 5)), rng.standard_normal(6)
    nan_matrix, nan_rhs = matrix.copy(), rhs.copy()
    nan_matrix[2, 3] = nan_rhs[4] = np.nan
    arrays = {"matrix": matrix, "rhs": rhs, "nan_matrix": nan_matrix, "nan_rhs": nan_rhs,
              "short_rhs": rhs[:5], "rhs_2x3": rhs.reshape(2, 3)}
    for name, array in arrays.items():
        np.savetxt(tmp_path / f"{name}.txt", array)
    return {name: str(tmp_path / f"{name}.txt") for name in arrays}


# one rejected value per RunConfig field, with the fields that make a
# command read it (each applied only where the command takes it); the
# file fields name files of _dense_files, whose contents are rejected.
# An output_dir that cannot be used is a runtime error instead
_REJECTED = {
    "problem": ("bogus", {}), "n": ("1", {}), "depth": ("-1", {}),
    "angles": ("0", {"problem": "tomo"}), "detectors": ("0", {"problem": "tomo"}),
    "noise_level": ("nan", {}), "seed": ("-1", {}), "method": ("bogus", {}),
    "maxiter": ("0", {}), "lambda_rule": ("bogus", {}), "lambda_value": ("nan", {}),
    "stop_tol": ("-1", {}), "pivot": ("bogus", {}),
    "sample_size": ("0", {"pivot": "sampled"}),
    "pivot_seed": ("-1", {"pivot": "sampled", "sample_size": "5", "sample_sizes": "5"}),
    "sample_sizes": ("0", {}), "k_max": ("0", {}), "sigma2": ("nan", {}),
    "reg": ("-1", {}), "emit": ("bogus", {}),
    "matrix_file": ("{nan_matrix}", {"problem": "dense_file", "rhs_file": "{rhs}"}),
    "rhs_file": ("{short_rhs}", {"problem": "dense_file", "matrix_file": "{matrix}"}),
}


def test_every_checked_field_has_a_rejected_value():
    assert set(_REJECTED) == {f.name for f in fields(RunConfig)} - {"output_dir"}


@pytest.mark.parametrize("command, name", [
    (command, name) for command, (_, reads) in COMMANDS.items()
    for name in _REJECTED if name in reads])
def test_rejected_value_names_its_flag(tmp_path, capsys, command, name):
    # whichever check rejects the value, the CLI's or the library's, the
    # error line names the field's flag, so a library input the CLI
    # does not map to its field fails here
    value, context = _REJECTED[name]
    files = _dense_files(tmp_path)
    args = [arg for key, text in context.items() if key in COMMANDS[command][1]
            for arg in (flag(key), text.format(**files))]
    if name not in ("n", "matrix_file", "rhs_file"):
        args += ["--n", "16"]
    assert run_cli(command, *args, flag(name), value.format(**files),
                   "--output-dir", str(tmp_path / "out")) == 1
    line = capsys.readouterr().err.splitlines()[-1]
    assert "error: " in line and re.search(
        rf"(?<![\w-]){re.escape(flag(name))}(?![\w-])", line), line
    assert not (tmp_path / "out").exists()


# a valid value for each field outside the problem: its default, or one
# the command that reads it would accept
_SAMPLE_VALUES = {"lambda_value": "0.05", "stop_tol": "1e-4", "sample_size": "5",
                  "pivot_seed": "3", "sigma2": "1", "reg": "2"}


def _sample_value(name):
    value = _SAMPLE_VALUES.get(name, getattr(RunConfig(), name))
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("command, name", [
    (command, f.name) for command, (_, reads) in COMMANDS.items()
    for f in fields(RunConfig) if f.name not in reads])
def test_command_rejects_unread_flag(tmp_path, capsys, command, name):
    # a flag the command does not read exits 1 naming it, even at the
    # field's default (bounds --method hybrid_lslu)
    assert run_cli(command, "--n", "16", flag(name), _sample_value(name),
                   "--output-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    # the command's own parser reports it, under the command's usage line
    assert err.startswith(f"usage: lslu {command} [-h] [--config CONFIG]"), err
    assert f"\nlslu {command}: error: unrecognized arguments: {flag(name)} " in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_the_fields_read(capsys, command):
    assert run_cli(command, "--help") == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert listed == {flag(name) for name in COMMANDS[command][1]} | {
        "--config", "--help"}


def test_every_field_is_read_by_some_command():
    read = set().union(*(reads for _, reads in COMMANDS.values()))
    assert read == {f.name for f in fields(RunConfig)}


def test_shared_config_file(tmp_path, capsys):
    # one --config file serves every command: each skips the keys it does
    # not read with one warning apiece, and writes the same files as with
    # a file of only the keys it reads
    shared = {"problem": "tomo", "n": 16, "seed": 7, "maxiter": 4, "method": "hybrid_lslu",
              "lambda_rule": "fixed", "lambda_value": 0.05, "k_max": 3, "sigma2": 1e-4,
              "emit": ["history_csv", "recon_pgm"], "sample_sizes": [10]}
    shared_path = tmp_path / "shared.json"
    shared_path.write_text(json.dumps(shared))
    for command, (_, reads) in COMMANDS.items():
        own_path = tmp_path / f"{command}.json"
        own_path.write_text(json.dumps({k: v for k, v in shared.items() if k in reads}))
        outs = [tmp_path / command / side for side in ("shared", "own")]
        errs = []
        for path, out in zip((shared_path, own_path), outs):
            capsys.readouterr()
            assert run_cli(command, "--config", str(path),
                           "--output-dir", str(out)) == 0, command
            errs.append(capsys.readouterr().err)
        unread = "".join(f"warning: {shared_path}: {key} is not read by {command}\n"
                         for key in shared if key not in reads)
        assert unread and errs[0] == unread + errs[1], command
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                command, name)


def test_json_lists_and_comma_strings_agree(tmp_path):
    outputs = []
    for form, (sizes, emit) in enumerate((([10, 20], ["history_csv", "summary_json"]),
                                          ("10,20", "history_csv,summary_json"))):
        path = tmp_path / f"cfg{form}.json"
        path.write_text(json.dumps({"problem": "gravity", "n": 16, "method": "lslu",
                                    "maxiter": 4, "sample_sizes": sizes,
                                    "emit": emit}))
        out = tmp_path / f"out{form}"
        assert run_cli("solve", "--config", str(path), "--output-dir", str(out)) == 0
        assert run_cli("compare", "--config", str(path),
                       "--output-dir", str(out)) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["compare.csv", "history.csv", "summary.json"]
    assert outputs[0] == outputs[1]


def test_runtime_errors_exit_2(tmp_path):
    mfile = tmp_path / "A.txt"
    mfile.write_text("not a matrix at all\n")
    rfile = tmp_path / "b.txt"
    rfile.write_text("1.0\n")
    assert run_cli("solve", "--problem", "dense_file", "--matrix-file",
                   str(mfile), "--rhs-file", str(rfile),
                   "--output-dir", str(tmp_path)) == 2


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("matrix, rhs, message", [
    ("nan_matrix", "rhs", "--matrix-file has non-finite entries"),
    ("matrix", "nan_rhs", "--rhs-file has non-finite entries"),
    ("matrix", "short_rhs", "--rhs-file must be a vector of length 6 (the operator's "
     "rows), got shape (5,)"),
    ("matrix", "rhs_2x3", "--rhs-file must be a vector of length 6 (the operator's "
     "rows), got shape (2, 3)"),
])
def test_bad_dense_file_contents_exit_1(tmp_path, capsys, command, matrix, rhs,
                                        message):
    files = _dense_files(tmp_path)
    assert run_cli(command, "--problem", "dense_file", "--matrix-file", files[matrix],
                   "--rhs-file", files[rhs], "--output-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing", ["matrix", "rhs"])
def test_unreadable_dense_file_exits_2(tmp_path, capsys, missing):
    files = _dense_files(tmp_path)
    files[missing] = str(tmp_path / "missing.txt")
    assert run_cli("solve", "--problem", "dense_file", "--matrix-file", files["matrix"],
                   "--rhs-file", files["rhs"], "--output-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "missing.txt" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "uq", "bounds"])
def test_sample_size_past_the_problem_exits_1(tmp_path, capsys, command):
    # the library checks it against the problem's shape; the CLI names the flag
    assert run_cli(command, "--n", "16", "--maxiter", "3", "--pivot", "sampled",
                   "--sample-size", "100", "--output-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "error: --sample-size must be at most max(m, n) = 16, got 100\n")
    assert not (tmp_path / "out").exists()


def test_compare_skips_sample_sizes_past_the_problem(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("compare", "--n", "16", "--maxiter", "3", "--sample-sizes", "5,100",
                   "--output-dir", str(out)) == 0
    assert capsys.readouterr().err == (
        "skipping sample size 100: exceeds max(m, n) = 16\n")
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == ("k,rel_error_hybrid_lslu_full,rel_error_hybrid_lslu_s5,"
                      "rel_error_hybrid_lsqr")


def test_config_errors_map_only_inputs_that_name_a_field():
    # a library name is renamed to its field; an input the library made
    # itself (a basis, a Woodbury matrix) stays the library's error
    with pytest.raises(UsageError, match="^--angles must be at least 1, got 0$"):
        with config_errors(n_angles="angles"):
            raise InputError("n_angles", "{name} must be at least 1, got 0")
    with pytest.raises(InputError, match="^basis has non-finite entries$"):
        with config_errors(n_angles="angles"):
            raise InputError("basis", "{name} has non-finite entries")


def test_module_entry_point(tmp_path):
    # the package runs as `python -m lslu`
    result = subprocess.run(
        [sys.executable, "-m", "lslu", "solve", "--problem", "gravity",
         "--n", "16", "--method", "lslu", "--maxiter", "3",
         "--output-dir", str(tmp_path / "m")],
        capture_output=True, text=True)
    assert result.returncode == 0
