import json
import subprocess
import sys

import numpy as np
import pytest

from lslu.cli import main


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
            ("uq", "--k-max", "6", *lam),
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


def test_unread_lambda_value_warns(tmp_path, capsys):
    # a lambda value a command does not read is named on stderr, with why;
    # where it is read, or none is given, nothing is said
    lam = ("--lambda-value", "0.05")
    cases = [(("uq", "--k-max", "3", *lam), "uq: its regularization comes from --reg"),
             (("solve", "--method", "lslu", *lam), "solve with --method lslu"),
             (("solve", *lam), "solve with --lambda-rule wgcv"),
             (("compare", "--method", "lsqr", "--sample-sizes", "10", *lam),
              "compare with --method lsqr"),
             (("compare", "--lambda-rule", "gcv", "--sample-sizes", "10", *lam),
              "compare with --lambda-rule gcv"),
             (("solve", "--lambda-rule", "fixed", *lam), None),
             (("compare", "--lambda-rule", "fixed", "--sample-sizes", "10", *lam), None),
             (("bounds", *lam), None),
             (("solve", "--method", "lslu"), None),
             (("uq", "--k-max", "3"), None)]
    for i, (args, reason) in enumerate(cases):
        capsys.readouterr()
        assert run_cli(*args, "--n", "16", "--maxiter", "3",
                       "--output-dir", str(tmp_path / str(i))) == 0, args
        err = capsys.readouterr().err
        if reason is None:
            assert "lambda-value" not in err, (args, err)
        else:
            assert err.startswith(f"warning: --lambda-value is not read by {reason}")
            assert err.count("\n") == 1, (args, err)


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


def test_solve_optimal_rule(tmp_path):
    out = tmp_path / "opt"
    code = run_cli("solve", "--problem", "gravity", "--n", "32",
                   "--method", "hybrid_lslu", "--lambda-rule", "optimal",
                   "--maxiter", "8", "--output-dir", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lambda_final"] > 0


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
    assert run_cli("solve", "--emit", "bogus_target",
                   "--output-dir", str(tmp_path)) == 1
    bad = tmp_path / "missing.json"
    assert run_cli("solve", "--config", str(bad)) == 1

    # flag values the library's constructors reject, and JSON values that
    # do not parse as their flag text would; the message names the input
    cases = [
        (("--maxiter", "0"), "maxiter"),
        (("--pivot", "sampled", "--sample-size", "0"), "sample_size"),
        (("--stop-tol", "-1"), "stop_tol"),
        (("--lambda-value", "nan"), "lambda value"),
        (("--lambda-rule", "fixed", "--lambda-value", "nan"), "lambda value"),
        (("--method", "bogus"), "--method"),
        (("--maxiter", "3.0"), "--maxiter"),
        (("--pivot", "full", "--sample-size", "25"), "sample_size"),
        (("--pivot", "sampled", "--sample-size", "5", "--pivot-seed", "-1"),
         "seed must be at least 0, got -1"),
        # generated-problem parameters the generators reject
        (("--problem", "tomo", "--n", "8", "--angles", "0"), "n_angles"),
        (("--problem", "tomo", "--n", "8", "--detectors", "0"), "n_detectors"),
        (("--problem", "tomo", "--n", "3"), "n must be at least 4"),
        (("--n", "1"), "n must be at least 2"),
        (("--depth", "-1"), "depth"),
        (("--depth", "inf"), "depth"),
        (("--noise-level", "nan"), "noise_level"),
        (("--problem", "tomo", "--n", "8", "--noise-level", "-0.5"), "noise_level"),
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
    assert "k_max" in capsys.readouterr().err
    assert run_cli("bounds", "--n", "16", "--maxiter", "3", "--lambda-value", "0",
                   "--output-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lambda value" in err and "0.0" in err
    # compare chooses each variant's pivoting; it rejects the single-run flags
    for args, named in ((("--sample-size", "25"), "--sample-size"),
                        (("--pivot", "none"), "--pivot"),
                        (("--pivot", "sampled", "--sample-size", "25"), "--sample-size")):
        assert run_cli("compare", "--n", "16", "--maxiter", "3", *args,
                       "--output-dir", str(tmp_path / "out")) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "--sample-sizes" in err, (
            args, err)
    assert not (tmp_path / "out" / "compare.csv").exists()


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


def test_module_entry_point(tmp_path):
    # the package runs as `python -m lslu`
    result = subprocess.run(
        [sys.executable, "-m", "lslu", "solve", "--problem", "gravity",
         "--n", "16", "--method", "lslu", "--maxiter", "3",
         "--output-dir", str(tmp_path / "m")],
        capture_output=True, text=True)
    assert result.returncode == 0
