"""Experiment runner: solve / compare / uq / bounds subcommands.

Reproduces the library's figure- and table-style pipelines at desk
scale, emitting CSV histories, JSON summaries, and PGM images.  All
outputs are byte-reproducible given the same config and seed.  RunConfig
is the one schema: every field is a flag (kebab-case), and --config
loads a flat JSON object with the same keys, whose values parse exactly
like the flag text (command-line flags override them).  The library's
constructors validate the resulting config objects.

Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import plain_bound_report, hybrid_bound_report
from .golub_kahan import gk_run
from .hessenberg import PivotStrategy, check_maxiter, hess_run
from .operators import (load_dense_problem, make_gravity_problem,
                        make_tomo_problem)
from .pgm import write_pgm
from .projected import LambdaRule
from .solvers import METHODS, SolverConfig, run_hybrid_lsqr, solve
from .uq import build_uq, build_uq_bidiag, covariance_sum, variance_diagonal

PROBLEMS = ("gravity", "tomo", "dense_file")
EMIT_CHOICES = ("history_csv", "summary_json", "recon_pgm", "basis_pgm",
                "bounds_csv", "uq_csv")


class UsageError(Exception):
    """Configuration problem the user can fix (exit code 1)."""


@dataclass
class RunConfig:
    """Flat experiment configuration (JSON schema and CLI flags)."""

    problem: str = field(default="gravity", metadata={"choices": PROBLEMS})
    n: int = 32
    depth: float = 0.25
    angles: int | None = None
    detectors: int | None = None
    matrix_file: str | None = None
    rhs_file: str | None = None
    noise_level: float = 1e-2
    seed: int = 0
    method: str = field(default="hybrid_lslu", metadata={"choices": METHODS})
    maxiter: int = 50
    lambda_rule: str = field(default="wgcv", metadata={"choices": LambdaRule.KINDS})
    lambda_value: float | None = None
    stop_tol: float | None = None
    pivot: str = field(default="full", metadata={"choices": PivotStrategy.KINDS})
    sample_size: int | None = None
    pivot_seed: int = 0
    sample_sizes: list[int] = field(default_factory=lambda: [25, 50, 100])
    k_max: int = 15
    sigma2: float | None = None
    reg: float | None = None
    output_dir: str = "."
    emit: list[str] = field(default_factory=lambda: ["history_csv", "summary_json"],
                            metadata={"choices": EMIT_CHOICES})


_HINTS = typing.get_type_hints(RunConfig)


def _scalar(kind, value, choices):
    # a JSON number reads as its text, so 3.0 is no int, as on the command line
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    try:
        result = kind(str(value))
    except ValueError:
        raise ValueError(f"expected {kind.__name__}, got {value!r}") from None
    if choices and result not in choices:
        raise ValueError(f"{result!r} is not one of {', '.join(choices)}")
    return result


def parse_field(f, value, source):
    """One RunConfig value from flag text or a JSON value (a UsageError
    naming source if bad).  A list is comma-separated text or a JSON array."""
    hint = _HINTS[f.name]
    if type(None) in typing.get_args(hint):
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    choices = f.metadata.get("choices")
    try:
        if typing.get_origin(hint) is not list:
            return _scalar(hint, value, choices)
        items = [s for s in value.split(",") if s] if isinstance(value, str) else value
        if not isinstance(items, list):
            raise ValueError(f"expected a list, got {value!r}")
        return [_scalar(typing.get_args(hint)[0], item, choices) for item in items]
    except ValueError as exc:
        raise UsageError(f"{source}: {exc}") from None


@contextmanager
def config_errors(prefix=""):
    """Report a library config object's ValueError as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def build_problem(config):
    """Instantiate the configured test problem.

    Returns (op, b, x_true, e, image_shapes) where image_shapes maps
    'solution'/'data' to 2-D shapes when the spaces are images.
    """
    if config.problem == "dense_file":
        if not config.matrix_file or not config.rhs_file:
            raise UsageError("dense_file problem needs --matrix-file and --rhs-file")
        op, b = load_dense_problem(config.matrix_file, config.rhs_file)
        return op, b, None, None, {}
    if config.problem == "tomo":
        prob = make_tomo_problem(config.n, config.angles, config.detectors,
                                 config.noise_level, config.seed)
    else:
        prob = make_gravity_problem(config.n, config.depth,
                                    config.noise_level, config.seed)
    return prob.op, prob.b, prob.x_true, prob.e, prob.image_shapes


def make_solver_config(config, x_true):
    with config_errors():
        seed = config.pivot_seed if config.pivot == "sampled" else None
        pivot = PivotStrategy(kind=config.pivot, sample_size=config.sample_size,
                              seed=seed)
        rule = LambdaRule(config.lambda_rule, config.lambda_value, x_true=x_true)
        return SolverConfig(config.method, config.maxiter, pivot=pivot,
                            lambda_rule=rule, stop_tol=config.stop_tol,
                            track_truth=x_true)


def _history_rows(result):
    k_reached = result.k_reached
    resid = result.residual_norms or [float("nan")] * k_reached
    relerr = result.relative_errors or [float("nan")] * k_reached
    for i in range(k_reached):
        yield (i + 1, resid[i], relerr[i], result.lambdas[i], result.ghats[i])


def cmd_solve(config):
    """run one solver, emit history/summary/images"""
    op, b, x_true, _, shapes = build_problem(config)
    result = solve(op, b, make_solver_config(config, x_true))
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    if "history_csv" in config.emit:
        write_csv(outdir / "history.csv",
                  ["k", "residual_norm", "relative_error", "lambda", "ghat"],
                  _history_rows(result))
    if "summary_json" in config.emit:
        k = result.k_stop
        summary = {
            "problem": config.problem,
            "method": config.method,
            "m": op.nrows,
            "n": op.ncols,
            "noise_level": config.noise_level,
            "seed": config.seed,
            "maxiter": config.maxiter,
            "k_stop": k,
            "stop_reason": result.stop_reason,
            "lambda_final": result.lambdas[k - 1] if k >= 1 else None,
            "relative_error_final": (result.relative_errors[k - 1]
                                     if result.relative_errors and k >= 1 else None),
            "residual_norm_final": (result.residual_norms[k - 1]
                                    if result.residual_norms and k >= 1 else None),
        }
        with open(outdir / "summary.json", "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "recon_pgm" in config.emit:
        shape = shapes.get("solution", (1, op.ncols))
        write_pgm(outdir / "recon.pgm", result.x_final.reshape(shape))
    if "basis_pgm" in config.emit:
        state = result.state
        sol_shape = shapes.get("solution", (1, op.ncols))
        data_shape = shapes.get("data", (1, op.nrows))
        basis = state.solution_basis
        resid_basis = state.D if hasattr(state, "D") else state.U
        for k in (2, 4, 6, 8, 10):
            if k <= basis.shape[1]:
                write_pgm(outdir / f"basis_L_k{k:02d}.pgm",
                          basis[:, k - 1].reshape(sol_shape))
            if k <= resid_basis.shape[1]:
                write_pgm(outdir / f"basis_D_k{k:02d}.pgm",
                          resid_basis[:, k - 1].reshape(data_shape))
    return 0


def cmd_compare(config):
    """error curves for pivot variants and the baseline"""
    with config_errors():
        # compare sets the pivoting of each variant itself
        if config.sample_size is not None:
            raise ValueError("compare takes no --sample-size; "
                             "list the sampled variants with --sample-sizes")
        if config.pivot != "full":
            raise ValueError(f"compare takes no --pivot (got {config.pivot!r}); it runs "
                             "full pivoting and the --sample-sizes variants")
    op, b, x_true, _, _ = build_problem(config)
    if x_true is None:
        raise UsageError("compare needs a problem with a known truth")
    hybrid = config.method.startswith("hybrid")
    base_lu = "hybrid_lslu" if hybrid else "lslu"
    base_qr = "hybrid_lsqr" if hybrid else "lsqr"

    variants = [(f"{base_lu}_full", replace(config, method=base_lu))]
    limit = max(op.nrows, op.ncols)
    for size in config.sample_sizes:
        if size > limit:
            print(f"skipping sample size {size}: exceeds max(m, n) = {limit}",
                  file=sys.stderr)
            continue
        variants.append((f"{base_lu}_s{size}", replace(
            config, method=base_lu, pivot="sampled", sample_size=size)))
    variants.append((base_qr, replace(config, method=base_qr)))
    configs = [(name, make_solver_config(cfg, x_true)) for name, cfg in variants]
    curves = [(name, solve(op, b, cfg)) for name, cfg in configs]

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    kmax = max(res.k_reached for _, res in curves)
    rows = []
    for i in range(kmax):
        row = [i + 1]
        for _, res in curves:
            row.append(res.relative_errors[i] if i < len(res.relative_errors)
                       else float("nan"))
        rows.append(row)
    write_csv(outdir / "compare.csv",
              ["k"] + [f"rel_error_{name}" for name, _ in curves], rows)
    return 0


def cmd_uq(config):
    """posterior covariance sums from both factorizations"""
    op, b, x_true, e, shapes = build_problem(config)
    if e is None:
        raise UsageError("uq needs a generated problem (known noise)")
    stop_tol = config.stop_tol if config.stop_tol is not None else 1e-4
    hybrid_config = make_solver_config(replace(
        config, method="hybrid_lsqr", lambda_rule="wgcv", stop_tol=stop_tol), x_true)
    with config_errors("k_max: "):
        check_maxiter(config.k_max)
    m = op.nrows
    sigma2 = config.sigma2
    if sigma2 is None:
        sigma2 = float(np.dot(e, e) / m)
    reg = config.reg
    k_stop = None
    if reg is None or "solution" in shapes:
        # the automatically-stopped hybrid baseline supplies the default
        # regularization scale and the iteration for the variance images
        hybrid = run_hybrid_lsqr(op, b, hybrid_config)
        k_stop = hybrid.k_stop
        if reg is None:
            if k_stop < 1:
                raise UsageError("cannot derive reg: hybrid run produced no iterations")
            reg = float(hybrid.lambdas[k_stop - 1])
    if reg <= 0:
        raise UsageError("reg must be positive")

    k_max = config.k_max
    hstate = hess_run(op, b, strategy=hybrid_config.pivot, maxiter=k_max)
    gstate = gk_run(op, b, maxiter=k_max)
    kk = min(hstate.k, gstate.k, k_max)
    rows = []
    last = None
    for k in range(1, kk + 1):
        uq_h = build_uq(hstate, sigma2, reg, k=k)
        uq_g = build_uq_bidiag(gstate, sigma2, reg, k=k)
        s_h, s_g = covariance_sum(uq_h), covariance_sum(uq_g)
        rows.append((k, s_h, s_g, abs(s_h - s_g)))
        last = (uq_h, uq_g)

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "uq.csv", ["k", "sum_lslu", "sum_lsqr", "abs_diff"], rows)
    if "solution" in shapes and last is not None:
        k_star = min(max(k_stop or kk, 1), kk)
        uq_h = build_uq(hstate, sigma2, reg, k=k_star)
        uq_g = build_uq_bidiag(gstate, sigma2, reg, k=k_star)
        write_pgm(outdir / "variance_lslu.pgm",
                  variance_diagonal(uq_h).reshape(shapes["solution"]))
        write_pgm(outdir / "variance_lsqr.pgm",
                  variance_diagonal(uq_g).reshape(shapes["solution"]))
    return 0


def cmd_bounds(config):
    """residual-bound report (fixed lambda: hybrid form)"""
    with config_errors():
        if config.lambda_value is not None and not config.lambda_value > 0:
            raise ValueError("the hybrid bound report needs a positive lambda value, "
                             f"got {config.lambda_value!r}")
    op, b, x_true, _, _ = build_problem(config)
    pivot = make_solver_config(config, x_true).pivot
    if config.lambda_value is not None:
        report = hybrid_bound_report(op, b, config.lambda_value,
                                     config.maxiter, pivot=pivot)
    else:
        report = plain_bound_report(op, b, config.maxiter, pivot=pivot)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = zip(report.iterations, report.r_lu, report.r_qr, report.kappa,
               report.lower_ok, report.upper_ok)
    write_csv(outdir / "bounds.csv",
              ["k", "r_lu", "r_qr", "kappa", "lower_ok", "upper_ok"], rows)
    return 0


_COMMANDS = {"solve": cmd_solve, "compare": cmd_compare,
             "uq": cmd_uq, "bounds": cmd_bounds}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lslu", description="Inner-product-free Krylov solvers for "
        "ill-posed inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", help="JSON file with RunConfig fields")
        for f in fields(RunConfig):
            choices = f.metadata.get("choices")
            p.add_argument("--" + f.name.replace("_", "-"), help=f.type,
                           metavar="{" + ",".join(choices) + "}" if choices else None)
    return parser


def resolve_config(args):
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config}: expected a JSON object")
        known = {f.name: f for f in fields(RunConfig)}
        for key, value in loaded.items():
            if key not in known:
                raise UsageError(f"unknown config key {key!r}")
            values[key] = parse_field(known[key], value, f"{args.config}: {key}")
    for f in fields(RunConfig):
        text = getattr(args, f.name)
        if text is not None:
            values[f.name] = parse_field(f, text, "--" + f.name.replace("_", "-"))
    return RunConfig(**values)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = resolve_config(args)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
