"""Experiment runner: solve / compare / uq / bounds subcommands.

Reproduces the library's figure- and table-style pipelines at desk
scale, emitting CSV histories, JSON summaries, and PGM images.  All
outputs are byte-reproducible given the same config and seed.  RunConfig
is the one schema.  COMMANDS lists the fields each command reads: its
flags (kebab-case) and the keys its --config JSON object may set, whose
values parse exactly like the flag text (flags override them; other
fields are skipped with a warning).  Library constructors validate them.
unread_reason says when a command does not read a field as set up (a
parameter of another problem kind, a --lambda-rule with a plain method,
an unread --lambda-value): such a flag exits 1 and such a key is
skipped with a warning.

Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import bound_report
from .golub_kahan import gk_run
from .hessenberg import InputError, PivotStrategy, check_maxiter, hess_run
from .operators import (load_dense_problem, make_gravity_problem,
                        make_tomo_problem)
from .projected import LambdaRule
from .solvers import METHODS, SolverConfig, solve
from .uq import build_uq, check_noise_model, covariance_sum, variance_diagonal

PROBLEMS = ("gravity", "tomo", "dense_file")
EMIT_CHOICES = ("history_csv", "summary_json", "recon_pgm", "basis_pgm")


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
    pivot_seed: int | None = None
    sample_sizes: list[int] = field(default_factory=lambda: [25, 50, 100])
    k_max: int = 15
    sigma2: float | None = None
    reg: float | None = None
    output_dir: str = "."
    emit: list[str] = field(default_factory=lambda: ["history_csv", "summary_json"],
                            metadata={"choices": EMIT_CHOICES})


_HINTS = typing.get_type_hints(RunConfig)


def flag(name):
    """The command-line flag of a RunConfig field."""
    return "--" + name.replace("_", "-")


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
def config_errors(**fields):
    """Report a library InputError that names a RunConfig field as a usage
    error naming its flag; fields maps the names the library gives some
    fields.  One that names no field (an input the library made) passes."""
    try:
        yield
    except InputError as exc:
        name = fields.get(exc.name, exc.name)
        if name not in _HINTS:
            raise
        raise UsageError(exc.message(flag(name))) from exc


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


def write_pgm(path, array):
    """Write a 2-D array as a min-max scaled 8-bit binary PGM (P5)."""
    array = np.atleast_2d(np.asarray(array, dtype=float))
    lo, hi = float(array.min()), float(array.max())
    if hi > lo:
        scaled = np.round((array - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(array)
    header = f"P5\n{array.shape[1]} {array.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(scaled.astype(np.uint8).tobytes())


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
        prob = make_gravity_problem(config.n, config.depth, config.noise_level,
                                    config.seed)
    return prob.op, prob.b, prob.x_true, prob.e, prob.image_shapes


def make_pivot(config):
    with config_errors(seed="pivot_seed"):
        return PivotStrategy(kind=config.pivot, sample_size=config.sample_size,
                             seed=config.pivot_seed)


def make_solver_config(config, x_true):
    pivot = make_pivot(config)
    if config.lambda_rule == "optimal" and x_true is None:
        raise UsageError("--lambda-rule optimal needs a problem with a known truth")
    rule = LambdaRule(config.lambda_rule, config.lambda_value, x_true=x_true)
    return SolverConfig(config.method, config.maxiter, pivot=pivot, lambda_rule=rule,
                        stop_tol=config.stop_tol, track_truth=x_true)


# the parameters each problem kind reads
_PROBLEM_READS = {"gravity": {"n", "depth", "noise_level", "seed"},
                  "tomo": {"n", "angles", "detectors", "noise_level", "seed"},
                  "dense_file": {"matrix_file", "rhs_file"}}


def unread_reason(config, command, name):
    """Why command, set up as config is, does not read a field it takes,
    or None when it reads it: the one rule behind both check_unread and
    resolve_config's skipped --config keys."""
    if (name in set().union(*_PROBLEM_READS.values())
            and name not in _PROBLEM_READS[config.problem]):
        return f"--problem {config.problem}"
    if name not in ("lambda_rule", "lambda_value") or command == "bounds":
        return None
    if not config.method.startswith("hybrid"):
        return f"--method {config.method}: only the hybrid methods regularize"
    if name == "lambda_value" and config.lambda_rule != "fixed":
        return f"--lambda-rule {config.lambda_rule}: only the fixed rule takes a value"
    return None


def check_unread(config, command, flagged):
    """Exit 1 on a flag that command, set up as config is, does not read.
    Each command calls it once the library has checked its values."""
    for name in flagged:
        reason = unread_reason(config, command, name)
        if reason is not None:
            raise UsageError(f"{flag(name)} is not read by {command} with {reason}")


def _history_rows(result):
    k_reached = result.k_reached
    resid = result.residual_norms or [float("nan")] * k_reached
    relerr = result.relative_errors or [float("nan")] * k_reached
    for i in range(k_reached):
        yield (i + 1, resid[i], relerr[i], result.lambdas[i], result.ghats[i])


def cmd_solve(config, flagged):
    """run one solver, emit history/summary/images"""
    op, b, x_true, _, shapes = build_problem(config)
    solver_config = make_solver_config(config, x_true)
    check_unread(config, "solve", flagged)
    result = solve(op, b, solver_config)
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
        resid_basis = state.residual_basis
        for k in (2, 4, 6, 8, 10):
            if k <= basis.shape[1]:
                write_pgm(outdir / f"basis_L_k{k:02d}.pgm",
                          basis[:, k - 1].reshape(sol_shape))
            if k <= resid_basis.shape[1]:
                write_pgm(outdir / f"basis_D_k{k:02d}.pgm",
                          resid_basis[:, k - 1].reshape(data_shape))
    return 0


def cmd_compare(config, flagged):
    """error curves for pivot variants and the baseline"""
    for i, size in enumerate(config.sample_sizes):
        check_maxiter(size, "sample_sizes")
        if size in config.sample_sizes[:i]:
            raise UsageError(f"{flag('sample_sizes')} repeats {size}")
    op, b, x_true, _, _ = build_problem(config)
    if x_true is None:
        raise UsageError("compare needs a problem with a known truth")
    hybrid = config.method.startswith("hybrid")
    base_lu = "hybrid_lslu" if hybrid else "lslu"
    base_qr = "hybrid_lsqr" if hybrid else "lsqr"

    # only the sampled variants take the pivot seed
    variants = [(f"{base_lu}_full", replace(config, method=base_lu, pivot_seed=None))]
    limit = max(op.nrows, op.ncols)
    for size in config.sample_sizes:
        if size > limit:
            print(f"skipping sample size {size}: exceeds max(m, n) = {limit}",
                  file=sys.stderr)
            continue
        variants.append((f"{base_lu}_s{size}", replace(
            config, method=base_lu, pivot="sampled", sample_size=size)))
    variants.append((base_qr, replace(config, method=base_qr, pivot_seed=None)))
    configs = [(name, make_solver_config(cfg, x_true)) for name, cfg in variants]
    check_unread(config, "compare", flagged)
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


def cmd_uq(config, flagged):
    """posterior covariance sums from both factorizations"""
    op, b, x_true, e, shapes = build_problem(config)
    check_unread(config, "uq", flagged)
    if e is None:
        raise UsageError("uq needs a generated problem (known noise)")
    stop_tol = config.stop_tol if config.stop_tol is not None else 1e-4
    hybrid_config = make_solver_config(replace(
        config, method="hybrid_lsqr", lambda_rule="wgcv", stop_tol=stop_tol), x_true)
    check_maxiter(config.k_max, "k_max")  # hess_run would name it --maxiter
    sigma2 = float(np.dot(e, e) / op.nrows) if config.sigma2 is None else config.sigma2
    reg = config.reg
    k_stop = None
    if reg is None or "solution" in shapes:
        # the automatically-stopped hybrid baseline supplies the default
        # regularization scale and the iteration for the variance images
        hybrid = solve(op, b, hybrid_config)
        k_stop = hybrid.k_stop
        if reg is None:
            if k_stop < 1:
                raise UsageError("cannot derive reg: hybrid run produced no iterations")
            reg = float(hybrid.lambdas[k_stop - 1])
    check_noise_model(sigma2, reg)

    k_max = config.k_max
    states = (("lslu", hess_run(op, b, strategy=hybrid_config.pivot, maxiter=k_max)),
              ("lsqr", gk_run(op, b, maxiter=k_max)))
    kk = min(state.k for _, state in states)
    rows = []
    for k in range(1, kk + 1):
        s_h, s_g = (covariance_sum(build_uq(state, sigma2, reg, k=k))
                    for _, state in states)
        rows.append((k, s_h, s_g, abs(s_h - s_g)))

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "uq.csv", ["k", "sum_lslu", "sum_lsqr", "abs_diff"], rows)
    if "solution" in shapes and kk >= 1:
        k_star = min(max(k_stop or kk, 1), kk)
        for name, state in states:
            uq = build_uq(state, sigma2, reg, k=k_star)
            write_pgm(outdir / f"variance_{name}.pgm",
                      variance_diagonal(uq).reshape(shapes["solution"]))
    return 0


def cmd_bounds(config, flagged):
    """residual-bound report (with --lambda-value: hybrid form)"""
    if config.lambda_value is not None and not 0 < config.lambda_value < np.inf:
        raise UsageError("the hybrid bound report needs a finite positive "
                         f"--lambda-value, got {config.lambda_value!r}")
    op, b, _, _, _ = build_problem(config)
    pivot = make_pivot(config)
    check_unread(config, "bounds", flagged)
    report = bound_report(hess_run(op, b, strategy=pivot, maxiter=config.maxiter),
                          gk_run(op, b, maxiter=config.maxiter),
                          config.lambda_value or 0.0)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = zip(report.iterations, report.r_lu, report.r_qr, report.kappa,
               report.lower_ok, report.upper_ok)
    write_csv(outdir / "bounds.csv",
              ["k", "r_lu", "r_qr", "kappa", "lower_ok", "upper_ok"], rows)
    return 0


_PROBLEM_FIELDS = {"problem", "n", "depth", "angles", "detectors", "matrix_file",
                   "rhs_file", "noise_level", "seed", "output_dir"}
_SOLVER_FIELDS = {"method", "maxiter", "lambda_rule", "lambda_value", "stop_tol"}
_PIVOT_FIELDS = {"pivot", "sample_size", "pivot_seed"}
# each command and the RunConfig fields it reads: its flags, and the
# --config keys it applies
COMMANDS = {
    "solve": (cmd_solve, _PROBLEM_FIELDS | _SOLVER_FIELDS | _PIVOT_FIELDS | {"emit"}),
    "compare": (cmd_compare, _PROBLEM_FIELDS | _SOLVER_FIELDS
                | {"pivot_seed", "sample_sizes"}),
    "uq": (cmd_uq, _PROBLEM_FIELDS | _PIVOT_FIELDS
           | {"maxiter", "stop_tol", "k_max", "sigma2", "reg"}),
    "bounds": (cmd_bounds, _PROBLEM_FIELDS | _PIVOT_FIELDS | {"maxiter", "lambda_value"}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lslu", description="Inner-product-free Krylov solvers for "
        "ill-posed inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, reads) in COMMANDS.items():
        # no abbreviations: compare would take --pivot as --pivot-seed
        p = sub.add_parser(name, help=command.__doc__, allow_abbrev=False)
        p.add_argument("--config", help="JSON file with RunConfig fields")
        for f in fields(RunConfig):
            choices = f.metadata.get("choices")
            if f.name in reads:
                p.add_argument(flag(f.name), help=f.type,
                               metavar="{" + ",".join(choices) + "}" if choices else None)
    return parser, sub.choices


def resolve_config(args):
    """The RunConfig of parsed args, and the fields their flags set.  A
    --config key the command does not read, or does not read as set
    up, is skipped with a warning."""
    reads = COMMANDS[args.command][1]
    values, flagged = {}, []
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
            if key not in reads:
                print(f"warning: {args.config}: {key} is not read by {args.command}",
                      file=sys.stderr)
                continue
            values[key] = parse_field(known[key], value, f"{args.config}: {key}")
    for f in fields(RunConfig):
        text = getattr(args, f.name) if f.name in reads else None
        if text is not None:
            values[f.name] = parse_field(f, text, flag(f.name))
            flagged.append(f.name)
    config = RunConfig(**values)
    for key in [key for key in values if key not in flagged]:
        reason = unread_reason(config, args.command, key)
        if reason is not None:
            print(f"warning: {args.config}: {key} is not read by {args.command} "
                  f"with {reason}", file=sys.stderr)
            del values[key]
    return RunConfig(**values), flagged


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # a library warning reads like the CLI's errors, without the source
    # path and line of wherever the library is installed
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser, commands = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the command's own usage line
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config, flagged = resolve_config(args)
        renamed = dict(n_angles="angles", n_detectors="detectors",
                       matrix_path="matrix_file", rhs_path="rhs_file")
        with warnings.catch_warnings(), config_errors(**renamed):
            warnings.showwarning = _show_warning
            return COMMANDS[args.command][0](config, flagged)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
