"""End-to-end iterative solvers over either factorization.

Four methods share one driver skeleton: per iteration, extend the
factorization, SVD the small projected matrix, pick the regularization
parameter, solve the projected problem, and (for the hybrid methods)
evaluate the stopping function.  The LSLU family's hot path stays free
of long-vector inner products; history reporting is the only place
norms appear, and `pure=True` turns it off so tests can witness a zero
reduction count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import reductions
from .golub_kahan import BidiagState, gk_init, gk_step
from .hessenberg import (BREAKDOWN_NONE, HessenbergState, PivotStrategy,
                         check_maxiter, hess_init, hess_step)
from .projected import (LambdaRule, ghat, ls_projected, select_lambda,
                        stop_check, svd_small, tikhonov_projected)

METHODS = ("lslu", "hybrid_lslu", "lsqr", "hybrid_lsqr")

STOP_GHAT = "ghat_tol"
STOP_MAXITER = "maxiter"
STOP_BREAKDOWN = "breakdown"


@dataclass
class SolverConfig:
    """Everything a solve needs besides the operator and the data."""

    method: str = "hybrid_lslu"
    maxiter: int = 50
    x0: np.ndarray | None = None
    pivot: PivotStrategy = field(default_factory=PivotStrategy.full)
    lambda_rule: LambdaRule = field(default_factory=LambdaRule.wgcv)
    stop_tol: float | None = None
    track_truth: np.ndarray | None = None
    reorth: bool = True
    pure: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_maxiter(self.maxiter)
        if self.stop_tol is not None and not (math.isfinite(self.stop_tol)
                                              and self.stop_tol > 0):
            raise ValueError(
                f"stop_tol must be finite and positive when set, got {self.stop_tol!r}")


@dataclass
class SolveResult:
    """Final iterate plus per-iteration histories and the basis state.

    Histories all have length k_reached (iterations completed); the
    residual and error lists stay empty in pure mode or when no truth
    is tracked.  x_final equals x0 + (solution basis) @ y_{k_stop}.
    """

    x_final: np.ndarray
    k_stop: int
    stop_reason: str
    residual_norms: list
    relative_errors: list
    lambdas: list
    ghats: list
    ys: list
    state: HessenbergState | BidiagState

    @property
    def k_reached(self):
        return len(self.ys)


def _reconstruct(state, x0, y):
    if y is None or y.shape[0] == 0:
        return x0.copy()
    return x0 + state.solution_basis[:, :y.shape[0]] @ y


def _drive(op, b, config, family, hybrid):
    b = np.asarray(b, dtype=float)
    m, n = op.shape
    if family == "lslu":
        state = hess_init(op, b, config.x0, config.pivot, config.maxiter)
        step = hess_step
    else:
        state = gk_init(op, b, config.x0, config.reorth, config.maxiter)
        step = gk_step
    x0 = state.x0
    rule = config.lambda_rule

    ys, lambdas, ghats = [], [], []
    residual_norms, relative_errors = [], []
    truth = None
    truth_norm = None
    if config.track_truth is not None and not config.pure:
        truth = np.asarray(config.track_truth, dtype=float)
        truth_norm = reductions.norm2(truth)

    if state.breakdown != BREAKDOWN_NONE:
        return SolveResult(x0.copy(), 0, STOP_BREAKDOWN, residual_norms,
                           relative_errors, lambdas, ghats, ys, state)

    stop_reason = None
    k_stop = None
    while state.k < config.maxiter and state.breakdown == BREAKDOWN_NONE:
        prev_k = state.k
        step(state, op)
        if state.k == prev_k:
            break  # terminal: no new column was produced
        k = state.k
        svd = svd_small(state.projected_matrix)
        if hybrid:
            lam = select_lambda(rule, svd, state.beta, k, m,
                                basis=state.solution_basis, x0=x0)
            y = tikhonov_projected(svd, state.beta, lam)
        else:
            lam = 0.0
            y = ls_projected(svd, state.beta)
        ys.append(y)
        lambdas.append(lam)
        gh = ghat(svd, state.beta, lam, k, m, n) if k < m else float("nan")
        ghats.append(gh)

        if not config.pure:
            x_k = _reconstruct(state, x0, y)
            residual_norms.append(reductions.norm2(b - op.forward(x_k)))
            if truth is not None:
                err = reductions.norm2(x_k - truth)
                relative_errors.append(err / truth_norm if truth_norm > 0
                                       else float("nan"))

        if (hybrid and config.stop_tol is not None and len(ghats) >= 2
                and np.isfinite(ghats[0]) and np.isfinite(ghats[-1])
                and np.isfinite(ghats[-2])
                and stop_check(ghats, config.stop_tol)):
            stop_reason = STOP_GHAT
            k_stop = k
            break

    if stop_reason is None:
        if state.breakdown != BREAKDOWN_NONE:
            stop_reason = STOP_BREAKDOWN
        else:
            stop_reason = STOP_MAXITER
        k_stop = len(ys)

    x_final = _reconstruct(state, x0, ys[k_stop - 1] if k_stop >= 1 else None)
    return SolveResult(x_final, k_stop, stop_reason, residual_norms,
                       relative_errors, lambdas, ghats, ys, state)


def run_lslu(op, b, config=None):
    """Quasi-minimal residual iteration over the Hessenberg factorization."""
    config = config or SolverConfig(method="lslu")
    return _drive(op, b, config, family="lslu", hybrid=False)


def run_hybrid_lslu(op, b, config=None):
    """LSLU with per-iteration Tikhonov regularization of the projected problem."""
    config = config or SolverConfig(method="hybrid_lslu")
    return _drive(op, b, config, family="lslu", hybrid=True)


def run_lsqr(op, b, config=None):
    """Least-squares iteration over the bidiagonalization (baseline)."""
    config = config or SolverConfig(method="lsqr")
    return _drive(op, b, config, family="gk", hybrid=False)


def run_hybrid_lsqr(op, b, config=None):
    """LSQR with per-iteration Tikhonov regularization (baseline)."""
    config = config or SolverConfig(method="hybrid_lsqr")
    return _drive(op, b, config, family="gk", hybrid=True)


_RUNNERS = {"lslu": run_lslu, "hybrid_lslu": run_hybrid_lslu,
            "lsqr": run_lsqr, "hybrid_lsqr": run_hybrid_lsqr}


def solve(op, b, config):
    """Dispatch on config.method."""
    return _RUNNERS[config.method](op, b, config)


def compute_histories(result, op, b, x_true=None):
    """Residual (and error) histories recomputed after a pure-mode solve.

    Pure mode keeps the iteration free of long-vector reductions by
    deferring all norm evaluations; this reconstructs every iterate from
    the stored basis and projected solutions and returns the same
    (residual_norms, relative_errors) lists a reporting run would have
    recorded.
    """
    b = np.asarray(b, dtype=float)
    state = result.state
    x0 = state.x0
    truth_norm = None
    if x_true is not None:
        x_true = np.asarray(x_true, dtype=float)
        truth_norm = reductions.norm2(x_true)
    residual_norms, relative_errors = [], []
    for y in result.ys:
        x_k = _reconstruct(state, x0, y)
        residual_norms.append(reductions.norm2(b - op.forward(x_k)))
        if x_true is not None:
            err = reductions.norm2(x_k - x_true)
            relative_errors.append(err / truth_norm if truth_norm > 0
                                   else float("nan"))
    return residual_norms, relative_errors
