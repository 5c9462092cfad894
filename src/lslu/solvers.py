"""End-to-end iterative solvers over either factorization.

Four methods share one driver: per iteration, extend the factorization,
SVD the small projected matrix, pick the regularization parameter,
solve the projected problem, and evaluate the stopping function.  A
plain method is its hybrid at the fixed parameter 0.  The LSLU
family's hot path stays free of long-vector inner products; history
reporting is the only place norms appear (one residual norm per
iteration, read off the factorization without an operator product), and
`pure=True` turns it off so tests can witness a zero reduction count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import reductions
from .golub_kahan import gk_init, gk_step
from .hessenberg import (BREAKDOWN_NONE, KrylovState, PivotStrategy,
                         check_maxiter, hess_init, hess_step, iterate)
# ls_projected is not called here: the benchmark's tracer patches this name
from .projected import (LambdaRule, check_truth, ghat, ls_projected,
                        select_lambda, stop_check, svd_small, tikhonov_projected)

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
    pure: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_maxiter(self.maxiter)
        for name, kind in (("pivot", PivotStrategy), ("lambda_rule", LambdaRule)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        if self.stop_tol is not None and not (math.isfinite(self.stop_tol)
                                              and self.stop_tol > 0):
            raise ValueError(
                f"stop_tol must be finite and positive when set, got {self.stop_tol!r}")
        if self.stop_tol is not None and not self.method.startswith("hybrid_"):
            raise ValueError("stop_tol only applies to the hybrid methods")


@dataclass
class SolveResult:
    """Final iterate plus per-iteration histories and the basis state.

    Histories all have length k_reached (iterations completed); the
    residual and error lists stay empty in pure mode, and the error
    list also when no truth is tracked.  residual_norms[k - 1] is
    ||b - A x_k|| as the factorization gives it (see compute_histories),
    equal to a direct evaluation up to rounding.  x_final equals
    x0 + (solution basis) @ y_{k_stop}.  ghats[k - 1] is the stopping
    function ghat(svd, beta, lam_k, m, n) of iteration k (nan once k
    reaches m); stop_tol compares the beta-free values ghat(svd, 1.0,
    ...), which these are beta * beta times, so stopping works at scales
    where beta * beta makes the reported values inf or 0.  state is the
    HessenbergState or BidiagState the solve grew, both read through the
    KrylovState names.
    """

    x_final: np.ndarray
    k_stop: int
    stop_reason: str
    residual_norms: list
    relative_errors: list
    lambdas: list
    ghats: list
    ys: list
    state: KrylovState

    @property
    def k_reached(self):
        return len(self.ys)


def reconstruct(state, y):
    """x0 + (solution basis)[:, :k] @ y for the k coefficients y, or a
    copy of x0 when y is None."""
    if y is None:
        return state.x0.copy()
    return state.x0 + state.solution_basis[:, :y.shape[0]] @ y


def _drive(op, b, config, method):
    m, n = op.shape
    # a bad truth fails here, before the first operator product
    track_truth = config.track_truth
    if track_truth is not None:
        track_truth = check_truth(track_truth, n, "track_truth")
    if config.lambda_rule.kind == "optimal":
        check_truth(config.lambda_rule.x_true, n, "x_true")
    if method.endswith("lslu"):
        state = hess_init(op, b, config.x0, strategy=config.pivot,
                          maxiter=config.maxiter)
        step = hess_step
    else:
        state = gk_init(op, b, config.x0, maxiter=config.maxiter)
        step = gk_step
    rule = (config.lambda_rule if method.startswith("hybrid_")
            else LambdaRule.fixed(0.0))

    ys, lambdas, ghats = [], [], []
    stop_reason = None
    svd = None
    for k in iterate(state, step, op, config.maxiter):
        # the projected matrix grew by one column and row: extend its SVD
        svd = svd_small(state.projected_matrix, svd)
        lam = select_lambda(rule, svd, state.beta, m,
                            basis=state.solution_basis, x0=state.x0)
        y = tikhonov_projected(svd, state.beta, lam)
        ys.append(y)
        lambdas.append(lam)
        # beta-free: stop_check reads only ratios, which a factor
        # beta * beta turns into inf/inf or 0/0 on a scaled problem
        ghats.append(ghat(svd, 1.0, lam, m, n) if k < m else float("nan"))

        if (config.stop_tol is not None and len(ghats) >= 2
                and stop_check(ghats, config.stop_tol)):
            stop_reason = STOP_GHAT
            break

    if stop_reason is None:
        stop_reason = (STOP_MAXITER if state.breakdown == BREAKDOWN_NONE
                       else STOP_BREAKDOWN)
    k_stop = len(ys)

    x_final = reconstruct(state, ys[-1] if ys else None)
    ghats = [state.beta * state.beta * g for g in ghats]
    result = SolveResult(x_final, k_stop, stop_reason, [], [], lambdas, ghats,
                         ys, state)
    if not config.pure:
        result.residual_norms, result.relative_errors = compute_histories(
            result, track_truth)
    return result


def run_lslu(op, b, config=None):
    """Quasi-minimal residual iteration over the Hessenberg factorization."""
    config = config or SolverConfig(method="lslu")
    return _drive(op, b, config, "lslu")


def run_hybrid_lslu(op, b, config=None):
    """LSLU with per-iteration Tikhonov regularization of the projected problem."""
    config = config or SolverConfig(method="hybrid_lslu")
    return _drive(op, b, config, "hybrid_lslu")


def run_lsqr(op, b, config=None):
    """Least-squares iteration over the bidiagonalization (baseline)."""
    config = config or SolverConfig(method="lsqr")
    return _drive(op, b, config, "lsqr")


def run_hybrid_lsqr(op, b, config=None):
    """LSQR with per-iteration Tikhonov regularization (baseline)."""
    config = config or SolverConfig(method="hybrid_lsqr")
    return _drive(op, b, config, "hybrid_lsqr")


def solve(op, b, config):
    """Run config.method."""
    return _drive(op, b, config, config.method)


def compute_histories(result, x_true=None):
    """Residual (and error) histories of a finished solve.

    Returns (residual_norms, relative_errors).  Each residual comes from
    the factorization rather than the operator: A (solution basis)_k =
    (residual basis) M and r_0 = beta times the first residual basis
    vector, so b - A x_k = (residual basis)[:, :d] (beta e_1 - M[:d, :k] y_k)
    with M the projected matrix and d = min(k + 1, residual basis
    columns); a terminal exact-solve iteration holds only k of them.
    That is one gemv over the stored basis and one counted norm per
    iteration, and no operator product.  Iterates are rebuilt only to
    measure the error against x_true.  A reporting run fills its
    histories with this after its loop; pure mode skips it to keep the
    solve free of long-vector reductions, and a caller can apply it to
    a pure-mode result afterwards.  An x_true that is not a finite
    vector of length n raises a ValueError naming it.
    """
    state = result.state
    basis, projected = state.residual_basis, state.projected_matrix
    truth_norm = None
    if x_true is not None:
        x_true = check_truth(x_true, state.n, "x_true")
        truth_norm = reductions.norm2(x_true)
    residual_norms, relative_errors = [], []
    for y in result.ys:
        k = y.shape[0]
        d = min(k + 1, basis.shape[1])
        z = -(projected[:d, :k] @ y)
        z[0] += state.beta
        residual_norms.append(reductions.norm2(basis[:, :d] @ z))
        if x_true is not None:
            err = reductions.norm2(reconstruct(state, y) - x_true)
            relative_errors.append(err / truth_norm if truth_norm > 0
                                   else float("nan"))
    return residual_norms, relative_errors
