"""End-to-end iterative solvers over either factorization.

A solve grows a state (hess_init or gk_init, then iterate) and runs the
projected pass over it: at each k, SVD the small projected matrix, pick
the regularization parameter, solve the projected problem, evaluate the
stopping function.  With a stop test the pass takes each new k as it is
grown, so the state stops at k_stop; with none the state is grown to
the end first and one pass then reads its held columns.  The two phases
then do not evict each other's data from cache at every iteration: on
a pure hybrid LSLU solve (2-vCPU Xeon, one BLAS thread) the steps ran
9%, 3% and 33% faster and the pass 18%, 24% and 7% faster on gravity
n=4096 (20 iterations), tomo n=64 (100) and tomo n=24 (200).  The pass
reads only the first k columns, which later steps never rewrite, so
both orders give the same bits.  replay runs the same pass over the
columns a state already holds.  A plain method is its hybrid at the
fixed parameter 0.  The LSLU family's hot path stays free of long-vector
inner products; history reporting is the only place norms appear, and
`pure=True` turns it off so tests can witness a zero reduction count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import reductions
from .golub_kahan import BidiagState, gk_init, gk_step
from .hessenberg import (BREAKDOWN_NONE, HessenbergState, InputError, KrylovState,
                         PivotStrategy, check_kind, check_maxiter, check_real,
                         check_type, check_vector, hess_init, hess_step, iterate)
# ls_projected is not called here: the benchmark's tracer patches this name
from .projected import (LambdaRule, ghat, ls_projected, select_lambda, stop_check,
                        svd_small, tikhonov_projected)

METHODS = ("lslu", "hybrid_lslu", "lsqr", "hybrid_lsqr")


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
        check_kind(self.method, "method", METHODS)
        check_maxiter(self.maxiter)
        check_type(self.pivot, "pivot", PivotStrategy)
        check_type(self.lambda_rule, "lambda_rule", LambdaRule)
        if self.stop_tol is not None:
            check_real(self.stop_tol, "stop_tol", positive=True)
            if not self.method.startswith("hybrid_"):
                raise InputError("stop_tol", "{name} only applies to the hybrid methods")


@dataclass
class SolveResult:
    """Final iterate plus per-iteration histories and the basis state.

    Histories all have length k_reached; the residual and error lists
    stay empty in pure mode, the error list also when no truth is
    tracked.  x_final is x0 + (solution basis) @ y_{k_stop}.
    residual_norms[k - 1] is ||b - A x_k|| as the factorization gives
    it (see compute_histories).  ghats[k - 1] is
    ghat(svd, beta, lam_k, m, n) (nan once k reaches m); stop_tol reads
    the beta-free values, so stopping works where beta * beta makes
    these inf or 0.  state is the HessenbergState or BidiagState the
    solve grew or replayed.
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
    """x0 + (solution basis)[:, :k] @ y for the k coefficients y."""
    return state.x0 + state.solution_basis[:, :y.shape[0]] @ y


def _check_truths(config, n):
    # a bad truth fails here, before the first operator product or SVD
    if config.track_truth is not None:
        check_vector(config.track_truth, "track_truth", n)
    if config.lambda_rule.kind == "optimal":
        check_vector(config.lambda_rule.x_true, "x_true", n)


def _drive(op, b, config):
    """Grow the state with iterate and run the projected pass over it.

    With config.stop_tol the pass takes each k as iterate yields it, so
    no step runs past the stop.  Without it the state is grown to
    config.maxiter (or its breakdown) first, then one pass runs over
    k = 1..state.k, as replay does (see the module docstring for why).
    """
    _check_truths(config, op.shape[1])
    if config.method.endswith("lslu"):
        state = hess_init(op, b, config.x0, strategy=config.pivot,
                          maxiter=config.maxiter)
        step = hess_step
    else:
        state = gk_init(op, b, config.x0, maxiter=config.maxiter)
        step = gk_step
    steps = iterate(state, step, op, config.maxiter)
    if config.stop_tol is None:
        for _ in steps:
            pass
        steps = range(1, state.k + 1)
    return _project(state, config, steps)


def replay(state, config):
    """The SolveResult a fresh solve of config gives, bit for bit, read
    off a grown state's columns: the projected pass over k =
    1..config.maxiter, with no operator product (a solve without a stop
    test runs this same pass once its state is grown).  config's x0 and pivot
    are not read (the state fixed them).  A state that is not a
    HessenbergState or BidiagState, a method of the other family, or a
    maxiter past state.k on a state that has not broken down raises a
    ValueError (an InputError naming the state).
    """
    family = {HessenbergState: "lslu", BidiagState: "lsqr"}.get(type(state))
    if family is None:
        raise InputError("state", "{name} must be a HessenbergState or BidiagState, "
                         "got {kind}", kind=type(state).__name__)
    if not config.method.endswith(family):
        raise ValueError(f"method {config.method!r} is not of the {family} family")
    if config.maxiter > state.k and state.breakdown == BREAKDOWN_NONE:
        raise ValueError(f"maxiter {config.maxiter} exceeds state.k = {state.k}")
    _check_truths(config, state.n)
    return _project(state, config, range(1, min(config.maxiter, state.k) + 1))


def _project(state, config, steps):
    # the projected pass: at each k from steps it reads the first k
    # columns of the projected matrix and solution basis, beta and x0
    m, n, beta = state.m, state.n, state.beta
    rule = (config.lambda_rule if config.method.startswith("hybrid_")
            else LambdaRule.fixed(0.0))
    ys, lambdas, ghats = [], [], []
    stop_reason = svd = None
    for k in steps:
        # the projected matrix grew by one column and row: extend its SVD
        svd = svd_small(state.projected_matrix[:k + 1, :k], svd)
        lambdas.append(select_lambda(rule, svd, beta, m,
                                     basis=state.solution_basis[:, :k], x0=state.x0))
        ys.append(tikhonov_projected(svd, beta, lambdas[-1]))
        # beta-free: stop_check reads only ratios, which a factor
        # beta * beta turns into inf/inf or 0/0 on a scaled problem
        ghats.append(ghat(svd, 1.0, lambdas[-1], m, n) if k < m else float("nan"))
        if (config.stop_tol is not None and len(ghats) >= 2
                and stop_check(ghats, config.stop_tol)):
            stop_reason = "ghat_tol"
            break
    k = len(ys)
    # otherwise a breakdown ended the pass if the pass reached state.k and maxiter
    # lies past it, or the breakdown step added that column (residual_count == k)
    broke = state.breakdown != BREAKDOWN_NONE and k == state.k and (
        k < config.maxiter or state.residual_count == k)
    result = SolveResult(reconstruct(state, ys[-1]) if ys else state.x0.copy(), k,
                         stop_reason or ("breakdown" if broke else "maxiter"), [], [],
                         lambdas, [beta * beta * g for g in ghats], ys, state)
    if not config.pure:
        result.residual_norms, result.relative_errors = compute_histories(
            result, config.track_truth)
    return result


def _run(op, b, config, method):
    # a run_* wrapper solves its own method: a config of another is rejected
    config = config or SolverConfig(method=method)
    if config.method != method:
        raise InputError("method", "{name} must be {want!r} for run_{want}, got "
                         "{value!r}", want=method, value=config.method)
    return _drive(op, b, config)


def run_lslu(op, b, config=None):
    """Quasi-minimal residual iteration over the Hessenberg factorization."""
    return _run(op, b, config, "lslu")


def run_hybrid_lslu(op, b, config=None):
    """LSLU with per-iteration Tikhonov regularization of the projected problem."""
    return _run(op, b, config, "hybrid_lslu")


def run_lsqr(op, b, config=None):
    """Least-squares iteration over the bidiagonalization (baseline)."""
    return _run(op, b, config, "lsqr")


def run_hybrid_lsqr(op, b, config=None):
    """LSQR with per-iteration Tikhonov regularization (baseline)."""
    return _run(op, b, config, "hybrid_lsqr")


def solve(op, b, config):
    """Run config.method."""
    return _drive(op, b, config)


def compute_histories(result, x_true=None):
    """Residual (and error) histories of a finished solve, as
    (residual_norms, relative_errors).

    b - A x_k = (residual basis)[:, :d] (beta e_1 - M[:d, :k] y_k), M the
    projected matrix and d = min(k + 1, residual basis columns): one
    gemv and one counted norm per iteration, no operator product.
    Iterates are rebuilt only to measure the error against x_true, a
    finite vector of length n (else an InputError names it).  Pure mode
    skips this; a caller can apply it to a pure-mode result afterwards.
    """
    state = result.state
    basis, projected = state.residual_basis, state.projected_matrix
    truth_norm = None
    if x_true is not None:
        x_true = check_vector(x_true, "x_true", state.n)
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
