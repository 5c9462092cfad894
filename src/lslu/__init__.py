"""Inner-product-free Krylov methods for rectangular ill-posed problems.

The LSLU family builds its Krylov bases with a pivoted Hessenberg
(LU-style) process whose only global reductions are coordinate maxima,
plus optional per-iteration Tikhonov regularization with automatic
parameter selection and stopping.  LSQR-style baselines, residual-bound
diagnostics, and low-rank posterior-covariance estimation round out the
toolkit.
"""

from .diagnostics import (BoundReport, kappa_qr, kappa_svd, relation_residuals,
                          plain_bound_report, hybrid_bound_report)
from .golub_kahan import BidiagState, gk_init, gk_run, gk_step
from .hessenberg import (BREAKDOWN_EXACT, BREAKDOWN_NONE, BREAKDOWN_RANK,
                         BreakdownError, HessenbergState, KrylovState,
                         PivotStrategy, hess_init, hess_run, hess_step)
from .operators import (CountingOperator, InverseProblem, LinearOperator,
                        add_noise, export_dense_matrix, load_dense_problem,
                        make_dense_operator, make_gravity_problem,
                        make_sparse_operator, make_tomo_problem, trace_ray)
from .projected import (LambdaRule, ProjectedSvd, gcv_value, ghat,
                        ls_projected, select_lambda, stop_check, svd_small,
                        tikhonov_projected, wgcv_value)
from .solvers import (SolveResult, SolverConfig, compute_histories,
                      run_hybrid_lslu, run_hybrid_lsqr, run_lslu, run_lsqr,
                      solve)
from .uq import (UqApprox, build_uq, build_uq_bidiag, covariance_sum,
                 oracle_posterior, variance_diagonal, woodbury_delta)

__version__ = "0.1.0"

__all__ = [
    "BidiagState", "BoundReport", "BreakdownError", "CountingOperator",
    "HessenbergState", "InverseProblem", "KrylovState", "LambdaRule",
    "LinearOperator", "PivotStrategy", "ProjectedSvd", "SolveResult", "SolverConfig",
    "UqApprox", "add_noise", "build_uq", "build_uq_bidiag",
    "compute_histories", "covariance_sum", "export_dense_matrix",
    "gcv_value", "ghat", "gk_init",
    "gk_run", "gk_step", "hess_init", "hess_run", "hess_step", "kappa_qr",
    "kappa_svd", "load_dense_problem", "ls_projected", "make_dense_operator",
    "make_gravity_problem", "make_sparse_operator", "make_tomo_problem",
    "oracle_posterior", "relation_residuals", "run_hybrid_lslu",
    "run_hybrid_lsqr", "run_lslu", "run_lsqr", "select_lambda", "solve",
    "stop_check", "svd_small", "plain_bound_report", "hybrid_bound_report",
    "tikhonov_projected", "trace_ray", "variance_diagonal", "wgcv_value",
    "woodbury_delta", "BREAKDOWN_EXACT", "BREAKDOWN_NONE", "BREAKDOWN_RANK",
]
