"""Inner-product-free Krylov methods for rectangular ill-posed problems.

The LSLU family builds its Krylov bases with a pivoted Hessenberg
(LU-style) process whose only global reductions are coordinate maxima,
plus optional per-iteration Tikhonov regularization with automatic
parameter selection and stopping.  LSQR-style baselines, residual-bound
diagnostics, and low-rank posterior-covariance estimation round out the
toolkit.
"""

from .diagnostics import (BoundReport, bound_report, hybrid_bound_report,
                          plain_bound_report, relation_residuals)
from .golub_kahan import BidiagState, gk_init, gk_run, gk_step
from .hessenberg import (BREAKDOWN_EXACT, BREAKDOWN_NONE, BREAKDOWN_RANK,
                         BreakdownError, HessenbergState, InputError, KrylovState,
                         PivotStrategy, hess_init, hess_run, hess_step)
from .operators import (InverseProblem, LinearOperator, add_noise,
                        export_dense_matrix, load_dense_problem,
                        make_dense_operator, make_gravity_problem,
                        make_sparse_operator, make_tomo_problem, trace_view)
from .projected import (LambdaRule, ProjectedSvd, gcv_value, ghat,
                        ls_projected, select_lambda, stop_check, svd_small,
                        tikhonov_projected, wgcv_value)
from .solvers import (SolveResult, SolverConfig, compute_histories,
                      replay, run_hybrid_lslu, run_hybrid_lsqr, run_lslu,
                      run_lsqr, solve)
from .uq import (UqApprox, build_uq, build_uq_bidiag, covariance_sum,
                 oracle_posterior, variance_diagonal, woodbury_delta)

__version__ = "0.1.0"
