"""Residual-bound reports and factorization health checks.

bound_report replays the methods of a Hessenberg and a Golub-Kahan
state of one problem and checks, iteration by iteration, the sandwich
inequalities tying their residual norms together through the
conditioning of the LSLU bases, read off the R factor of one dense QR
per basis (KrylovState.r_factor, shared with the UQ).  To k columns it
costs those QRs, O(m k^2), and k small SVDs, O(k^4), with no operator
product; plain_bound_report and hybrid_bound_report first grow the two
states, k forward and k adjoint products each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .golub_kahan import BidiagState, gk_run
from .hessenberg import (HessenbergState, InputError, PivotStrategy, check_grown,
                         check_real, check_type, condition_number, hess_run)
from .projected import LambdaRule
# the reports replay their states; the benchmark's tracer patches the run_* names
from .solvers import (SolverConfig, reconstruct, replay, run_hybrid_lslu,  # noqa: F401
                      run_hybrid_lsqr, run_lslu, run_lsqr)

LOWER_SLACK = 1e-10
UPPER_SLACK = 1e-8


@dataclass
class BoundReport:
    """Per-iteration residual pairs, basis condition number, and bound flags."""

    iterations: list = field(default_factory=list)
    r_lu: list = field(default_factory=list)
    r_qr: list = field(default_factory=list)
    kappa: list = field(default_factory=list)
    lower_ok: list = field(default_factory=list)
    upper_ok: list = field(default_factory=list)

    def append(self, k, r_lu, r_qr, kappa):
        self.iterations.append(k)
        self.r_lu.append(r_lu)
        self.r_qr.append(r_qr)
        self.kappa.append(kappa)
        self.lower_ok.append(bool(r_qr <= r_lu * (1 + LOWER_SLACK)))
        self.upper_ok.append(bool(r_lu <= kappa * r_qr * (1 + UPPER_SLACK)))

    def all_ok(self):
        return all(self.lower_ok) and all(self.upper_ok)


def bound_report(lu_state, qr_state, lam=0.0):
    """Residual sandwich of a HessenbergState and a BidiagState of one
    problem, at the fixed parameter lam, to the fewer of their columns.

    At each k: ||r_k(orthonormal)|| <= ||r_k(Hessenberg)|| <= kappa *
    ||r_k(orthonormal)||, with small slack factors absorbing rounding.
    At lam = 0 (the plain methods) r_k = b - A x_k and kappa is that of
    D_{k+1}; at lam > 0 (the hybrid methods) r_k is the stacked residual
    of norm sqrt(||b - A x_k||^2 + lam^2 ||x_k||^2) and kappa that of
    blockdiag(D_{k+1}, L_k), read off the leading blocks of the state's
    R factors.  Swapped states, states of two problems, or a lam that
    is not finite and >= 0 raise an InputError naming the input.
    """
    if not (isinstance(lu_state, HessenbergState) and isinstance(qr_state, BidiagState)
            and lu_state.m == qr_state.m and np.array_equal(lu_state.x0, qr_state.x0)):
        raise InputError("qr_state" if isinstance(lu_state, HessenbergState) else
                         "lu_state", "lu_state and qr_state must be a HessenbergState "
                         "and a BidiagState of one problem")
    check_real(lam, "lam", positive=False)
    k_max = min(lu_state.k, qr_state.k)
    config = SolverConfig("hybrid_lslu", max(k_max, 1), lambda_rule=LambdaRule.fixed(lam))
    res_lu = replay(lu_state, config)
    res_qr = replay(qr_state, replace(config, method="hybrid_lsqr"))
    # at a terminal exact-solve iteration d_{k+1} never materializes; the
    # k available residual-basis columns stand in (residuals are 0)
    blocks = [(lu_state.r_factor("residual"), 1)]
    blocks += [(lu_state.r_factor("solution"), 0)] if lam else []

    def residual(res, k):
        # ||b - A x_k|| of this same x_k, as the factorization gives it
        if not lam:
            return res.residual_norms[k - 1]
        x = reconstruct(res.state, res.ys[k - 1])
        return float(np.hypot(res.residual_norms[k - 1], lam * np.linalg.norm(x)))

    report = BoundReport()
    for k in range(1, k_max + 1):
        report.append(k, residual(res_lu, k), residual(res_qr, k),
                      condition_number(*(R[:k + d, :k + d] for R, d in blocks)))
    return report


def plain_bound_report(op, b, maxiter, pivot=None):
    """bound_report at lam = 0 of the two states grown from x0 = 0."""
    return bound_report(*_grow(op, b, maxiter, pivot))


def hybrid_bound_report(op, b, lam, maxiter, pivot=None):
    """bound_report at a fixed lam > 0 of the two states grown from x0 = 0."""
    check_real(lam, "lam", positive=True)
    return bound_report(*_grow(op, b, maxiter, pivot), lam)


def _grow(op, b, maxiter, pivot):
    pivot = PivotStrategy.full() if pivot is None else pivot
    check_type(pivot, "pivot", PivotStrategy)
    return (hess_run(op, b, strategy=pivot, maxiter=maxiter),
            gk_run(op, b, maxiter=maxiter))


def relation_residuals(state, op):
    """Frobenius residuals of either state's two factorization relations.

    rho1 = ||A S - R M||_F and rho2 = ||A^T R_k - S C_k||_F, in the
    KrylovState names (S solution basis, R residual basis, M projected
    matrix, C coupling), the second over the first k columns of R.
    """
    check_grown(state)
    S, R = state.solution_basis, state.residual_basis
    AS = np.column_stack([op.forward(S[:, j]) for j in range(state.k)])
    AtR = np.column_stack([op.adjoint(R[:, j]) for j in range(state.k)])
    M = state.projected_matrix[:R.shape[1], :]
    rho1 = float(np.linalg.norm(AS - R @ M, "fro"))
    rho2 = float(np.linalg.norm(AtR - S @ state.coupling, "fro"))
    return rho1, rho2
