"""Residual-bound reports and factorization health checks.

Runs the Hessenberg-based and bidiagonalization-based methods side by
side and verifies, iteration by iteration, the sandwich inequalities
tying their residual norms together through the conditioning of the
non-orthogonal basis, read off the R factor of one dense QR per LSLU
basis (KrylovState.r_factor, shared with the UQ).  To maxiter = k, a
report costs its two solves (k forward and k adjoint products each),
one QR per LSLU basis, O(m k^2) for D, and k small SVDs, O(k^4) in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hessenberg import PivotStrategy, condition_number
from .projected import LambdaRule
from .solvers import (SolverConfig, reconstruct, run_hybrid_lslu, run_hybrid_lsqr,
                      run_lslu, run_lsqr)

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


def _sandwich(res_lu, res_qr, residual, kappa):
    # one report row per iteration both solves reached
    report = BoundReport()
    for k in range(1, min(res_lu.k_reached, res_qr.k_reached) + 1):
        report.append(k, residual(res_lu, k), residual(res_qr, k), kappa(k))
    return report


def plain_bound_report(op, b, maxiter, pivot=None):
    """Residual sandwich for the plain methods, x0 = 0 on both sides.

    At each k: ||r_k(orthonormal)|| <= ||r_k(Hessenberg)|| <=
    kappa(R of D_{k+1}) * ||r_k(orthonormal)||, with small slack factors
    absorbing floating-point noise.  The state's R factor of the final D
    gives every R of D_{k+1} as its leading block.
    """
    pivot = pivot or PivotStrategy.full()
    res_lu = run_lslu(op, b, SolverConfig("lslu", maxiter, pivot=pivot))
    res_qr = run_lsqr(op, b, SolverConfig("lsqr", maxiter))
    R = res_lu.state.r_factor("residual")
    # at a terminal exact-solve iteration d_{k+1} never materializes;
    # the k available residual-basis columns stand in (residuals are 0)
    return _sandwich(res_lu, res_qr, lambda res, k: res.residual_norms[k - 1],
                     lambda k: condition_number(R[:k + 1, :k + 1]))


def hybrid_bound_report(op, b, lam, maxiter, pivot=None):
    """Stacked-residual sandwich for the hybrid methods at fixed lam > 0.

    The stacked residual of an iterate x is sqrt(||b - A x||^2 +
    lam^2 ||x||^2); the condition number is that of the block-diagonal
    assembly of D_{k+1} and L_k, whose singular values are those of the
    two blocks together, read off the leading blocks of the state's R
    factor of each basis.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam!r}")
    rule, pivot = LambdaRule.fixed(lam), pivot or PivotStrategy.full()
    res_lu = run_hybrid_lslu(op, b, SolverConfig("hybrid_lslu", maxiter, pivot=pivot,
                                                 lambda_rule=rule))
    res_qr = run_hybrid_lsqr(op, b, SolverConfig("hybrid_lsqr", maxiter,
                                                 lambda_rule=rule))

    def stacked(res, k):
        # residual_norms[k - 1] is ||b - A x_k|| of this same x_k, as the
        # factorization gives it
        x = reconstruct(res.state, res.ys[k - 1])
        return float(np.hypot(res.residual_norms[k - 1], lam * np.linalg.norm(x)))

    R_D, R_L = res_lu.state.r_factor("residual"), res_lu.state.r_factor("solution")
    return _sandwich(res_lu, res_qr, stacked,
                     lambda k: condition_number(R_D[:k + 1, :k + 1], R_L[:k, :k]))


def relation_residuals(state, op):
    """Frobenius residuals of either state's two factorization relations.

    rho1 = ||A S - R M||_F and rho2 = ||A^T R_k - S C_k||_F, in the
    KrylovState names (S solution basis, R residual basis, M projected
    matrix, C coupling), the second over the first k columns of R.
    """
    if state.k < 1:
        raise ValueError("state has no completed iterations")
    S, R = state.solution_basis, state.residual_basis
    AS = np.column_stack([op.forward(S[:, j]) for j in range(state.k)])
    AtR = np.column_stack([op.adjoint(R[:, j]) for j in range(state.k)])
    M = state.projected_matrix[:R.shape[1], :]
    rho1 = float(np.linalg.norm(AS - R @ M, "fro"))
    rho2 = float(np.linalg.norm(AtR - S @ state.coupling, "fro"))
    return rho1, rho2
