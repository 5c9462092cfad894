"""Residual-bound reports and factorization health checks.

Runs the Hessenberg-based and bidiagonalization-based methods side by
side and verifies, iteration by iteration, the sandwich inequalities
tying their residual norms together through the conditioning of the
non-orthogonal basis.  Dense QR/SVD of the m-by-(k+1) basis is fine
here: diagnostics only run at desk scale (O(m k^2) per report).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .hessenberg import PivotStrategy
from .projected import LambdaRule
from .solvers import SolverConfig, run_hybrid_lslu, run_hybrid_lsqr, run_lslu, run_lsqr

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


def _cond_from_singular_values(s):
    s = s[s > 0]
    if s.size == 0:
        return np.inf
    return float(s[0] / s[-1])


def kappa_qr(basis):
    """Condition number via the triangular factor of a dense QR."""
    return _cond_from_singular_values(scipy.linalg.svdvals(_r_factor(basis)))


def _r_factor(basis):
    # the leading j-by-j block of R is the R factor of basis[:, :j], so
    # one QR serves every leading column count
    return scipy.linalg.qr(basis, mode="r")[0]


def kappa_svd(basis):
    """Condition number straight from the singular values of the basis."""
    return _cond_from_singular_values(scipy.linalg.svdvals(basis))


def plain_bound_report(op, b, maxiter, pivot=None):
    """Residual sandwich for the plain methods, x0 = 0 on both sides.

    At each k: ||r_k(orthonormal)|| <= ||r_k(Hessenberg)|| <=
    kappa(R of D_{k+1}) * ||r_k(orthonormal)||, with small slack factors
    absorbing floating-point noise.  One QR of the final D gives every
    R of D_{k+1} as its leading block.
    """
    config_lu = SolverConfig(method="lslu", maxiter=maxiter,
                             pivot=pivot or PivotStrategy.full())
    config_qr = SolverConfig(method="lsqr", maxiter=maxiter)
    res_lu = run_lslu(op, b, config_lu)
    res_qr = run_lsqr(op, b, config_qr)

    report = BoundReport()
    R = _r_factor(res_lu.state.D)
    limit = min(res_lu.k_reached, res_qr.k_reached)
    for k in range(1, limit + 1):
        # at a terminal exact-solve iteration d_{k+1} never materializes;
        # the k available residual-basis columns stand in (residuals are 0)
        kap = _cond_from_singular_values(scipy.linalg.svdvals(R[:k + 1, :k + 1]))
        report.append(k, res_lu.residual_norms[k - 1],
                      res_qr.residual_norms[k - 1], kap)
    return report


def hybrid_bound_report(op, b, lam, maxiter, pivot=None):
    """Stacked-residual sandwich for the hybrid methods at fixed lam > 0.

    The stacked residual of an iterate x is sqrt(||b - A x||^2 +
    lam^2 ||x||^2); the condition number is that of the block-diagonal
    assembly of D_{k+1} and L_k, whose singular values are those of the
    two blocks together, read off the leading blocks of one QR of each
    basis.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    rule = LambdaRule.fixed(lam)
    config_lu = SolverConfig(method="hybrid_lslu", maxiter=maxiter,
                             lambda_rule=rule,
                             pivot=pivot or PivotStrategy.full())
    config_qr = SolverConfig(method="hybrid_lsqr", maxiter=maxiter,
                             lambda_rule=rule)
    res_lu = run_hybrid_lslu(op, b, config_lu)
    res_qr = run_hybrid_lsqr(op, b, config_qr)

    def stacked(res, k):
        # residual_norms[k - 1] is ||b - A x_k|| of this same x_k, as the
        # factorization gives it
        x = res.state.x0 + res.state.solution_basis[:, :k] @ res.ys[k - 1]
        return float(np.hypot(res.residual_norms[k - 1], lam * np.linalg.norm(x)))

    report = BoundReport()
    R_D, R_L = _r_factor(res_lu.state.D), _r_factor(res_lu.state.L)
    limit = min(res_lu.k_reached, res_qr.k_reached)
    for k in range(1, limit + 1):
        blocks = (R_D[:k + 1, :k + 1], R_L[:k, :k])
        sigma = np.concatenate([scipy.linalg.svdvals(block) for block in blocks])
        report.append(k, stacked(res_lu, k), stacked(res_qr, k),
                      _cond_from_singular_values(np.sort(sigma)[::-1]))
    return report


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
