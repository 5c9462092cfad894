"""Golub-Kahan bidiagonalization: the orthonormal-basis baseline.

Produces U_{k+1} (residual space), V_k (solution space) and the lower
bidiagonal B_{k+1,k} with A V_k = U_{k+1} B and A^T U_k = V_k B_k^T (B_k
its leading square block).  BidiagState is a KrylovState; V, U and B
name its views.  Unlike the Hessenberg process this recurrence takes
inner products and norms of long vectors.  Its norms go through the
counted reductions module, which is how tests contrast the two
families; the reorthogonalization's block products (rows @ vec, two
passes per half-step) do not.  Full reorthogonalization is on by
default so the baseline is trustworthy as an oracle at desk scale.
"""

from __future__ import annotations

import numpy as np

from . import reductions
from .hessenberg import (BREAKDOWN_EXACT, BREAKDOWN_RANK, BREAKDOWN_TOL,
                         KrylovState, begin_step, check_image, check_maxiter,
                         check_start, initial_residual, iterate)


class BidiagState(KrylovState):
    """The coupling is B_k^T, the transposed leading square block of B."""

    def __init__(self, op, x0, reorth, maxiter):
        self.reorth = reorth
        super().__init__(op, x0, maxiter)

    @property
    def coupling(self):
        return self._proj[:self.k, :self.k].T

    V = KrylovState.solution_basis
    U = KrylovState.residual_basis
    B = KrylovState.projected_matrix


def _reorthogonalize(vec, rows):
    # two classical Gram-Schmidt passes; enough for 1e-12 at desk scale
    for _ in range(2):
        vec = vec - rows.T @ (rows @ vec)
    return vec


def gk_init(op, b, x0=None, *, reorth=True, maxiter=50):
    """Normalize the initial residual into u_1.

    The storage is sized once, for min(maxiter, m, n) iterations (see
    begin_step for a step past it).  A b or x0 of the wrong length or
    with non-finite entries raises a ValueError naming it.
    """
    check_maxiter(maxiter)
    b, x0, r0 = initial_residual(op, b, x0)
    beta = reductions.norm2(r0)
    check_start(beta, b, x0, r0)
    state = BidiagState(op, x0, reorth, maxiter)
    if beta == 0.0:
        state.breakdown = BREAKDOWN_EXACT
        return state
    state.beta = beta
    state._res[0] = r0 / beta
    state.residual_count = 1
    return state


def gk_step(state, op):
    """One iteration: new v_k (with alpha_k), then new u_{k+1} (with beta_{k+1}).

    At k = min(m, n) it only flags rank_deficient (see begin_step).  An
    operator image with non-finite entries raises a ValueError.
    """
    if not begin_step(state):
        return state
    kp = state.k + 1
    U, V, B = state._res, state._sol, state._proj

    q = op.adjoint(U[kp - 1])
    q_scale = reductions.norm2(q)
    check_image(q_scale, "adjoint", kp)
    if kp > 1:
        q = q - B[kp - 1, kp - 2] * V[kp - 2]
    if state.reorth and kp > 1:
        q = _reorthogonalize(q, V[:kp - 1])
    alpha = reductions.norm2(q)
    if alpha <= BREAKDOWN_TOL * max(q_scale, 1e-300):
        state.breakdown = BREAKDOWN_RANK
        return state
    B[kp - 1, kp - 1] = alpha
    V[kp - 1] = q / alpha
    state.k = kp

    p = op.forward(V[kp - 1])
    p_scale = reductions.norm2(p)
    check_image(p_scale, "forward", kp)
    p = p - alpha * U[kp - 1]
    if state.reorth:
        p = _reorthogonalize(p, U[:kp])
    beta = reductions.norm2(p)
    if beta <= BREAKDOWN_TOL * max(p_scale, 1e-300):
        state.breakdown = BREAKDOWN_EXACT
        return state
    B[kp, kp - 1] = beta
    U[kp] = p / beta
    state.residual_count = kp + 1
    return state


def gk_run(op, b, x0=None, *, reorth=True, maxiter=50):
    """Iterate until maxiter, breakdown, or dimension exhaustion."""
    state = gk_init(op, b, x0, reorth=reorth, maxiter=maxiter)
    for _ in iterate(state, gk_step, op, maxiter):
        pass
    return state
