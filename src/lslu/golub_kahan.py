"""Golub-Kahan bidiagonalization: the orthonormal-basis baseline.

Produces U_{k+1} (residual space), V_k (solution space) and the lower
bidiagonal B_{k+1,k} with A V_k = U_{k+1} B and A^T U_k = V_k B_k^T (B_k
its leading square block).  BidiagState is a KrylovState; V, U and B
name its views.  Unlike the Hessenberg process this recurrence takes
inner products and norms of long vectors.  Its norms go through the
counted reductions module, which is how tests contrast the two
families; the reorthogonalization's block products (rows @ vec) go to
the counter's separate `blocks` tally.  Every half-step reorthogonalizes against
the whole basis by classical Gram-Schmidt, and takes a second pass only
when the DGKS test asks for it (Daniel, Gragg, Kaufman & Stewart 1976):
when the first pass leaves less than 1/sqrt(2) of the vector's norm.
"Twice is enough" (Giraud, Langou, Rozloznik & van den Eshof 2005), so
the bases stay orthonormal to rounding and the baseline is trustworthy
as an oracle at desk scale.
"""

from __future__ import annotations

import math

from . import reductions
from .hessenberg import (BREAKDOWN_EXACT, BREAKDOWN_NONE, BREAKDOWN_RANK,
                         BREAKDOWN_TOL, KrylovState, begin_step, check_image,
                         iterate)


class BidiagState(KrylovState):
    """The coupling is B_k^T, the transposed leading square block of B.
    The scale of r0 is beta, its counted 2-norm.  reorth is a constant
    (every step reorthogonalizes against the whole basis, by one
    Gram-Schmidt pass or, when the DGKS test asks, two) that the
    benchmark's tracer reads."""

    reorth = True
    scale = staticmethod(lambda vec: reductions.norm2(vec))

    @property
    def coupling(self):
        return self._proj[:self.k, :self.k].T

    V = KrylovState.solution_basis
    U = KrylovState.residual_basis
    B = KrylovState.projected_matrix


def _reorthogonalize(vec, rows):
    """Orthogonalize vec against the orthonormal rows, in place; return
    its counted 2-norm afterwards.

    One classical Gram-Schmidt pass, and a second one when what is left
    is shorter than what was removed (DGKS at 1/sqrt(2)).  The norm of
    the k coefficients is uncounted and taken by math.hypot, which
    neither overflows nor underflows, so the test is scale-free.
    """
    coef = rows @ vec
    reductions.record_product("blocks")
    vec -= rows.T @ coef
    norm = reductions.norm2(vec)
    if norm < math.hypot(*coef.tolist()):
        coef = rows @ vec
        reductions.record_product("blocks")
        vec -= rows.T @ coef
        norm = reductions.norm2(vec)
    return norm


def gk_init(op, b, x0=None, *, maxiter=50):
    """Normalize the initial residual into u_1.

    The storage is sized once, for min(maxiter, m, n) iterations (see
    begin_step for a step past it).  KrylovState checks b and x0.
    """
    state = BidiagState(op, b, x0, maxiter)
    if state.breakdown == BREAKDOWN_NONE:
        state.start(state._r0_scale)
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
        alpha = _reorthogonalize(q, V[:kp - 1])
    else:
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
    beta = _reorthogonalize(p, U[:kp])
    if beta <= BREAKDOWN_TOL * max(p_scale, 1e-300):
        state.breakdown = BREAKDOWN_EXACT
        return state
    B[kp, kp - 1] = beta
    U[kp] = p / beta
    state.residual_count = kp + 1
    return state


def gk_run(op, b, x0=None, *, maxiter=50):
    """Iterate until maxiter, breakdown, or dimension exhaustion."""
    state = gk_init(op, b, x0, maxiter=maxiter)
    for _ in iterate(state, gk_step, op, maxiter):
        pass
    return state
