"""Golub-Kahan bidiagonalization: the orthonormal-basis baseline.

Produces U_{k+1} (residual space), V_k (solution space) and the lower
bidiagonal B_{k+1,k} with A V_k = U_{k+1} B.  Unlike the Hessenberg
process this recurrence takes inner products and norms of long vectors;
those all go through the counted reductions module, which is how tests
contrast the two families.  Full reorthogonalization is on by default
so the baseline is trustworthy as an oracle at desk scale.
"""

from __future__ import annotations

import numpy as np

from . import reductions
from .hessenberg import (BREAKDOWN_EXACT, BREAKDOWN_NONE, BREAKDOWN_RANK,
                         BREAKDOWN_TOL, allocate, check_maxiter,
                         initial_capacity, reserve)


class BidiagState:
    """Growing bidiagonalization state; after k steps U has k+1 columns.

    Stored like HessenbergState: row-major bases (_V is (cap, n), _U is
    (cap + 1, m)) behind (n, k) and (m, u_count) views, and B in a
    (cap + 1, cap) array, all sized from the run's maxiter capped at
    min(m, n) and grown by doubling only when stepped past that.
    """

    def __init__(self, op, r0, x0, reorth, cap):
        m, n = op.shape
        self.m, self.n = m, n
        self.x0 = x0
        self.r0 = r0
        self.reorth = reorth
        self.k = 0
        self.u_count = 0
        self.beta1 = 0.0
        self.breakdown = BREAKDOWN_NONE
        allocate(self, cap)

    def _layout(self, cap):
        return {"_V": (cap, self.n), "_U": (cap + 1, self.m)}, {"_B": (cap + 1, cap)}

    @property
    def U(self):
        return self._U[:self.u_count].T

    @property
    def V(self):
        return self._V[:self.k].T

    @property
    def B(self):
        """Lower bidiagonal (k+1)-by-k projected matrix."""
        return self._B[:self.k + 1, :self.k]

    @property
    def beta(self):
        return self.beta1

    @property
    def projected_matrix(self):
        return self.B

    @property
    def solution_basis(self):
        return self.V


def _reorthogonalize(vec, rows):
    # two classical Gram-Schmidt passes; enough for 1e-12 at desk scale
    for _ in range(2):
        vec = vec - rows.T @ (rows @ vec)
    return vec


def gk_init(op, b, x0=None, reorth=True, maxiter=None):
    """Normalize the initial residual into u_1; maxiter sizes the storage."""
    m, n = op.shape
    cap = initial_capacity(op.shape, maxiter)
    b = np.asarray(b, dtype=float)
    if x0 is None:
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(x0, dtype=float)
    r0 = b - op.forward(x0) if np.any(x0) else b.copy()
    state = BidiagState(op, r0, x0, reorth, cap)
    beta1 = reductions.norm2(r0)
    if beta1 == 0.0:
        state.breakdown = BREAKDOWN_EXACT
        return state
    state.beta1 = beta1
    state._U[0] = r0 / beta1
    state.u_count = 1
    return state


def gk_step(state, op):
    """One iteration: new v_k (with alpha_k), then new u_{k+1} (with beta_{k+1})."""
    if state.breakdown != BREAKDOWN_NONE:
        raise ValueError("cannot step a broken-down state")
    kp = state.k + 1
    reserve(state, kp)
    U, V, B = state._U, state._V, state._B

    q = op.adjoint(U[kp - 1])
    q_scale = reductions.norm2(q)
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
    p = p - alpha * U[kp - 1]
    if state.reorth:
        p = _reorthogonalize(p, U[:kp])
    beta = reductions.norm2(p)
    if beta <= BREAKDOWN_TOL * max(p_scale, 1e-300):
        state.breakdown = BREAKDOWN_EXACT
        return state
    B[kp, kp - 1] = beta
    U[kp] = p / beta
    state.u_count = kp + 1
    return state


def gk_run(op, b, x0=None, maxiter=50, reorth=True):
    """Iterate until maxiter or breakdown (zero coupling norm)."""
    check_maxiter(maxiter)
    state = gk_init(op, b, x0, reorth, maxiter)
    while state.k < maxiter and state.breakdown == BREAKDOWN_NONE:
        gk_step(state, op)
    return state
