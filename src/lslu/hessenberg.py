"""Rectangular Hessenberg process with partial and sampled pivoting.

Builds two Krylov bases by LU-style elimination instead of
orthogonalization: L_k (solution space, columns l_1..l_k) and D_{k+1}
(residual space, columns d_1..d_{k+1}), together with the small factors
H_{k+1,k} (upper Hessenberg) and W_k (upper triangular) satisfying

    A L_k   = D_{k+1} H_{k+1,k}
    A^T D_k = L_k W_k.

Both bases are unit lower triangular up to the row permutations t (for
D) and g (for L), and every pivot decision is a coordinate maximum, so
the whole recurrence is free of inner products.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsv

BREAKDOWN_NONE = "none"
BREAKDOWN_EXACT = "exact_solution"
BREAKDOWN_RANK = "rank_deficient"

#: A candidate pivot is declared zero when it falls below this fraction of
#: the vector's infinity norm before elimination (exact zeros never show
#: up in floating point; a relative test is scale-invariant).
BREAKDOWN_TOL = 1e-14


class BreakdownError(RuntimeError):
    """Raised when the recurrence cannot start (e.g. zero unpivoted beta)."""


@dataclass
class PivotStrategy:
    """How the divisor entry is chosen at each elimination step.

    kind 'none' takes the next natural coordinate, 'full' the largest
    magnitude in the eligible window, 'sampled' the largest over a
    random index sample (avoiding a global max-reduction).
    """

    KINDS = ("none", "full", "sampled")

    kind: str = "full"
    sample_size: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown pivot strategy kind {self.kind!r}")
        if self.kind == "sampled":
            if self.sample_size is None or self.sample_size < 1:
                raise ValueError("sampled pivoting needs sample_size >= 1")
            if self.seed is None:
                raise ValueError("sampled pivoting needs a seed")
        elif self.sample_size is not None:
            raise ValueError("sample_size only applies to sampled pivoting")

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def full(cls):
        return cls(kind="full")

    @classmethod
    def sampled(cls, sample_size, seed=0):
        return cls(kind="sampled", sample_size=sample_size, seed=seed)


def check_maxiter(maxiter):
    """Reject an iteration limit that is not an integer >= 1 (bools included)."""
    if isinstance(maxiter, bool) or not isinstance(maxiter, numbers.Integral):
        raise ValueError(f"maxiter must be an integer, got {maxiter!r}")
    if maxiter < 1:
        raise ValueError(f"maxiter must be at least 1, got {maxiter}")


def initial_capacity(shape, maxiter):
    """Iterations to preallocate: maxiter capped at min(m, n), else 8."""
    if maxiter is None:
        return 8
    check_maxiter(maxiter)
    return min(maxiter, *shape)


def allocate(state, cap):
    """(Re)size the arrays of state._layout(cap), keeping what is stored.

    Basis vectors are rows, so a grown array keeps its old block in its
    leading rows and columns.  Every basis row is written whole before a
    view exposes it, so the bases are left uninitialized: capacity an
    early stop never reaches costs neither a memset nor a page.  The
    small factors rely on their structural zeros and are zeroed.
    """
    bases, factors = state._layout(cap)
    for fill, layout in ((np.empty, bases), (np.zeros, factors)):
        for name, shape in layout.items():
            grown = fill(shape)
            old = getattr(state, name, None)
            if old is not None:
                grown[tuple(map(slice, old.shape))] = old
            setattr(state, name, grown)
    state.cap = cap


def reserve(state, k):
    """Make room for k iterations, doubling when a stepped state outgrows its size."""
    if k > state.cap:
        allocate(state, max(2 * state.cap, k))


class HessenbergState:
    """Growing factorization state owned by a single solve.

    Permutations t and g are 0-based index arrays; column j of D has an
    exact 1.0 at row t[j] and exact 0.0 at rows t[i] for i < j (same for
    L with g).  The bases are stored row-major, one contiguous row per
    basis vector (_L is (cap, n), _D is (cap + 1, m)); L and D are the
    (n, k) and (m, d_count) transposed views.  cap comes from the run's
    maxiter, capped at min(m, n); a state stepped past it by hand grows
    by doubling.
    """

    def __init__(self, op, r0, x0, strategy, cap):
        m, n = op.shape
        self.m, self.n = m, n
        self.x0 = x0
        self.r0 = r0
        self.strategy = strategy
        self.k = 0
        self.d_count = 0
        self.beta = 0.0
        self.breakdown = BREAKDOWN_NONE
        self.t = np.arange(m)
        self.g = np.arange(n)
        self._rng = (np.random.default_rng(strategy.seed)
                     if strategy.kind == "sampled" else None)
        allocate(self, cap)

    def _layout(self, cap):
        return ({"_L": (cap, self.n), "_D": (cap + 1, self.m)},
                {"_H": (cap + 1, cap), "_W": (cap, cap)})

    # -- views over the populated part of the storage

    @property
    def L(self):
        return self._L[:self.k].T

    @property
    def D(self):
        return self._D[:self.d_count].T

    @property
    def H(self):
        return self._H[:self.k + 1, :self.k]

    @property
    def W(self):
        return self._W[:self.k, :self.k]

    # Uniform names shared with BidiagState so the solver drivers can
    # treat either factorization interchangeably.
    @property
    def projected_matrix(self):
        return self.H

    @property
    def solution_basis(self):
        return self.L


def _pick_pivot(vec, perm, start, strategy, rng):
    """Index into perm (>= start) of the chosen pivot, or None if no window."""
    window = perm[start:]
    if window.size == 0:
        return None
    if strategy.kind == "none":
        return start
    if strategy.kind == "full":
        return start + int(np.argmax(np.abs(vec[window])))
    size = min(strategy.sample_size, window.size)
    sample = rng.choice(window.size, size=size, replace=False)
    sample.sort()
    return start + int(sample[np.argmax(np.abs(vec[window[sample]]))])


def _eliminate(vec, rows, piv):
    """Eliminate vec against basis rows in place; return the coefficients.

    rows[j] holds an exact 1.0 at piv[j] and exact zeros at piv[:j], so
    rows[:, piv].T is unit lower triangular and the coefficients are its
    forward substitution against vec[piv] (what eliminating one basis
    vector at a time computes).  One gemv then removes every basis
    vector, and the pivot entries are set to their exact zeros.
    """
    coef = dtrsv(rows[:, piv].T, vec[piv], lower=1, diag=1)
    vec -= rows.T @ coef
    vec[piv] = 0.0
    return coef


def hess_init(op, b, x0=None, strategy=None, maxiter=None):
    """Start the factorization: residual, first pivot, and d_1.

    maxiter sizes the storage (capped at min(m, n)); without it the
    state starts small and grows as it is stepped.  A zero initial
    residual yields a k=0 state flagged exact_solution.  A zero pivot
    entry under the 'none' strategy raises BreakdownError, since
    pivoting would repair it.
    """
    strategy = strategy or PivotStrategy.full()
    m, n = op.shape
    cap = initial_capacity(op.shape, maxiter)
    if strategy.kind == "sampled" and strategy.sample_size > max(m, n):
        raise ValueError("sample_size exceeds max(m, n)")
    b = np.asarray(b, dtype=float)
    if x0 is None:
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(x0, dtype=float)
    r0 = b - op.forward(x0) if np.any(x0) else b.copy()

    state = HessenbergState(op, r0, x0, strategy, cap)
    if np.max(np.abs(r0)) == 0.0:
        state.breakdown = BREAKDOWN_EXACT
        return state

    pos = _pick_pivot(r0, state.t, 0, strategy, state._rng)
    beta = r0[state.t[pos]]
    if beta == 0.0:
        advice = ("enlarge the pivot sample" if strategy.kind == "sampled"
                  else "use full or sampled pivoting")
        raise BreakdownError(
            f"zero pivot entry in the initial residual; {advice}")
    state.beta = float(beta)
    state.t[[0, pos]] = state.t[[pos, 0]]
    state._D[0] = r0 / beta
    state.d_count = 1
    return state


def hess_step(state, op):
    """Run one iteration: new l_k (with W column), then new d_{k+1} (with H column).

    Terminal conditions set state.breakdown instead of raising:
    rank_deficient when no solution-space pivot survives elimination (or
    the residual-space window is exhausted), exact_solution when the
    eliminated forward image vanishes.  Completed columns are kept.
    """
    if state.breakdown != BREAKDOWN_NONE:
        raise ValueError("cannot step a broken-down state")
    kp = state.k + 1
    reserve(state, kp)
    t, g = state.t, state.g
    L, D = state._L, state._D

    # solution-space half: eliminate A^T d_k against l_1..l_{k-1}
    q = op.adjoint(D[kp - 1])
    q_scale = np.max(np.abs(q))
    if kp > 1:
        state._W[:kp - 1, kp - 1] = _eliminate(q, L[:kp - 1], g[:kp - 1])

    pos = _pick_pivot(q, g, kp - 1, state.strategy, state._rng)
    # no live entry left, or (under none/sampled) the candidate misses
    # them; the pivot lies in the window, so a dead window fails here too
    if pos is None or abs(q[g[pos]]) <= BREAKDOWN_TOL * q_scale:
        state.breakdown = BREAKDOWN_RANK
        return state
    g[[kp - 1, pos]] = g[[pos, kp - 1]]
    w = q[g[kp - 1]]
    state._W[kp - 1, kp - 1] = w
    L[kp - 1] = q / w

    # residual-space half: eliminate A l_k against d_1..d_k
    u = op.forward(L[kp - 1])
    u_scale = np.max(np.abs(u))
    state._H[:kp, kp - 1] = _eliminate(u, D[:kp], t[:kp])

    pos = _pick_pivot(u, t, kp, state.strategy, state._rng)
    if pos is None:
        # all m rows already pivoted: u is exactly zero, so the new column
        # still satisfies the factorization relation with a zero H row
        state.k = kp
        state.breakdown = BREAKDOWN_RANK
        return state
    if np.max(np.abs(u[t[kp:]])) <= BREAKDOWN_TOL * u_scale:
        state.k = kp
        state.breakdown = BREAKDOWN_EXACT
        return state
    if abs(u[t[pos]]) <= BREAKDOWN_TOL * u_scale:
        # the candidate missed the live entries (possible under none and
        # sampled only); dividing would poison the basis and keeping the
        # column would break the relation, so drop the half-built column
        state.breakdown = BREAKDOWN_RANK
        return state
    state.k = kp
    t[[kp, pos]] = t[[pos, kp]]
    h = u[t[kp]]
    state._H[kp, kp - 1] = h
    D[kp] = u / h
    state.d_count = kp + 1
    return state


def hess_run(op, b, x0=None, strategy=None, maxiter=50):
    """Iterate until maxiter, breakdown, or dimension exhaustion."""
    check_maxiter(maxiter)
    state = hess_init(op, b, x0, strategy, maxiter)
    while state.k < maxiter and state.breakdown == BREAKDOWN_NONE:
        hess_step(state, op)
    return state
