"""Rectangular Hessenberg process with partial and sampled pivoting.

Builds two Krylov bases by LU-style elimination instead of
orthogonalization: L_k (solution space, columns l_1..l_k) and D_{k+1}
(residual space, columns d_1..d_{k+1}), together with the small factors
H_{k+1,k} (upper Hessenberg) and W_k (upper triangular) satisfying

    A L_k   = D_{k+1} H_{k+1,k}
    A^T D_k = L_k W_k.

Both bases are unit lower triangular up to the row permutations t (for
D) and g (for L), and every pivot decision is a coordinate maximum, so
the whole recurrence is free of inner products.  Each half-step
eliminates a new vector against a whole basis at once: a unit
triangular solve with the basis's pivot block (its entries at the
pivot coordinates) gives the coefficients, and one gemv applies them.
The state keeps both pivot blocks and adds a row or column as each
pivot becomes final, so no step gathers them again.  KrylovState holds
what this and the Golub-Kahan state share; L, D, H and W name its
views.  begin_step and iterate are the step prologue and the step loop
of both families.  The bases' metric, for the UQ and the bound reports,
is the R factor of one QR per basis (qr_r), kept by KrylovState.r_factor.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
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
    random index sample (avoiding a global max-reduction).  'sampled'
    alone takes sample_size (an integer >= 1) and seed (an integer >= 0).
    """

    KINDS = ("none", "full", "sampled")

    kind: str = "full"
    sample_size: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown pivot strategy kind {self.kind!r}")
        if self.kind == "sampled":
            if self.sample_size is None:
                raise ValueError("sampled pivoting needs sample_size >= 1")
            check_maxiter(self.sample_size, "sample_size")
            if self.seed is None:
                raise ValueError("sampled pivoting needs a seed")
            check_maxiter(self.seed, "seed", least=0)
        else:
            for name in ("sample_size", "seed"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} only applies to sampled pivoting")

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def full(cls):
        return cls(kind="full")

    @classmethod
    def sampled(cls, sample_size, seed=0):
        return cls(kind="sampled", sample_size=sample_size, seed=seed)


def qr_r(basis):
    """R factor of a dense QR of basis.  Its leading j-by-j block is the
    R factor of basis[:, :j], so one QR serves every leading column count."""
    return scipy.linalg.qr(basis, mode="r")[0]


def condition_number(*blocks):
    """2-norm condition number of blockdiag(*blocks), inf when singular."""
    sigma = np.concatenate([scipy.linalg.svdvals(block) for block in blocks])
    return float(sigma.max() / sigma.min()) if sigma.min() > 0 else np.inf


def check_maxiter(maxiter, name="maxiter", least=1):
    """Reject a count that is not an integer >= least (bools included), naming it."""
    if isinstance(maxiter, bool) or not isinstance(maxiter, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {maxiter!r}")
    if maxiter < least:
        raise ValueError(f"{name} must be at least {least}, got {maxiter}")


class KrylovState:
    """Factorization state of either family, owned by one solve.

    After k steps: A S = R M and A^T R_k = S C_k for the solution basis
    S (k columns), the residual basis R (residual_count columns: k + 1,
    or k after a terminal step), the (k+1)-by-k projected matrix M and
    the k-by-k `coupling` C_k, which each family defines; r0 = b - A x0
    is beta times the first column of R.  Storage is sized once, at
    init, for cap = min(maxiter, m, n) iterations:

    - _sol, (cap, n), and _res, (cap + 1, m): the bases, row-major, one
      row per basis vector;
    - _proj, (cap + 1, cap): M;
    - a family's own small factors: HessenbergState adds W and the
      pivot blocks (_W, _piv); BidiagState adds none, its C being a
      view of M.

    Every basis row is written whole before a view exposes it, so the
    bases are left uninitialized (capacity an early stop never reaches
    costs neither a memset nor a page); the small factors rely on their
    structural zeros and are zeroed.  See begin_step for what a full
    state does.
    """

    def __init__(self, op, x0, maxiter):
        self.m, self.n = op.shape
        self.cap = min(maxiter, self.m, self.n)
        self.x0 = x0
        self.k = 0
        self.residual_count = 0
        self.beta = 0.0
        self.breakdown = BREAKDOWN_NONE
        self._sol = np.empty((self.cap, self.n))
        self._res = np.empty((self.cap + 1, self.m))
        self._proj = np.zeros((self.cap + 1, self.cap))
        self._r_factors = {}

    def r_factor(self, which):
        """qr_r of the "solution" or "residual" basis, computed when first
        asked for and kept until a step adds a column to that basis."""
        basis = getattr(self, f"{which}_basis")
        R = self._r_factors.get(which)
        if R is None or R.shape[1] != basis.shape[1]:
            R = self._r_factors[which] = qr_r(basis)
        return R

    @property
    def solution_basis(self):
        return self._sol[:self.k].T

    @property
    def residual_basis(self):
        return self._res[:self.residual_count].T

    @property
    def projected_matrix(self):
        return self._proj[:self.k + 1, :self.k]


class HessenbergState(KrylovState):
    """Permutations t and g are 0-based index arrays; column j of D has an
    exact 1.0 at row t[j] and exact 0.0 at rows t[i] for i < j (same for
    L with g).  The coupling is the upper triangular W_k, in a (cap, cap)
    array.

    _piv, a (cap + 1, cap + 1) Fortran-order array, holds the strict
    triangles of both pivot blocks, the unit lower triangular matrices
    whose forward substitution gives the elimination coefficients:
    D's block _piv[i, j] = D[t[i], j] below the diagonal, and L's block
    transposed, _piv[j, i] = L[g[i], j], above it.  A step copies the
    stored entries of a new basis vector there once its pivot is final
    (after the swap), so the strict lower triangles of _piv[:k, :k].T
    and _piv[:k + 1, :k + 1] are those of the current L's and D's
    blocks; their unit diagonals are implied.  It costs (cap + 1)^2
    doubles.
    """

    def __init__(self, op, x0, strategy, maxiter):
        super().__init__(op, x0, maxiter)
        self._W = np.zeros((self.cap, self.cap))
        self._piv = np.zeros((self.cap + 1, self.cap + 1), order="F")
        self.strategy = strategy
        self.t, self.g = np.arange(self.m), np.arange(self.n)
        self._rng = (np.random.default_rng(strategy.seed)
                     if strategy.kind == "sampled" else None)

    @property
    def coupling(self):
        return self._W[:self.k, :self.k]

    L = KrylovState.solution_basis
    D = KrylovState.residual_basis
    H = KrylovState.projected_matrix
    W = coupling


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


def _eliminate(vec, rows, piv, block):
    """Eliminate vec against basis rows in place; return the coefficients.

    rows[j] holds an exact 1.0 at piv[j] and exact zeros at piv[:j], so
    the pivot block, with entry (i, j) = rows[j, piv[i]], is unit lower
    triangular.  block is a view whose strict lower triangle holds those
    entries (the state keeps them, see HessenbergState).  The
    coefficients are its forward substitution against vec[piv] (what
    eliminating one basis vector at a time computes).  One gemv then
    removes every basis vector, and the pivot entries are set to their
    exact zeros.
    """
    coef = dtrsv(block, vec[piv], lower=1, diag=1)
    vec -= rows.T @ coef
    vec[piv] = 0.0
    return coef


def initial_residual(op, b, x0):
    """b, x0 (zeros when None) and r0 = b - A x0 as float vectors.

    A b or x0 whose shape does not match the operator raises a
    ValueError naming it.  Finiteness is left to check_start, through
    the scale of r0 that every init takes anyway.
    """
    m, n = op.shape
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise ValueError(f"b must be a vector of length {m} (the operator's rows), "
                         f"got shape {b.shape}")
    if x0 is None:
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"x0 must be a vector of length {n} (the operator's "
                             f"columns), got shape {x0.shape}")
    r0 = b - op.forward(x0) if np.any(x0) else b.copy()
    return b, x0, r0


def check_start(scale, b, x0, r0):
    """Raise a ValueError naming the input at fault when r0's scale is not finite."""
    if np.isfinite(scale):
        return
    for name, vec in (("b", b), ("x0", x0)):
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{name} has non-finite entries")
    if not np.all(np.isfinite(r0)):
        raise ValueError("the forward map returned non-finite values at x0")
    raise ValueError("the scale of the initial residual b - A x0 overflows")


def check_image(scale, name, k):
    """Raise a ValueError when an operator image's scale is not finite."""
    if not np.isfinite(scale):
        raise ValueError(f"the {name} map returned non-finite values "
                         f"at iteration {k}")


def begin_step(state):
    """The step prologue of both families: True when state may take a column.

    Stepping a broken-down state raises a ValueError.  So does stepping
    a state that holds the maxiter columns its init sized it for.  At
    k = min(m, n) the bases span a whole space, so instead the state is
    flagged rank_deficient, before any operator product, and False is
    returned.
    """
    if state.breakdown != BREAKDOWN_NONE:
        raise ValueError("cannot step a broken-down state")
    if state.k < state.cap:
        return True
    if state.cap < min(state.m, state.n):
        raise ValueError(f"the state is full: its init sized it for "
                         f"maxiter={state.cap} iterations")
    state.breakdown = BREAKDOWN_RANK
    return False


def iterate(state, step, op, maxiter):
    """Step state until k reaches maxiter or it breaks down; yield each new k.

    The caller passes its own module-level step name, looked up when it
    calls, so a wrapper set on that name sees every step.
    """
    while state.k < maxiter and state.breakdown == BREAKDOWN_NONE:
        k = state.k
        step(state, op)
        if state.k > k:
            yield state.k


def hess_init(op, b, x0=None, *, strategy=None, maxiter=50):
    """Start the factorization: residual, first pivot, and d_1.

    The storage is sized once, for min(maxiter, m, n) iterations (see
    begin_step for a step past it).  A zero initial residual yields a
    k=0 state flagged exact_solution.  A zero pivot entry under the
    'none' strategy raises BreakdownError, since pivoting would repair
    it.  A b or x0 of the wrong length or with non-finite entries
    raises a ValueError naming it.
    """
    check_maxiter(maxiter)
    strategy = strategy or PivotStrategy.full()
    m, n = op.shape
    if strategy.kind == "sampled" and strategy.sample_size > max(m, n):
        raise ValueError("sample_size exceeds max(m, n)")
    b, x0, r0 = initial_residual(op, b, x0)
    scale = np.max(np.abs(r0))
    check_start(scale, b, x0, r0)

    state = HessenbergState(op, x0, strategy, maxiter)
    if scale == 0.0:
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
    state._res[0] = r0 / beta
    state.residual_count = 1
    return state


def hess_step(state, op):
    """Run one iteration: new l_k (with W column), then new d_{k+1} (with H column).

    Terminal conditions set state.breakdown instead of raising:
    rank_deficient when k = min(m, n) already (see begin_step) or no
    solution-space pivot survives elimination (or the residual-space
    window is exhausted), exact_solution when the eliminated forward
    image vanishes.  Completed columns are kept.  An operator image
    with non-finite entries raises a ValueError.
    """
    if not begin_step(state):
        return state
    kp = state.k + 1
    t, g = state.t, state.g
    L, D, P = state._sol, state._res, state._piv

    # solution-space half: eliminate A^T d_k against l_1..l_{k-1}
    q = op.adjoint(D[kp - 1])
    q_scale = np.max(np.abs(q))
    check_image(q_scale, "adjoint", kp)
    if kp > 1:
        state._W[:kp - 1, kp - 1] = _eliminate(q, L[:kp - 1], g[:kp - 1],
                                               P[:kp - 1, :kp - 1].T)

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
    P[:kp - 1, kp - 1] = L[:kp - 1, g[kp - 1]]

    # residual-space half: eliminate A l_k against d_1..d_k
    u = op.forward(L[kp - 1])
    u_scale = np.max(np.abs(u))
    check_image(u_scale, "forward", kp)
    state._proj[:kp, kp - 1] = _eliminate(u, D[:kp], t[:kp], P[:kp, :kp])

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
    state._proj[kp, kp - 1] = h
    D[kp] = u / h
    P[kp, :kp] = D[:kp, t[kp]]
    state.residual_count = kp + 1
    return state


def hess_run(op, b, x0=None, *, strategy=None, maxiter=50):
    """Iterate until maxiter, breakdown, or dimension exhaustion."""
    state = hess_init(op, b, x0, strategy=strategy, maxiter=maxiter)
    for _ in iterate(state, hess_step, op, maxiter):
        pass
    return state
