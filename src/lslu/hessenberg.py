"""Rectangular Hessenberg process with partial and sampled pivoting.

Builds two Krylov bases by LU-style elimination instead of
orthogonalization: L_k (solution space, columns l_1..l_k) and D_{k+1}
(residual space, columns d_1..d_{k+1}), together with the small factors
H_{k+1,k} (upper Hessenberg) and W_k (upper triangular) satisfying

    A L_k   = D_{k+1} H_{k+1,k}
    A^T D_k = L_k W_k.

Both bases are unit lower triangular up to the row permutations t (for
D) and g (for L), and every pivot decision is a coordinate maximum, so
the whole recurrence is free of inner products.  Both half-steps
eliminate, pivot and append.  _eliminate removes a whole basis from
the new vector at once: a unit triangular solve with the basis's pivot
block (its entries at the pivot coordinates) gives the coefficients,
and one gemv applies them.  _pivot's one gather of the vector's live
magnitudes serves the pivot choice (hess_init's too) and every
breakdown test.  _append normalizes the vector into the basis and adds
the pivot block's new row or column, so no step gathers a block again.
KrylovState holds what this and the Golub-Kahan state share; L, D, H
and W name its views.  begin_step and iterate are the step prologue and the step loop
of both families.  The bases' metric, for the UQ and the bound reports,
is the square R factor of one QR per basis (qr_r), kept by
KrylovState.r_factor; condition_number reads it.  Both call LAPACK
(dgeqrf, dgesdd) directly, with the workspace and the checks of
scipy.linalg.qr and svdvals: the same bits without those wrappers'
per-call cost, most of the time of a small call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import get_lapack_funcs

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
    alone takes sample_size (an integer >= 1) and seed (an integer >= 0,
    0 when None).
    """

    KINDS = ("none", "full", "sampled")

    kind: str = "full"
    sample_size: int | None = None
    seed: int | None = None

    def __post_init__(self):
        check_kind(self.kind, "kind", self.KINDS, "pivot strategy ")
        if self.kind == "sampled":
            if self.sample_size is None:
                raise InputError("sample_size", "sampled pivoting needs {name} >= 1")
            check_maxiter(self.sample_size, "sample_size")
            self.seed = 0 if self.seed is None else self.seed
            check_maxiter(self.seed, "seed", least=0)
        else:
            for name in ("sample_size", "seed"):
                if getattr(self, name) is not None:
                    raise InputError(name, "{name} only applies to sampled pivoting")

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def full(cls):
        return cls(kind="full")

    @classmethod
    def sampled(cls, sample_size, seed=None):
        return cls(kind="sampled", sample_size=sample_size, seed=seed)


# The LAPACK routines behind scipy.linalg.qr and svdvals, looked up as
# those functions look them up; called directly they skip the wrappers'
# per-call cost, and with the same arguments they return the same bits.
_geqrf, _geqrf_lwork = get_lapack_funcs(("geqrf", "geqrf_lwork"), dtype=np.float64)
_gesdd, _gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), dtype=np.float64,
                                        ilp64="preferred")


def check_lapack_info(info, routine):
    """Raise the ValueError SciPy raises for an illegal LAPACK argument."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


def _workspace(query, routine):
    work, info = query
    check_lapack_info(info, routine)
    return int(work.real)


def qr_r(basis):
    """Square R factor of a dense QR of a basis with at least as many rows
    as columns: scipy.linalg.qr(basis, mode="economic")[1], bit for bit.
    Its leading j-by-j block is the R factor of basis[:, :j], so one QR
    serves every leading column count."""
    basis = finite_matrix(basis, "basis")
    m, n = basis.shape
    if basis.size == 0:  # a state that broke down before its first column
        return np.zeros((min(m, n), n))
    lwork = _workspace(_geqrf_lwork(m, n), "dgeqrf")
    qr, _, _, info = _geqrf(basis, lwork=lwork)
    check_lapack_info(info, "dgeqrf")
    return np.triu(qr[:n])


def _singular_values(block):
    # scipy.linalg.svdvals(block), bit for bit
    block = finite_matrix(block, "block")
    lwork = _workspace(_gesdd_lwork(*block.shape, compute_uv=0), "dgesdd")
    _, sigma, _, info = _gesdd(block, compute_uv=0, lwork=lwork)
    if info > 0:
        raise LinAlgError("SVD did not converge")
    check_lapack_info(info, "dgesdd")
    return sigma


def condition_number(*blocks):
    """2-norm condition number of blockdiag(*blocks), inf when singular."""
    # dgesdd returns each block's singular values in descending order
    sigma = [_singular_values(block) for block in blocks]
    top, bottom = max(s[0] for s in sigma), min(s[-1] for s in sigma)
    return float(top / bottom) if bottom > 0 else np.inf


class InputError(ValueError):
    """A bad input, named: .name is the parameter.  The message is
    template with {name} filled in by it and the other fields by values;
    message(label) fills in label instead (the CLI: the input's flag)."""

    def __init__(self, name, template, **values):
        self.name, self._template, self._values = name, template, values
        super().__init__(self.message(name))

    def message(self, label):
        return self._template.format(name=label, **self._values)


def check_maxiter(maxiter, name="maxiter", least=1):
    """Reject a count that is not an integer >= least (bools included), naming it."""
    if isinstance(maxiter, bool) or not isinstance(maxiter, numbers.Integral):
        raise InputError(name, "{name} must be an integer, got {value!r}", value=maxiter)
    if maxiter < least:
        raise InputError(name, "{name} must be at least {least}, got {value}",
                         least=least, value=maxiter)


def check_real(value, name, *, positive):
    """Reject a value that is not a finite real number > 0 (positive) or
    >= 0 (bools and non-numbers included), naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(name, "{name} must be a real number, got {value!r}", value=value)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer past the float range
        finite = False
    if not (finite and (value > 0 if positive else value >= 0)):
        raise InputError(name, "{name} must be finite and {sign}, got {value!r}",
                         sign="positive" if positive else "nonnegative", value=value)


def _as_float(value, name):
    try:
        array = np.asarray(value)
        # a float cast would drop an imaginary part or parse strings as numbers
        if array.dtype.kind not in "cSU":
            return np.asarray(array, dtype=float)
        kind = type(value).__name__ if isinstance(value, str) else f"{array.dtype} values"
    except (TypeError, ValueError):
        kind = type(value).__name__
    raise InputError(name, "{name} must be an array of real numbers, got {kind}",
                     kind=kind)


def check_vector(value, name, length=None, axis="columns"):
    """value as a float vector; an InputError naming it unless 1-D, finite
    and, when given, of length `length` (the operator's rows or columns,
    as axis says; axis None names no operator)."""
    vec = _as_float(value, name)
    if vec.ndim != 1 or length not in (None, vec.shape[0]):
        want = "a 1-D vector" if length is None else f"a vector of length {length}"
        if length is not None and axis is not None:
            want += f" (the operator's {axis})"
        raise InputError(name, f"{{name}} must be {want}, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise InputError(name, "{name} has non-finite entries")
    return vec


def finite_matrix(a, name):
    """a as a 2-D float array; an InputError naming it unless finite.  The
    scan takes row blocks of about 64K entries: no temporary is as large."""
    a = _as_float(a, name)
    if a.ndim != 2:
        raise InputError(name, "{name} must be two-dimensional")
    rows = max(1, (1 << 16) // max(a.shape[1], 1))
    if not all(np.isfinite(a[i:i + rows]).all() for i in range(0, a.shape[0], rows)):
        raise InputError(name, "{name} has non-finite entries")
    return a


def check_kind(value, name, kinds, what=""):
    """Reject a value that is none of kinds, naming it ("unknown {what}{name}")."""
    if not (isinstance(value, str) and value in kinds):
        raise InputError(name, "unknown {what}{name} {value!r}", what=what, value=value)


def check_type(value, name, kind):
    """Reject a value that is not an instance of the class kind, naming it."""
    if not isinstance(value, kind):
        raise InputError(name, "{name} must be a {kind}, got {value!r}",
                         kind=kind.__name__, value=value)


def check_grown(state, name="state"):
    """Reject a state that is no KrylovState or has no completed iteration."""
    check_type(state, name, KrylovState)
    if state.k < 1:
        raise InputError(name, "{name} has no completed iterations")


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

    The init is the start both families share: it checks maxiter, b and
    x0 (check_vector; x0 zeros when None), writes r0 into the first
    residual row and takes the family's `scale` of it, a ValueError
    naming the forward map or the residual if not finite, exact_solution
    if 0.
    Otherwise the family's init picks beta and calls start(beta).
    """

    def __init__(self, op, b, x0, maxiter):
        check_maxiter(maxiter)
        self.m, self.n = m, n = op.shape
        b = check_vector(b, "b", m, "rows")
        self.x0 = x0 = np.zeros(n) if x0 is None else check_vector(x0, "x0", n)
        self.cap = min(maxiter, m, n)
        self.k = 0
        self.residual_count = 0
        self.beta = 0.0
        self.breakdown = BREAKDOWN_NONE
        self._sol = np.empty((self.cap, n))
        self._res = np.empty((self.cap + 1, m))
        self._proj = np.zeros((self.cap + 1, self.cap))
        self._r_factors = {}

        r0 = self._res[0]  # at x0 = 0, b - 0.0: b bit for bit, without a product
        ax0 = op.forward(x0) if np.any(x0) else 0.0
        with np.errstate(over="ignore"):  # a finite A x0 may still overflow b - A x0
            np.subtract(b, ax0, out=r0)
        self._r0_scale = self.scale(r0)
        if not np.isfinite(self._r0_scale):
            if not np.all(np.isfinite(ax0)):
                raise ValueError("the forward map returned non-finite values at x0")
            if not np.all(np.isfinite(r0)):
                raise ValueError("the initial residual b - A x0 overflows")
            raise ValueError("the scale of the initial residual b - A x0 overflows")
        if self._r0_scale == 0.0:
            self.breakdown = BREAKDOWN_EXACT

    def start(self, beta):
        """Make r0 / beta, in place, the first residual basis vector."""
        self._res[0] /= beta
        self.beta = float(beta)
        self.residual_count = 1

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

    scale = staticmethod(lambda vec: np.max(np.abs(vec)))

    def __init__(self, op, b, x0, strategy, maxiter):
        super().__init__(op, b, x0, maxiter)
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


def _pivot(vec, perm, start, strategy, rng):
    """The pivot of vec over its live rows perm[start:]: its index into
    perm (None when no row is live) and the live magnitudes, one gather
    of |vec| that serves the choice and every breakdown test."""
    live = np.abs(vec[perm[start:]])
    if live.size == 0:
        return None, live
    if strategy.kind == "none":
        pos = 0
    elif strategy.kind == "full":
        pos = np.argmax(live)
    else:
        sample = rng.choice(live.size, size=min(strategy.sample_size, live.size),
                            replace=False)
        sample.sort()
        pos = sample[np.argmax(live[sample])]
    return start + int(pos), live


def _append(vec, rows, perm, j, pos, block):
    """Swap the pivot perm[pos] into perm[j], divide vec by its entry into
    rows[j], and copy the earlier rows' entries at it into the pivot
    block's row j (L's block is passed transposed); return the entry."""
    perm[j], perm[pos] = perm[pos], perm[j]
    pivot = vec[perm[j]]
    np.divide(vec, pivot, out=rows[j])
    block[j, :j] = rows[:j, perm[j]]
    return pivot


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
    it.  KrylovState checks b and x0.
    """
    strategy = PivotStrategy.full() if strategy is None else strategy
    check_type(strategy, "strategy", PivotStrategy)
    if strategy.kind == "sampled" and strategy.sample_size > max(op.shape):
        raise InputError("sample_size", f"{{name}} must be at most max(m, n) = "
                         f"{max(op.shape)}, got {strategy.sample_size}")
    state = HessenbergState(op, b, x0, strategy, maxiter)
    if state.breakdown != BREAKDOWN_NONE:
        return state
    r0, t = state._res[0], state.t
    pos, live = _pivot(r0, t, 0, strategy, state._rng)
    if live[pos] == 0.0:
        advice = ("enlarge the pivot sample" if strategy.kind == "sampled"
                  else "use full or sampled pivoting")
        raise BreakdownError(
            f"zero pivot entry in the initial residual; {advice}")
    t[0], t[pos] = t[pos], t[0]
    state.start(r0[t[0]])
    return state


def hess_step(state, op):
    """Run one iteration: new l_k (with W column), then new d_{k+1} (with H column).

    Each half eliminates, pivots, tests the pivot and appends.  Terminal
    conditions set state.breakdown instead of raising: rank_deficient
    when k = min(m, n) already (see begin_step), no solution-space pivot
    survives elimination, the residual-space window is exhausted or its
    candidate misses the live entries (the half-built column is
    dropped); exact_solution when the eliminated forward image vanishes.
    Completed columns are kept.  An operator image with non-finite
    entries raises a ValueError.
    """
    if not begin_step(state):
        return state
    k, t, g, P = state.k, state.t, state.g, state._piv
    L, D, strategy, rng = state._sol, state._res, state.strategy, state._rng

    # solution-space half: eliminate A^T d_{k+1} against l_1..l_k; n - k
    # >= 1 rows are live, and any negligible pivot is rank_deficient
    q = op.adjoint(D[k])
    q_scale = np.max(np.abs(q))
    check_image(q_scale, "adjoint", k + 1)
    if k:
        state._W[:k, k] = _eliminate(q, L[:k], g[:k], P[:k, :k].T)
    pos, live = _pivot(q, g, k, strategy, rng)
    if live[pos - k] <= BREAKDOWN_TOL * q_scale:
        state.breakdown = BREAKDOWN_RANK
        return state
    del live  # before the residual half's temporaries are made
    state._W[k, k] = _append(q, L, g, k, pos, P.T)

    # residual-space half: eliminate A l_{k+1} against d_1..d_{k+1}
    u = op.forward(L[k])
    u_scale = np.max(np.abs(u))
    check_image(u_scale, "forward", k + 1)
    state._proj[:k + 1, k] = _eliminate(u, D[:k + 1], t[:k + 1], P[:k + 1, :k + 1])
    pos, live = _pivot(u, t, k + 1, strategy, rng)
    if pos is None or (live[pos - k - 1] if strategy.kind == "full"
                       else np.max(live)) <= BREAKDOWN_TOL * u_scale:
        # every live entry of u is negligible (the pivot is the largest under
        # full pivoting; u is exactly zero once all m rows are pivoted): the
        # new column satisfies the relation with a zero H row
        state.k = k + 1
        state.breakdown = BREAKDOWN_EXACT if live.size else BREAKDOWN_RANK
        return state
    pivot = live[pos - k - 1]
    if pivot <= BREAKDOWN_TOL * u_scale:
        # the candidate missed the live entries; dividing would poison the
        # basis and keeping the column would break the relation, so drop it
        state.breakdown = BREAKDOWN_RANK
        return state
    state._proj[k + 1, k] = _append(u, D, t, k + 1, pos, P)
    state.k, state.residual_count = k + 1, k + 2
    return state


def hess_run(op, b, x0=None, *, strategy=None, maxiter=50):
    """Iterate until maxiter, breakdown, or dimension exhaustion."""
    state = hess_init(op, b, x0, strategy=strategy, maxiter=maxiter)
    for _ in iterate(state, hess_step, op, maxiter):
        pass
    return state
