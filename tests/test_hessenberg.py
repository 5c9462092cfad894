import numpy as np
import pytest
from scipy.linalg import hadamard
from scipy.linalg.blas import dtrsv

from lslu import (BREAKDOWN_EXACT, BREAKDOWN_NONE, BREAKDOWN_RANK,
                  BreakdownError, PivotStrategy, hess_init, hess_run,
                  hess_step, make_dense_operator)
from lslu.hessenberg import BREAKDOWN_TOL, _pivot, begin_step, check_image

A22 = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestInit:
    def test_worked_example_no_pivot(self):
        op = make_dense_operator(A22)
        state = hess_init(op, [1.0, 1.0], strategy=PivotStrategy.none())
        assert state.beta == 1.0
        np.testing.assert_array_equal(state.D[:, 0], [1.0, 1.0])
        np.testing.assert_array_equal(state.t, [0, 1])

    def test_full_pivot_tie_takes_first(self):
        op = make_dense_operator(A22)
        state = hess_init(op, [1.0, 1.0], strategy=PivotStrategy.full())
        assert state.beta == 1.0
        np.testing.assert_array_equal(state.t, [0, 1])

    def test_exact_data_breakdown(self):
        op = make_dense_operator(A22)
        x0 = np.array([1.0, 0.5])
        state = hess_init(op, A22 @ x0, x0=x0)
        assert state.breakdown == BREAKDOWN_EXACT
        assert state.k == 0

    def test_zero_leading_entry_without_pivoting(self):
        op = make_dense_operator(A22)
        with pytest.raises(BreakdownError):
            hess_init(op, [0.0, 1.0], strategy=PivotStrategy.none())

    def test_full_pivot_takes_infnorm_entry(self):
        op = make_dense_operator(np.eye(2))
        state = hess_init(op, [1.0, 2.0], strategy=PivotStrategy.full())
        assert state.beta == 2.0
        np.testing.assert_array_equal(state.D[:, 0], [0.5, 1.0])


class TestStep:
    def test_worked_example_step1(self):
        op = make_dense_operator(A22)
        state = hess_init(op, [1.0, 1.0], strategy=PivotStrategy.none())
        hess_step(state, op)
        assert state.W[0, 0] == 4.0
        np.testing.assert_array_equal(state.L[:, 0], [1.0, 1.5])
        assert state.H[0, 0] == 4.0 and state.H[1, 0] == 5.0
        np.testing.assert_array_equal(state.D[:, 1], [0.0, 1.0])

    def test_identity_full_pivot_exact_breakdown(self):
        op = make_dense_operator(np.eye(2))
        state = hess_init(op, [1.0, 2.0], strategy=PivotStrategy.full())
        hess_step(state, op)
        assert state.W[0, 0] == 1.0
        np.testing.assert_array_equal(state.L[:, 0], [0.5, 1.0])
        assert state.H[0, 0] == 1.0
        assert state.breakdown == BREAKDOWN_EXACT
        assert state.k == 1 and state.residual_count == 1

    def test_post_step_exact_unit_and_zero(self):
        op = make_dense_operator(A22)
        state = hess_init(op, [1.0, 1.0], strategy=PivotStrategy.none())
        hess_step(state, op)
        assert state.D[state.t[1], 1] == 1.0
        assert state.D[state.t[0], 1] == 0.0

    def test_step_on_broken_state_rejected(self):
        op = make_dense_operator(np.eye(2))
        state = hess_init(op, [1.0, 2.0])
        hess_step(state, op)
        with pytest.raises(ValueError):
            hess_step(state, op)


class TestRun:
    def test_worked_example_exhaustion(self):
        op = make_dense_operator(A22)
        state = hess_run(op, [1.0, 1.0], strategy=PivotStrategy.none(), maxiter=2)
        assert state.k == 2
        assert state.H.shape == (3, 2)
        assert state.D.shape == (2, 2)
        assert state.H[2, 1] == 0.0
        assert state.breakdown == BREAKDOWN_RANK

    def test_maxiter_beyond_dimension_bound(self, gravity32):
        state = hess_run(gravity32.op, gravity32.b, maxiter=500)
        assert state.breakdown != BREAKDOWN_NONE
        assert state.k <= 32

    def test_gravity16_relation_residuals(self):
        from lslu import make_gravity_problem
        prob = make_gravity_problem(16, noise_level=1e-2, seed=0)
        state = hess_run(prob.op, prob.b, maxiter=10)
        assert state.k == 10
        _assert_relations(prob.op.to_dense(), state)

    def test_tall_matrix_exhausts_solution_space(self):
        # m > n: the adjoint image runs out of fresh coordinates at k = n
        rng = np.random.default_rng(31)
        op = make_dense_operator(rng.standard_normal((6, 3)))
        state = hess_run(op, rng.standard_normal(6), maxiter=10)
        assert state.k == 3
        assert state.residual_count == 4
        assert state.breakdown == BREAKDOWN_RANK

    def test_wide_matrix_exhausts_residual_space(self):
        # m < n: no d_{m+1} exists; the final column keeps a zero H row
        rng = np.random.default_rng(32)
        op = make_dense_operator(rng.standard_normal((3, 6)))
        state = hess_run(op, rng.standard_normal(3), maxiter=10)
        assert state.k == 3
        assert state.residual_count == 3
        assert state.H.shape == (4, 3)
        assert state.H[3, 2] == 0.0
        assert state.breakdown in (BREAKDOWN_RANK, BREAKDOWN_EXACT)


def _strategies(m, n):
    return (PivotStrategy.none(), PivotStrategy.full(),
            PivotStrategy.sampled(min(25, max(m, n)), seed=5))


def _assert_unit_triangular(state):
    for j in range(state.k):
        assert state.L[state.g[j], j] == 1.0
        for i in range(j):
            assert state.L[state.g[i], j] == 0.0
    for j in range(state.residual_count):
        assert state.D[state.t[j], j] == 1.0
        for i in range(j):
            assert state.D[state.t[i], j] == 0.0


def _assert_relations(matrix, state):
    k, dk = state.k, state.residual_count
    scale = np.linalg.norm(matrix, "fro")
    rho1 = np.linalg.norm(matrix @ state.L - state.D @ state.H[:dk, :], "fro")
    assert rho1 <= 1e-10 * scale * np.linalg.norm(state.L, "fro")
    rho2 = np.linalg.norm(matrix.T @ state.D[:, :k] - state.L @ state.W, "fro")
    assert rho2 <= 1e-10 * scale * np.linalg.norm(state.D[:, :k], "fro")


class TestStructuralInvariants:
    @pytest.mark.parametrize("kind", ["none", "full", "sampled"])
    def test_random_dense(self, kind, random_100x80):
        matrix, b = random_100x80
        op = make_dense_operator(matrix)
        strategy = {"none": PivotStrategy.none(), "full": PivotStrategy.full(),
                    "sampled": PivotStrategy.sampled(25, seed=5)}[kind]
        state = hess_run(op, b, strategy=strategy, maxiter=15)
        _assert_unit_triangular(state)
        _assert_relations(matrix, state)

    def test_gravity_all_strategies(self, gravity64):
        for strategy in _strategies(64, 64):
            state = hess_run(gravity64.op, gravity64.b, strategy=strategy,
                             maxiter=15)
            _assert_unit_triangular(state)
            _assert_relations(gravity64.op.to_dense(), state)

    def test_tomo_all_strategies(self, tomo16):
        dense = tomo16.op.to_dense()
        m, n = tomo16.op.shape
        unpivoted, *pivoted = _strategies(m, n)
        for strategy in pivoted:
            state = hess_run(tomo16.op, tomo16.b, strategy=strategy, maxiter=15)
            assert state.k >= 1
            _assert_unit_triangular(state)
            _assert_relations(dense, state)
        # without pivoting the first step's eliminated forward image is zero
        # at the next natural data coordinate, so the run stops before k = 1
        state = hess_run(tomo16.op, tomo16.b, strategy=unpivoted, maxiter=15)
        assert state.k == 0
        assert state.breakdown == BREAKDOWN_RANK


def test_span_matches_explicit_krylov_matrices():
    # the L/D columns span the same spaces as the normal-equation Krylov
    # matrices built by explicit repeated application
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((12, 10))
    op = make_dense_operator(matrix)
    b = rng.standard_normal(12)
    state = hess_run(op, b, maxiter=50)
    assert state.k >= 10

    P = [matrix.T @ b]
    C = [b.copy()]
    for _ in range(state.k):
        P.append(matrix.T @ (matrix @ P[-1]))
        C.append(matrix @ (matrix.T @ C[-1]))
    for k in range(1, state.k + 1):
        Pk = np.column_stack(P[:k])
        Ck = np.column_stack(C[:k])
        Pk = Pk / np.linalg.norm(Pk, axis=0)
        Ck = Ck / np.linalg.norm(Ck, axis=0)
        assert np.linalg.matrix_rank(Pk) == k
        assert np.linalg.matrix_rank(np.hstack([state.L[:, :k], Pk])) == k
        assert np.linalg.matrix_rank(Ck) == k
        assert np.linalg.matrix_rank(np.hstack([state.D[:, :k], Ck])) == k


def test_sampled_full_window_reproduces_full_pivoting(random_100x80):
    matrix, b = random_100x80
    op = make_dense_operator(matrix)
    full = hess_run(op, b, strategy=PivotStrategy.full(), maxiter=12)
    sampled = hess_run(op, b, strategy=PivotStrategy.sampled(100, seed=42),
                       maxiter=12)
    np.testing.assert_array_equal(full.t, sampled.t)
    np.testing.assert_array_equal(full.g, sampled.g)
    np.testing.assert_array_equal(full.L, sampled.L)
    np.testing.assert_array_equal(full.D, sampled.D)
    np.testing.assert_array_equal(full.H, sampled.H)
    np.testing.assert_array_equal(full.W, sampled.W)


def test_sampled_window_shrinks_below_sample_size():
    # late iterations leave eligible windows smaller than the sample size;
    # the draw clamps to the window and the run still completes
    rng = np.random.default_rng(44)
    matrix = rng.standard_normal((10, 8))
    op = make_dense_operator(matrix)
    state = hess_run(op, rng.standard_normal(10),
                     strategy=PivotStrategy.sampled(8, seed=1), maxiter=20)
    assert state.k >= 7
    _assert_unit_triangular(state)
    _assert_relations(matrix, state)


def test_sampled_seed_reproducible(tomo16):
    a = hess_run(tomo16.op, tomo16.b, strategy=PivotStrategy.sampled(25, seed=8),
                 maxiter=8)
    b = hess_run(tomo16.op, tomo16.b, strategy=PivotStrategy.sampled(25, seed=8),
                 maxiter=8)
    np.testing.assert_array_equal(a.L, b.L)
    np.testing.assert_array_equal(a.t, b.t)


def test_sample_size_validation():
    op = make_dense_operator(np.eye(4))
    with pytest.raises(ValueError):
        hess_init(op, np.ones(4), strategy=PivotStrategy.sampled(9, seed=0))
    with pytest.raises(ValueError):
        PivotStrategy.sampled(0, seed=0)
    with pytest.raises(ValueError):
        PivotStrategy(kind="diagonal")


def test_strategy_must_be_a_pivot_strategy():
    op = make_dense_operator(A22)
    for run in (hess_init, hess_run):
        with pytest.raises(ValueError,
                           match="^strategy must be a PivotStrategy, got 'full'$"):
            run(op, [1.0, 1.0], strategy="full")


@pytest.mark.parametrize("kwargs, message", [
    ({"sample_size": 2.5}, "sample_size must be an integer, got 2.5"),
    ({"sample_size": True}, "sample_size must be an integer, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": -1}, "seed must be at least 0, got -1"),
])
def test_sampled_inputs_checked_when_built(kwargs, message):
    # NumPy would reject each only at the first sampled pivot
    with pytest.raises(ValueError, match=f"^{message}$"):
        PivotStrategy(**{"kind": "sampled", "sample_size": 5, "seed": 0, **kwargs})


def test_sampled_seed_defaults_to_zero():
    assert PivotStrategy("sampled", sample_size=5).seed == 0
    assert PivotStrategy.sampled(5) == PivotStrategy.sampled(5, seed=0)


@pytest.mark.parametrize("kind", ["none", "full"])
def test_seed_only_for_sampled_pivoting(kind):
    with pytest.raises(ValueError, match="^seed only applies to sampled pivoting$"):
        PivotStrategy(kind=kind, seed=3)


def test_numpy_integer_sample_size_and_seed(tomo16):
    a = hess_run(tomo16.op, tomo16.b, maxiter=8,
                 strategy=PivotStrategy.sampled(np.int64(25), seed=np.int64(8)))
    b = hess_run(tomo16.op, tomo16.b, strategy=PivotStrategy.sampled(25, seed=8),
                 maxiter=8)
    np.testing.assert_array_equal(a.L, b.L)
    np.testing.assert_array_equal(a.t, b.t)


def _reference_run(op, b, strategy, maxiter):
    """The process with (n, k) column storage, eliminating one column at a time.

    Each basis column is removed by its own axpy, reading the coefficient
    off the current pivot entry.  hess_step's triangular solve plus one
    gemv must reproduce this: the same pivots, and the same factors to
    rounding.  Returns the populated factors and the breakdown flag.
    """
    m, n = op.shape
    rng = (np.random.default_rng(strategy.seed) if strategy.kind == "sampled"
           else None)
    t, g = np.arange(m), np.arange(n)
    L, D = np.zeros((n, maxiter)), np.zeros((m, maxiter + 1))
    H, W = np.zeros((maxiter + 1, maxiter)), np.zeros((maxiter, maxiter))
    b = np.asarray(b, dtype=float)
    pos, _ = _pivot(b, t, 0, strategy, rng)
    t[[0, pos]] = t[[pos, 0]]
    D[:, 0] = b / b[t[0]]
    k, d_count, breakdown = 0, 1, BREAKDOWN_NONE
    for kp in range(1, maxiter + 1):
        q = op.adjoint(D[:, kp - 1])
        q_tol = BREAKDOWN_TOL * np.max(np.abs(q))
        for j in range(kp - 1):
            W[j, kp - 1] = w = q[g[j]]
            q -= w * L[:, j]
        pos, _ = _pivot(q, g, kp - 1, strategy, rng)
        if pos is None or abs(q[g[pos]]) <= q_tol:
            breakdown = BREAKDOWN_RANK
            break
        g[[kp - 1, pos]] = g[[pos, kp - 1]]
        W[kp - 1, kp - 1] = w = q[g[kp - 1]]
        L[:, kp - 1] = q / w

        u = op.forward(L[:, kp - 1])
        u_tol = BREAKDOWN_TOL * np.max(np.abs(u))
        for j in range(kp):
            H[j, kp - 1] = h = u[t[j]]
            u -= h * D[:, j]
        pos, _ = _pivot(u, t, kp, strategy, rng)
        if pos is None:
            k, breakdown = kp, BREAKDOWN_RANK
            break
        if np.max(np.abs(u[t[kp:]])) <= u_tol:
            k, breakdown = kp, BREAKDOWN_EXACT
            break
        if abs(u[t[pos]]) <= u_tol:
            breakdown = BREAKDOWN_RANK
            break
        t[[kp, pos]] = t[[pos, kp]]
        H[kp, kp - 1] = h = u[t[kp]]
        D[:, kp] = u / h
        k, d_count = kp, kp + 1
    factors = {"L": L[:, :k], "D": D[:, :d_count], "H": H[:k + 1, :k],
               "W": W[:k, :k]}
    return t, g, factors, breakdown


@pytest.mark.parametrize("kind", ["none", "full", "sampled"])
@pytest.mark.parametrize("name", ["tomo16", "gravity64"])
def test_blocked_elimination_matches_column_reference(name, kind, request):
    # One gemv sums in another order than successive axpys, and every step
    # amplifies earlier rounding; without pivoting the bases of gravity64
    # reach entries of 1e3 by k = 3 and 1e9 by k = 13.  So the runs are
    # short enough that 1e-12 measures the elimination, not that growth.
    prob = request.getfixturevalue(name)
    m, n = prob.op.shape
    strategy = dict(zip(("none", "full", "sampled"), _strategies(m, n)))[kind]
    _run_matching_reference(prob.op, prob.b, strategy, 3 if kind == "none" else 10)


def _run_matching_reference(op, b, strategy, maxiter):
    """hess_run, checked against _reference_run: the same pivots and
    breakdown, and the same factors to 1e-12 of their largest entry."""
    state = hess_run(op, b, strategy=strategy, maxiter=maxiter)
    t, g, factors, breakdown = _reference_run(op, b, strategy, maxiter)
    np.testing.assert_array_equal(state.t, t)
    np.testing.assert_array_equal(state.g, g)
    assert state.breakdown == breakdown
    for key, ref in factors.items():
        got = getattr(state, key)
        assert got.shape == ref.shape, key
        scale = np.max(np.abs(ref)) if ref.size else 0.0
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale,
                                   err_msg=key)
    return state


def _sparse_problem(seed):
    # a sparse integer matrix: images with exact zeros at the pivot
    # candidates, so unpivoted and sampled runs break down early
    rng = np.random.default_rng(seed)
    matrix = (rng.random((10, 8)) < 0.25) * rng.integers(1, 4, (10, 8)).astype(float)
    return make_dense_operator(matrix), (rng.random(10) < 0.5) * 1.0


def _hadamard_problem():
    # b lies in the span of 3 left singular vectors; Hadamard factors keep
    # every step exact, so the run ends in exact_solution at k = 3
    m, n = 16, 8
    matrix = (hadamard(m)[:, :n] @ np.diag([8.0, 6, 4, 3, 2, 1.5, 1, 0.5])
              @ hadamard(n).T)
    return make_dense_operator(matrix), hadamard(m)[:, :3] @ np.array([3.0, -2.0, 1.0])


def _dense_problem(shape):
    rng = np.random.default_rng(shape[0])
    return make_dense_operator(rng.standard_normal(shape)), rng.standard_normal(shape[0])


# (problem, strategy, k, breakdown, whether the last step dropped its
# half-built column): each ending of the residual half's pivot test
_ENDINGS = {
    "exact_full": (_hadamard_problem, PivotStrategy.full(), 3, BREAKDOWN_EXACT, False),
    "exact_none": (lambda: _sparse_problem(82), PivotStrategy.none(), 8,
                   BREAKDOWN_EXACT, False),
    "exact_sampled": (lambda: _sparse_problem(204), PivotStrategy.sampled(2, seed=204),
                      8, BREAKDOWN_EXACT, False),
    "tall_full": (lambda: _dense_problem((12, 8)), PivotStrategy.full(), 8,
                  BREAKDOWN_RANK, False),
    "wide_full": (lambda: _dense_problem((8, 12)), PivotStrategy.full(), 8,
                  BREAKDOWN_RANK, False),
    "dropped_none": (lambda: _sparse_problem(12), PivotStrategy.none(), 6,
                     BREAKDOWN_RANK, True),
    "dropped_sampled": (lambda: _sparse_problem(3), PivotStrategy.sampled(2, seed=3), 5,
                        BREAKDOWN_RANK, True),
}


@pytest.mark.parametrize("ending", list(_ENDINGS))
def test_residual_pivot_endings_match_column_reference(ending):
    # one gather of |u| serves the pivot choice and the exact-solution test
    make, strategy, k, breakdown, dropped = _ENDINGS[ending]
    state = _run_matching_reference(*make(), strategy, 20)
    assert (state.k, state.breakdown) == (k, breakdown)
    assert (state.k < state.cap and state._W[state.k, state.k] != 0.0) == dropped


@pytest.mark.parametrize("kind", ["full", "sampled"])
def test_hand_stepped_state_matches_run(gravity64, kind):
    strategy = dict(zip(("none", "full", "sampled"), _strategies(64, 64)))[kind]
    op, b = gravity64.op, gravity64.b
    stepped = hess_init(op, b, strategy=strategy, maxiter=20)
    for _ in range(20):
        hess_step(stepped, op)
    run = hess_run(op, b, strategy=strategy, maxiter=20)
    assert stepped.k == run.k == 20
    for key in ("t", "g", "L", "D", "H", "W"):
        np.testing.assert_array_equal(getattr(stepped, key), getattr(run, key),
                                      err_msg=key)


def test_step_past_maxiter_raises(gravity32):
    state = hess_run(gravity32.op, gravity32.b, maxiter=5)
    with pytest.raises(ValueError, match="maxiter=5"):
        hess_step(state, gravity32.op)
    assert state.k == 5 and state.breakdown == BREAKDOWN_NONE


def test_storage_sized_from_maxiter_capped_by_dimensions(gravity32):
    assert hess_run(gravity32.op, gravity32.b, maxiter=500).cap == 32
    assert hess_run(gravity32.op, gravity32.b, maxiter=5).cap == 5


def _gathering_eliminate(vec, rows, piv):
    """_eliminate with its pivot block gathered afresh from the basis rows."""
    coef = dtrsv(rows[:, piv].T, vec[piv], lower=1, diag=1)
    vec -= rows.T @ coef
    vec[piv] = 0.0
    return coef


def _gathering_step(state, op):
    """hess_step on _gathering_eliminate: it never reads or writes state._piv."""
    if not begin_step(state):
        return state
    kp = state.k + 1
    t, g = state.t, state.g
    L, D = state._sol, state._res
    q = op.adjoint(D[kp - 1])
    q_scale = np.max(np.abs(q))
    check_image(q_scale, "adjoint", kp)
    if kp > 1:
        state._W[:kp - 1, kp - 1] = _gathering_eliminate(q, L[:kp - 1], g[:kp - 1])
    pos, _ = _pivot(q, g, kp - 1, state.strategy, state._rng)
    if pos is None or abs(q[g[pos]]) <= BREAKDOWN_TOL * q_scale:
        state.breakdown = BREAKDOWN_RANK
        return state
    g[[kp - 1, pos]] = g[[pos, kp - 1]]
    w = q[g[kp - 1]]
    state._W[kp - 1, kp - 1] = w
    L[kp - 1] = q / w
    u = op.forward(L[kp - 1])
    u_scale = np.max(np.abs(u))
    check_image(u_scale, "forward", kp)
    state._proj[:kp, kp - 1] = _gathering_eliminate(u, D[:kp], t[:kp])
    pos, _ = _pivot(u, t, kp, state.strategy, state._rng)
    if pos is None:
        state.k = kp
        state.breakdown = BREAKDOWN_RANK
        return state
    if np.max(np.abs(u[t[kp:]])) <= BREAKDOWN_TOL * u_scale:
        state.k = kp
        state.breakdown = BREAKDOWN_EXACT
        return state
    if abs(u[t[pos]]) <= BREAKDOWN_TOL * u_scale:
        state.breakdown = BREAKDOWN_RANK
        return state
    state.k = kp
    t[[kp, pos]] = t[[pos, kp]]
    h = u[t[kp]]
    state._proj[kp, kp - 1] = h
    D[kp] = u / h
    state.residual_count = kp + 1
    return state


def _bits(a):
    # bytes, so a signed zero differs from an unsigned one
    return np.ascontiguousarray(a).tobytes()


def _assert_same_state(kept, ref):
    assert (kept.k, kept.residual_count, kept.breakdown) == (
        ref.k, ref.residual_count, ref.breakdown)
    for key in ("t", "g", "L", "D", "H", "W"):
        assert _bits(getattr(kept, key)) == _bits(getattr(ref, key)), key


def _assert_blocks_hold_gathered(state):
    # the strict triangles dtrsv reads are the entries a gather would give
    k, rc, P = state.k, state.residual_count, state._piv
    gathered_l = state._sol[:k][:, state.g[:k]].T
    gathered_d = state._res[:rc][:, state.t[:rc]].T
    assert _bits(np.tril(P[:k, :k].T, -1)) == _bits(np.tril(gathered_l, -1))
    assert _bits(np.tril(P[:rc, :rc], -1)) == _bits(np.tril(gathered_d, -1))


def _step_alongside(op, b, strategy, maxiter):
    """Step hess_step and _gathering_step side by side, checking each step."""
    kept = hess_init(op, b, strategy=strategy, maxiter=maxiter)
    ref = hess_init(op, b, strategy=strategy, maxiter=maxiter)
    for _ in range(maxiter):
        if kept.breakdown != BREAKDOWN_NONE:
            break
        hess_step(kept, op)
        _gathering_step(ref, op)
        _assert_same_state(kept, ref)
        _assert_blocks_hold_gathered(kept)
    return kept


def _block_problem(name, request):
    if name in ("tall14x9", "wide9x14"):
        shape = (14, 9) if name == "tall14x9" else (9, 14)
        rng = np.random.default_rng(shape[0])
        return make_dense_operator(rng.standard_normal(shape)), rng.standard_normal(shape[0])
    prob = request.getfixturevalue(name)
    return prob.op, prob.b


@pytest.mark.parametrize("kind", ["none", "full", "sampled"])
@pytest.mark.parametrize("name", ["tomo16", "gravity64", "tall14x9", "wide9x14"])
def test_kept_pivot_blocks_match_gathering_reference(name, kind, request):
    op, b = _block_problem(name, request)
    m, n = op.shape
    strategy = dict(zip(("none", "full", "sampled"), _strategies(m, n)))[kind]
    state = _step_alongside(op, b, strategy, maxiter=15)
    if name == "tall14x9" and kind != "none":
        assert state.k == 9 and state.breakdown == BREAKDOWN_RANK
    if name == "wide9x14" and kind != "none":
        # D's window is exhausted: the last column keeps a zero H row
        assert state.k == 9 and state.residual_count == 9


def test_kept_pivot_blocks_through_the_dropped_column(tomo16):
    # a two-entry sample misses the live entries of the third forward
    # image: the half-built column is dropped after its L half was stored
    state = _step_alongside(tomo16.op, tomo16.b,
                            PivotStrategy.sampled(2, seed=0), maxiter=15)
    assert state.breakdown == BREAKDOWN_RANK and state.k == 2
    assert state._W[2, 2] != 0.0
