import numpy as np
import pytest

from lslu import (CountingOperator, LambdaRule, PivotStrategy, SolverConfig,
                  gk_run, hess_run, make_dense_operator, run_hybrid_lslu,
                  run_hybrid_lsqr, run_lslu, run_lsqr, solve)
from lslu import reductions

A22 = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestHybridReducesToLslu:
    def test_worked_example(self):
        op = make_dense_operator(A22)
        cfg = SolverConfig(method="hybrid_lslu", maxiter=1,
                           lambda_rule=LambdaRule.fixed(0.0),
                           pivot=PivotStrategy.none())
        res = run_hybrid_lslu(op, [1.0, 1.0], cfg)
        np.testing.assert_allclose(res.ys[0], [4.0 / 41.0], atol=1e-15)
        np.testing.assert_allclose(res.x_final, [4.0 / 41.0, 6.0 / 41.0],
                                   atol=1e-15)

    def test_identical_iterates(self):
        rng = np.random.default_rng(2)
        op = make_dense_operator(rng.standard_normal((14, 9)))
        b = rng.standard_normal(14)
        res_h = run_hybrid_lslu(op, b, SolverConfig(
            method="hybrid_lslu", maxiter=6, lambda_rule=LambdaRule.fixed(0.0)))
        res_p = run_lslu(op, b, SolverConfig(method="lslu", maxiter=6))
        for yh, yp in zip(res_h.ys, res_p.ys):
            np.testing.assert_allclose(yh, yp, rtol=1e-12, atol=1e-14)


class TestExactSolveLimit:
    def test_lslu_square_to_breakdown(self):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        op = make_dense_operator(matrix)
        b = rng.standard_normal(8)
        res = run_lslu(op, b, SolverConfig(method="lslu", maxiter=20))
        assert res.stop_reason == "breakdown"
        assert np.linalg.norm(matrix @ res.x_final - b) <= 1e-8 * np.linalg.norm(b)

    def test_lslu_identity_one_step(self):
        op = make_dense_operator(np.eye(3))
        b = np.array([0.3, -1.2, 0.5])
        res = run_lslu(op, b, SolverConfig(method="lslu", maxiter=5))
        assert res.k_reached == 1
        np.testing.assert_allclose(res.x_final, b, atol=1e-12)

    def test_lsqr_square_matches_dense(self):
        rng = np.random.default_rng(13)
        matrix = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        op = make_dense_operator(matrix)
        b = rng.standard_normal(8)
        res = run_lsqr(op, b, SolverConfig(method="lsqr", maxiter=20))
        x = np.linalg.solve(matrix, b)
        assert np.linalg.norm(res.x_final - x) <= 1e-8 * np.linalg.norm(x)

    def test_hybrid_lsqr_matches_dense_tikhonov(self):
        rng = np.random.default_rng(14)
        matrix = rng.standard_normal((10, 10))
        op = make_dense_operator(matrix)
        b = rng.standard_normal(10)
        lam = 0.1
        res = run_hybrid_lsqr(op, b, SolverConfig(
            method="hybrid_lsqr", maxiter=10, lambda_rule=LambdaRule.fixed(lam)))
        x = np.linalg.solve(matrix.T @ matrix + lam**2 * np.eye(10),
                            matrix.T @ b)
        assert np.linalg.norm(res.x_final - x) <= 1e-6 * np.linalg.norm(x)


class TestQmrIdentity:
    @pytest.mark.parametrize("shape,seed", [((30, 20), 0), ((25, 25), 1)])
    def test_projected_residual_equals_coordinate_residual(self, shape, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal(shape)
        op = make_dense_operator(matrix)
        b = rng.standard_normal(shape[0])
        res = run_lslu(op, b, SolverConfig(method="lslu", maxiter=12))
        state = res.state
        for k in range(1, res.k_reached + 1):
            x_k = state.L[:, :k] @ res.ys[k - 1]
            e1 = np.zeros(k + 1)
            e1[0] = 1.0
            lhs = np.linalg.norm(state.beta * e1 - state.H[:k + 1, :k] @ res.ys[k - 1])
            d_cols = state.D[:, :min(k + 1, state.d_count)]
            rhs = np.linalg.norm(np.linalg.pinv(d_cols) @ (b - matrix @ x_k))
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1e-30)

    def test_gravity(self, gravity32):
        res = run_lslu(gravity32.op, gravity32.b,
                       SolverConfig(method="lslu", maxiter=10))
        state = res.state
        matrix = gravity32.op.to_dense()
        for k in range(1, res.k_reached + 1):
            x_k = state.L[:, :k] @ res.ys[k - 1]
            e1 = np.zeros(k + 1)
            e1[0] = 1.0
            lhs = np.linalg.norm(state.beta * e1 - state.H[:k + 1, :k] @ res.ys[k - 1])
            rhs = np.linalg.norm(
                np.linalg.pinv(state.D[:, :k + 1]) @ (gravity32.b - matrix @ x_k))
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1e-30)


def test_semiconvergence_tomo16():
    from lslu import make_tomo_problem
    # noise high enough that the error minimum falls inside 20 iterations
    prob = make_tomo_problem(16, noise_level=5e-2, seed=1)
    res = run_lslu(prob.op, prob.b, SolverConfig(
        method="lslu", maxiter=20, track_truth=prob.x_true))
    errs = np.array(res.relative_errors)
    imin = int(np.argmin(errs))
    assert imin < len(errs) - 1
    assert errs[-1] > errs[imin]


def test_stopping_fixture_gravity64_wgcv():
    from lslu import make_gravity_problem
    prob = make_gravity_problem(64, noise_level=1e-2, seed=1)
    cfg = SolverConfig(method="hybrid_lslu", maxiter=50,
                       lambda_rule=LambdaRule.wgcv(), stop_tol=1e-4,
                       track_truth=prob.x_true)
    res = run_hybrid_lslu(prob.op, prob.b, cfg)
    assert res.stop_reason == "ghat_tol"
    assert res.k_stop < 50
    errs = res.relative_errors
    assert errs[res.k_stop - 1] <= 1.10 * min(errs)


def test_stopping_fixture_tomo32_wgcv(tomo32):
    cfg = SolverConfig(method="hybrid_lslu", maxiter=40,
                       lambda_rule=LambdaRule.wgcv(), stop_tol=1e-4,
                       track_truth=tomo32.x_true)
    res = run_hybrid_lslu(tomo32.op, tomo32.b, cfg)
    assert res.stop_reason == "ghat_tol"
    errs = res.relative_errors
    assert errs[res.k_stop - 1] <= 1.10 * min(errs)


def test_histories_aligned(gravity32):
    cfg = SolverConfig(method="hybrid_lslu", maxiter=8,
                       lambda_rule=LambdaRule.wgcv(),
                       track_truth=gravity32.x_true)
    res = run_hybrid_lslu(gravity32.op, gravity32.b, cfg)
    k = res.k_reached
    assert len(res.lambdas) == len(res.ghats) == len(res.ys) == k
    assert len(res.residual_norms) == len(res.relative_errors) == k
    for i, y in enumerate(res.ys):
        assert y.shape == (i + 1,)
    # final iterate reconstructs from the stored basis and projected solution
    x = res.state.x0 + res.state.L[:, :res.k_stop] @ res.ys[res.k_stop - 1]
    np.testing.assert_allclose(res.x_final, x, rtol=0, atol=1e-12)


def test_determinism_bitwise(tomo16):
    cfg = lambda: SolverConfig(method="hybrid_lslu", maxiter=10,
                               lambda_rule=LambdaRule.wgcv(),
                               pivot=PivotStrategy.sampled(25, seed=3),
                               track_truth=tomo16.x_true)
    res1 = run_hybrid_lslu(tomo16.op, tomo16.b, cfg())
    res2 = run_hybrid_lslu(tomo16.op, tomo16.b, cfg())
    assert res1.residual_norms == res2.residual_norms
    assert res1.lambdas == res2.lambdas
    assert res1.ghats == res2.ghats
    np.testing.assert_array_equal(res1.x_final, res2.x_final)


def test_breakdown_at_init_returns_x0():
    op = make_dense_operator(A22)
    x0 = np.array([2.0, -1.0])
    res = run_lslu(op, A22 @ x0, SolverConfig(method="lslu", maxiter=5, x0=x0))
    assert res.stop_reason == "breakdown"
    assert res.k_stop == 0
    np.testing.assert_array_equal(res.x_final, x0)


def test_stacked_residual_ordering_fixed_lambda(gravity32):
    # hybrid baseline minimizes the true stacked residual over the same
    # subspace, so its value lower-bounds the Hessenberg family's at every k
    lam = 0.05
    cfg_lu = SolverConfig(method="hybrid_lslu", maxiter=12,
                          lambda_rule=LambdaRule.fixed(lam))
    cfg_qr = SolverConfig(method="hybrid_lsqr", maxiter=12,
                          lambda_rule=LambdaRule.fixed(lam))
    res_lu = run_hybrid_lslu(gravity32.op, gravity32.b, cfg_lu)
    res_qr = run_hybrid_lsqr(gravity32.op, gravity32.b, cfg_qr)
    matrix = gravity32.op.to_dense()

    def stacked(res, k):
        x = res.state.solution_basis[:, :k] @ res.ys[k - 1]
        return np.hypot(np.linalg.norm(gravity32.b - matrix @ x),
                        lam * np.linalg.norm(x))

    for k in range(1, min(res_lu.k_reached, res_qr.k_reached) + 1):
        assert stacked(res_qr, k) <= stacked(res_lu, k) * (1 + 1e-10)


class TestInnerProductFreeWitness:
    def test_pure_mode_zero_reductions(self, gravity32):
        cop = CountingOperator(gravity32.op)
        for method, runner in (("lslu", run_lslu), ("hybrid_lslu", run_hybrid_lslu)):
            cfg = SolverConfig(method=method, maxiter=10, pure=True,
                               stop_tol=1e-4 if method == "hybrid_lslu" else None)
            with reductions.track() as counter:
                runner(cop, gravity32.b, cfg)
            assert counter.count == 0
            assert counter.by_length == {}

    def test_counter_is_live(self, gravity32):
        with reductions.track() as counter:
            run_lslu(gravity32.op, gravity32.b,
                     SolverConfig(method="lslu", maxiter=5))
        assert counter.count > 0  # history norms are counted when enabled

    def test_baseline_recurrence_needs_reductions(self, gravity32):
        with reductions.track() as counter:
            run_lsqr(gravity32.op, gravity32.b,
                     SolverConfig(method="lsqr", maxiter=5, pure=True))
        assert counter.count > 0
        assert 32 in counter.by_length

    def test_optimal_rule_norms_are_counted(self, gravity32):
        # the error-optimal selector genuinely needs full-length norms;
        # the counter must expose that even in pure mode
        cfg = SolverConfig(method="hybrid_lslu", maxiter=3, pure=True,
                           lambda_rule=LambdaRule.optimal(gravity32.x_true))
        with reductions.track() as counter:
            run_hybrid_lslu(gravity32.op, gravity32.b, cfg)
        assert counter.count > 0

    def test_pure_mode_work_pattern(self, gravity32):
        cop = CountingOperator(gravity32.op)
        run_lslu(cop, gravity32.b, SolverConfig(method="lslu", maxiter=10,
                                                pure=True))
        assert cop.n_forward == 10  # one per iteration, none for reporting
        assert cop.n_adjoint == 10

    def test_post_hoc_histories_match_reporting_mode(self, gravity32):
        from lslu import compute_histories
        res_pure = run_lslu(gravity32.op, gravity32.b,
                            SolverConfig(method="lslu", maxiter=10, pure=True))
        res_live = run_lslu(gravity32.op, gravity32.b,
                            SolverConfig(method="lslu", maxiter=10,
                                         track_truth=gravity32.x_true))
        resid, relerr = compute_histories(res_pure, gravity32.op, gravity32.b,
                                          x_true=gravity32.x_true)
        assert resid == res_live.residual_norms
        assert relerr == res_live.relative_errors


def test_solve_dispatch(gravity32):
    cfg = SolverConfig(method="lsqr", maxiter=5)
    res = solve(gravity32.op, gravity32.b, cfg)
    assert res.k_reached == 5


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="cg")
    with pytest.raises(ValueError):
        SolverConfig(method="lslu", maxiter=0)
    with pytest.raises(ValueError):
        SolverConfig(method="hybrid_lslu", stop_tol=0.0)


@pytest.mark.parametrize("maxiter", [2.5, 3.0, True, False, "3", None, 0, -2])
def test_maxiter_must_be_positive_integer(maxiter):
    # storage is sized from maxiter, so a float must not slip through and
    # run ceil(maxiter) iterations (or fail later inside an allocation)
    op = make_dense_operator(A22)
    with pytest.raises(ValueError, match="maxiter"):
        SolverConfig(method="lslu", maxiter=maxiter)
    with pytest.raises(ValueError, match="maxiter"):
        hess_run(op, [1.0, 1.0], maxiter=maxiter)
    with pytest.raises(ValueError, match="maxiter"):
        gk_run(op, [1.0, 1.0], maxiter=maxiter)


def test_numpy_integer_maxiter_accepted(gravity32):
    res = run_lslu(gravity32.op, gravity32.b,
                   SolverConfig(method="lslu", maxiter=np.int64(4)))
    assert res.k_reached == 4
    assert hess_run(gravity32.op, gravity32.b, maxiter=np.int32(4)).k == 4
    assert gk_run(gravity32.op, gravity32.b, maxiter=np.int32(4)).k == 4


@pytest.mark.parametrize("stop_tol", [float("nan"), float("inf"), -float("inf"),
                                      0.0, -1e-4])
def test_stop_tol_must_be_finite_positive(stop_tol):
    with pytest.raises(ValueError, match="stop_tol"):
        SolverConfig(method="hybrid_lslu", stop_tol=stop_tol)
