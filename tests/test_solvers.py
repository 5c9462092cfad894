import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.linalg import hadamard

from lslu import (InputError, LambdaRule, LinearOperator, PivotStrategy,
                  SolverConfig, build_uq, gk_init, gk_run, hess_init,
                  hess_run, compute_histories, ghat, make_dense_operator, run_hybrid_lslu,
                  run_hybrid_lsqr, run_lslu, run_lsqr, solve, svd_small)
from lslu import reductions
from lslu.hessenberg import condition_number
from lslu.solvers import METHODS

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

    @pytest.mark.parametrize("family", ["lslu", "lsqr"])
    @pytest.mark.parametrize("problem", ["gravity64", "tomo16"])
    def test_fixed_zero_is_the_plain_method_bitwise(self, family, problem, request):
        # by k = 50 gravity64's projected matrix is numerically rank
        # deficient, and lam = 0 cuts it as the plain solve does
        prob = request.getfixturevalue(problem)
        res_h, res_p = (solve(prob.op, prob.b, SolverConfig(
            method, maxiter=50, lambda_rule=LambdaRule.fixed(0.0),
            track_truth=prob.x_true)) for method in (f"hybrid_{family}", family))
        np.testing.assert_array_equal(res_h.x_final, res_p.x_final)
        for key in ("ghats", "residual_norms", "relative_errors", "lambdas"):
            assert getattr(res_h, key) == getattr(res_p, key), key


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
            d_cols = state.D[:, :min(k + 1, state.residual_count)]
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


# the gravity operator applies its matrix by FFT from n = 512 on; the
# rounding that moves must leave every auto-stopped solve where dsymv's
# product on the same matrix leaves it
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fft_product_solves_as_dsymv(seed):
    from lslu import make_gravity_problem
    from lslu.operators import _make_symmetric_operator
    prob = make_gravity_problem(1024, noise_level=1e-2, seed=seed)
    dsymv_op = _make_symmetric_operator(prob.op.matrix)
    for method, pivot, rule in (
            ("hybrid_lslu", PivotStrategy.full(), LambdaRule.gcv()),
            ("hybrid_lslu", PivotStrategy.full(), LambdaRule.wgcv()),
            ("hybrid_lslu", PivotStrategy.sampled(50, seed=seed), LambdaRule.wgcv()),
            ("hybrid_lsqr", PivotStrategy.full(), LambdaRule.wgcv())):
        cfg = SolverConfig(method=method, maxiter=40, pivot=pivot, lambda_rule=rule,
                           stop_tol=1e-4)
        fft, ref = solve(prob.op, prob.b, cfg), solve(dsymv_op, prob.b, cfg)
        assert fft.k_stop == ref.k_stop, (method, rule.kind)
        assert (np.linalg.norm(fft.x_final - ref.x_final)
                <= 1e-6 * np.linalg.norm(ref.x_final)), (method, rule.kind)


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


def test_concurrent_solves_share_nothing(gravity32, tomo16):
    # hybrid LSLU solves of two problems, two threads each, started together
    # and switched often, give the bits of the same solves run alone, and
    # so do the UQ and kappa each thread reads off its own state
    problems = {"gravity32": gravity32, "tomo16": tomo16}
    config = SolverConfig(method="hybrid_lslu", maxiter=30)

    def outputs(res):
        # the solve, then a UQ build and a kappa from the state's R factors
        st = res.state
        uq = build_uq(st, 0.3, 1e-2)
        kappa = condition_number(st.r_factor("residual"), st.r_factor("solution"))
        return [np.asarray(a).tobytes() for a in (
            res.x_final, res.lambdas, res.ghats, res.residual_norms,
            st.L, st.D, st.H, st.W, st.t, st.g, uq.Z, uq.spectrum, uq.Delta)] + [
            res.k_stop, res.stop_reason, kappa]

    alone = {name: outputs(solve(p.op, p.b, config)) for name, p in problems.items()}
    names = [name for name in problems for _ in range(2)]
    start = threading.Barrier(len(names), timeout=60)
    together = [None] * len(names)

    def run(i):
        start.wait()
        p = problems[names[i]]
        together[i] = [outputs(solve(p.op, p.b, config)) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(names))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for name, runs in zip(names, together):
        assert runs is not None and all(run == alone[name] for run in runs), name


@pytest.mark.parametrize("rule", ["gcv", "wgcv"])
@pytest.mark.parametrize("c", [2.0**-664, 2.0**664])
def test_pure_hybrid_lslu_is_scale_free(gravity32, rule, c):
    # A and b scaled by a power of two near 1e+-200: the same iterate, and
    # every lambda scaled by c; the search, the filter and the stopping
    # function raise nothing and warn of nothing.  Both operators are
    # dense ones, so their products round alike.
    A = gravity32.op.matrix
    cfg = SolverConfig("hybrid_lslu", maxiter=20, lambda_rule=LambdaRule(kind=rule),
                       pure=True)
    ref = run_hybrid_lslu(make_dense_operator(A), gravity32.b, cfg)
    res = run_hybrid_lslu(make_dense_operator(c * A), c * gravity32.b, cfg)
    assert res.k_stop == ref.k_stop == 20
    assert (np.linalg.norm(res.x_final - ref.x_final)
            <= 1e-12 * np.linalg.norm(ref.x_final))
    np.testing.assert_allclose(res.lambdas, c * np.array(ref.lambdas), rtol=1e-12)
    # the reported stopping function's factor beta * beta overflows at
    # 2^664 and underflows to 0 at 2^-664 (stopping reads it without)
    if c > 1:
        assert not any(np.isfinite(res.ghats))
    else:
        assert res.ghats == [0.0] * 20


@pytest.mark.parametrize("rule", ["gcv", "wgcv"])
@pytest.mark.parametrize("c", [2.0**-664, 2.0**664])
def test_stop_tol_is_scale_free(gravity32, rule, c):
    # stop_tol reads the beta-free stopping function, so it stops a solve
    # scaled near 1e+-200 where the one at scale 1 stops, although the
    # reported ghats, beta * beta times it, read 0 or inf there
    A = gravity32.op.matrix
    cfg = SolverConfig("hybrid_lslu", maxiter=30, lambda_rule=LambdaRule(kind=rule),
                       stop_tol=1e-4, pure=True)
    ref = run_hybrid_lslu(make_dense_operator(A), gravity32.b, cfg)
    res = run_hybrid_lslu(make_dense_operator(c * A), c * gravity32.b, cfg)
    assert ref.stop_reason == res.stop_reason == "ghat_tol"
    assert res.k_stop == ref.k_stop < 30
    # the reported value at scale 1 is the stopping function at beta
    assert ref.ghats[-1] == ghat(svd_small(ref.state.projected_matrix),
                                 ref.state.beta, ref.lambdas[-1], *A.shape)


@pytest.mark.parametrize("method, rule", [("lsqr", "gcv"), ("hybrid_lsqr", "gcv"),
                                          ("hybrid_lsqr", "wgcv")])
@pytest.mark.parametrize("c", [2.0**-664, 2.0**664])
def test_lsqr_family_is_scale_free(gravity32, method, rule, c):
    # the counted 2-norms rescale a vector whose sum of squares under- or
    # overflows, so A and b scaled near 1e+-200 give the same iterate,
    # lambdas and residual norms scaled by c, and no warning of any kind
    A = gravity32.op.matrix
    cfg = SolverConfig(method, maxiter=20, lambda_rule=LambdaRule(kind=rule))
    ref = solve(make_dense_operator(A), gravity32.b, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(make_dense_operator(c * A), c * gravity32.b, cfg)
    assert (res.k_stop, res.stop_reason) == (ref.k_stop, ref.stop_reason) == (20, "maxiter")
    assert (np.linalg.norm(res.x_final - ref.x_final)
            <= 1e-12 * np.linalg.norm(ref.x_final))
    np.testing.assert_allclose(res.lambdas, c * np.array(ref.lambdas), rtol=1e-12)
    np.testing.assert_allclose(res.residual_norms, c * np.array(ref.residual_norms),
                               rtol=1e-12)


@pytest.mark.parametrize("rule", ["gcv", "wgcv"])
@pytest.mark.parametrize("c", [2.0**-664, 2.0**664])
def test_hybrid_lsqr_stop_tol_is_scale_free(gravity32, rule, c):
    A = gravity32.op.matrix
    cfg = SolverConfig("hybrid_lsqr", maxiter=30, lambda_rule=LambdaRule(kind=rule),
                       stop_tol=1e-4)
    ref = solve(make_dense_operator(A), gravity32.b, cfg)
    res = solve(make_dense_operator(c * A), c * gravity32.b, cfg)
    assert ref.stop_reason == res.stop_reason == "ghat_tol"
    assert res.k_stop == ref.k_stop < 30


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
        for method, runner in (("lslu", run_lslu), ("hybrid_lslu", run_hybrid_lslu)):
            cfg = SolverConfig(method=method, maxiter=10, pure=True,
                               stop_tol=1e-4 if method == "hybrid_lslu" else None)
            with reductions.track() as counter:
                runner(gravity32.op, gravity32.b, cfg)
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

    def test_counts_stay_in_their_thread(self, gravity32):
        # one thread holds track() open while another runs an LSQR solve,
        # untracked; the first must count none of the solve's reductions
        # or operator products
        opened, solved = threading.Event(), threading.Event()
        seen = []

        def holder():
            with reductions.track() as counter:
                opened.set()
                solved.wait(60)
            seen.append((counter.count, counter.forward, counter.adjoint))

        def solver():
            opened.wait(60)
            run_lsqr(gravity32.op, gravity32.b,
                     SolverConfig(method="lsqr", maxiter=5, pure=True))
            solved.set()

        threads = [threading.Thread(target=f) for f in (holder, solver)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert solved.is_set() and seen == [(0, 0, 0)]

    def test_interleaved_trackers_keep_their_counts(self, gravity32):
        # thread A opens its tracker, B opens its own, A closes, then B
        # solves: B's counter gets the whole solve and A's stays empty
        config = SolverConfig(method="lsqr", maxiter=5, pure=True)
        with reductions.track() as expected:
            run_lsqr(gravity32.op, gravity32.b, config)
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))
        counts = {}

        def thread_a():
            with reductions.track() as counter:
                a_open.set()
                b_open.wait(60)
            counts["a"] = counter.count
            a_closed.set()

        def thread_b():
            a_open.wait(60)
            with reductions.track() as counter:
                b_open.set()
                a_closed.wait(60)
                run_lsqr(gravity32.op, gravity32.b, config)
            counts["b"] = counter.count

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert counts == {"a": 0, "b": expected.count} and expected.count > 0

    def test_pure_mode_work_pattern(self, gravity32):
        config = SolverConfig(method="lslu", maxiter=10, pure=True)
        with reductions.track() as counter:
            run_lslu(gravity32.op, gravity32.b, config)
        assert counter.forward == 10  # one per iteration, none for reporting
        assert counter.adjoint == 10

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_lsqr_counts_every_long_reduction(self, k):
        # pure hybrid LSQR on tomo n=24: per iteration two operator-image
        # norms and the alpha and beta that the Gram-Schmidt passes leave,
        # plus beta_1; one block product per half-step after the first, as
        # no second pass fires here.  Hybrid LSLU takes no block product.
        from lslu import make_tomo_problem
        prob = make_tomo_problem(24, noise_level=1e-2, seed=0)
        with reductions.track() as counter:
            res = run_hybrid_lsqr(prob.op, prob.b, SolverConfig(
                "hybrid_lsqr", maxiter=k, pure=True))
        assert res.k_reached == k
        assert counter.count == 4 * k + 1
        assert counter.blocks == 2 * k - 1
        assert counter.forward == counter.adjoint == k
        with reductions.track() as counter:
            run_hybrid_lslu(prob.op, prob.b, SolverConfig(
                "hybrid_lslu", maxiter=k, pure=True))
        assert (counter.count, counter.blocks) == (0, 0)

    def test_post_hoc_histories_match_reporting_mode(self, gravity32):
        from lslu import compute_histories
        res_pure = run_lslu(gravity32.op, gravity32.b,
                            SolverConfig(method="lslu", maxiter=10, pure=True))
        res_live = run_lslu(gravity32.op, gravity32.b,
                            SolverConfig(method="lslu", maxiter=10,
                                         track_truth=gravity32.x_true))
        resid, relerr = compute_histories(res_pure, x_true=gravity32.x_true)
        assert resid == res_live.residual_norms
        assert relerr == res_live.relative_errors


class TestReportingFromFactorization:
    @pytest.mark.parametrize("method", ["hybrid_lslu", "hybrid_lsqr"])
    @pytest.mark.parametrize("pure", [False, True])
    def test_one_forward_and_one_adjoint_per_iteration(self, gravity32, method,
                                                       pure):
        # reporting reads residuals off the factorization, so it adds no
        # operator product to the K of each kind the recurrence makes
        with reductions.track() as counter:
            res = solve(gravity32.op, gravity32.b, SolverConfig(
                method, maxiter=10, pure=pure, track_truth=gravity32.x_true))
        assert res.k_reached == 10
        assert len(res.residual_norms) == (0 if pure else 10)
        assert (counter.forward, counter.adjoint) == (10, 10)

    @staticmethod
    def _exact_problem():
        # r0 = b - A x0 lies in the span of 3 left singular vectors, so
        # both recurrences end in exact_solution at k = 3 with only 3
        # residual-basis columns; Hadamard factors keep A, b and r0 exact
        m, n = 16, 8
        matrix = (hadamard(m)[:, :n] @ np.diag([8.0, 6, 4, 3, 2, 1.5, 1, 0.5])
                  @ hadamard(n).T)
        x0 = np.arange(1.0, n + 1)
        b = matrix @ x0 + hadamard(m)[:, :3] @ np.array([3.0, -2.0, 1.0])
        return matrix, b, x0

    @pytest.mark.parametrize("method", ["lslu", "hybrid_lslu", "lsqr", "hybrid_lsqr"])
    @pytest.mark.parametrize("pivot", [PivotStrategy.none(), PivotStrategy.full(),
                                       PivotStrategy.sampled(5, seed=2)],
                             ids=["none", "full", "sampled"])
    def test_residuals_match_direct_evaluation(self, method, pivot):
        matrix, b, x0 = self._exact_problem()
        res = solve(make_dense_operator(matrix), b,
                    SolverConfig(method, maxiter=20, x0=x0, pivot=pivot))
        state = res.state
        assert state.breakdown == "exact_solution"
        assert state.residual_basis.shape[1] == state.k == res.k_reached == 3
        a_fro = np.linalg.norm(matrix, "fro")
        for k, (reported, y) in enumerate(zip(res.residual_norms, res.ys), 1):
            x = x0 + state.solution_basis[:, :k] @ y
            direct = np.linalg.norm(b - matrix @ x)
            tol = 1e-12 * (np.linalg.norm(b) + a_fro * np.linalg.norm(x))
            assert abs(reported - direct) <= tol, k


def _poisoned(matrix, which, call):
    """Dense operator whose `which` map returns NaNs on its call-th application."""
    calls = {"forward": 0, "adjoint": 0}

    def apply(name, mat, v):
        calls[name] += 1
        out = mat @ v
        return np.full_like(out, np.nan) if name == which and calls[name] == call else out

    return LinearOperator(*matrix.shape, lambda x: apply("forward", matrix, x),
                          lambda y: apply("adjoint", matrix.T, y))


@pytest.mark.parametrize("init", [hess_init, gk_init], ids=["hessenberg", "golub_kahan"])
class TestInputsCheckedAtInit:
    @pytest.mark.parametrize("b", [[1.0, 2.0, 3.0], [1.0], [[1.0], [2.0]]])
    def test_wrong_length_b(self, init, b):
        with pytest.raises(ValueError, match=r"b must be a vector of length 2"):
            init(make_dense_operator(A22), b)

    @pytest.mark.parametrize("x0", [np.zeros(3), np.ones(3), np.ones((2, 1))])
    def test_wrong_length_x0(self, init, x0):
        with pytest.raises(ValueError, match=r"x0 must be a vector of length 2"):
            init(make_dense_operator(A22), [1.0, 2.0], x0=x0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_b(self, init, bad):
        with pytest.raises(ValueError, match="b has non-finite entries"):
            init(make_dense_operator(A22), [1.0, bad])
        with pytest.raises(ValueError, match="b has non-finite entries"):
            init(make_dense_operator(A22), [1.0, bad], x0=[1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x0(self, init, bad):
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            init(make_dense_operator(A22), [1.0, 2.0], x0=[bad, 0.0])

    def test_non_finite_forward_at_x0(self, init):
        op = _poisoned(A22, "forward", 1)
        with pytest.raises(ValueError, match="forward map returned non-finite "
                                             "values at x0"):
            init(op, [1.0, 2.0], x0=[1.0, 0.0])

    def test_initial_residual_overflow(self, init):
        # A x0 is finite and b - A x0 is not: named as such, with no warning
        op = make_dense_operator([[1e308, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the initial residual b - A x0 "
                                                 "overflows$"):
                init(op, [-1e308, 1.0], x0=[1.0, 0.0])

    def test_initial_residual_scale_overflow(self, init):
        # b is finite but its 2-norm, Golub-Kahan's scale, is not; the
        # Hessenberg scale, a coordinate maximum, is
        op, b = make_dense_operator(np.eye(2)), [1.7e308, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if init is hess_init:
                assert init(op, b).beta == 1.7e308
            else:
                with pytest.raises(ValueError, match="^the scale of the initial "
                                                     "residual b - A x0 overflows$"):
                    init(op, b)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("which,call", [("adjoint", 1), ("adjoint", 3),
                                        ("forward", 2)])
def test_non_finite_operator_image_named(gravity32, method, which, call):
    op = _poisoned(gravity32.op.to_dense(), which, call)
    with pytest.raises(ValueError, match=f"the {which} map returned non-finite "
                                         f"values at iteration {call}"):
        solve(op, gravity32.b, SolverConfig(method, maxiter=6))


@pytest.mark.parametrize("method", METHODS)
def test_bad_inputs_reach_the_caller_from_solve(gravity32, method):
    b = gravity32.b.copy()
    b[3] = np.nan
    with pytest.raises(ValueError, match="b has non-finite entries"):
        solve(gravity32.op, b, SolverConfig(method, maxiter=4))
    with pytest.raises(ValueError, match="b must be a vector of length 32"):
        solve(gravity32.op, gravity32.b[:-1], SolverConfig(method, maxiter=4))
    with pytest.raises(ValueError, match="x0 must be a vector of length 32"):
        solve(gravity32.op, gravity32.b,
              SolverConfig(method, maxiter=4, x0=np.zeros(31)))


_NAN_TRUTH = np.ones(32)
_NAN_TRUTH[16] = np.nan
_INF_TRUTH = np.ones(32)
_INF_TRUTH[-1] = -np.inf
# truths for a 32-column operator that a solve must reject, and the message
BAD_TRUTHS = [
    pytest.param(np.ones(1), "must be a vector of length 32", id="length-1"),
    pytest.param(np.ones(33), "must be a vector of length 32", id="length-n+1"),
    pytest.param(np.ones((32, 1)), "must be a vector of length 32", id="column"),
    pytest.param(_NAN_TRUTH, "has non-finite entries", id="nan"),
    pytest.param(_INF_TRUTH, "has non-finite entries", id="inf"),
]


@pytest.mark.parametrize("truth, message", BAD_TRUTHS)
@pytest.mark.parametrize("method", METHODS)
def test_bad_track_truth_named_before_any_product(gravity32, method, truth, message):
    with reductions.track() as counter, pytest.raises(
            ValueError, match=f"track_truth {message}"):
        solve(gravity32.op, gravity32.b,
              SolverConfig(method, maxiter=4, track_truth=truth))
    assert counter.forward == counter.adjoint == 0


@pytest.mark.parametrize("truth, message", BAD_TRUTHS)
@pytest.mark.parametrize("method", ["hybrid_lslu", "hybrid_lsqr"])
def test_bad_optimal_rule_truth_named_before_any_product(gravity32, method, truth,
                                                         message):
    # the rule itself rejects a truth that is not a finite 1-D vector; the
    # solve rejects one of the wrong length
    if np.ndim(truth) != 1:
        message = "must be a 1-D vector"
    with reductions.track() as counter, pytest.raises(
            ValueError, match=f"x_true {message}"):
        config = SolverConfig(method, maxiter=4, lambda_rule=LambdaRule.optimal(truth))
        solve(gravity32.op, gravity32.b, config)
    assert counter.forward == counter.adjoint == 0


@pytest.mark.parametrize("truth, message", BAD_TRUTHS)
def test_bad_truth_rejected_by_compute_histories(gravity32, truth, message):
    res = solve(gravity32.op, gravity32.b,
                SolverConfig("hybrid_lslu", maxiter=4, pure=True))
    with pytest.raises(ValueError, match=f"x_true {message}"):
        compute_histories(res, truth)


def test_solve_dispatch(gravity32):
    cfg = SolverConfig(method="lsqr", maxiter=5)
    res = solve(gravity32.op, gravity32.b, cfg)
    assert res.k_reached == 5


@pytest.mark.parametrize("run, method", [
    (run_lslu, "lslu"), (run_hybrid_lslu, "hybrid_lslu"), (run_lsqr, "lsqr"),
    (run_hybrid_lsqr, "hybrid_lsqr")])
def test_run_wrappers_take_only_their_method(gravity32, run, method):
    # a wrapper solves its own method, with or without a config, and
    # rejects a config of another method rather than run it as its own
    op, b = gravity32.op, gravity32.b
    for config in (SolverConfig(method, maxiter=5), None):
        ran = run(op, b, config)
        fresh = solve(op, b, config or SolverConfig(method))
        assert ran.x_final.tobytes() == fresh.x_final.tobytes()
        assert ran.stop_reason == fresh.stop_reason
    with reductions.track() as counter:
        for other in METHODS:
            if other != method:
                message = f"^method must be '{method}' for run_{method}, got '{other}'$"
                with pytest.raises(InputError, match=message) as info:
                    run(op, b, SolverConfig(other, maxiter=5))
                assert info.value.name == "method"
    assert (counter.forward, counter.adjoint) == (0, 0)


def test_projected_pass_goes_through_the_module_names(gravity32, monkeypatch):
    # a tracer outside the package wraps these names too; solve and
    # replay must look them up when they call, once per iteration
    import lslu.solvers
    calls = []
    names = ("svd_small", "select_lambda", "tikhonov_projected", "ghat", "stop_check")
    for name in names:
        def wrapped(*args, _inner=getattr(lslu.solvers, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(lslu.solvers, name, wrapped)
    config = SolverConfig("hybrid_lslu", maxiter=4, stop_tol=1e-12)
    res = solve(gravity32.op, gravity32.b, config)
    assert res.k_stop == 4
    # stop_check from the second ghat on
    expected = [name for k in range(1, 5) for name in names[:4 + (k > 1)]]
    assert calls == expected
    calls.clear()
    lslu.solvers.replay(res.state, config)
    assert calls == expected


@pytest.mark.parametrize("method", METHODS)
def test_tall_problem_stops_when_the_solution_space_is_spanned(method):
    # at k = n the step flags rank_deficient before any operator product,
    # so the run takes exactly one adjoint product per column
    rng = np.random.default_rng(2)
    op = make_dense_operator(rng.standard_normal((14, 9)))
    with reductions.track() as counter:
        res = solve(op, rng.standard_normal(14), SolverConfig(method, maxiter=200))
    assert res.stop_reason == "breakdown" and res.k_stop == 9
    assert res.state.breakdown == "rank_deficient"
    assert counter.adjoint == 9


def test_steps_go_through_the_module_names(gravity32, monkeypatch):
    # a tracer outside the package wraps these names; solve, hess_run and
    # gk_run must look them up when they call, once per init and step
    import lslu.golub_kahan
    import lslu.hessenberg
    import lslu.solvers
    calls = []

    def counting(module, name):
        inner = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for name in ("hess_init", "hess_step", "gk_init", "gk_step"):
        counting(lslu.solvers, name)
    for name in ("hess_init", "hess_step"):
        counting(lslu.hessenberg, name)
    for name in ("gk_init", "gk_step"):
        counting(lslu.golub_kahan, name)

    op, b = gravity32.op, gravity32.b
    runs = [(lambda: solve(op, b, SolverConfig("hybrid_lslu", maxiter=5)),
             "lslu.solvers.hess"),
            (lambda: solve(op, b, SolverConfig("lsqr", maxiter=5)),
             "lslu.solvers.gk"),
            (lambda: hess_run(op, b, maxiter=5), "lslu.hessenberg.hess"),
            (lambda: gk_run(op, b, maxiter=5), "lslu.golub_kahan.gk")]
    for run, prefix in runs:
        calls.clear()
        run()
        assert calls == [f"{prefix}_init"] + [f"{prefix}_step"] * 5


@pytest.mark.parametrize("method, stop_tol", [(method, None) for method in METHODS]
                         + [("hybrid_lslu", 1e-12), ("hybrid_lsqr", 1e-12)])
def test_steps_and_projected_svds_in_order(gravity32, method, stop_tol, monkeypatch):
    # without a stop test every step comes before the pass, so the two do
    # not evict each other's data from cache at every iteration; with one
    # the pass takes each step's k, so no step runs past the stop
    import lslu.solvers
    calls = []
    for name in ("hess_step", "gk_step", "svd_small"):
        def wrapped(*args, _inner=getattr(lslu.solvers, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(lslu.solvers, name, wrapped)
    res = solve(gravity32.op, gravity32.b,
                SolverConfig(method, maxiter=6, stop_tol=stop_tol))
    step = "hess_step" if method.endswith("lslu") else "gk_step"
    assert res.k_stop == 6
    assert calls == ([step, "svd_small"] * 6 if stop_tol
                     else [step] * 6 + ["svd_small"] * 6)


@pytest.mark.parametrize("problem", ["gravity256", "tomo32"])
def test_a_stopped_solve_takes_no_step_past_its_stop(request, problem):
    # the stop test runs as the state grows, so a ghat_tol stop leaves the
    # state at k_stop with one product of each kind per column; an
    # unpivoted run may instead end in a breakdown, which takes one more
    # adjoint product
    from lslu import make_gravity_problem
    prob = (make_gravity_problem(256, noise_level=1e-2, seed=0)
            if problem == "gravity256" else request.getfixturevalue(problem))
    runs = [("hybrid_lslu", pivot) for pivot in (
        PivotStrategy.none(), PivotStrategy.full(), PivotStrategy.sampled(50, seed=0))]
    runs.append(("hybrid_lsqr", PivotStrategy.full()))
    for method, pivot in runs:
        for rule in (LambdaRule.gcv(), LambdaRule.wgcv(), LambdaRule.fixed(0.01)):
            with reductions.track() as counter:
                res = solve(prob.op, prob.b, SolverConfig(
                    method, maxiter=100, pivot=pivot, lambda_rule=rule, stop_tol=1e-4))
            assert res.stop_reason == "ghat_tol" or pivot.kind == "none"
            if res.stop_reason == "ghat_tol":
                assert (counter.forward == counter.adjoint == res.k_stop
                        == res.state.k < 100)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="cg")
    with pytest.raises(ValueError):
        SolverConfig(method="lslu", maxiter=0)
    with pytest.raises(ValueError):
        SolverConfig(method="hybrid_lslu", stop_tol=0.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"pivot": "full"}, "pivot must be a PivotStrategy, got 'full'"),
    ({"pivot": None}, "pivot must be a PivotStrategy, got None"),
    ({"lambda_rule": "gcv"}, "lambda_rule must be a LambdaRule, got 'gcv'"),
])
def test_config_objects_checked_when_built(kwargs, message):
    # a kind's name in place of its object would fail only inside the
    # first step, on the missing .kind
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig("hybrid_lslu", 5, **kwargs)


@pytest.mark.parametrize("method", ["lslu", "lsqr"])
def test_stop_tol_rejected_for_plain_methods(method):
    # a plain method has no automatic stop: the tolerance is rejected,
    # not ignored
    with pytest.raises(ValueError, match="^stop_tol only applies to the hybrid methods$"):
        SolverConfig(method, 30, stop_tol=1e-4)


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
    for init in (hess_init, gk_init):
        with pytest.raises(ValueError, match="maxiter"):
            init(op, [1.0, 1.0], maxiter=maxiter)


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
