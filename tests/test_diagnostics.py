import re

import numpy as np
import pytest

from lslu import (KrylovState, LambdaRule, PivotStrategy, SolverConfig, gk_run,
                  hess_init, hess_run, make_dense_operator, relation_residuals,
                  plain_bound_report, hybrid_bound_report, solve)
from lslu.hessenberg import condition_number, qr_r


class TestPlainBounds:
    def test_identity_equality_case(self):
        op = make_dense_operator(np.eye(2))
        report = plain_bound_report(op, np.array([1.0, 0.0]), 5)
        assert report.iterations == [1]
        assert report.kappa[0] == pytest.approx(1.0, abs=1e-12)
        assert report.r_lu[0] <= 1e-14 and report.r_qr[0] <= 1e-14
        assert report.all_ok()

    def test_random_60x40(self):
        rng = np.random.default_rng(21)
        op = make_dense_operator(rng.standard_normal((60, 40)))
        report = plain_bound_report(op, rng.standard_normal(60), 20)
        assert len(report.iterations) == 20
        assert report.all_ok()

    def test_gravity40_flags_and_kappa_growth(self):
        from lslu import make_gravity_problem
        prob = make_gravity_problem(40, noise_level=1e-2, seed=3)
        report = plain_bound_report(prob.op, prob.b, 15)
        assert len(report.iterations) == 15
        assert report.all_ok()
        kappas = np.array(report.kappa)
        assert np.all(np.diff(kappas) >= -1e-8 * kappas[:-1])


class TestKappaFromOneQr:
    @pytest.mark.parametrize("pivot", [PivotStrategy.full(), PivotStrategy.none()])
    def test_plain_matches_a_qr_per_iteration(self, gravity64, pivot):
        report = plain_bound_report(gravity64.op, gravity64.b, 15, pivot=pivot)
        state = hess_run(gravity64.op, gravity64.b, strategy=pivot, maxiter=15)
        for k, kap in zip(report.iterations, report.kappa):
            # rounding in R perturbs its singular values by about eps ||R||
            rel = 100 * np.finfo(float).eps * kap
            assert kap == pytest.approx(condition_number(qr_r(state.D[:, :k + 1])),
                                        rel=rel)

    def test_hybrid_matches_the_block_singular_values(self, gravity64):
        report = hybrid_bound_report(gravity64.op, gravity64.b, 0.1, 15)
        state = hess_run(gravity64.op, gravity64.b, maxiter=15)
        for k, kap in zip(report.iterations, report.kappa):
            sigma = np.concatenate([np.linalg.svd(block, compute_uv=False) for block
                                    in (state.D[:, :k + 1], state.L[:, :k])])
            rel = 100 * np.finfo(float).eps * kap
            assert kap == pytest.approx(sigma.max() / sigma.min(), rel=rel)


class TestHybridBounds:
    @pytest.mark.parametrize("lam", [0.01, 0.1])
    def test_gravity64(self, gravity64, lam):
        report = hybrid_bound_report(gravity64.op, gravity64.b, lam, 15)
        assert len(report.iterations) == 15
        assert report.all_ok()

    def test_random_30x20(self):
        rng = np.random.default_rng(22)
        op = make_dense_operator(rng.standard_normal((30, 20)))
        report = hybrid_bound_report(op, rng.standard_normal(30), 0.1, 10)
        assert len(report.iterations) == 10
        assert report.all_ok()

    def test_huge_lambda_ratio_one(self):
        rng = np.random.default_rng(5)
        op = make_dense_operator(rng.standard_normal((30, 20)))
        report = hybrid_bound_report(op, rng.standard_normal(30), 1e6, 8)
        assert report.all_ok()
        for lu, qr in zip(report.r_lu, report.r_qr):
            assert lu / qr == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("pivot", [PivotStrategy.full(), PivotStrategy.sampled(10)])
    def test_stacked_residuals_match_direct_evaluation(self, gravity32, pivot):
        lam, maxiter = 0.1, 12
        op, b = gravity32.op, gravity32.b
        a_fro = np.linalg.norm(op.to_dense(), "fro")
        report = hybrid_bound_report(op, b, lam, maxiter, pivot=pivot)
        for method, reported in (("hybrid_lslu", report.r_lu),
                                 ("hybrid_lsqr", report.r_qr)):
            res = solve(op, b, SolverConfig(method, maxiter, pivot=pivot,
                                            lambda_rule=LambdaRule.fixed(lam)))
            assert len(reported) == len(report.iterations)
            for k, value in zip(report.iterations, reported):
                # the report's residual comes from the factorization, so it
                # matches a fresh b - A x_k to rounding, not bit for bit
                x = res.state.x0 + res.state.solution_basis[:, :k] @ res.ys[k - 1]
                direct = np.hypot(np.linalg.norm(b - op.forward(x)),
                                  lam * np.linalg.norm(x))
                tol = 1e-12 * (np.linalg.norm(b) + a_fro * np.linalg.norm(x))
                assert abs(value - direct) <= tol, (method, k)

    def test_pivot_must_be_a_pivot_strategy(self, gravity32):
        op, b = gravity32.op, gravity32.b
        for report in (lambda: plain_bound_report(op, b, 4, pivot="full"),
                       lambda: hybrid_bound_report(op, b, 0.1, 4, pivot="full")):
            with pytest.raises(ValueError,
                               match="^pivot must be a PivotStrategy, got 'full'$"):
                report()

    def test_nonpositive_lambda_rejected(self, gravity32):
        with pytest.raises(ValueError):
            hybrid_bound_report(gravity32.op, gravity32.b, 0.0, 5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    def test_bad_lambda_named(self, gravity32, lam):
        message = f"lam must be finite and positive, got {lam!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            hybrid_bound_report(gravity32.op, gravity32.b, lam, 5)


class TestRelationResiduals:
    def test_worked_example_exact(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        op = make_dense_operator(matrix)
        state = hess_run(op, [1.0, 1.0], strategy=PivotStrategy.none(),
                         maxiter=2)
        rho1, rho2 = relation_residuals(state, op)
        assert rho1 <= 1e-14
        assert rho2 <= 1e-14

    def test_gravity_scaled_bound(self, gravity64):
        state = hess_run(gravity64.op, gravity64.b, maxiter=15)
        rho1, rho2 = relation_residuals(state, gravity64.op)
        matrix = gravity64.op.to_dense()
        scale = np.linalg.norm(matrix, "fro")
        assert rho1 <= 1e-10 * scale * np.linalg.norm(state.L, "fro")
        assert rho2 <= 1e-10 * scale * np.linalg.norm(state.D[:, :state.k], "fro")

    def test_fresh_state_rejected(self, gravity32):
        state = hess_init(gravity32.op, gravity32.b)
        with pytest.raises(ValueError):
            relation_residuals(state, gravity32.op)


class TestSharedInterface:
    """Both factorizations through the KrylovState names alone."""

    @pytest.fixture(scope="class", params=["gravity64", "tomo16"])
    def problem(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize("run", [hess_run, gk_run])
    def test_relations_through_uniform_names(self, problem, run):
        op = problem.op
        state = run(op, problem.b, maxiter=15)
        assert isinstance(state, KrylovState) and state.k == 15
        S, R = state.solution_basis, state.residual_basis
        M, C = state.projected_matrix, state.coupling
        assert S.shape == (op.ncols, 15) and R.shape == (op.nrows, 16)
        assert M.shape == (16, 15) and C.shape == (15, 15)
        matrix = op.to_dense()
        scale = np.linalg.norm(matrix, "fro")
        bound1 = 1e-10 * scale * np.linalg.norm(S, "fro")
        bound2 = 1e-10 * scale * np.linalg.norm(R[:, :15], "fro")
        assert np.linalg.norm(matrix @ S - R @ M, "fro") <= bound1
        assert np.linalg.norm(matrix.T @ R[:, :15] - S @ C, "fro") <= bound2
        rho1, rho2 = relation_residuals(state, op)
        assert rho1 <= bound1 and rho2 <= bound2

    def test_paper_names_are_the_uniform_views(self, problem):
        hs = hess_run(problem.op, problem.b, maxiter=15)
        gs = gk_run(problem.op, problem.b, maxiter=15)
        pairs = ((hs.L, hs.solution_basis), (hs.D, hs.residual_basis),
                 (hs.H, hs.projected_matrix), (hs.W, hs.coupling),
                 (gs.V, gs.solution_basis), (gs.U, gs.residual_basis),
                 (gs.B, gs.projected_matrix), (gs.B[:15, :15].T, gs.coupling))
        for paper, uniform in pairs:
            assert paper.shape == uniform.shape and np.shares_memory(paper, uniform)
            assert np.array_equal(paper, uniform)
        assert np.array_equal(hs.W, np.triu(hs.W))


def test_kappa_qr_and_svd_routes_agree(gravity32):
    state = hess_run(gravity32.op, gravity32.b, maxiter=12)
    for k in range(1, state.residual_count):
        basis = state.D[:, :k + 1]
        assert condition_number(qr_r(basis)) == pytest.approx(
            condition_number(basis), rel=1e-8)
