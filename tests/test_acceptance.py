"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.
"""

import time

import numpy as np
import pytest

from lslu import (CountingOperator, LambdaRule, PivotStrategy, SolverConfig,
                  build_uq, build_uq_bidiag, covariance_sum, gcv_value, ghat,
                  gk_run, hess_run, make_dense_operator, make_gravity_problem,
                  make_tomo_problem, run_hybrid_lslu, run_hybrid_lsqr,
                  run_lslu, run_lsqr, svd_small, plain_bound_report,
                  hybrid_bound_report, wgcv_value, woodbury_delta)
from lslu import reductions

from test_projected import gcv_oracle, ghat_oracle, wgcv_oracle


def _report(num, text):
    print(f"[criterion {num:2d}] PASS - {text}")


# ---------------------------------------------------------------- suite

_STRATEGIES = {
    "none": PivotStrategy.none(),
    "full": PivotStrategy.full(),
    "sampled": PivotStrategy.sampled(25, seed=5),
}


@pytest.fixture(scope="module")
def suite():
    """Shared factorization suite over the three stock operators."""
    rng = np.random.default_rng(17)
    dense = rng.standard_normal((100, 80))
    cases = {
        "random_100x80": (make_dense_operator(dense), rng.standard_normal(100)),
    }
    grav = make_gravity_problem(64, noise_level=1e-2, seed=0)
    cases["gravity_64"] = (grav.op, grav.b)
    tomo = make_tomo_problem(16, noise_level=1e-2, seed=1)
    cases["tomo_16"] = (tomo.op, tomo.b)

    t0 = time.monotonic()
    states = {}
    for name, (op, b) in cases.items():
        for kind, strategy in _STRATEGIES.items():
            states[name, kind] = hess_run(op, b, strategy=strategy, maxiter=15)
    elapsed = time.monotonic() - t0
    return cases, states, elapsed


def test_criterion_01_exact_structural_invariants(suite):
    cases, states, elapsed = suite
    for (name, kind), state in states.items():
        for j in range(state.k):
            assert state.L[state.g[j], j] == 1.0, (name, kind, j)
            for i in range(j):
                assert state.L[state.g[i], j] == 0.0, (name, kind, i, j)
        for j in range(state.residual_count):
            assert state.D[state.t[j], j] == 1.0, (name, kind, j)
            for i in range(j):
                assert state.D[state.t[i], j] == 0.0, (name, kind, i, j)
    assert elapsed < 5.0
    _report(1, f"exact permuted unit-triangularity, 9 runs in {elapsed:.2f}s")


def test_criterion_02_factorization_relations(suite):
    cases, states, _ = suite
    for (name, kind), state in states.items():
        matrix = cases[name][0].to_dense()
        scale = np.linalg.norm(matrix, "fro")
        rho1 = np.linalg.norm(
            matrix @ state.L - state.D @ state.H[:state.residual_count, :], "fro")
        assert rho1 <= 1e-10 * scale * np.linalg.norm(state.L, "fro"), (name, kind)
        rho2 = np.linalg.norm(
            matrix.T @ state.D[:, :state.k] - state.L @ state.W, "fro")
        assert rho2 <= 1e-10 * scale * np.linalg.norm(state.D[:, :state.k],
                                                      "fro"), (name, kind)
    _report(2, "both factorization relations within 1e-10 * scale")


def test_criterion_03_krylov_span_equivalence():
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((12, 10))
    op = make_dense_operator(matrix)
    b = rng.standard_normal(12)
    state = hess_run(op, b, maxiter=50)
    P = [matrix.T @ b]
    C = [b.copy()]
    for _ in range(state.k):
        P.append(matrix.T @ (matrix @ P[-1]))
        C.append(matrix @ (matrix.T @ C[-1]))
    for k in range(1, state.k + 1):
        Pk = np.column_stack(P[:k])
        Pk = Pk / np.linalg.norm(Pk, axis=0)
        Ck = np.column_stack(C[:k])
        Ck = Ck / np.linalg.norm(Ck, axis=0)
        assert np.linalg.matrix_rank(np.hstack([state.L[:, :k], Pk])) == k
        assert np.linalg.matrix_rank(np.hstack([state.D[:, :k], Ck])) == k
    _report(3, f"span(L_k)=span(P_k), span(D_k)=span(C_k) for k=1..{state.k}")


def test_criterion_04_qmr_identity(suite):
    cases, _, _ = suite
    for name, (op, b) in cases.items():
        res = run_lslu(op, b, SolverConfig(method="lslu", maxiter=15))
        state = res.state
        matrix = op.to_dense()
        for k in range(1, res.k_reached + 1):
            x_k = state.L[:, :k] @ res.ys[k - 1]
            e1 = np.zeros(k + 1)
            e1[0] = 1.0
            lhs = np.linalg.norm(state.beta * e1
                                 - state.H[:k + 1, :k] @ res.ys[k - 1])
            d_cols = state.D[:, :min(k + 1, state.residual_count)]
            rhs = np.linalg.norm(np.linalg.pinv(d_cols) @ (b - matrix @ x_k))
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1e-30), (name, k)
    _report(4, "projected residual equals pseudoinverse-weighted residual")


def test_criterion_05_residual_sandwich_plain():
    rng = np.random.default_rng(21)
    op = make_dense_operator(rng.standard_normal((60, 40)))
    report = plain_bound_report(op, rng.standard_normal(60), 20)
    assert len(report.iterations) == 20 and report.all_ok()
    grav = make_gravity_problem(40, noise_level=1e-2, seed=3)
    report = plain_bound_report(grav.op, grav.b, 20)
    assert len(report.iterations) == 20 and report.all_ok()
    _report(5, "plain-method residual bounds hold for 20 iterations")


def test_criterion_06_residual_sandwich_hybrid():
    grav = make_gravity_problem(64, noise_level=1e-2, seed=0)
    rng = np.random.default_rng(22)
    rect = make_dense_operator(rng.standard_normal((30, 20)))
    rect_b = rng.standard_normal(30)
    for lam in (0.01, 0.1):
        report = hybrid_bound_report(grav.op, grav.b, lam, 15)
        assert report.all_ok(), lam
        report = hybrid_bound_report(rect, rect_b, lam, 10)
        assert report.all_ok(), lam
    _report(6, "hybrid stacked-residual bounds hold for lambda in {0.01, 0.1}")


def test_criterion_07_exact_solve_limit():
    rng = np.random.default_rng(11)
    for n in (6, 8, 10):
        matrix = rng.standard_normal((n, n)) + 4 * np.eye(n)
        op = make_dense_operator(matrix)
        b = rng.standard_normal(n)
        res = run_lslu(op, b, SolverConfig(method="lslu", maxiter=3 * n))
        assert res.stop_reason == "breakdown"
        assert np.linalg.norm(matrix @ res.x_final - b) <= 1e-8 * np.linalg.norm(b)

        lam = 1e-5
        res = run_hybrid_lslu(op, b, SolverConfig(
            method="hybrid_lslu", maxiter=n, lambda_rule=LambdaRule.fixed(lam)))
        x_tik = np.linalg.solve(matrix.T @ matrix + lam**2 * np.eye(n),
                                matrix.T @ b)
        assert np.linalg.norm(res.x_final - x_tik) <= 1e-6 * np.linalg.norm(x_tik)

        lam = 0.1
        res = run_hybrid_lsqr(op, b, SolverConfig(
            method="hybrid_lsqr", maxiter=n, lambda_rule=LambdaRule.fixed(lam)))
        x_tik = np.linalg.solve(matrix.T @ matrix + lam**2 * np.eye(n),
                                matrix.T @ b)
        assert np.linalg.norm(res.x_final - x_tik) <= 1e-6 * np.linalg.norm(x_tik)
    _report(7, "square systems: exact solve at breakdown, Tikhonov limit matches")


def test_criterion_08_selection_functions_match_trace_oracles():
    rng = np.random.default_rng(88)
    for _ in range(12):
        k = int(rng.integers(1, 9))
        H = rng.standard_normal((k + 1, k))
        svd = svd_small(H)
        beta = float(rng.standard_normal())
        m = k + int(rng.integers(1, 30))
        n = int(rng.integers(2, 30))
        for lam in (1e-3, 0.1, 1.0, 8.0):
            assert gcv_value(svd, beta, lam) == pytest.approx(
                gcv_oracle(H, beta, lam), rel=1e-10)
            for omega in (0.0, 0.25, 0.7, 1.0):
                assert wgcv_value(svd, beta, lam, omega) == pytest.approx(
                    wgcv_oracle(H, beta, lam, omega), rel=1e-10)
            assert ghat(svd, beta, lam, m, n) == pytest.approx(
                ghat_oracle(H, beta, lam, m, n), rel=1e-10)
            assert wgcv_value(svd, beta, lam, 1.0) == gcv_value(svd, beta, lam)
    _report(8, "GCV/wGCV/stopping closed forms match dense trace oracles")


def test_criterion_09_worked_micro_examples():
    op = make_dense_operator([[1.0, 2.0], [3.0, 4.0]])
    from lslu import hess_init, hess_step
    state = hess_init(op, [1.0, 1.0], strategy=PivotStrategy.none())
    hess_step(state, op)
    assert abs(state.W[0, 0] - 4.0) <= 1e-12
    assert abs(state.H[0, 0] - 4.0) <= 1e-12
    assert abs(state.H[1, 0] - 5.0) <= 1e-12
    np.testing.assert_allclose(state.L[:, 0], [1.0, 1.5], rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.D[:, 1], [0.0, 1.0], rtol=0, atol=1e-12)

    op2 = make_dense_operator(np.eye(2))
    state2 = hess_run(op2, [1.0, 2.0], strategy=PivotStrategy.full(), maxiter=5)
    uq = build_uq(state2, 1.0, 1.0)
    assert abs(uq.Delta[0, 0] - 0.4) <= 1e-12
    from lslu import variance_diagonal
    np.testing.assert_allclose(variance_diagonal(uq), [0.9, 0.6],
                               rtol=0, atol=1e-12)
    assert abs(covariance_sum(uq) - 1.1) <= 1e-12
    _report(9, "worked factorization and posterior micro-examples exact")


def test_criterion_10_semiconvergence_and_competitiveness():
    t0 = time.monotonic()
    for prob, maxiter in ((make_gravity_problem(64, noise_level=1e-2, seed=0), 30),
                          (make_tomo_problem(32, noise_level=1e-2, seed=0), 30)):
        res_lu = run_lslu(prob.op, prob.b, SolverConfig(
            method="lslu", maxiter=maxiter, track_truth=prob.x_true))
        res_qr = run_lsqr(prob.op, prob.b, SolverConfig(
            method="lsqr", maxiter=maxiter, track_truth=prob.x_true))
        min_lu = min(res_lu.relative_errors)
        min_qr = min(res_qr.relative_errors)
        assert min_lu <= 1.5 * min_qr

    tomo = make_tomo_problem(32, noise_level=1e-2, seed=0)
    res_full = run_lslu(tomo.op, tomo.b, SolverConfig(
        method="lslu", maxiter=30, track_truth=tomo.x_true))
    min_full = min(res_full.relative_errors)
    for size in (25, 50, 100):
        res_s = run_lslu(tomo.op, tomo.b, SolverConfig(
            method="lslu", maxiter=30, track_truth=tomo.x_true,
            pivot=PivotStrategy.sampled(size, seed=7)))
        assert min(res_s.relative_errors) <= 2.0 * min_full, size
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(10, f"error competitiveness and sampled pivoting in {elapsed:.1f}s")


def test_criterion_11_inner_product_free_witness():
    grav = make_gravity_problem(64, noise_level=1e-2, seed=0)
    cop = CountingOperator(grav.op)
    for method, runner in (("lslu", run_lslu), ("hybrid_lslu", run_hybrid_lslu)):
        cfg = SolverConfig(
            method=method, maxiter=15, pure=True,
            lambda_rule=LambdaRule.wgcv(),
            stop_tol=1e-4 if method == "hybrid_lslu" else None)
        with reductions.track() as counter:
            runner(cop, grav.b, cfg)
        assert counter.count == 0, method
        assert 64 not in counter.by_length
    with reductions.track() as counter:
        run_lsqr(grav.op, grav.b, SolverConfig(method="lsqr", maxiter=5,
                                               pure=True))
    assert counter.count > 0  # proves the instrument is live
    _report(11, "zero long-vector reductions in the pure iteration hot path")


def test_criterion_12_uq_agreement_and_woodbury():
    grav = make_gravity_problem(32, noise_level=1e-2, seed=0)
    sigma2 = float(grav.e @ grav.e / 32)
    hs = hess_run(grav.op, grav.b, maxiter=15)
    gs = gk_run(grav.op, grav.b, maxiter=15)
    for k in range(1, 16):
        s_h = covariance_sum(build_uq(hs, sigma2, 0.01, k=k))
        s_g = covariance_sum(build_uq_bidiag(gs, sigma2, 0.01, k=k))
        assert abs(s_h - s_g) <= 0.05 * abs(s_g), k

    for trial in range(50):
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(5, 25))
        k = int(rng.integers(1, min(n, 8)))
        Z = rng.standard_normal((n, k))
        spectrum = rng.uniform(0.2, 5.0, size=k)
        reg = float(10.0 ** rng.uniform(-2, 2))
        Delta = woodbury_delta(Z, spectrum, reg)
        lhs = (reg * np.eye(n) + Z @ np.diag(spectrum) @ Z.T) @ (
            np.eye(n) / reg - Z @ Delta @ Z.T)
        assert np.max(np.abs(lhs - np.eye(n))) <= 1e-10, trial
    _report(12, "covariance sums within 5% per k; Woodbury identity to 1e-10")


def test_criterion_13_stopping_rule_regression():
    prob = make_gravity_problem(64, noise_level=1e-2, seed=1)
    cfg = SolverConfig(method="hybrid_lslu", maxiter=50,
                       lambda_rule=LambdaRule.wgcv(), stop_tol=1e-4,
                       track_truth=prob.x_true)
    res = run_hybrid_lslu(prob.op, prob.b, cfg)
    assert res.stop_reason == "ghat_tol"
    assert res.k_stop < 50
    errs = res.relative_errors
    assert errs[res.k_stop - 1] <= 1.10 * min(errs)
    _report(13, f"automatic stop at k={res.k_stop} within 10% of the best error")
