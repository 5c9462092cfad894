import warnings

import numpy as np
import pytest
import scipy.linalg

from lslu import (PivotStrategy, UqApprox, build_uq, build_uq_bidiag,
                  covariance_sum, gk_run, hess_init, hess_run, hess_step,
                  make_dense_operator, oracle_posterior, variance_diagonal,
                  woodbury_delta)
from lslu.hessenberg import qr_r
from lslu.uq import GRAM_COND_LIMIT, _assemble


class TestWorkedExample:
    """A = I2, b = [1, 2], full pivot, sigma2 = reg = 1."""

    @pytest.fixture()
    def uq(self):
        op = make_dense_operator(np.eye(2))
        state = hess_run(op, [1.0, 2.0], strategy=PivotStrategy.full(),
                         maxiter=5)
        assert state.k == 1
        return build_uq(state, 1.0, 1.0)

    def test_low_rank_core(self, uq):
        assert uq.spectrum.shape == (1,)
        assert uq.spectrum[0] == pytest.approx(0.8, abs=1e-14)
        np.testing.assert_allclose(uq.Z.ravel(), [0.5, 1.0], atol=1e-14)
        assert uq.Delta[0, 0] == pytest.approx(0.4, abs=1e-12)

    def test_variance_diagonal(self, uq):
        np.testing.assert_allclose(variance_diagonal(uq), [0.9, 0.6],
                                   rtol=0, atol=1e-12)

    def test_matches_dense_inverse(self, uq):
        dense = np.linalg.inv(np.eye(2) + uq.Z @ np.diag(uq.spectrum) @ uq.Z.T)
        np.testing.assert_allclose(dense, [[0.9, -0.2], [-0.2, 0.6]],
                                   atol=1e-12)

    def test_covariance_sum(self, uq):
        assert covariance_sum(uq) == pytest.approx(1.1, abs=1e-12)


class TestWoodburyExactness:
    @pytest.mark.parametrize("trial", range(50))
    def test_random_low_rank_instances(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(5, 25))
        k = int(rng.integers(1, min(n, 8)))
        Z = rng.standard_normal((n, k))
        spectrum = rng.uniform(0.2, 5.0, size=k)
        reg = float(10.0 ** rng.uniform(-2, 2))
        Delta = woodbury_delta(Z, spectrum, reg)
        lhs = (reg * np.eye(n) + Z @ np.diag(spectrum) @ Z.T) @ (
            np.eye(n) / reg - Z @ Delta @ Z.T)
        assert np.max(np.abs(lhs - np.eye(n))) <= 1e-10

    def test_delta_symmetric_positive_definite(self):
        rng = np.random.default_rng(77)
        Z = rng.standard_normal((15, 5))
        Delta = woodbury_delta(Z, rng.uniform(0.5, 2.0, 5), 0.3)
        np.testing.assert_allclose(Delta, Delta.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(Delta) > 0)


class TestBuild:
    def test_fresh_state_rejected(self, gravity32):
        from lslu import hess_init
        state = hess_init(gravity32.op, gravity32.b)
        with pytest.raises(ValueError):
            build_uq(state, 1.0, 1.0)

    def test_nonpositive_reg_rejected(self, gravity32):
        state = hess_run(gravity32.op, gravity32.b, maxiter=4)
        with pytest.raises(ValueError):
            build_uq(state, 1.0, 0.0)

    def test_ill_conditioned_gram_truncates_with_warning(self):
        rng = np.random.default_rng(9)
        n, m, k = 12, 10, 4
        D = rng.standard_normal((m, k))
        D[:, -1] = D[:, 0] * (1 + 1e-15)  # numerically dependent column
        L = rng.standard_normal((n, k))
        W = np.triu(rng.standard_normal((k, k))) + 2 * np.eye(k)
        with pytest.warns(RuntimeWarning):
            uq = _assemble(L, qr_r(D), W, 1.0, 0.5)
        assert uq.k < k

    def test_spectrum_positive_descending(self, gravity32):
        state = hess_run(gravity32.op, gravity32.b, maxiter=8)
        uq = build_uq(state, 1.0, 0.01)
        assert np.all(uq.spectrum > 0)
        assert np.all(np.diff(uq.spectrum) <= 0)

    def test_low_rank_surrogate_eigenvalues(self, gravity32):
        # Z S Z^T must equal L (W G^{-1} W^T) L^T, and its nonzero spectrum
        # matches the dense eigen-oracle of that congruent product
        state = hess_run(gravity32.op, gravity32.b, maxiter=6)
        uq = build_uq(state, 1.0, 0.01)
        k = uq.k
        L = state.L[:, :k]
        gram = state.D[:, :k].T @ state.D[:, :k]
        core = state.W[:k, :k] @ np.linalg.solve(gram, state.W[:k, :k].T)
        direct = L @ core @ L.T
        viaZ = uq.Z @ np.diag(uq.spectrum) @ uq.Z.T
        np.testing.assert_allclose(viaZ, direct, rtol=1e-9, atol=1e-12)
        dense_eigs = np.linalg.eigvalsh((direct + direct.T) / 2.0)[::-1][:k]
        zszt_eigs = np.linalg.eigvalsh((viaZ + viaZ.T) / 2.0)[::-1][:k]
        np.testing.assert_allclose(zszt_eigs, dense_eigs, rtol=1e-8, atol=1e-12)


class TestInputChecks:
    @pytest.fixture(scope="class", params=["hessenberg", "golub_kahan"])
    def state(self, request, gravity32):
        run = hess_run if request.param == "hessenberg" else gk_run
        return run(gravity32.op, gravity32.b, maxiter=8)

    @pytest.mark.parametrize("k", [-1, -3, 0, 2.7, 3.0, True, "2"])
    def test_bad_k_named(self, state, k):
        with pytest.raises(ValueError, match=r"^k must be (an integer|at least 1)"):
            build_uq(state, 1.0, 0.1, k=k)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
    def test_bad_sigma2_named(self, state, sigma2):
        with pytest.raises(ValueError, match=r"^sigma2 must be"):
            build_uq(state, sigma2, 0.1)

    @pytest.mark.parametrize("reg", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    def test_bad_reg_named(self, state, reg):
        with pytest.raises(ValueError, match=r"^reg must be"):
            build_uq(state, 1.0, reg)

    def test_k_above_the_state_is_capped(self, state):
        full = build_uq(state, 1.0, 0.1)
        capped = build_uq(state, 1.0, 0.1, k=np.int64(50))
        assert full.k == capped.k == 8
        assert np.array_equal(full.Z, capped.Z)

    def test_zero_noise_variance_accepted(self, state):
        assert np.all(variance_diagonal(build_uq(state, 0.0, 0.1)) == 0.0)


class TestOneBuilderForBothStates:
    def test_bidiagonal_route_is_the_same_function(self):
        assert build_uq_bidiag is build_uq

    def test_bidiag_state_matches_explicit_coupling_bitwise(self, gravity64):
        # the separate bidiagonal builder assembled V_k, U_k and B_k^T by
        # hand; U enters through its R factor, of which _assemble reads
        # the leading k-by-k block
        state = gk_run(gravity64.op, gravity64.b, maxiter=15)
        R = qr_r(state.U)
        for k in range(1, 16):
            got = build_uq(state, 0.3, 1e-3, k=k)
            want = _assemble(state.V[:, :k], R, state.B[:k, :k].T.copy(),
                             0.3, 1e-3)
            for field in ("Z", "spectrum", "Delta"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            assert (got.sigma2, got.reg, got.k) == (want.sigma2, want.reg, want.k)


def _gram_assemble(L_mat, D_mat, W_mat, sigma2, reg):
    # reference: the assembly through the Gram matrix D_k^T D_k that the R
    # factor replaced, truncating by the condition number of its eigenvalues
    k = L_mat.shape[1]
    while k >= 1:
        gram = D_mat[:, :k].T @ D_mat[:, :k]
        eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
        if eigs[0] > 0 and eigs[-1] / eigs[0] <= GRAM_COND_LIMIT:
            break
        k -= 1
    if k < 1:
        raise ValueError("residual basis Gram matrix is numerically singular")
    if k < L_mat.shape[1]:
        warnings.warn(f"ill-conditioned Gram matrix; truncating rank to {k}",
                      RuntimeWarning)
    W = W_mat[:k, :k]
    core = W @ np.linalg.solve((gram + gram.T) / 2.0, W.T)
    vals, vecs = np.linalg.eigh((core + core.T) / 2.0)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > max(vals[0], 0.0) * 1e-14
    vals, vecs = vals[keep], vecs[:, keep]
    Z = L_mat[:, :k] @ vecs
    return UqApprox(Z=Z, spectrum=vals, Delta=woodbury_delta(Z, vals, reg),
                    sigma2=float(sigma2), reg=float(reg), k=int(vals.shape[0]))


def _with_warnings(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        uq = build()
    return uq, [str(w.message) for w in caught]


@pytest.mark.parametrize("problem", ["gravity64", "tomo16"])
@pytest.mark.parametrize("family", ["none", "full", "sampled", "golub_kahan"])
def test_r_factor_route_matches_the_gram_route(request, problem, family):
    # same truncation (and warning) at every k, and the same posterior
    # variances and covariance sum to 1e-9 relative
    p = request.getfixturevalue(problem)
    if family == "golub_kahan":
        state = gk_run(p.op, p.b, maxiter=15)
    else:
        strategy = {"none": PivotStrategy.none(), "full": PivotStrategy.full(),
                    "sampled": PivotStrategy.sampled(25, seed=5)}[family]
        state = hess_run(p.op, p.b, strategy=strategy, maxiter=15)
    for k in range(1, state.k + 1):
        for reg in (1e-4, 1e-2, 1.0):
            got, got_warnings = _with_warnings(lambda: build_uq(state, 0.3, reg, k=k))
            want, want_warnings = _with_warnings(lambda: _gram_assemble(
                state.solution_basis[:, :k], state.residual_basis[:, :k],
                state.coupling[:k, :k], 0.3, reg))
            assert (got.k, got_warnings) == (want.k, want_warnings), (k, reg)
            assert covariance_sum(got) == pytest.approx(covariance_sum(want),
                                                        rel=1e-9, abs=0)
            np.testing.assert_allclose(variance_diagonal(got),
                                       variance_diagonal(want), rtol=1e-9, atol=0)


def test_sweep_reaches_truncation(gravity64):
    # the reference sweep above covers the truncating branch: unpivoted
    # gravity64 bases grow ill-conditioned within 15 steps
    state = hess_run(gravity64.op, gravity64.b, strategy=PivotStrategy.none(),
                     maxiter=15)
    with pytest.warns(RuntimeWarning, match="truncating rank"):
        assert build_uq(state, 0.3, 1e-2).k < 15


def test_r_factor_recomputed_after_more_steps(gravity32):
    # UQ of a state stepped after a first build equals UQ of a state run
    # straight to the end, bit for bit; the kept R is one QR of the final D
    op, b = gravity32.op, gravity32.b
    state = hess_init(op, b, maxiter=10)
    for _ in range(4):
        hess_step(state, op)
    early = build_uq(state, 0.3, 1e-2)
    assert early.k == 4
    while state.k < 10:
        hess_step(state, op)
    late = build_uq(state, 0.3, 1e-2)
    straight = build_uq(hess_run(op, b, maxiter=10), 0.3, 1e-2)
    for field in ("Z", "spectrum", "Delta"):
        assert np.array_equal(getattr(late, field), getattr(straight, field))
    assert late.k == straight.k == 10
    assert np.array_equal(state.r_factor("residual"),
                          scipy.linalg.qr(state.D, mode="economic")[1])
    assert np.array_equal(state.r_factor("solution"),
                          scipy.linalg.qr(state.L, mode="economic")[1])
    assert state.r_factor("residual") is state.r_factor("residual")


@pytest.mark.parametrize("family", ["hessenberg", "golub_kahan"])
def test_r_factor_of_a_j_column_basis_is_j_by_j(gravity32, family):
    run = hess_run if family == "hessenberg" else gk_run
    for k in range(1, 8):
        state = run(gravity32.op, gravity32.b, maxiter=k)
        assert state.r_factor("solution").shape == (k, k)
        assert state.r_factor("residual").shape == (k + 1, k + 1)


class TestVarianceProperties:
    def test_no_information_gives_prior_variance(self):
        uq = UqApprox(Z=np.zeros((6, 2)), spectrum=np.ones(2),
                      Delta=np.eye(2), sigma2=2.0, reg=4.0, k=2)
        np.testing.assert_allclose(variance_diagonal(uq), np.full(6, 0.5))
        assert covariance_sum(uq) == pytest.approx(6 * 0.5)

    def test_matches_three_operand_contraction(self, gravity64):
        state = hess_run(gravity64.op, gravity64.b, maxiter=15)
        uq = build_uq(state, 1.3, 0.07)
        quad = np.einsum("ij,jk,ik->i", uq.Z, uq.Delta, uq.Z)
        np.testing.assert_allclose(variance_diagonal(uq),
                                   uq.sigma2 * (1.0 / uq.reg - quad), rtol=1e-14)

    def test_entries_never_exceed_prior_variance(self, gravity32):
        state = hess_run(gravity32.op, gravity32.b, maxiter=8)
        uq = build_uq(state, 1.3, 0.07)
        assert np.all(variance_diagonal(uq) <= 1.3 / 0.07 + 1e-12)


class TestOracle:
    def test_identity(self):
        np.testing.assert_allclose(oracle_posterior(np.eye(2), 1.0, 1.0),
                                   0.5 * np.eye(2), atol=1e-14)

    def test_large_reg_vanishes(self):
        rng = np.random.default_rng(0)
        gamma = oracle_posterior(rng.standard_normal((6, 5)), 1.0, 1e12)
        assert np.max(np.abs(gamma)) <= 1e-11

    def test_full_rank_matches_oracle(self):
        rng = np.random.default_rng(42)
        for m, n in ((8, 8), (10, 8)):
            matrix = rng.standard_normal((m, n)) + 2 * np.eye(m, n)
            op = make_dense_operator(matrix)
            b = matrix @ rng.standard_normal(n)  # in-range data
            state = hess_run(op, b, maxiter=2 * n)
            uq = build_uq(state, 1.0, 0.7)
            gamma_k = 1.0 * (np.eye(n) / 0.7 - uq.Z @ uq.Delta @ uq.Z.T)
            oracle = oracle_posterior(matrix, 1.0, 0.7)
            assert np.max(np.abs(gamma_k - oracle)) <= 1e-8


def test_factorization_routes_agree_on_gravity(gravity32):
    sigma2 = float(gravity32.e @ gravity32.e / 32)
    hs = hess_run(gravity32.op, gravity32.b, maxiter=15)
    gs = gk_run(gravity32.op, gravity32.b, maxiter=15)
    for k in range(1, 16):
        s_h = covariance_sum(build_uq(hs, sigma2, 0.01, k=k))
        s_g = covariance_sum(build_uq_bidiag(gs, sigma2, 0.01, k=k))
        assert abs(s_h - s_g) <= 0.05 * abs(s_g)
