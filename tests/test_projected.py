import numpy as np
import pytest

from lslu import (LambdaRule, ProjectedSvd, gcv_value, ghat, gk_run, hess_run,
                  make_tomo_problem, select_lambda, stop_check, svd_small,
                  tikhonov_projected, wgcv_value)
from lslu.projected import golden_section_log


def _tikhonov_pinv(H, lam):
    k = H.shape[1]
    return np.linalg.solve(H.T @ H + lam**2 * np.eye(k), H.T)


def gcv_oracle(H, beta, lam):
    """Direct trace/norm evaluation of the GCV quotient."""
    k = H.shape[1]
    e1 = np.zeros(k + 1)
    e1[0] = 1.0
    P = np.eye(k + 1) - H @ _tikhonov_pinv(H, lam)
    return k * np.linalg.norm(P @ (beta * e1)) ** 2 / np.trace(P) ** 2


def wgcv_oracle(H, beta, lam, omega):
    """Direct evaluation with the omega-weighted trace."""
    k = H.shape[1]
    e1 = np.zeros(k + 1)
    e1[0] = 1.0
    HHl = H @ _tikhonov_pinv(H, lam)
    num = k * np.linalg.norm((np.eye(k + 1) - HHl) @ (beta * e1)) ** 2
    den = np.trace(np.eye(k + 1) - omega * HHl) ** 2
    return num / den


def wgcv_reference(svd, beta, lam, omega):
    """The weighted-GCV value built anew at every lam, with the
    zero-denominator guard; the library evaluates the same operations
    with its lam-free terms built once, so the two agree bit for bit."""
    s2 = svd.sigma**2
    denom = s2 + lam**2
    filt = np.where(denom > 0, lam**2 / np.where(denom > 0, denom, 1.0), 0.0)
    terms = float(np.sum((filt * svd.ue1[:svd.k]) ** 2) + svd.ue1[svd.k] ** 2)
    trace = 1.0 + np.sum(((1.0 - omega) * s2 + lam**2) / (s2 + lam**2))
    return svd.k * beta**2 * terms / trace**2


def ghat_oracle(H, beta, lam, m, n):
    """Trace form with the full-problem dimensions in numerator and trace."""
    k = H.shape[1]
    e1 = np.zeros(k + 1)
    e1[0] = 1.0
    HHl = H @ _tikhonov_pinv(H, lam)
    num = n * np.linalg.norm((np.eye(k + 1) - HHl) @ (beta * e1)) ** 2
    den = (m - np.trace(HHl)) ** 2
    return num / den


class TestSvdSmall:
    def test_trivial_column(self):
        svd = svd_small([[2.0], [0.0]])
        np.testing.assert_allclose(svd.sigma, [2.0])
        np.testing.assert_allclose(np.abs(svd.ue1), [1.0, 0.0], atol=1e-15)

    def test_zero_column(self):
        svd = svd_small([[0.0], [0.0]])
        np.testing.assert_array_equal(svd.sigma, [0.0])

    def test_column_norm(self):
        svd = svd_small([[4.0], [5.0]])
        assert svd.sigma[0] == pytest.approx(np.sqrt(41.0), abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((7, 6))
        svd = svd_small(H)
        k = 6
        S = np.zeros((k + 1, k))
        S[:k, :k] = np.diag(svd.sigma)
        resid = np.linalg.norm(svd.U @ S @ svd.V.T - H, "fro")
        assert resid <= 1e-12 * np.linalg.norm(H, "fro")


class TestTikhonovProjected:
    def test_unregularized_unit(self):
        y = tikhonov_projected(svd_small([[1.0], [0.0]]), 1.0, 0.0)
        np.testing.assert_allclose(y, [1.0], atol=1e-15)

    def test_half(self):
        y = tikhonov_projected(svd_small([[1.0], [0.0]]), 1.0, 1.0)
        np.testing.assert_allclose(y, [0.5], atol=1e-15)

    def test_normal_equations_value(self):
        y = tikhonov_projected(svd_small([[4.0], [5.0]]), 1.0, 0.0)
        np.testing.assert_allclose(y, [4.0 / 41.0], atol=1e-15)

    def test_rank_deficient_rejected_at_zero(self):
        H = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            tikhonov_projected(svd_small(H), 1.0, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_normal_equations_residual(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 8)
        H = rng.standard_normal((k + 1, k))
        beta = rng.standard_normal()
        lam = 10.0 ** rng.uniform(-4, 0)
        y = tikhonov_projected(svd_small(H), beta, lam)
        e1 = np.zeros(k + 1)
        e1[0] = 1.0
        rhs = beta * H.T @ e1
        resid = np.linalg.norm((H.T @ H + lam**2 * np.eye(k)) @ y - rhs)
        assert resid <= 1e-12 * np.linalg.norm(rhs)


class TestGcvForms:
    def test_hand_value(self):
        svd = svd_small([[2.0], [0.0]])
        assert gcv_value(svd, 1.0, 2.0) == pytest.approx(0.25 / 2.25, abs=1e-15)

    def test_zero_beta(self):
        svd = svd_small([[2.0], [0.0]])
        assert gcv_value(svd, 0.0, 0.5) == 0.0

    def test_small_lambda_vanishes_without_tail(self):
        svd = svd_small([[2.0], [0.0]])  # ue1 tail is zero
        assert gcv_value(svd, 1.0, 1e-9) <= 1e-18

    def test_wgcv_hand_value(self):
        svd = svd_small([[2.0], [0.0]])
        assert wgcv_value(svd, 1.0, 2.0, 0.5) == pytest.approx(
            0.25 / 3.0625, abs=1e-15)

    def test_wgcv_omega_one_is_gcv_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = rng.integers(1, 9)
            svd = svd_small(rng.standard_normal((k + 1, k)))
            beta = rng.standard_normal()
            lam = 10.0 ** rng.uniform(-6, 1)
            assert wgcv_value(svd, beta, lam, 1.0) == gcv_value(svd, beta, lam)

    def test_wgcv_omega_zero_large_lambda_bounded(self):
        svd = svd_small([[2.0], [0.0]])
        value = wgcv_value(svd, 1.0, 1e9, 0.0)
        assert np.isfinite(value)
        assert value == pytest.approx(1.0 / 4.0, rel=1e-6)  # (1+k)^2 = 4 at k=1

    @pytest.mark.parametrize("lam", [1e-200, 1e-163, 0.0, -1.0, float("nan")])
    def test_underflowing_lambda_rejected(self, lam):
        # lam**2 == 0 at an exact zero singular value would make the trace 0/0
        svd = svd_small([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert svd.sigma[-1] == 0.0
        with pytest.raises(ValueError, match="lam"):
            gcv_value(svd, 1.0, lam)
        with pytest.raises(ValueError, match="lam"):
            wgcv_value(svd, 1.0, lam, 0.5)

    def test_smallest_lambdas_with_a_square_stay_finite(self):
        svd = svd_small([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        for lam in (1e-150, 1e-161):
            assert lam * lam > 0
            assert np.isfinite(gcv_value(svd, 1.0, lam))
            assert np.isfinite(wgcv_value(svd, 1.0, lam, 0.5))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_trace_oracles(self, seed):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 9))
        H = rng.standard_normal((k + 1, k))
        svd = svd_small(H)
        beta = float(rng.standard_normal())
        for lam in (1e-3, 0.1, 1.0, 10.0):
            g = gcv_value(svd, beta, lam)
            assert g == pytest.approx(gcv_oracle(H, beta, lam), rel=1e-10)
            for omega in (0.0, 0.3, 0.8, 1.0):
                w = wgcv_value(svd, beta, lam, omega)
                assert w == pytest.approx(wgcv_oracle(H, beta, lam, omega),
                                          rel=1e-10)


class TestGcvMatchesReference:
    LAMS = np.logspace(-12, 3, 46)

    @staticmethod
    def _svd_with_zero_sigma(rng, k):
        # an exact zero singular value, which svd_small rarely produces
        U = np.linalg.qr(rng.standard_normal((k + 1, k + 1)))[0]
        V = np.linalg.qr(rng.standard_normal((k, k)))[0]
        sigma = np.sort(10.0 ** rng.uniform(-8, 2, k))[::-1]
        sigma[-1] = 0.0
        return ProjectedSvd(U=U, sigma=sigma, V=V, ue1=U[0, :].copy())

    @pytest.mark.parametrize("k", [1, 7, 60])
    @pytest.mark.parametrize("zero_sigma", [False, True])
    def test_values_bitwise(self, k, zero_sigma):
        rng = np.random.default_rng(k)
        if zero_sigma:
            svd = self._svd_with_zero_sigma(rng, k)
        else:
            svd = svd_small(np.triu(rng.standard_normal((k + 1, k)), -1))
        beta = float(rng.standard_normal())
        for lam in self.LAMS:
            assert gcv_value(svd, beta, lam) == wgcv_reference(svd, beta, lam, 1.0)
            for omega in (0.0, 0.37, 1.0):
                assert wgcv_value(svd, beta, lam, omega) == wgcv_reference(
                    svd, beta, lam, omega), (lam, omega)

    @pytest.mark.parametrize("seed", range(4))
    def test_selected_lambda_bitwise(self, seed):
        rng = np.random.default_rng(200 + seed)
        k = int(rng.integers(2, 40))
        m = int(rng.integers(k + 1, 4 * k))
        svd = svd_small(np.triu(rng.standard_normal((k + 1, k)), -1))
        beta = float(rng.standard_normal())
        lo, hi = 1e-6 * svd.sigma[0], svd.sigma[0]
        omega = min(1.0, max(0.0, (k + 1) / m))
        for rule, w in ((LambdaRule.gcv(), 1.0), (LambdaRule.wgcv(), omega)):
            expected = golden_section_log(
                lambda lam: wgcv_reference(svd, beta, lam, w), lo, hi)
            assert select_lambda(rule, svd, beta, m) == expected


def ghat_reference(svd, beta, lam, m, n):
    """The stopping function from its own filter factors, guarded against a
    zero denominator; the library evaluates it through the weighted-GCV
    builder (omega 1, factor n, trace offset m - k), bit for bit."""
    k = svd.k
    s2 = svd.sigma**2
    denom = s2 + lam**2
    filt = np.where(denom > 0, lam**2 / np.where(denom > 0, denom, 1.0), 0.0)
    terms = float(np.sum((filt * svd.ue1[:svd.k]) ** 2) + svd.ue1[svd.k] ** 2)
    trace = (m - k) + np.sum(filt)
    return n * beta**2 * terms / trace**2


class TestGhatMatchesReference:
    LAMS = (0.0, 1e-200, 1e-12, 1e-8, 1e-4, 1e-2, 1.0, 10.0)

    @pytest.fixture(scope="class")
    def tomo24(self):
        return make_tomo_problem(24, noise_level=1e-2, seed=0)

    @pytest.mark.parametrize("name", ["gravity64", "tomo16", "tomo24"])
    @pytest.mark.parametrize("run", [hess_run, gk_run])
    def test_solver_iterations_bitwise(self, request, name, run):
        prob = request.getfixturevalue(name)
        m, n = prob.op.shape
        state = run(prob.op, prob.b, maxiter=40)
        assert state.k == 40
        for k in range(1, state.k + 1):
            svd = svd_small(state.projected_matrix[:k + 1, :k])
            for lam in self.LAMS:
                assert ghat(svd, state.beta, lam, m, n) == ghat_reference(
                    svd, state.beta, lam, m, n), (k, lam)

    @pytest.mark.parametrize("lam", [0.0, 1e-200, 1e-3])
    def test_zero_singular_value_bitwise(self, lam):
        # lam**2 == 0 at an exact zero singular value takes the lam-free
        # path: no 0/0 (a RuntimeWarning from lslu.projected fails the suite)
        svd = TestGcvMatchesReference._svd_with_zero_sigma(
            np.random.default_rng(5), 6)
        value = ghat(svd, 0.7, lam, 20, 15)
        assert np.isfinite(value)
        assert value == ghat_reference(svd, 0.7, lam, 20, 15)


class TestGhat:
    def test_hand_value(self):
        svd = svd_small([[2.0], [0.0]])
        assert ghat(svd, 1.0, 2.0, 2, 2) == pytest.approx(0.5 / 2.25, abs=1e-15)

    def test_zero_beta(self):
        svd = svd_small([[2.0], [0.0]])
        assert ghat(svd, 0.0, 2.0, 5, 5) == 0.0

    def test_zero_lambda_no_tail(self):
        svd = svd_small([[2.0], [0.0]])
        assert ghat(svd, 1.0, 0.0, 5, 5) == 0.0

    def test_m_not_larger_than_k_rejected(self):
        svd = svd_small([[2.0], [0.0]])
        with pytest.raises(ValueError):
            ghat(svd, 1.0, 0.5, 1, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_trace_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        k = int(rng.integers(1, 9))
        H = rng.standard_normal((k + 1, k))
        svd = svd_small(H)
        beta = float(rng.standard_normal())
        m, n = k + int(rng.integers(1, 40)), int(rng.integers(2, 40))
        for lam in (1e-3, 0.2, 2.0):
            value = ghat(svd, beta, lam, m, n)
            assert value == pytest.approx(ghat_oracle(H, beta, lam, m, n),
                                          rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_denominator_equals_dense_trace(self, seed):
        rng = np.random.default_rng(300 + seed)
        k = int(rng.integers(1, 8))
        H = rng.standard_normal((k + 1, k))
        svd = svd_small(H)
        m = k + 7
        lam = 0.3
        s2 = svd.sigma**2
        trace = (m - k) + np.sum(lam**2 / (s2 + lam**2))
        dense = m - np.trace(H @ _tikhonov_pinv(H, lam))
        assert trace == pytest.approx(dense, rel=1e-10)


class TestStopCheck:
    def test_fires_on_small_relative_change(self):
        assert stop_check([1.0, 0.5, 0.4999], 1e-3) is True

    def test_no_fire(self):
        assert stop_check([1.0, 0.5], 1e-3) is False

    def test_disabled_on_zero_first(self):
        assert stop_check([0.0, 0.0, 0.0], 1e-3) is False

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            stop_check([1.0], 1e-3)

    @pytest.mark.parametrize("history", [
        [np.inf, 1.0, 1.0], [np.nan, 1.0, 1.0], [1.0, np.nan, 0.5],
        [1.0, 0.5, np.inf], [1.0, np.inf, np.inf], [1.0, 0.5, -np.inf]])
    def test_non_finite_never_fires(self, history):
        # |1 - 1| / inf = 0 is below any tol
        assert stop_check(history, 1e-4) is False

    def test_reads_only_the_first_value_and_the_last_pair(self):
        assert stop_check([1.0, np.nan, 0.5, 0.5], 1e-4)


def test_k_comes_from_the_svd():
    # the old calls that passed k: gcv/wgcv take no k, and the five-argument
    # select_lambda would bind m to basis, so each raises
    svd = svd_small([[2.0], [0.0]])
    with pytest.raises(TypeError):
        select_lambda(LambdaRule.gcv(), svd, 1.0, 1, 2)
    with pytest.raises(TypeError):
        gcv_value(svd, 1.0, 0.5, k=4)
    with pytest.raises(TypeError):
        wgcv_value(svd, 1.0, 0.5, 0.5, k=4)
    with pytest.raises(TypeError):
        ghat(svd, 1.0, 0.5, 1, 5, 5)


class TestSelectLambda:
    def test_fixed(self):
        svd = svd_small([[2.0], [0.0]])
        rule = LambdaRule.fixed(0.01)
        for m in (2, 100):
            assert select_lambda(rule, svd, 1.0, m) == 0.01

    def test_gcv_monotone_hits_lower_bound(self):
        svd = svd_small([[2.0], [0.0]])
        lam = select_lambda(LambdaRule.gcv(), svd, 1.0, 2)
        lo = 1e-6 * 2.0
        assert abs(np.log10(lam) - np.log10(lo)) <= 2e-3

    def test_optimal_matches_grid_oracle_scalar(self):
        sigma, beta = 1.7, 0.9
        svd = svd_small([[sigma], [0.0]])
        basis = np.array([[1.0]])
        x_true = np.array([0.41])
        lam = select_lambda(LambdaRule.optimal(x_true), svd, beta, 2,
                            basis=basis, x0=np.zeros(1))
        grid = np.logspace(np.log10(1e-6 * sigma), np.log10(sigma), 10000)
        errs = [abs(sigma / (sigma**2 + l**2) * beta * svd.ue1[0] - x_true[0])
                for l in grid]
        lam_grid = grid[int(np.argmin(errs))]
        assert abs(np.log10(lam) - np.log10(lam_grid)) <= 5e-3

    def test_optimal_matches_grid_oracle_random(self):
        rng = np.random.default_rng(8)
        k, n = 4, 9
        H = rng.standard_normal((k + 1, k))
        svd = svd_small(H)
        basis = rng.standard_normal((n, k))
        x_true = rng.standard_normal(n)
        beta = 1.3
        rule = LambdaRule.optimal(x_true)
        lam = select_lambda(rule, svd, beta, 20, basis=basis, x0=np.zeros(n))
        lo, hi = 1e-6 * svd.sigma[0], svd.sigma[0]
        grid = np.logspace(np.log10(lo), np.log10(hi), 10000)
        s = svd.sigma

        def err(lam_):
            y = (s / (s**2 + lam_**2)) * (beta * svd.ue1[:k])
            return np.linalg.norm(basis @ (svd.V @ y) - x_true)

        lam_grid = grid[int(np.argmin([err(l) for l in grid]))]
        # the search stops at 1e-3 width in log space; match the oracle to that
        assert abs(np.log10(lam) - np.log10(lam_grid)) <= 2e-3
        assert err(lam) <= err(lam_grid) * (1 + 1e-4)

    def test_wgcv_uses_clamped_omega(self):
        # with k+1 > m the weight clamps to 1, i.e. plain gcv
        rng = np.random.default_rng(4)
        H = rng.standard_normal((5, 4))
        svd = svd_small(H)
        lam_w = select_lambda(LambdaRule.wgcv(), svd, 1.0, 3)
        lam_g = select_lambda(LambdaRule.gcv(), svd, 1.0, 3)
        assert lam_w == lam_g

    @pytest.mark.parametrize("rule", [LambdaRule.gcv(), LambdaRule.wgcv()])
    def test_zero_projected_matrix_rejected(self, rule):
        svd = svd_small([[0.0], [0.0]])
        with pytest.raises(ValueError, match="projected matrix is zero"):
            select_lambda(rule, svd, 1.0, 2)

    def test_default_window_lower_bound_must_have_a_square(self):
        svd = svd_small([[1e-160], [0.0]])
        with pytest.raises(ValueError, match="sigma_1"):
            select_lambda(LambdaRule.gcv(), svd, 1.0, 2)

    @pytest.mark.parametrize("kind", ["gcv", "wgcv"])
    @pytest.mark.parametrize("c", [1e-14, 1e-10, 1e-5, 1e5, 1e10])
    def test_window_scales_with_the_matrix(self, kind, c):
        # no absolute floor: scaling H and beta by c scales lambda by c
        rng = np.random.default_rng(31)
        H = np.triu(rng.standard_normal((9, 8)), -1)
        rule = LambdaRule(kind=kind)
        lam = select_lambda(rule, svd_small(H), 0.8, 40)
        lam_c = select_lambda(rule, svd_small(c * H), c * 0.8, 40)
        assert lam_c == pytest.approx(c * lam, rel=1e-12)


class TestLambdaRuleConstructor:
    @pytest.mark.parametrize("kwargs,match", [
        ({"kind": "bogus"}, "unknown lambda rule kind"),
        ({"kind": "fixed"}, "fixed rule needs a lambda value"),
        ({"kind": "fixed", "value": -0.5}, "finite and nonnegative"),
        ({"kind": "fixed", "value": float("nan")}, "finite and nonnegative"),
        ({"kind": "fixed", "value": float("inf")}, "finite and nonnegative"),
        ({"kind": "wgcv", "value": float("nan")}, "finite and nonnegative"),
        ({"kind": "optimal"}, "optimal rule needs x_true"),
    ])
    def test_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LambdaRule(**kwargs)

    def test_optimal_classmethod_rejects_missing_truth(self):
        with pytest.raises(ValueError, match="optimal rule needs x_true"):
            LambdaRule.optimal(None)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "fixed", "value": 0.0},
        {"kind": "fixed", "value": 2.5},
        {"kind": "wgcv", "value": 0.1},
        {"kind": "gcv", "x_true": [1.0, 2.0]},
    ])
    def test_accepted(self, kwargs):
        assert LambdaRule(**kwargs).kind == kwargs["kind"]

    def test_truth_is_stored_as_float_array(self):
        rule = LambdaRule.optimal([1, 2])
        assert rule.x_true.dtype == float
        np.testing.assert_array_equal(rule.x_true, [1.0, 2.0])

    @pytest.mark.parametrize("x_true,match", [
        pytest.param(np.ones((3, 1)), r"^x_true must be a 1-D vector, got shape \(3, 1\)",
                     id="column"),
        pytest.param(2.0, r"^x_true must be a 1-D vector, got shape \(\)", id="scalar"),
        pytest.param(np.full(3, np.nan), "^x_true has non-finite entries", id="all-nan"),
        pytest.param([1.0, np.inf, 2.0], "^x_true has non-finite entries", id="inf"),
    ])
    @pytest.mark.parametrize("kind", ["optimal", "gcv"])
    def test_bad_truth_named(self, kind, x_true, match):
        with pytest.raises(ValueError, match=match):
            LambdaRule(kind=kind, x_true=x_true)


def test_select_lambda_rejects_truth_of_wrong_length(gravity32):
    # a length-1 truth against a 32-row basis used to broadcast silently
    state = hess_run(gravity32.op, gravity32.b, maxiter=6)
    svd = svd_small(state.H)
    for truth in (np.ones(1), np.ones(33)):
        with pytest.raises(ValueError, match="^x_true must be a vector of length 32 "):
            select_lambda(LambdaRule.optimal(truth), svd, state.beta, state.m,
                          basis=state.L, x0=state.x0)
    lam = select_lambda(LambdaRule.optimal(gravity32.x_true), svd, state.beta,
                        state.m, basis=state.L, x0=state.x0)
    assert 0 < lam <= svd.sigma[0]
