import numpy as np
import pytest

import lslu.projected
from lslu import (LambdaRule, ProjectedSvd, gcv_value, ghat, gk_run, hess_run,
                  ls_projected, make_tomo_problem, reductions, select_lambda,
                  stop_check, svd_small, tikhonov_projected, wgcv_value)
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


#: How far the library's GCV-family values may sit from the references
#: below: they form the same terms in sigma / sigma_1 and lam / sigma_1
#: and multiply by beta^2 last, which moves a value by a few ulps.
REFERENCE_RTOL = 16 * np.finfo(float).eps


def wgcv_reference(svd, beta, lam, omega):
    """The weighted-GCV value built anew at every lam, in lam and sigma
    unscaled, with the zero-denominator guard; the library agrees with
    it to REFERENCE_RTOL."""
    s2 = svd.sigma**2
    denom = s2 + lam**2
    filt = np.where(denom > 0, lam**2 / np.where(denom > 0, denom, 1.0), 0.0)
    terms = float(np.sum((filt * svd.ue1[:svd.k]) ** 2) + svd.ue1[svd.k] ** 2)
    trace = 1.0 + np.sum(((1.0 - omega) * s2 + lam**2) / (s2 + lam**2))
    return svd.k * beta**2 * terms / trace**2


def golden_section_reference(f, lo, hi):
    """The golden-section search the three grid passes replaced: scalar
    evaluations of f on a log10 abscissa until the bracket is 1e-3
    decades wide, then the bracket's midpoint."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log10(lo), np.log10(hi)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(10.0**c), f(10.0**d)
    while b - a > 1e-3:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(10.0**c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(10.0**d)
    return 10.0 ** ((a + b) / 2.0)


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

    def test_ue1_is_a_read_only_view_of_u(self):
        svd = svd_small(np.random.default_rng(4).standard_normal((6, 5)))
        assert np.shares_memory(svd.ue1, svd.U)
        np.testing.assert_array_equal(svd.ue1, svd.U[0])
        with pytest.raises(ValueError, match="read-only"):
            svd.ue1[0] = 1.0

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

    def test_rank_deficient_at_zero_is_least_squares(self):
        # lam = 0 cuts the zero singular value, as ls_projected does,
        # and returns the minimum-norm least-squares solution
        H = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        y = tikhonov_projected(svd_small(H), 1.0, 0.0)
        np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-15)
        np.testing.assert_array_equal(y, ls_projected(svd_small(H), 1.0))

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

    @pytest.mark.parametrize("c", [2.0**-664, 1e-200, 1e-160, 1e150, 1e200, 2.0**664])
    def test_filter_is_scale_free(self, c):
        # scaling H, beta and lam by c leaves y, with no over- or underflow
        rng = np.random.default_rng(12)
        H = np.triu(rng.standard_normal((7, 6)), -1)
        y = tikhonov_projected(svd_small(H), 0.9, 0.05)
        y_c = tikhonov_projected(svd_small(c * H), c * 0.9, c * 0.05)
        np.testing.assert_allclose(y_c, y, rtol=1e-12)

    def test_zero_matrix_filters_to_zero(self):
        svd = svd_small(np.zeros((3, 2)))
        np.testing.assert_array_equal(tikhonov_projected(svd, 1.0, 0.5), [0.0, 0.0])


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

    @pytest.mark.parametrize("lam", [1e-200, 1e-163, 0.0, -1.0, float("nan"),
                                     float("inf"), -float("inf")])
    def test_underflowing_lambda_rejected(self, lam):
        # (lam / sigma_1)**2 == 0 at an exact zero singular value would make
        # the trace 0/0; a non-finite lam is rejected too
        svd = svd_small([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert svd.sigma[-1] == 0.0
        with pytest.raises(ValueError, match="lam"):
            gcv_value(svd, 1.0, lam)
        with pytest.raises(ValueError, match="lam"):
            wgcv_value(svd, 1.0, lam, 0.5)

    @pytest.mark.parametrize("c", [2.0**-664, 2.0**664])
    def test_values_scale_with_beta_squared(self, c):
        # H, beta and lam scaled by c: the values at c = 1, with the c^2
        # folded into beta; no square of c * lam or c * sigma is taken
        rng = np.random.default_rng(14)
        H = np.triu(rng.standard_normal((7, 6)), -1)
        svd, svd_c = svd_small(H), svd_small(c * H)
        for lam in (1e-4, 0.05, 3.0):
            np.testing.assert_allclose(gcv_value(svd_c, 0.8, c * lam),
                                       gcv_value(svd, 0.8, lam), rtol=1e-13)
            for omega in (0.0, 0.4, 1.0):
                np.testing.assert_allclose(wgcv_value(svd_c, 0.8, c * lam, omega),
                                           wgcv_value(svd, 0.8, lam, omega),
                                           rtol=1e-13)

    def test_out_of_range_values_read_inf_or_zero(self):
        # beta * beta overflows or underflows as a float product does:
        # no OverflowError and no warning
        svd = svd_small(np.triu(np.random.default_rng(15).standard_normal((5, 4)), -1))
        assert gcv_value(svd, 1e200, 0.3) == np.inf
        assert wgcv_value(svd, 1e-200, 0.3, 0.5) == 0.0

    def test_tiny_lambda_of_a_tiny_matrix_accepted(self):
        # lam is judged against sigma_1: 1e-200 is sigma_1 itself here
        svd = svd_small([[1e-200, 0.0], [0.0, 0.0], [0.0, 0.0]])
        value = gcv_value(svd, 1.0, 1e-200)
        assert value == pytest.approx(
            gcv_value(svd_small([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), 1.0, 1.0),
            rel=1e-15)

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
        return ProjectedSvd(U=U, sigma=sigma, V=V)

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
            np.testing.assert_allclose(gcv_value(svd, beta, lam),
                                       wgcv_reference(svd, beta, lam, 1.0),
                                       rtol=REFERENCE_RTOL, atol=0)
            for omega in (0.0, 0.37, 1.0):
                np.testing.assert_allclose(
                    wgcv_value(svd, beta, lam, omega),
                    wgcv_reference(svd, beta, lam, omega),
                    rtol=REFERENCE_RTOL, atol=0, err_msg=f"{lam} {omega}")

    @pytest.mark.parametrize("seed", range(4))
    def test_selected_lambda_bitwise(self, seed):
        # the search over mu = lam / sigma_1, applied to the reference
        # function of lam = sigma_1 mu, picks the same point
        rng = np.random.default_rng(200 + seed)
        k = int(rng.integers(2, 40))
        m = int(rng.integers(k + 1, 4 * k))
        svd = svd_small(np.triu(rng.standard_normal((k + 1, k)), -1))
        beta = float(rng.standard_normal())
        sigma1 = svd.sigma[0]
        omega = min(1.0, max(0.0, (k + 1) / m))
        for rule, w in ((LambdaRule.gcv(), 1.0), (LambdaRule.wgcv(), omega)):
            expected = sigma1 * golden_section_log(
                lambda mu: np.array([wgcv_reference(svd, beta, sigma1 * x, w)
                                     for x in mu]), 1e-6, 1.0)
            assert select_lambda(rule, svd, beta, m) == expected


def ghat_reference(svd, beta, lam, m, n):
    """The stopping function from its own filter factors in lam and sigma
    unscaled, guarded against a zero denominator; the library evaluates
    it through the GCV-family function (omega 1, trace offset m - k) and
    agrees with it to REFERENCE_RTOL."""
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
                np.testing.assert_allclose(
                    ghat(svd, state.beta, lam, m, n),
                    ghat_reference(svd, state.beta, lam, m, n),
                    rtol=REFERENCE_RTOL, atol=0, err_msg=f"{k} {lam}")

    @pytest.mark.parametrize("lam", [0.0, 1e-200, 1e-3])
    def test_zero_singular_value_bitwise(self, lam):
        # lam**2 == 0 at an exact zero singular value takes the lam-free
        # path: no 0/0 (a RuntimeWarning from lslu.projected fails the suite)
        svd = TestGcvMatchesReference._svd_with_zero_sigma(
            np.random.default_rng(5), 6)
        value = ghat(svd, 0.7, lam, 20, 15)
        assert np.isfinite(value)
        np.testing.assert_allclose(value, ghat_reference(svd, 0.7, lam, 20, 15),
                                   rtol=REFERENCE_RTOL, atol=0)

    @pytest.mark.parametrize("lam", [0.0, 1e-200, 1e-3, 0.4, 1e200])
    def test_beta_factor_bitwise(self, lam):
        # the solvers record the beta-free value and report beta * beta
        # times it, which is the value at beta, bit for bit
        svd = svd_small(np.triu(np.random.default_rng(8).standard_normal((8, 7)), -1))
        for beta in (0.7, -3.1, 2.0**-664, 1e200):
            assert ghat(svd, beta, lam, 20, 15) == beta * beta * ghat(
                svd, 1.0, lam, 20, 15)


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

    @pytest.mark.parametrize("lam", [float("inf"), float("nan"), -1.0])
    def test_bad_lambda_rejected(self, lam):
        svd = svd_small([[2.0], [0.0]])
        with pytest.raises(ValueError, match="lam"):
            ghat(svd, 1.0, lam, 5, 5)

    def test_huge_lambda_reads_the_all_ones_limit(self):
        # past about 1e8 sigma_1 every filter complement rounds to 1, and
        # lam / sigma_1 is cut before its square overflows: n / m^2 for a
        # unit U^T e_1, with no warning; (w)GCV reads k / (k + 1)^2
        svd = svd_small(np.triu(np.random.default_rng(16).standard_normal((5, 4)), -1))
        for lam in (1e10, 1e160, 1e300):
            assert ghat(svd, 1.0, lam, 12, 9) == ghat(svd, 1.0, 1e9, 12, 9)
            assert ghat(svd, 1.0, lam, 12, 9) == pytest.approx(9 / 144, rel=1e-14)
            assert wgcv_value(svd, 1.0, lam, 0.3) == pytest.approx(4 / 25, rel=1e-14)

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

    @pytest.mark.parametrize("c", [1e200, 2.0**664])
    def test_extreme_scales_without_warning(self, c):
        # beta * beta overflows at c: a non-finite value, which stop_check
        # never fires on; at 1/c it underflows and the value is 0 (a
        # RuntimeWarning from lslu.projected fails the suite)
        rng = np.random.default_rng(6)
        H = np.triu(rng.standard_normal((7, 6)), -1)
        for lam in (0.3, 1e-3):
            big = ghat(svd_small(c * H), c * 0.8, c * lam, 30, 20)
            assert not np.isfinite(big)
            assert not stop_check([1.0, 0.5, big], 1e-3)
            assert ghat(svd_small(H / c), 0.8 / c, lam / c, 30, 20) == 0.0

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

    def test_window_lower_bound_needs_no_square(self):
        # the search runs in lam / sigma_1, so a sigma_1 whose window end
        # 1e-6 sigma_1 squares to 0 is searched like any other
        for sigma in (1e-160, 2.0**-664, 1e-300):
            svd = svd_small([[sigma], [0.0]])
            assert select_lambda(LambdaRule.gcv(), svd, 1.0, 2) == 1e-6 * svd.sigma[0]

    @pytest.mark.parametrize("kind", ["gcv", "wgcv"])
    @pytest.mark.parametrize("c", [1e-200, 1e-160, 1e-14, 1e-10, 1e-5, 1e5, 1e10,
                                   1e150, 1e200])
    def test_window_scales_with_the_matrix(self, kind, c):
        # no absolute floor: scaling H and beta by c scales lambda by c
        rng = np.random.default_rng(31)
        H = np.triu(rng.standard_normal((9, 8)), -1)
        rule = LambdaRule(kind=kind)
        lam = select_lambda(rule, svd_small(H), 0.8, 40)
        lam_c = select_lambda(rule, svd_small(c * H), c * 0.8, 40)
        assert lam_c == pytest.approx(c * lam, rel=1e-12)


def _random_projected_svd(rng, k):
    # singular values over up to 12 decades at a random scale, and U^T e_1
    # with a Picard-like decay plus noise; U is the reflector taking e_1 to
    # it, so U[0] is U^T e_1
    sigma = np.sort(10.0 ** rng.uniform(-rng.uniform(1, 12), 0, k))[::-1]
    sigma *= 10.0 ** rng.uniform(-3, 3)
    coeff = (sigma / sigma[0]) ** rng.uniform(0, 2) * rng.standard_normal(k)
    ue1 = np.append(coeff + 10.0 ** rng.uniform(-6, -1) * rng.standard_normal(k),
                    10.0 ** rng.uniform(-6, 0) * rng.standard_normal())
    ue1 /= np.linalg.norm(ue1)
    v = -ue1
    v[0] += 1.0
    U = np.eye(k + 1) - 2.0 * np.outer(v, v) / (v @ v) if v @ v > 0 else np.eye(k + 1)
    return ProjectedSvd(U=U, sigma=sigma, V=np.eye(k))


def _record_searches(monkeypatch):
    """Wrap the module-level search: a list that gets, per search, its
    function and the arrays of points it evaluated."""
    searches = []
    search = lslu.projected.golden_section_log

    def recording(f, lo, hi):
        passes = []
        searches.append((f, passes))

        def recorded(points):
            passes.append(points.copy())
            return f(points)
        return search(recorded, lo, hi)

    monkeypatch.setattr(lslu.projected, "golden_section_log", recording)
    return searches


class TestGridSearch:
    def test_each_rule_makes_one_search_of_three_passes(self, monkeypatch,
                                                        gravity32):
        # the benchmark's tracer counts passes through this module-level name
        state = hess_run(gravity32.op, gravity32.b, maxiter=8)
        svd = svd_small(state.H)
        searches = _record_searches(monkeypatch)
        for rule in (LambdaRule.gcv(), LambdaRule.wgcv(),
                     LambdaRule.optimal(gravity32.x_true)):
            searches.clear()
            select_lambda(rule, svd, state.beta, state.m, basis=state.L,
                          x0=state.x0)
            assert len(searches) == 1, rule.kind
            assert [p.shape for p in searches[0][1]] == [(41,), (21,), (21,)]

    def test_ties_take_the_smallest_point(self):
        flat = golden_section_log(lambda p: np.zeros_like(p), 1e-6, 1.0)
        assert flat == 1e-6
        # a descent onto a plateau: the plateau's left end, to a spacing
        plateau = golden_section_log(lambda p: np.maximum(1e-2 - p, 0.0), 1e-6, 1.0)
        assert abs(np.log10(plateau) + 2.0) <= 1.5e-3

    def test_optimal_rule_counts_one_norm_per_point(self, gravity32):
        state = hess_run(gravity32.op, gravity32.b, maxiter=8)
        with reductions.track() as counter:
            select_lambda(LambdaRule.optimal(gravity32.x_true), svd_small(state.H),
                          state.beta, state.m, basis=state.L, x0=state.x0)
        assert counter.by_length == {32: 41 + 21 + 21}

    @pytest.mark.parametrize("group", range(4))
    def test_within_half_a_final_spacing_of_brute_force(self, monkeypatch, group):
        # 200 random projected SVDs, k from 1 to 200, in four groups: every
        # point lies in the window, and the pick is within half the final
        # spacing (7.5e-4 decades) of a 1e5-point minimizer of the same
        # function in the bracket the first pass chose
        rng = np.random.default_rng(900 + group)
        searches = _record_searches(monkeypatch)
        for i in range(50):
            k = int(rng.integers(1, 201))
            svd = _random_projected_svd(rng, k)
            rule = LambdaRule.gcv() if i % 2 else LambdaRule.wgcv()
            searches.clear()
            lam = select_lambda(rule, svd, 1.0, int(rng.integers(k + 1, 4 * k + 2)))
            (f, passes), = searches
            assert all(np.all((p >= 1e-6) & (p <= 1.0)) for p in passes)
            first = np.log10(passes[0][np.argmin(f(passes[0]))])
            grid = np.linspace(max(-6.0, first - 0.15), min(0.0, first + 0.15), 100_000)
            values = np.concatenate([f(10.0**g) for g in np.array_split(grid, 400)])
            brute = grid[np.argmin(values)]
            # the brute-force minimizer itself is within half its spacing
            assert abs(np.log10(lam / svd.sigma[0]) - brute) <= (
                7.5e-4 + (grid[1] - grid[0]) / 2), (group, i, k)

    @pytest.mark.parametrize("name", ["gravity64", "tomo16"])
    @pytest.mark.parametrize("run", [hess_run, gk_run])
    def test_near_golden_section_reference(self, request, name, run):
        # at every iteration of 30, gcv and wgcv pick within 1.5e-3
        # decades of the replaced golden-section search in [1e-6, 1] sigma_1
        # (lambda does not feed back into the factorization, so the hybrid
        # solves' projected problems are these)
        prob = request.getfixturevalue(name)
        m = prob.op.shape[0]
        state = run(prob.op, prob.b, maxiter=30)
        assert state.k == 30
        far = []
        for k in range(1, state.k + 1):
            svd = svd_small(state.projected_matrix[:k + 1, :k])
            sigma1 = svd.sigma[0]
            for rule, omega in ((LambdaRule.gcv(), 1.0),
                                (LambdaRule.wgcv(), min(1.0, (k + 1) / m))):
                lam = select_lambda(rule, svd, state.beta, m)
                ref = golden_section_reference(
                    lambda x: wgcv_value(svd, state.beta, x, omega),
                    1e-6 * sigma1, sigma1)
                if abs(np.log10(lam / ref)) > 1.5e-3:
                    far.append((rule.kind, k))
        assert far == []


class TestLambdaRuleConstructor:
    @pytest.mark.parametrize("kwargs,match", [
        ({"kind": "bogus"}, "unknown lambda rule kind"),
        ({"kind": "fixed"}, "fixed rule needs a lambda_value"),
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
