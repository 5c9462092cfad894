"""The LAPACK kernels of the UQ and the bound reports: the bits of the SciPy
wrappers they replace, the wrappers' checks, and no wrapper left in use."""

import numpy as np
import pytest
import scipy.linalg

from lslu import (build_uq, covariance_sum, gk_run, hess_run, hybrid_bound_report,
                  plain_bound_report, variance_diagonal, woodbury_delta)
from lslu.cli import main
from lslu.hessenberg import _singular_values, condition_number, qr_r


def _svdvals_condition_number(*blocks):
    # condition_number through scipy.linalg.svdvals
    sigma = np.concatenate([scipy.linalg.svdvals(block) for block in blocks])
    return float(sigma.max() / sigma.min()) if sigma.min() > 0 else np.inf


def _cho_woodbury_delta(Z, spectrum, reg):
    # woodbury_delta through scipy.linalg.cho_factor and cho_solve
    M = Z.T @ Z + reg * np.diag(1.0 / spectrum)
    factor = scipy.linalg.cho_factor((M + M.T) / 2.0)
    Delta = scipy.linalg.cho_solve(factor, np.eye(M.shape[0])) / reg
    return (Delta + Delta.T) / 2.0


@pytest.fixture(scope="module")
def state(gravity64):
    return hess_run(gravity64.op, gravity64.b, maxiter=20)


class TestConditionNumber:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (16, 16), (9, 4)])
    def test_random_blocks(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(5):
            block = rng.standard_normal(shape)
            np.testing.assert_array_equal(_singular_values(block),
                                          scipy.linalg.svdvals(block))
            assert condition_number(block) == _svdvals_condition_number(block)

    def test_leading_blocks_of_a_state(self, state):
        R = state.r_factor("residual")
        for k in range(1, R.shape[0] + 1):
            block = R[:k, :k]
            np.testing.assert_array_equal(_singular_values(block),
                                          scipy.linalg.svdvals(block))
            assert condition_number(block) == _svdvals_condition_number(block)

    def test_block_pair(self, state):
        R_D, R_L = state.r_factor("residual"), state.r_factor("solution")
        for k in range(1, state.k + 1):
            blocks = (R_D[:k + 1, :k + 1], R_L[:k, :k])
            assert condition_number(*blocks) == _svdvals_condition_number(*blocks)

    def test_singular_block_is_inf(self):
        assert condition_number(np.diag([2.0, 0.0])) == np.inf
        assert condition_number(np.eye(2), np.zeros((1, 1))) == np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_raises(self, bad):
        with pytest.raises(ValueError, match="block has non-finite entries"):
            condition_number(np.eye(2), np.array([[1.0, bad], [0.0, 1.0]]))


class TestQrR:
    @pytest.mark.parametrize("shape", [(40, 7), (8, 8), (30, 1)])
    def test_matches_economic_qr(self, shape):
        basis = np.random.default_rng(shape[1]).standard_normal(shape)
        for layout in (basis, np.asfortranarray(basis)):
            R = qr_r(layout)
            assert R.shape == (shape[1], shape[1])
            np.testing.assert_array_equal(R, scipy.linalg.qr(layout, mode="economic")[1])

    def test_state_bases(self, state):
        for basis in (state.D, state.L):
            np.testing.assert_array_equal(qr_r(basis),
                                          scipy.linalg.qr(basis, mode="economic")[1])

    def test_empty_basis(self):
        assert qr_r(np.empty((5, 0))).shape == (0, 0)

    def test_non_finite_basis_raises(self):
        basis = np.ones((6, 2))
        basis[3, 1] = np.nan
        with pytest.raises(ValueError, match="basis has non-finite entries"):
            qr_r(basis)


class TestWoodburyDelta:
    @pytest.mark.parametrize("k", [1, 4, 15])
    def test_matches_the_cholesky_route(self, k):
        rng = np.random.default_rng(k)
        Z, spectrum = rng.standard_normal((50, k)), rng.random(k) + 0.1
        for reg in (1e-3, 1.0):
            np.testing.assert_array_equal(woodbury_delta(Z, spectrum, reg),
                                          _cho_woodbury_delta(Z, spectrum, reg))

    def test_matches_the_cholesky_route_on_a_state(self, state):
        for k in (1, 8, 20):
            uq = build_uq(state, 1e-4, 1e-2, k=k)
            np.testing.assert_array_equal(
                uq.Delta, _cho_woodbury_delta(uq.Z, uq.spectrum, uq.reg))

    def test_non_finite_input_raises(self):
        Z = np.ones((4, 2))
        Z[0, 0] = np.nan
        with pytest.raises(ValueError, match="Woodbury matrix has non-finite entries"):
            woodbury_delta(Z, np.ones(2), 1.0)

    def test_indefinite_core_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            woodbury_delta(np.zeros((4, 2)), np.array([1.0, -1.0]), 1.0)


def test_post_processing_calls_no_scipy_linalg_wrapper(monkeypatch, tmp_path, tomo16):
    def forbidden(*args, **kwargs):
        raise AssertionError("a scipy.linalg wrapper was called")

    for name in ("svdvals", "cho_factor", "cho_solve", "qr"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    op, b = tomo16.op, tomo16.b
    for state in (hess_run(op, b, maxiter=15), gk_run(op, b, maxiter=15)):
        for k in range(1, 16):
            uq = build_uq(state, 1e-4, 1e-2, k=k)
            assert np.isfinite(covariance_sum(uq))
            assert np.all(np.isfinite(variance_diagonal(uq)))
    assert plain_bound_report(op, b, 10).all_ok()
    assert hybrid_bound_report(op, b, 0.1, 10).all_ok()
    problem = ["--problem", "tomo", "--n", "16"]
    assert main(["uq", *problem, "--k-max", "10",
                 "--output-dir", str(tmp_path / "uq")]) == 0
    assert main(["bounds", *problem, "--maxiter", "10",
                 "--output-dir", str(tmp_path / "plain")]) == 0
    assert main(["bounds", *problem, "--maxiter", "10", "--lambda-value", "0.1",
                 "--output-dir", str(tmp_path / "hybrid")]) == 0
