"""The projected SVD extended by one column per iteration (extend_svd).

Each extension is checked against LAPACK's SVD of the same matrix:
singular values within c k eps sigma_1, the factorization within
c k eps ||H||, orthonormal factors, and the Tikhonov solution and GCV
values that the solvers read off the SVD.  A bidiagonal extension keeps
only U's first and last rows; its factorization is checked on those.
The secular step, one call of LAPACK dlasd8 bound through ctypes, is
checked against a loop of scipy's dlasd4, one call per root.
"""

import ctypes
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dlasd4

import lslu.projected as projected
from lslu import (LambdaRule, PivotStrategy, SolverConfig, gcv_value, gk_run,
                  hess_run, make_dense_operator, make_gravity_problem,
                  make_tomo_problem, solve, svd_small, tikhonov_projected)
from lslu.projected import _dlasd8, _lapack_routine, extend_svd

EPS = np.finfo(float).eps
C = 10.0  # the constant of the c k eps bounds


def projected_matrix(kind, k, seed, spectrum, terminal):
    """A (k+1)-by-k upper Hessenberg or lower bidiagonal matrix."""
    rng = np.random.default_rng(seed)
    if kind == "hessenberg":
        H = np.triu(rng.standard_normal((k + 1, k)), -1)
    else:
        H = np.zeros((k + 1, k))
        H[np.arange(k), np.arange(k)] = rng.uniform(0.1, 2.0, k)
        H[np.arange(1, k + 1), np.arange(k)] = rng.uniform(0.1, 2.0, k)
    if spectrum == "graded":
        H *= 10.0 ** -np.arange(k)
    elif spectrum == "repeated":
        # a run of unit columns on the subdiagonal, zero above it, so a
        # Hessenberg chain keeps a full U: the prefix's singular values
        # are all 1
        r = (k + 1) // 2
        H[:, :r] = 0.0
        H[np.arange(1, r + 1), np.arange(r)] = 1.0
    elif spectrum == "zero":
        H[:, 1::3] = 0.0  # exact zero singular values
    if terminal:
        H[k, k - 1] = 0.0
    return H


def extended(H):
    """H's SVD grown from LAPACK's SVD of its first column by one
    extend_svd call per further column, none of them LAPACK."""
    svd = svd_small(H[:2, :1])
    for j in range(2, H.shape[1] + 1):
        svd = extend_svd(svd, H[:j + 1, :j])
    return svd


def assert_matches_lapack(svd, H, beta=1.3):
    k = H.shape[1]
    ref = svd_small(H)  # below the crossover: LAPACK
    sigma1 = ref.sigma[0]
    tol = C * (k + 1) * EPS
    assert svd.V.shape == (k, k)
    assert np.all(np.diff(svd.sigma) <= 0)
    assert np.max(np.abs(svd.sigma - ref.sigma)) <= tol * sigma1
    if svd.U.shape[0] == k + 1:
        S = np.zeros((k + 1, k))
        S[:k, :k] = np.diag(svd.sigma)
        assert np.linalg.norm(svd.U @ S @ svd.V.T - H) <= tol * np.linalg.norm(H)
        assert np.linalg.norm(svd.U.T @ svd.U - np.eye(k + 1)) <= tol
    else:
        # U's first and last rows e_r^T U, r = 0, k: e_r^T H V = e_r^T U Sigma,
        # and the rows of an orthogonal U are orthonormal
        assert svd.U.shape == (2, k + 1)
        assert (np.linalg.norm(H[[0, k]] @ svd.V - svd.U[:, :k] * svd.sigma)
                <= tol * np.linalg.norm(H))
        assert np.linalg.norm(svd.U @ svd.U.T - np.eye(2)) <= tol
    assert np.linalg.norm(svd.V.T @ svd.V - np.eye(k)) <= tol
    np.testing.assert_array_equal(svd.ue1, svd.U[0, :])
    for lam in (1e-2 * sigma1, 1e-1 * sigma1, sigma1):
        # first-order effect of a backward error of tol * sigma_1 in H
        y, y_ref = tikhonov_projected(svd, beta, lam), tikhonov_projected(ref, beta, lam)
        assert (np.linalg.norm(y - y_ref)
                <= tol * sigma1 * (np.linalg.norm(y_ref) + beta / lam) / lam)
        g, g_ref = gcv_value(svd, beta, lam), gcv_value(ref, beta, lam)
        assert abs(g - g_ref) <= tol * sigma1 / lam * g_ref


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["hessenberg", "bidiagonal"]),
       k=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       spectrum=st.sampled_from(["random", "graded", "repeated", "zero"]),
       terminal=st.booleans())
def test_extension_matches_lapack(kind, k, seed, spectrum, terminal):
    H = projected_matrix(kind, k, seed, spectrum, terminal)
    svd = extended(H)
    if kind == "hessenberg":
        assert svd.U.shape == (k + 1, k + 1)
    assert_matches_lapack(svd, H)


@pytest.mark.parametrize("spectrum", ["random", "graded", "repeated", "zero"])
def test_long_chain_matches_lapack(spectrum):
    H = projected_matrix("hessenberg", 120, 3, spectrum, False)
    svd = extended(H)
    assert svd.U.shape == (121, 121)
    assert_matches_lapack(svd, H)


@pytest.mark.parametrize("spectrum", ["random", "graded", "repeated", "zero"])
def test_bidiagonal_long_chain_matches_lapack(spectrum):
    H = projected_matrix("bidiagonal", 120, 3, spectrum, False)
    svd = extended(H)
    assert svd.U.shape == (2, 121)
    assert_matches_lapack(svd, H)


def test_identity_deflates_exactly():
    H = np.zeros((9, 8))
    H[np.arange(8), np.arange(8)] = 1.0
    svd = extended(H)
    np.testing.assert_array_equal(svd.sigma, np.ones(8))
    assert_matches_lapack(svd, H)


@pytest.fixture(scope="module")
def sweep_states():
    """The factorizations behind the 288-configuration solver sweep
    (4 problems; LSLU unpivoted, fully and sampled pivoted; LSQR), at
    the sweep's 40 iterations."""
    problems = (make_gravity_problem(64, noise_level=1e-2, seed=0),
                make_tomo_problem(16, noise_level=1e-2, seed=1),
                make_gravity_problem(256, noise_level=1e-2, seed=0),
                make_tomo_problem(24, noise_level=1e-2, seed=0))
    states = []
    for prob in problems:
        for strategy in (PivotStrategy.none(), PivotStrategy.full(),
                         PivotStrategy.sampled(10)):
            states.append(hess_run(prob.op, prob.b, strategy=strategy, maxiter=40))
        states.append(gk_run(prob.op, prob.b, maxiter=40))
    return states


def test_every_sweep_matrix_extends(sweep_states):
    # unpivoted gravity included: its projected matrices are graded to a
    # condition number of 1e15 and beyond before the run breaks down
    extensions = 0
    for state in sweep_states:
        M = state.projected_matrix
        if M.shape[1] < 2:
            continue  # unpivoted tomography breaks down at once
        svd = svd_small(M[:2, :1])
        for j in range(2, M.shape[1] + 1):
            svd = extend_svd(svd, M[:j + 1, :j])  # must not raise
            extensions += 1
            ref = np.linalg.svd(M[:j + 1, :j], compute_uv=False)
            assert np.max(np.abs(svd.sigma - ref)) <= C * j * EPS * ref[0]
    assert extensions > 400


def secular_problem(kind, K, seed):
    """Poles d (ascending, d[0] = 0) and z of a secular problem, scaled
    as extend_svd scales them."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(K)
    if kind == "random":
        poles = np.sort(rng.uniform(0.0, 1.0, K - 1))
    elif kind == "graded":
        poles = 10.0 ** -np.linspace(12, 0, K - 1)
        z *= 10.0 ** -rng.uniform(0, 8, K)
    else:  # near-deflating: close poles, small z, just past the tolerances
        poles = 0.5 + 800 * EPS * np.arange(K - 1)
        z[1::2] = np.copysign(1e-13, z[1::2])
    d = np.concatenate([[0.0], poles])
    return d, z / (2 * max(np.max(np.abs(z)), d[-1]))


def dlasd4_loop(d, z, r):
    """Roots, DIFL, DIFR and the Loewner z of the secular problem with
    rho = r^2 and normalized z / r, one scipy dlasd4 call per root."""
    K = d.shape[0]
    omega, delta = np.empty(K), np.empty((K, K))
    for i in range(K):
        delta[i], omega[i], _, info = dlasd4(i, d, z * (1.0 / r), r * r)
        assert info == 0
    # omega_i^2 - d_m^2, with no cancellation; root i over pole i below
    # m and pole i + 1 from m on, the last root unpaired
    num = -delta * (d + omega[:, None])
    zhat = num[K - 1].copy()
    for m in range(K):
        for i in range(K - 1):
            p = i if i < m else i + 1
            zhat[m] *= num[i, m] / ((d[p] - d[m]) * (d[p] + d[m]))
    diag = np.arange(K)
    return (omega, -delta[diag, diag], -delta[diag[:-1], diag[1:]],
            np.copysign(np.sqrt(np.abs(zhat)), z))


@pytest.mark.parametrize("kind", ["random", "graded", "near_deflating"])
@pytest.mark.parametrize("K", [2, 3, 10, 60, 200])
def test_dlasd8_matches_dlasd4_loop(kind, K):
    for seed in range(3):
        d, z = secular_problem(kind, K, seed)
        omega, zhat, difl, difr = _dlasd8(d, z)
        # on the z / dnrm2(z) that dlasd8 normalizes to itself, the same
        # roots and pole distances, to a few ulps
        ref, ref_difl, ref_difr, ref_z = dlasd4_loop(d, z, dnrm2(z))
        assert np.all(np.abs(omega - ref) <= 4 * EPS * ref)
        assert np.all(np.abs(difl - ref_difl) <= 4 * EPS * ref_difl)
        assert np.all(np.abs(difr[:-1] - ref_difr) <= 4 * EPS * -ref_difr)
        np.testing.assert_array_equal(np.sign(zhat), np.sign(z))
        assert np.max(np.abs(zhat - ref_z)) <= C * K * EPS * np.linalg.norm(z)
        # the roots of z / sqrt(z . z), rounded otherwise
        ref = dlasd4_loop(d, z, np.sqrt(z @ z))[0]
        assert np.all(np.abs(omega - ref) <= 4 * EPS * ref)


def test_dlasd8_single_pole():
    omega, zhat, difl, _ = _dlasd8(np.zeros(1), np.array([-0.375]))
    assert omega[0] == difl[0] == 0.375 and zhat[0] == -0.375


def test_lapack_binding_checks_its_signature():
    assert callable(_lapack_routine("dlasd8", "iiddddddiddi"))
    # dlasd4's signature is not dlasd8's; a kind out of order is refused
    for name, kinds in (("dlasd4", "iiddddddiddi"), ("dlasd8", "iidddddddddi"),
                        ("dlasd8", "iiddddddidd")):
        with pytest.raises(ImportError, match=name):
            _lapack_routine(name, kinds)
    with pytest.raises(ImportError, match="no_such_routine"):
        _lapack_routine("no_such_routine", "i")


def test_dlasd8_failure_falls_back_to_lapack(monkeypatch):
    H = projected_matrix("hessenberg", projected._EXTEND_MIN_K + 5, 11, "random", False)
    prev = svd_small(H[:-1, :-1])

    def fail(*args):
        ctypes.c_int.from_address(args[-1]).value = 1  # INFO

    monkeypatch.setattr(projected, "_DLASD8", fail)
    with pytest.raises(np.linalg.LinAlgError, match="dlasd8 failed"):
        extend_svd(prev, H)
    svd = svd_small(H, prev)
    U, s, Vh = np.linalg.svd(H)
    np.testing.assert_array_equal(svd.U, U)
    np.testing.assert_array_equal(svd.sigma, s)
    np.testing.assert_array_equal(svd.V, Vh.T)


def test_concurrent_extensions_share_nothing():
    # the LAPACK call runs without the interpreter lock: chains extended
    # in four threads at once give the bits of one chain run alone
    H = projected_matrix("hessenberg", 80, 7, "random", False)

    def chain():
        svd = extended(H)
        return [a.tobytes() for a in (svd.U, svd.sigma, svd.V)]

    alone = chain()
    together = [None] * 4

    def run(i):
        together[i] = chain()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert together == [alone] * 4


class TestSvdSmallRoute:
    K = projected._EXTEND_MIN_K + 5

    def _matrix(self):
        return projected_matrix("hessenberg", self.K, 11, "random", False)

    def test_extends_past_the_crossover(self, monkeypatch):
        H = self._matrix()
        calls = []
        original = projected.extend_svd
        monkeypatch.setattr(projected, "extend_svd",
                            lambda prev, H: calls.append(H.shape) or original(prev, H))
        svd = svd_small(H, svd_small(H[:-1, :-1]))
        assert calls == [H.shape]
        assert_matches_lapack(svd, H)

    def test_below_the_crossover_is_lapack(self):
        H = projected_matrix("hessenberg", projected._EXTEND_MIN_K, 11, "random", False)
        svd = svd_small(H, svd_small(H[:-1, :-1]))
        np.testing.assert_array_equal(svd.U, np.linalg.svd(H)[0])

    def test_general_input_is_lapack(self):
        H = self._matrix()
        H[-1, 0] = 1.0  # the last row is no longer (0, ..., 0, eta)
        svd = svd_small(H, svd_small(H[:-1, :-1]))
        np.testing.assert_array_equal(svd.U, np.linalg.svd(H)[0])

    def test_dense_column_after_bidiagonal_is_lapack(self):
        H = projected_matrix("bidiagonal", self.K, 11, "random", False)
        H[:-1, -1] = np.random.default_rng(11).standard_normal(self.K)
        prev = svd_small(H[:-1, :-1], svd_small(H[:-2, :-2]))
        assert prev.U.shape == (2, self.K)  # extended from a bidiagonal column
        with pytest.raises(np.linalg.LinAlgError, match="^prev keeps two rows of U"):
            extend_svd(prev, H)
        svd = svd_small(H, prev)
        np.testing.assert_array_equal(svd.U, np.linalg.svd(H)[0])

    def test_zero_column_keeps_a_full_u(self, monkeypatch):
        # a Hessenberg column that is zero throughout extends the full U,
        # so the dense column after it is extended too, not LAPACK's
        H = self._matrix()
        H[:, -2] = 0.0
        calls = []
        original = projected.extend_svd
        monkeypatch.setattr(projected, "extend_svd",
                            lambda prev, H: calls.append(H.shape) or original(prev, H))
        prev = svd_small(H[:-1, :-1], svd_small(H[:-2, :-2]))
        assert prev.U.shape == (self.K, self.K)
        svd = svd_small(H, prev)
        assert calls == [H[:-1, :-1].shape, H.shape]
        assert svd.U.shape == (self.K + 1, self.K + 1)
        assert_matches_lapack(svd, H)

    def test_secular_failure_falls_back_to_lapack(self, monkeypatch):
        H = self._matrix()

        def fail(prev, H):
            raise np.linalg.LinAlgError("dlasd4 failed")

        monkeypatch.setattr(projected, "extend_svd", fail)
        svd = svd_small(H, svd_small(H[:-1, :-1]))
        np.testing.assert_array_equal(svd.U, np.linalg.svd(H)[0])

    def test_solver_extends_each_iteration(self, monkeypatch, gravity64):
        calls = []
        original = projected.extend_svd
        monkeypatch.setattr(projected, "extend_svd",
                            lambda prev, H: calls.append(H.shape[1]) or original(prev, H))
        maxiter = projected._EXTEND_MIN_K + 6
        res = solve(gravity64.op, gravity64.b,
                    SolverConfig(method="hybrid_lsqr", maxiter=maxiter))
        assert res.k_reached == maxiter
        assert calls == list(range(projected._EXTEND_MIN_K + 1, maxiter + 1))

    def test_no_k_by_k_temporary(self):
        for kind in ("hessenberg", "bidiagonal"):
            H = projected_matrix(kind, 200, 5, "random", False)
            prev = svd_small(H[:-1, :-1])
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                svd = extend_svd(prev, H)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            # the bidiagonal U keeps two rows: no (k+1)-by-(k+1) U is made
            assert svd.U.shape == ((201, 201) if kind == "hessenberg" else (2, 201))
            result = svd.U.nbytes + svd.V.nbytes
            assert peak - result <= 0.9 * svd.V.nbytes  # one k-by-k array is V's size


@settings(max_examples=25, deadline=None)
@given(p=st.integers(-10, 10), method=st.sampled_from(["hybrid_lslu", "hybrid_lsqr"]),
       rule=st.sampled_from(["gcv", "wgcv"]))
def test_solution_is_scale_equivariant(gravity32, p, method, rule):
    # (cA, cb) has the same solution: the lambda window scales with sigma_1
    A, b, c = gravity32.op.to_dense(), gravity32.b, 10.0**p
    config = SolverConfig(method=method, maxiter=12, lambda_rule=LambdaRule(kind=rule))
    x = solve(make_dense_operator(A), b, config).x_final
    xc = solve(make_dense_operator(c * A), c * b, config).x_final
    assert np.linalg.norm(xc - x) <= 1e-10 * np.linalg.norm(x)

