import numpy as np
import pytest

from lslu import (BREAKDOWN_EXACT, BREAKDOWN_NONE, PivotStrategy, gk_init, gk_run,
                  gk_step, hess_init, hess_run, ls_projected, make_dense_operator,
                  make_gravity_problem, reductions, svd_small)
from lslu.golub_kahan import _reorthogonalize


def test_identity_hand_recurrence():
    op = make_dense_operator(np.eye(2))
    state = gk_run(op, [3.0, 4.0], maxiter=5)
    assert state.beta == pytest.approx(5.0, abs=1e-14)
    np.testing.assert_allclose(state.U[:, 0], [0.6, 0.8], atol=1e-15)
    assert state.B[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert state.k == 1
    assert state.breakdown == BREAKDOWN_EXACT
    # one step solves the system exactly
    y = ls_projected(svd_small(state.B), state.beta)
    x = state.V @ y
    np.testing.assert_allclose(x, [3.0, 4.0], atol=1e-12)


def test_exact_data_immediate_stop():
    op = make_dense_operator(np.array([[2.0, 0.0], [1.0, 1.0]]))
    x0 = np.array([1.0, -1.0])
    state = gk_run(op, op.forward(x0), x0=x0, maxiter=5)
    assert state.breakdown == BREAKDOWN_EXACT
    assert state.k == 0


def test_orthogonality_residuals():
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((30, 20))
    op = make_dense_operator(matrix)
    state = gk_run(op, rng.standard_normal(30), maxiter=10)
    assert state.k == 10 and state.reorth
    U, V = state.U, state.V
    assert np.linalg.norm(U.T @ U - np.eye(U.shape[1]), "fro") <= 1e-12
    assert np.linalg.norm(V.T @ V - np.eye(V.shape[1]), "fro") <= 1e-12


def test_factorization_relation(gravity64):
    state = gk_run(gravity64.op, gravity64.b, maxiter=15)
    matrix = gravity64.op.to_dense()
    resid = np.linalg.norm(matrix @ state.V - state.U @ state.B, "fro")
    assert resid <= 1e-10 * np.linalg.norm(matrix, "fro") * np.sqrt(state.k)


def test_projected_solution_matches_dense_least_squares():
    rng = np.random.default_rng(12)
    matrix = rng.standard_normal((12, 10))
    op = make_dense_operator(matrix)
    b = rng.standard_normal(12)
    state = gk_run(op, b, maxiter=30)
    y = ls_projected(svd_small(state.B), state.beta)
    x = state.V @ y
    x_dense = np.linalg.lstsq(matrix, b, rcond=None)[0]
    assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)


def test_hand_stepped_state_matches_run(gravity64):
    op, b = gravity64.op, gravity64.b
    stepped = gk_init(op, b, maxiter=20)
    for _ in range(20):
        gk_step(stepped, op)
    run = gk_run(op, b, maxiter=20)
    assert stepped.k == run.k == 20
    for key in ("U", "V", "B"):
        np.testing.assert_array_equal(getattr(stepped, key), getattr(run, key),
                                      err_msg=key)


def test_step_past_maxiter_raises(gravity32):
    state = gk_run(gravity32.op, gravity32.b, maxiter=5)
    with pytest.raises(ValueError, match="maxiter=5"):
        gk_step(state, gravity32.op)
    assert state.k == 5 and state.breakdown == BREAKDOWN_NONE


@pytest.mark.parametrize("entry, option", [
    (hess_init, PivotStrategy.full()), (hess_run, PivotStrategy.full()),
    (gk_init, 10), (gk_run, 10)], ids=["hess_init", "hess_run", "gk_init", "gk_run"])
def test_options_after_x0_are_keyword_only(entry, option):
    # no positional call can bind an option to another option's name
    op = make_dense_operator(np.eye(3))
    with pytest.raises(TypeError):
        entry(op, np.ones(3), None, option)


@pytest.mark.parametrize("tilt, passes", [(1e-10, 2), (None, 1)],
                         ids=["near_span", "generic"])
def test_second_pass_only_when_dgks_asks(tilt, passes):
    # a vector within 1e-10 of the rows' span loses almost all of its
    # norm in the first pass, so the DGKS test takes a second one; a
    # generic vector keeps more than 1/sqrt(2) and takes one.  Each pass
    # is one block product and one counted norm.
    rng = np.random.default_rng(3)
    rows = np.linalg.qr(rng.standard_normal((50, 8)))[0].T
    w = rng.standard_normal(50)
    vec = w if tilt is None else rows.T @ rng.standard_normal(8) + tilt * w
    once = vec - rows.T @ (rows @ vec)
    with reductions.track() as counter:
        norm = _reorthogonalize(vec, rows)
    assert (counter.blocks, counter.count) == (passes, passes)
    assert norm == pytest.approx(np.linalg.norm(vec), rel=1e-14)
    assert np.abs(rows @ vec).max() <= 1e-15 * norm * np.sqrt(50)
    if tilt is not None:  # the pass it added was needed
        assert np.abs(rows @ once).max() > 1e-10 * np.linalg.norm(once)


def test_deep_run_stays_orthonormal():
    # gravity n=256 to k=100 loses orthogonality fast enough that the
    # DGKS test fires on many half-steps; both bases stay orthonormal
    grav = make_gravity_problem(256)
    with reductions.track() as counter:
        state = gk_run(grav.op, grav.b, maxiter=100)
    assert state.k == 100
    assert counter.blocks - (2 * state.k - 1) >= 50  # second passes
    U, V = state.U, state.V
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-14
    assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-14
