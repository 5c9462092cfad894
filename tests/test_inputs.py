"""Every input is checked where the library takes it.

A bool, a non-number, None (where None is no legal value), NaN, inf or
a value out of range raises InputError, a ValueError whose .name is the
parameter and whose message names it, before any operator product.
NumPy scalars of a legal value pass.  So does a vector, matrix, kind,
config object or state of the wrong type, shape or contents.
"""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from lslu import (InputError, LambdaRule, PivotStrategy, SolverConfig, add_noise,
                  bound_report, build_uq, compute_histories, ghat, gk_init, gk_run,
                  hess_init, hess_run, hybrid_bound_report, load_dense_problem,
                  make_dense_operator, make_gravity_problem, make_sparse_operator,
                  make_tomo_problem, plain_bound_report, relation_residuals, replay,
                  select_lambda, solve, svd_small, tikhonov_projected, trace_view,
                  wgcv_value)
from lslu import reductions
from lslu.uq import check_noise_model, oracle_posterior


@pytest.fixture(scope="module")
def ctx(gravity32, tmp_path_factory):
    h = hess_run(gravity32.op, gravity32.b, maxiter=4)
    g = gk_run(gravity32.op, gravity32.b, maxiter=4)
    res = solve(gravity32.op, gravity32.b, SolverConfig("hybrid_lslu", 4, pure=True))
    return {"prob": gravity32, "h": h, "g": g, "svd": svd_small(h.projected_matrix),
            "res": res, "tmp": tmp_path_factory.mktemp("files")}


# each scalar parameter: its name, a call (of the fixture's pieces, an
# operator whose products are counted, and the value) that takes it, a
# legal value, one value out of its range, and whether None is legal
REALS = {
    "SolverConfig.stop_tol": ("stop_tol", lambda c, op, v: SolverConfig(
        "hybrid_lslu", 5, stop_tol=v), 1e-4, 0.0, True),
    "LambdaRule.value": ("lambda_value", lambda c, op, v: LambdaRule("fixed", v),
                         0.5, -1.0, False),
    "ghat.lam": ("lam", lambda c, op, v: ghat(c["svd"], 1.0, v, 32, 32),
                 0.1, -1.0, False),
    "wgcv_value.lam": ("lam", lambda c, op, v: wgcv_value(c["svd"], 1.0, v, 0.5),
                       0.1, -1.0, False),
    "wgcv_value.omega": ("omega", lambda c, op, v: wgcv_value(c["svd"], 1.0, 0.1, v),
                         0.5, 1.5, False),
    "tikhonov_projected.lam": ("lam", lambda c, op, v: tikhonov_projected(
        c["svd"], 1.0, v), 0.1, -1.0, False),
    "bound_report.lam": ("lam", lambda c, op, v: bound_report(c["h"], c["g"], v),
                         0.1, -1.0, False),
    "hybrid_bound_report.lam": ("lam", lambda c, op, v: hybrid_bound_report(
        op, c["prob"].b, v, 3), 0.1, 0.0, False),
    "check_noise_model.sigma2": ("sigma2", lambda c, op, v: check_noise_model(v, 0.1),
                                 1.0, -1.0, False),
    "build_uq.sigma2": ("sigma2", lambda c, op, v: build_uq(c["h"], v, 0.1),
                        1.0, -1.0, False),
    "check_noise_model.reg": ("reg", lambda c, op, v: check_noise_model(1.0, v),
                              0.1, 0.0, False),
    "build_uq.reg": ("reg", lambda c, op, v: build_uq(c["h"], 1.0, v), 0.1, 0.0, False),
    "make_gravity_problem.noise_level": ("noise_level", lambda c, op, v:
                                         make_gravity_problem(16, noise_level=v),
                                         0.01, -0.1, False),
    "make_tomo_problem.noise_level": ("noise_level", lambda c, op, v:
                                      make_tomo_problem(8, noise_level=v),
                                      0.01, -0.1, False),
    "add_noise.noise_level": ("noise_level", lambda c, op, v: add_noise(
        c["prob"].b_exact, v, 0), 0.01, -0.1, False),
    "make_gravity_problem.depth": ("depth", lambda c, op, v:
                                   make_gravity_problem(16, depth=v), 0.25, 0.0, False),
}
COUNTS = {
    "make_gravity_problem.n": ("n", lambda c, op, v: make_gravity_problem(v), 16, 1,
                               False),
    "make_tomo_problem.n": ("n", lambda c, op, v: make_tomo_problem(v), 8, 3, False),
    "make_tomo_problem.n_angles": ("n_angles", lambda c, op, v: make_tomo_problem(
        8, n_angles=v), 4, 0, True),
    "make_tomo_problem.n_detectors": ("n_detectors", lambda c, op, v: make_tomo_problem(
        8, n_detectors=v), 4, 0, True),
    "make_gravity_problem.seed": ("seed", lambda c, op, v: make_gravity_problem(
        16, seed=v), 3, -1, False),
    "make_tomo_problem.seed": ("seed", lambda c, op, v: make_tomo_problem(8, seed=v),
                               3, -1, False),
    "add_noise.seed": ("seed", lambda c, op, v: add_noise(c["prob"].b_exact, 0.01, v),
                       3, -1, False),
    "SolverConfig.maxiter": ("maxiter", lambda c, op, v: SolverConfig("lslu", v),
                             5, 0, False),
    "PivotStrategy.sample_size": ("sample_size", lambda c, op, v: PivotStrategy(
        "sampled", v), 5, 0, False),
    "PivotStrategy.seed": ("seed", lambda c, op, v: PivotStrategy("sampled", 5, v),
                           3, -1, True),
    "build_uq.k": ("k", lambda c, op, v: build_uq(c["h"], 1.0, 0.1, k=v), 2, 0, True),
}
INPUTS = {**REALS, **COUNTS}


def _bad_values(case):
    *_, out_of_range, none_legal = INPUTS[case]
    # an integer past the float range is a legal count but no finite real
    return ([True, "1", math.nan, math.inf, np.float32(-math.inf), out_of_range]
            + ([10**400] if case in REALS else []) + ([] if none_legal else [None]))


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{case}-{value!r:.20}")
    for case in INPUTS for value in _bad_values(case)])
def test_bad_scalar_named(ctx, case, value):
    name, call, *_ = INPUTS[case]
    with reductions.track() as counter, pytest.raises(InputError) as info:
        call(ctx, ctx["prob"].op, value)
    assert info.value.name == name
    assert name in str(info.value)
    assert (counter.forward, counter.adjoint) == (0, 0)


@pytest.mark.parametrize("case", INPUTS)
def test_numpy_scalar_accepted(ctx, case):
    _, call, legal, *_ = INPUTS[case]
    kind = np.float32 if case in REALS else np.int64
    call(ctx, ctx["prob"].op, kind(legal))


def test_message_fills_in_a_label():
    with pytest.raises(InputError) as info:
        make_tomo_problem(8, n_angles=0)
    assert str(info.value) == "n_angles must be at least 1, got 0"
    assert info.value.message("--angles") == "--angles must be at least 1, got 0"


@pytest.mark.parametrize("make, n", [(make_gravity_problem, 16), (make_tomo_problem, 8)])
def test_numpy_seed_gives_the_same_problem(make, n):
    a = make(n, seed=7)
    for b in (make(n, seed=np.int64(7)), make(n, seed=np.uint64(7))):
        for part in ("b", "e", "b_exact", "x_true"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes()
    assert make(n, seed=2**64).b.shape == a.b.shape


def test_huge_seed_accepted():
    b, e = add_noise(np.ones(4), 0.1, 2**64)
    assert np.isfinite(b).all() and np.linalg.norm(e) > 0


def _nan(*shape):
    value = np.ones(shape)
    value.flat[value.size // 2] = np.nan
    return value


def _dense_files(c, **contents):
    # load_dense_problem of gravity32's matrix and data written to files,
    # the contents of the files named replaced
    arrays = {"matrix_path": c["prob"].op.to_dense(), "rhs_path": c["prob"].b, **contents}
    for name, array in arrays.items():
        np.savetxt(c["tmp"] / f"{name}.txt", array)
    return load_dense_problem(*(c["tmp"] / f"{name}.txt" for name in arrays))


def _sparse_with(value):
    # a sparse matrix, one of whose stored entries is value
    def make(c):
        matrix = sp.random(30, 20, density=0.2, random_state=3, format="coo")
        matrix = matrix.astype(np.result_type(matrix.dtype, value))
        matrix.data[7] = value
        return matrix
    return make


# vectors of the operator's 32 rows or columns a check must reject; a
# complex one is rejected by its dtype, even with a zero imaginary part
BAD_VECTORS = ["abc", {}, np.ones(31), np.ones((32, 1)), 2.0, _nan(32),
               np.full(32, 1 + 2j), np.ones(32, dtype=complex), np.full(32, "1")]
BAD_MATRICES = ["abc", np.ones(4), np.ones((2, 2, 2)), _nan(4, 3),
                np.full((4, 3), 1 + 2j), np.full((4, 3), "1")]
# each non-scalar input: the callable or config class whose parameter or
# field names it, a call (of the fixture's pieces, an operator whose
# products are counted, and the value) that takes it, and values it must
# reject (a callable value is called with the fixture's pieces first)
NON_SCALARS = {
    "hess_init.b": (hess_init, lambda c, op, v: hess_init(op, v), BAD_VECTORS),
    "gk_init.b": (gk_init, lambda c, op, v: gk_init(op, v), BAD_VECTORS),
    "solve.b": (solve, lambda c, op, v: solve(op, v, SolverConfig("lslu", 3)),
                BAD_VECTORS),
    "hess_init.x0": (hess_init, lambda c, op, v: hess_init(op, c["prob"].b, v),
                     BAD_VECTORS),
    "gk_init.x0": (gk_init, lambda c, op, v: gk_init(op, c["prob"].b, v), BAD_VECTORS),
    "SolverConfig.x0": (SolverConfig, lambda c, op, v: solve(
        op, c["prob"].b, SolverConfig("lslu", 3, x0=v)), BAD_VECTORS),
    "SolverConfig.track_truth": (SolverConfig, lambda c, op, v: solve(
        op, c["prob"].b, SolverConfig("lsqr", 3, track_truth=v)), BAD_VECTORS),
    "replay.track_truth": (SolverConfig, lambda c, op, v: replay(
        c["h"], SolverConfig("lslu", 3, track_truth=v)), BAD_VECTORS),
    "LambdaRule.x_true": (LambdaRule, lambda c, op, v: LambdaRule.optimal(v),
                          ["abc", None, np.ones((32, 1)), 2.0, _nan(32)]),
    "solve.x_true": (LambdaRule, lambda c, op, v: solve(op, c["prob"].b, SolverConfig(
        "hybrid_lslu", 3, lambda_rule=LambdaRule.optimal(v))), BAD_VECTORS),
    "select_lambda.x_true": (LambdaRule, lambda c, op, v: select_lambda(
        LambdaRule.optimal(v), c["svd"], c["h"].beta, 32, basis=c["h"].L, x0=c["h"].x0),
        [np.ones(1), np.ones(31), np.ones(33)]),
    "compute_histories.x_true": (compute_histories, lambda c, op, v: compute_histories(
        c["res"], v), BAD_VECTORS),
    "trace_view.points": (trace_view, lambda c, op, v: trace_view(4, v, [1.0, 0.5]), [
        [[np.nan, 1.0]], [[np.inf, 1.0]], [[1.0, 1.0, 1.0]], [1.0, 1.0], [["1", "1"]]]),
    "trace_view.direction": (trace_view, lambda c, op, v: trace_view(4, [[0.0, 1.0]], v), [
        [np.inf, 0.5], [1.0, 0.5, 0.0], [0.0, 0.0], [1e300, 1e300], ["1", "1"]]),
    "make_dense_operator.matrix": (make_dense_operator, lambda c, op, v:
                                   make_dense_operator(v), BAD_MATRICES),
    "make_sparse_operator.matrix": (make_sparse_operator, lambda c, op, v:
                                    make_sparse_operator(v),
                                    [_sparse_with(np.nan), _sparse_with(1 + 2j)]),
    "oracle_posterior.matrix": (oracle_posterior, lambda c, op, v: oracle_posterior(
        v, 1.0, 0.1), BAD_MATRICES),
    "load_dense_problem.matrix_path": (load_dense_problem, lambda c, op, v: _dense_files(
        c, matrix_path=v), [_nan(32, 32), np.full((32, 32), np.inf)]),
    "load_dense_problem.rhs_path": (load_dense_problem, lambda c, op, v: _dense_files(
        c, rhs_path=v), [_nan(32), np.ones(31), np.ones((2, 16)), np.ones((16, 2))]),
    "SolverConfig.method": (SolverConfig, lambda c, op, v: SolverConfig(v),
                            ["cg", "LSLU", 3, None, math.nan, np.array(["lslu"])]),
    "PivotStrategy.kind": (PivotStrategy, lambda c, op, v: PivotStrategy(v),
                           ["diagonal", 3, None, math.nan]),
    "LambdaRule.kind": (LambdaRule, lambda c, op, v: LambdaRule(v),
                        ["bogus", 3, None, math.nan]),
    "SolverConfig.pivot": (SolverConfig, lambda c, op, v: SolverConfig(
        "lslu", 3, pivot=v), ["full", None, 3, LambdaRule.gcv()]),
    "SolverConfig.lambda_rule": (SolverConfig, lambda c, op, v: SolverConfig(
        "lslu", 3, lambda_rule=v), ["gcv", None, PivotStrategy.full()]),
    "hess_init.strategy": (hess_init, lambda c, op, v: hess_init(
        op, c["prob"].b, strategy=v), ["full", 3, LambdaRule.gcv()]),
    "hess_run.strategy": (hess_run, lambda c, op, v: hess_run(
        op, c["prob"].b, strategy=v), ["full", 3]),
    "hess_init.sample_size": (PivotStrategy, lambda c, op, v: hess_init(
        op, c["prob"].b, strategy=PivotStrategy.sampled(v)), [33, 100]),
    "plain_bound_report.pivot": (plain_bound_report, lambda c, op, v: plain_bound_report(
        op, c["prob"].b, 3, pivot=v), ["full", 3]),
    "hybrid_bound_report.pivot": (hybrid_bound_report, lambda c, op, v:
                                  hybrid_bound_report(op, c["prob"].b, 0.1, 3, pivot=v),
                                  ["full", 3]),
    "replay.state": (replay, lambda c, op, v: replay(v, SolverConfig("lslu", 1)),
                     ["state", None, 3]),
    "bound_report.lu_state": (bound_report, lambda c, op, v: bound_report(v, c["g"]),
                              ["state", None, lambda c: c["g"]]),
    "bound_report.qr_state": (bound_report, lambda c, op, v: bound_report(c["h"], v),
                              ["state", None, lambda c: c["h"], lambda c: gk_run(
                                  c["prob"].op, np.ones(32), np.ones(32), maxiter=2)]),
    "build_uq.state": (build_uq, lambda c, op, v: build_uq(v, 1.0, 0.1),
                       ["state", None, lambda c: hess_init(c["prob"].op, c["prob"].b)]),
    "relation_residuals.state": (relation_residuals, lambda c, op, v: relation_residuals(
        v, op), ["state", None, lambda c: gk_init(c["prob"].op, c["prob"].b)]),
}


def _names(owner):
    # the parameters of a callable, or the fields of a config class
    if dataclasses.is_dataclass(owner):
        return {f.name for f in dataclasses.fields(owner)}
    return set(inspect.signature(owner).parameters)


@pytest.mark.parametrize("case, i", [
    pytest.param(case, i, id=f"{case}-{i}")
    for case, (_, _, values) in NON_SCALARS.items() for i in range(len(values))])
def test_bad_non_scalar_named(ctx, case, i):
    owner, call, values = NON_SCALARS[case]
    value = values[i](ctx) if callable(values[i]) else values[i]
    with reductions.track() as counter, pytest.raises(InputError) as info:
        call(ctx, ctx["prob"].op, value)
    assert info.value.name in _names(owner), info.value
    assert info.value.name in str(info.value)
    assert (counter.forward, counter.adjoint) == (0, 0)


def test_vector_messages():
    op = make_dense_operator(np.eye(3))
    cases = [(lambda: hess_init(op, [1.0, 2.0]),
              "b must be a vector of length 3 (the operator's rows), got shape (2,)"),
             (lambda: gk_init(op, np.ones(3), x0="abc"),
              "x0 must be an array of real numbers, got str"),
             (lambda: LambdaRule.optimal(np.ones((3, 1))),
              "x_true must be a 1-D vector, got shape (3, 1)"),
             (lambda: make_dense_operator([1.0, 2.0]), "matrix must be two-dimensional"),
             (lambda: make_dense_operator([[1 + 2j, 0], [0, 1]]),
              "matrix must be an array of real numbers, got complex128 values"),
             (lambda: hess_init(op, np.ones(3, dtype=np.complex64)),
              "b must be an array of real numbers, got complex64 values"),
             (lambda: hess_init(op, ["1", "2", "3"]),
              "b must be an array of real numbers, got <U1 values"),
             (lambda: trace_view(4, [[1.0, 1.0, 1.0]], [1.0, 0.5]),
              "points must have two columns (x, y), got shape (1, 3)"),
             (lambda: trace_view(4, [[1.0, 1.0]], [1.0, 0.5, 0.0]),
              "direction must be a vector of length 2, got shape (3,)"),
             (lambda: trace_view(4, [[1.0, 1.0]], [0.0, 0.0]),
              "direction must be nonzero, with a norm in the float range, got "
              "[0.0, 0.0]"),
             (lambda: SolverConfig("cg"), "unknown method 'cg'"),
             (lambda: PivotStrategy("diagonal"),
              "unknown pivot strategy kind 'diagonal'"),
             (lambda: hess_init(op, np.ones(3), strategy=PivotStrategy.sampled(4)),
              "sample_size must be at most max(m, n) = 3, got 4"),
             (lambda: build_uq(hess_init(op, np.ones(3)), 1.0, 0.1),
              "state has no completed iterations"),
             (lambda: relation_residuals("state", op),
              "state must be a KrylovState, got 'state'")]
    for call, message in cases:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("shape", [(32,), (1, 32), (32, 1)])
def test_rhs_file_of_one_row_or_column(ctx, shape):
    # any one-row or one-column file reads as the vector
    op, b = _dense_files(ctx, rhs_path=ctx["prob"].b.reshape(shape))
    assert b.shape == (32,) and b.tobytes() == ctx["prob"].b.tobytes()
