"""Every scalar input is checked where the library takes it.

A bool, a non-number, None (where None is no legal value), NaN, inf or
a value out of range raises InputError, a ValueError whose .name is the
parameter and whose message names it, before any operator product.
NumPy scalars of a legal value pass.
"""

import math

import numpy as np
import pytest

from lslu import (CountingOperator, InputError, LambdaRule, PivotStrategy,
                  SolverConfig, add_noise, bound_report, build_uq, ghat, gk_run,
                  hess_run, hybrid_bound_report, make_gravity_problem,
                  make_tomo_problem, svd_small, tikhonov_projected, wgcv_value)
from lslu.uq import check_noise_model


@pytest.fixture(scope="module")
def ctx(gravity32):
    h = hess_run(gravity32.op, gravity32.b, maxiter=4)
    g = gk_run(gravity32.op, gravity32.b, maxiter=4)
    return {"prob": gravity32, "h": h, "g": g, "svd": svd_small(h.projected_matrix)}


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
    op = CountingOperator(ctx["prob"].op)
    with pytest.raises(InputError) as info:
        call(ctx, op, value)
    assert info.value.name == name
    assert name in str(info.value)
    assert (op.n_forward, op.n_adjoint) == (0, 0)


@pytest.mark.parametrize("case", INPUTS)
def test_numpy_scalar_accepted(ctx, case):
    _, call, legal, *_ = INPUTS[case]
    kind = np.float32 if case in REALS else np.int64
    call(ctx, CountingOperator(ctx["prob"].op), kind(legal))


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
