"""The projected pass on a held state: replays and bound reports.

A replay reads a grown state's columns and must give, bit for bit, the
result a fresh solve of the same configuration gives, whatever ended
the state; a bound report built from held states must equal the
wrapper that grows its own.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import hadamard

import lslu.projected as projected
import lslu.solvers as solvers
from lslu import (BidiagState, HessenbergState, LambdaRule, PivotStrategy,
                  SolverConfig, bound_report, gk_init, gk_run, hess_init, hess_run,
                  hybrid_bound_report, make_dense_operator, make_gravity_problem,
                  make_tomo_problem, plain_bound_report, reductions, replay, solve)
from lslu.golub_kahan import gk_step
from lslu.hessenberg import hess_step, iterate
from lslu.solvers import METHODS

FIELDS = ("x_final", "k_stop", "stop_reason", "lambdas", "ghats", "ys",
          "residual_norms", "relative_errors")


def _bits(value):
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, (int, str)):
        return value
    return np.asarray(value, dtype=float).tobytes()


def assert_same_result(replayed, fresh):
    for name in FIELDS:
        assert _bits(getattr(replayed, name)) == _bits(getattr(fresh, name)), name


def grow(op, b, config, maxiter=None):
    """The state config.method grows, run to maxiter (config's by default)."""
    maxiter = maxiter or config.maxiter
    if config.method.endswith("lslu"):
        return hess_run(op, b, config.x0, strategy=config.pivot, maxiter=maxiter)
    return gk_run(op, b, config.x0, maxiter=maxiter)


def _snapshot(state):
    out = {}
    for key, value in vars(state).items():
        if isinstance(value, np.ndarray):
            out[key] = (value.dtype, value.shape, value.tobytes())
        elif isinstance(value, np.random.Generator):
            out[key] = value.bit_generator.state
        elif key != "_r_factors":
            out[key] = value
    return out


def _held(state):
    # _snapshot of what the state holds: the rows of the two bases past
    # their columns are np.empty storage that no step filled
    out = _snapshot(state)
    out["_sol"] = state._sol[:state.k].tobytes()
    out["_res"] = state._res[:state.residual_count].tobytes()
    return out


@pytest.fixture(scope="module")
def panel_problems():
    return {"gravity256": make_gravity_problem(256, noise_level=1e-2, seed=0),
            "tomo64": make_tomo_problem(64, noise_level=1e-2, seed=0)}


# the auto-stop panel: (method, pivot, rule)
_PANEL = [("hybrid_lslu", PivotStrategy.full(), "gcv"),
          ("hybrid_lslu", PivotStrategy.full(), "wgcv"),
          ("hybrid_lslu", PivotStrategy.sampled(50, seed=0), "gcv"),
          ("hybrid_lslu", PivotStrategy.sampled(50, seed=0), "wgcv"),
          ("hybrid_lsqr", PivotStrategy.full(), "gcv"),
          ("hybrid_lsqr", PivotStrategy.full(), "wgcv")]


@pytest.mark.parametrize("problem", ["gravity256", "tomo64"])
def test_replay_is_the_auto_stopped_solve(panel_problems, problem):
    prob = panel_problems[problem]
    states = {}
    for method, pivot, rule in _PANEL:
        config = SolverConfig(method, 100, pivot=pivot, lambda_rule=LambdaRule(rule),
                              stop_tol=1e-4, track_truth=prob.x_true)
        fresh = solve(prob.op, prob.b, config)
        assert fresh.stop_reason == "ghat_tol"
        # one grown state serves both rules of a (method, pivot) pair
        key = (method, pivot.kind)
        if key not in states:
            states[key] = grow(prob.op, prob.b, config)
        state = states[key]
        before = _snapshot(state)
        assert_same_result(replay(state, config), fresh)
        assert _snapshot(state) == before


@pytest.mark.parametrize("method", ["lslu", "lsqr"])
@pytest.mark.parametrize("problem", ["gravity64", "tomo16"])
@pytest.mark.parametrize("maxiter", [7, 20])
def test_replay_of_a_plain_method(request, problem, method, maxiter):
    # a maxiter below state.k replays the solve that stops there
    prob = request.getfixturevalue(problem)
    config = SolverConfig(method, maxiter, track_truth=prob.x_true)
    state = grow(prob.op, prob.b, config, maxiter=20)
    assert state.k == 20
    assert_same_result(replay(state, config), solve(prob.op, prob.b, config))


@pytest.mark.parametrize("method", ["hybrid_lslu", "hybrid_lsqr"])
def test_replay_past_the_svd_extension_crossover(tomo16, method):
    # past _EXTEND_MIN_K both passes extend the projected SVD: LSLU's
    # with a full U, LSQR's with U's first and last rows
    maxiter = projected._EXTEND_MIN_K + 10
    config = SolverConfig(method, maxiter, track_truth=tomo16.x_true)
    state = grow(tomo16.op, tomo16.b, config)
    fresh = solve(tomo16.op, tomo16.b, config)
    assert state.k == fresh.k_reached == maxiter
    assert_same_result(replay(state, config), fresh)


def _spy_on_the_pass(monkeypatch, state=None):
    """Patch the pass's svd_small to log, per call, (k, the number of
    later columns it was given or None, state.k at the call, whether
    the SVD keeps probe rows); state.k is None without a state."""
    log, inner = [], solvers.svd_small

    def spy(H, prev=None, ahead=None):
        svd = inner(H, prev, ahead)
        log.append((H.shape[1], None if ahead is None else ahead.shape[1],
                    None if state is None else state.k, svd.probes))
        return svd

    monkeypatch.setattr(solvers, "svd_small", spy)
    return log


DEEP = 120


@pytest.mark.parametrize("case", ["no_stop", "below_state_k", "stop_never_fires",
                                  "lsqr"])
def test_replay_of_a_deep_solve(tomo24, monkeypatch, case):
    # past the midpoint a pass without a stop test extends the SVD from
    # the probe rows of the columns up to maxiter; replaying a longer
    # state reads those same columns, so it keeps the fresh solve's bits.
    # A stop test that does not fire keeps a full U throughout, and
    # hybrid LSQR its two rows.
    config = SolverConfig("hybrid_lsqr" if case == "lsqr" else "hybrid_lslu", DEEP,
                          track_truth=tomo24.x_true,
                          stop_tol=1e-300 if case == "stop_never_fires" else None)
    log = _spy_on_the_pass(monkeypatch)
    fresh = solve(tomo24.op, tomo24.b, config)
    assert fresh.stop_reason == "maxiter" and fresh.k_stop == DEEP
    probes = [k for k, _, _, kept in log if kept]
    probed = case in ("no_stop", "below_state_k")
    assert probes == (list(range(DEEP // 2 + 1, DEEP + 1)) if probed else [])
    state = grow(tomo24.op, tomo24.b, config,
                 maxiter=DEEP if case == "no_stop" else DEEP + 20)
    log.clear()
    assert_same_result(replay(state, config), fresh)
    assert [kept for *_, kept in log] == [k in probes for k in range(1, DEEP + 1)]


def test_interleaved_deep_pass_keeps_a_full_u(tomo24, monkeypatch):
    # fed each k as the state grows it, a pass without a stop test holds
    # no later column, so it takes the full-U route (that of a stop test
    # that never fires) and never reads a column not yet grown; a solve
    # reads only grown columns too
    op, b = tomo24.op, tomo24.b
    config = SolverConfig("hybrid_lslu", 70, track_truth=tomo24.x_true)
    state = hess_init(op, b, strategy=config.pivot, maxiter=config.maxiter)
    log = _spy_on_the_pass(monkeypatch, state)
    result = solvers._project(state, config, iterate(state, hess_step, op, config.maxiter))
    assert log == [(k, None, k, False) for k in range(1, 71)]
    log.clear()
    assert_same_result(result, solve(op, b, replace(config, stop_tol=1e-300)))
    log.clear()
    fresh = solve(op, b, config)
    assert all(kept == (k > projected._EXTEND_MIN_K) for k, _, _, kept in log)
    assert [ahead for _, ahead, _, _ in log] == [70 - k for k in range(1, 71)]
    assert fresh.state.k == 70


def test_replay_of_a_pure_solve_without_histories(gravity32):
    config = SolverConfig("hybrid_lslu", 12, pure=True)
    state = grow(gravity32.op, gravity32.b, config)
    result = replay(state, config)
    assert result.residual_norms == [] and result.relative_errors == []
    assert_same_result(result, solve(gravity32.op, gravity32.b, config))


def test_replay_makes_no_operator_product(gravity32):
    config = SolverConfig("hybrid_lslu", 10, track_truth=gravity32.x_true)
    state = grow(gravity32.op, gravity32.b, config)
    with reductions.track() as counter:
        replay(state, config)
    assert (counter.forward, counter.adjoint) == (0, 0)


def _hadamard_problem():
    # b lies in the span of 3 left singular vectors: exact_solution at k = 3,
    # the breakdown step adding the third column
    m, n = 16, 8
    matrix = (hadamard(m)[:, :n] @ np.diag([8.0, 6, 4, 3, 2, 1.5, 1, 0.5])
              @ hadamard(n).T)
    return make_dense_operator(matrix), hadamard(m)[:, :3] @ np.array([3.0, -2.0, 1.0])


def _dense_problem(shape):
    rng = np.random.default_rng(shape[0])
    return make_dense_operator(rng.standard_normal(shape)), rng.standard_normal(shape[0])


def _sparse_problem(seed):
    # exact zeros at the unpivoted candidates: the residual half drops
    # its half-built column
    rng = np.random.default_rng(seed)
    matrix = (rng.random((10, 8)) < 0.25) * rng.integers(1, 4, (10, 8)).astype(float)
    return make_dense_operator(matrix), (rng.random(10) < 0.5) * 1.0


def _tomo16_unpivoted():
    prob = make_tomo_problem(16, noise_level=1e-2, seed=1)
    return prob.op, prob.b


def _rank_two():
    # a 6-by-4 matrix of rank 2 and a generic b: both families stop at
    # k = 2, on the third step, with three residual columns
    b = np.random.default_rng(0).standard_normal(6)
    return make_dense_operator(np.arange(1.0, 25.0).reshape(6, 4)), b


def _exact_at_init():
    op = make_dense_operator(np.array([[1.0, 2.0], [3.0, 4.0]]))
    return op, op.forward(np.array([2.0, -1.0]))


# (problem, family, pivot, x0, k, whether the breakdown step added the
# state's last column): each way a state can end in a breakdown
_ENDINGS = {
    "exact_solution_lslu": (_hadamard_problem, "lslu", "full", None, 3, True),
    "exact_solution_lsqr": (_hadamard_problem, "lsqr", "full", None, 3, True),
    "residual_window_exhausted": (lambda: _dense_problem((8, 12)), "lslu", "full",
                                  None, 8, True),
    "solution_space_spanned_lslu": (lambda: _dense_problem((12, 8)), "lslu", "full",
                                    None, 8, False),
    "solution_space_spanned_lsqr": (lambda: _dense_problem((12, 8)), "lsqr", "full",
                                    None, 8, False),
    "rank_deficient_lslu": (_rank_two, "lslu", "full", None, 2, False),
    "rank_deficient_lsqr": (_rank_two, "lsqr", "full", None, 2, False),
    "dropped_column": (lambda: _sparse_problem(12), "lslu", "none", None, 6, False),
    "before_the_first_column": (_tomo16_unpivoted, "lslu", "none", None, 0, False),
    "exact_at_init": (_exact_at_init, "lslu", "full", np.array([2.0, -1.0]), 0, True),
}


@pytest.mark.parametrize("ending", list(_ENDINGS))
def test_replay_of_a_broken_down_state(ending):
    make, family, pivot, x0, k, added = _ENDINGS[ending]
    op, b = make()
    methods = (family, f"hybrid_{family}")
    state = grow(op, b, SolverConfig(family, 20, x0=x0, pivot=PivotStrategy(pivot)))
    assert state.k == k and state.breakdown != "none"
    assert (state.residual_count == state.k) == added
    for method in methods:
        for maxiter in sorted({max(k - 1, 1), max(k, 1), k + 1, k + 5}):
            config = SolverConfig(method, maxiter, x0=x0, pivot=PivotStrategy(pivot),
                                  lambda_rule=LambdaRule.fixed(0.01))
            fresh = solve(op, b, config)
            # the state's own end decides the reason at maxiter = k
            reached = maxiter > k or (maxiter == k and added)
            assert fresh.stop_reason == ("breakdown" if reached else "maxiter")
            assert_same_result(replay(state, config), fresh)


def _interleaved(op, b, config):
    # the order a solve with a stop test keeps: the pass takes each new k
    # as the state grows it
    if config.method.endswith("lslu"):
        state = hess_init(op, b, config.x0, strategy=config.pivot,
                          maxiter=config.maxiter)
        step = hess_step
    else:
        state = gk_init(op, b, config.x0, maxiter=config.maxiter)
        step = gk_step
    return solvers._project(state, config, iterate(state, step, op, config.maxiter))


def _gravity64():
    prob = make_gravity_problem(64, noise_level=1e-2, seed=0)
    return prob.op, prob.b


# (problem, maxiter, the state's end): at maxiter (unpivoted LSLU breaks
# down at k = 17), in exact_solution at k = 3, in rank_deficient at k = 2
_ORDER_PROBLEMS = {"maxiter": (_gravity64, 15, "none"),
                   "exact_solution": (_hadamard_problem, 20, "exact_solution"),
                   "rank_deficient": (_rank_two, 20, "rank_deficient")}


@pytest.mark.parametrize("method, pivot", [
    (method, pivot) for method in METHODS
    for pivot in (("none", "full", "sampled") if method.endswith("lslu") else ("full",))])
@pytest.mark.parametrize("ending", list(_ORDER_PROBLEMS))
def test_grown_then_projected_is_the_interleaved_solve(ending, method, pivot):
    # a solve without a stop test grows its state to the end before the
    # pass; it must give the bits of the pass fed each k as it is grown
    make, maxiter, breakdown = _ORDER_PROBLEMS[ending]
    op, b = make()
    n = op.shape[1]
    x_true = np.linspace(1.0, 2.0, n)
    strategy = (PivotStrategy.sampled(5, seed=2) if pivot == "sampled"
                else PivotStrategy(pivot))
    rules = ([LambdaRule.fixed(0.01), LambdaRule.wgcv(), LambdaRule.optimal(x_true)]
             if method.startswith("hybrid_") else [LambdaRule.wgcv()])
    x0 = np.linspace(-1.0, 1.0, n)
    for rule in rules:
        # a nonzero x0 moves b by A x0, so the residual and the ending stay
        for start, data, truth in ((None, b, None), (x0, b + op.forward(x0), x_true)):
            config = SolverConfig(method, maxiter, x0=start, pivot=strategy,
                                  lambda_rule=rule, track_truth=truth)
            fresh, reference = solve(op, data, config), _interleaved(op, data, config)
            assert fresh.state.breakdown == breakdown
            assert fresh.stop_reason == ("maxiter" if breakdown == "none" else "breakdown")
            assert_same_result(fresh, reference)
            assert _held(fresh.state) == _held(reference.state)


@pytest.mark.parametrize("method", METHODS)
def test_rank_two_matrix_ends_rank_deficient(method):
    op, b = _rank_two()
    res = solve(op, b, SolverConfig(method, 20))
    assert (res.k_stop, res.stop_reason) == (2, "breakdown")
    assert (res.state.breakdown, res.state.residual_count) == ("rank_deficient", 3)


def test_replay_rejects_what_it_cannot_replay(gravity32):
    op, b = gravity32.op, gravity32.b
    h, g = hess_run(op, b, maxiter=5), gk_run(op, b, maxiter=5)
    cases = [
        (h, SolverConfig("lsqr", 5), "method 'lsqr' is not of the lslu family"),
        (g, SolverConfig("hybrid_lslu", 5),
         "method 'hybrid_lslu' is not of the lsqr family"),
        (h, SolverConfig("lslu", 6), "maxiter 6 exceeds state.k = 5"),
        (hess_init(op, b), SolverConfig("lslu", 1), "maxiter 1 exceeds state.k = 0"),
        (gk_init(op, b), SolverConfig("lsqr", 1), "maxiter 1 exceeds state.k = 0"),
        ("state", SolverConfig("lslu", 1),
         "state must be a HessenbergState or BidiagState, got str"),
        (h, SolverConfig("lslu", 5, track_truth=np.ones(3)),
         "track_truth must be a vector of length 32"),
        (h, SolverConfig("hybrid_lslu", 5, lambda_rule=LambdaRule.optimal(np.ones(3))),
         "x_true must be a vector of length 32"),
    ]
    for state, config, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            replay(state, config)


# -- bound reports ---------------------------------------------------------

def _rows(report):
    return _bits([report.iterations, report.r_lu, report.r_qr, report.kappa,
                  report.lower_ok, report.upper_ok])


@pytest.mark.parametrize("pivot", [PivotStrategy.full(), PivotStrategy.none(),
                                   PivotStrategy.sampled(7, seed=3)],
                         ids=["full", "none", "sampled"])
@pytest.mark.parametrize("problem", ["gravity64", "tomo16"])
def test_both_reports_from_one_pair_of_states(request, problem, pivot):
    prob, maxiter = request.getfixturevalue(problem), 15
    h = hess_run(prob.op, prob.b, strategy=pivot, maxiter=maxiter)
    g = gk_run(prob.op, prob.b, maxiter=maxiter)
    assert _rows(bound_report(h, g, 0.0)) == _rows(
        plain_bound_report(prob.op, prob.b, maxiter, pivot=pivot))
    for lam in (1e-3, 0.1):
        assert _rows(bound_report(h, g, lam)) == _rows(
            hybrid_bound_report(prob.op, prob.b, lam, maxiter, pivot=pivot))


def test_report_of_states_with_unequal_columns(gravity32):
    # rows run to the fewer columns of the two states; kappa comes from
    # the QR of a longer basis, equal to rounding
    op, b = gravity32.op, gravity32.b
    report = bound_report(hess_run(op, b, maxiter=9), gk_run(op, b, maxiter=6), 0.01)
    grown = hybrid_bound_report(op, b, 0.01, 6)
    rows, grown_rows = _rows(report), _rows(grown)
    assert rows[:3] == grown_rows[:3] and rows[4:] == grown_rows[4:]
    np.testing.assert_allclose(report.kappa, grown.kappa, rtol=1e-12)


def test_report_of_a_state_broken_down_before_its_first_column():
    op, b = _tomo16_unpivoted()
    h = hess_run(op, b, strategy=PivotStrategy.none(), maxiter=5)
    report = bound_report(h, gk_run(op, b, maxiter=5))
    assert h.k == 0 and report.iterations == [] and report.all_ok()


_STATES = ("lu_state and qr_state must be a HessenbergState and a BidiagState of "
           "one problem")


@pytest.mark.parametrize("args, message", [
    ("swapped", _STATES), ("two_hessenberg", _STATES), ("two_shapes", _STATES),
    ("two_x0", _STATES),
    ("nan", "lam must be finite and nonnegative, got nan"),
    ("inf", "lam must be finite and nonnegative, got inf"),
    ("negative", "lam must be finite and nonnegative, got -0.5"),
])
def test_report_rejects_inputs(gravity32, gravity64, args, message):
    op, b = gravity32.op, gravity32.b
    h, g = hess_run(op, b, maxiter=4), gk_run(op, b, maxiter=4)
    calls = {
        "swapped": (g, h),
        "two_hessenberg": (h, hess_run(op, b, maxiter=4)),
        "two_shapes": (h, gk_run(gravity64.op, gravity64.b, maxiter=4)),
        "two_x0": (h, gk_run(op, b, np.ones(32), maxiter=4)),
        "nan": (h, g, float("nan")),
        "inf": (h, g, float("inf")),
        "negative": (h, g, -0.5),
    }
    assert isinstance(h, HessenbergState) and isinstance(g, BidiagState)
    with pytest.raises(ValueError, match=re.escape(message)):
        bound_report(*calls[args])
