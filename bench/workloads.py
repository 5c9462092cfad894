"""The benchmark's workloads and the work one measured round does.

A round runs, for every problem of the workload: the three timed
fixed-iteration solves (hybrid LSLU with history reporting, the same
with `pure=True`, hybrid LSQR), then the auto-stop panel, then the
post-processing step (UQ and residual-bound reports).  Every solve and
every post-processing step is one attempted operation; one that raises
or fails a correctness check counts as failed.
"""

from __future__ import annotations

import statistics
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from lslu import (LambdaRule, PivotStrategy, SolverConfig, add_noise,
                  build_uq, build_uq_bidiag, covariance_sum, gk_run, hess_run,
                  hybrid_bound_report, make_gravity_problem, make_tomo_problem,
                  plain_bound_report, reductions, relation_residuals, solve,
                  variance_diagonal)

NOISE_LEVEL = 1e-2
STOP_TOL = 1e-4
#: ||A L - D H||_F and ||A^T D - L W||_F must stay below this share of
#: ||A||_F times the number of basis columns.
RELATION_TOL = 1e-10

#: auto-stop configurations: (method, pivoting, lambda rule)
PIPELINE_PANEL = (("hybrid_lslu", "full", "gcv"), ("hybrid_lslu", "full", "wgcv"),
                  ("hybrid_lslu", "sampled", "gcv"), ("hybrid_lslu", "sampled", "wgcv"),
                  ("hybrid_lsqr", "full", "gcv"), ("hybrid_lsqr", "full", "wgcv"))
SINGLE_PANEL = (("hybrid_lslu", "full", "wgcv"), ("hybrid_lsqr", "full", "wgcv"))


@dataclass(frozen=True)
class ProblemSpec:
    kind: str  # "gravity" or "tomo"
    n: int

    def build(self, seed):
        maker = make_gravity_problem if self.kind == "gravity" else make_tomo_problem
        return maker(self.n, noise_level=NOISE_LEVEL, seed=seed)

    @property
    def label(self):
        return f"{self.kind}{self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple
    iters: int            # fixed iteration count of the timed solves
    panel: tuple          # auto-stopped configurations
    panel_seeds: tuple    # fixed noise seeds of the auto-stop panel
    panel_maxiter: int
    sample_size: int | None = None  # timed LSLU pivoting: sampled(size) or full
    post_k: int = 15


def _workloads(tiny):
    grav, tomo = (lambda n: ProblemSpec("gravity", n)), (lambda n: ProblemSpec("tomo", n))
    if not tiny:
        return (
            Workload("tomo-large", (tomo(64),), 100, SINGLE_PANEL, (0, 1, 2, 3), 100),
            Workload("gravity-dense", (grav(4096),), 20, SINGLE_PANEL, (0, 1), 20, post_k=5),
            Workload("tomo-small-deep", (tomo(24),), 200, SINGLE_PANEL, (0, 1, 2, 3), 200),
            Workload("autostop-pipeline", (grav(256), tomo(64)), 20, PIPELINE_PANEL,
                     (0, 1, 2, 3), 100, sample_size=50),
        )
    # smoke-check sizes: same code paths, a fraction of a second each
    return (
        Workload("tomo-large", (tomo(12),), 20, SINGLE_PANEL, (0,), 20, post_k=5),
        Workload("gravity-dense", (grav(64),), 8, SINGLE_PANEL, (0,), 8, post_k=5),
        Workload("tomo-small-deep", (tomo(8),), 30, SINGLE_PANEL, (0,), 30, post_k=5),
        Workload("autostop-pipeline", (grav(32), tomo(8)), 8, PIPELINE_PANEL,
                 (0, 1), 20, sample_size=16, post_k=5),
    )


WORKLOADS = {w.name: w for w in _workloads(tiny=False)}
TINY_WORKLOADS = {w.name: w for w in _workloads(tiny=True)}


class CheckFailed(Exception):
    """An output failed one of the benchmark's correctness checks."""


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, label, fn):
        """Run fn(); an exception or a failed check marks the operation failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every failure is counted, none may stop the run
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    @property
    def failed(self):
        return len(self.failures)


class SpeedClock:
    """Rescales measured seconds to a fixed machine speed.

    On a shared host the speed of a core drifts by up to ~1.9x, for
    seconds or minutes, under other tenants' load; thread CPU time drifts
    with wall time, so it is the core that slows, not preemption.  A fixed kernel
    that runs no lslu code (a Python loop of short vector updates, small
    SVDs and a gemv streaming 64 MB) is timed between the measured items.
    An item's seconds are scaled by KERNEL_NOMINAL_S over the mean of the
    kernel times just before and just after it.
    """

    KERNEL_NOMINAL_S = 0.03

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal(8192)
        self._small = rng.standard_normal((48, 47))
        self._wide = rng.standard_normal((2048, 4096))
        self._x = rng.standard_normal(4096)
        self._before = None
        self.log = []  # (seconds as measured, kernel before, kernel after)

    def kernel(self):
        start = time.perf_counter()
        w = self._vec.copy()
        for i in range(900):
            w -= 1e-3 * self._vec
        for _ in range(18):
            np.linalg.svd(self._small)
        for _ in range(3):
            self._wide @ self._x
        return time.perf_counter() - start

    def mark(self):
        """Start of a sequence of measured items."""
        self._before = self.kernel()

    def rescale(self, seconds):
        """Seconds of the item that just ended, at the nominal speed."""
        after = self.kernel()
        factor = self.KERNEL_NOMINAL_S / (0.5 * (self._before + after))
        self.log.append((seconds, self._before, after))
        self._before = after
        return seconds * factor


class RawClock:
    """No rescaling (the traced run reports raw seconds)."""

    def mark(self):
        pass

    def rescale(self, seconds):
        return seconds


def pivot_for(kind, sample_size, seed):
    if kind == "sampled":
        return PivotStrategy.sampled(sample_size, seed=seed)
    return PivotStrategy.full()


def timed_configs(w, seed):
    """The three fixed-iteration configurations, in the default reporting mode."""
    pivot = pivot_for("sampled" if w.sample_size else "full", w.sample_size, seed)
    lslu = SolverConfig(method="hybrid_lslu", maxiter=w.iters, pivot=pivot,
                        lambda_rule=LambdaRule.wgcv())
    return {"lslu": lslu, "lslu_pure": replace(lslu, pure=True),
            "lsqr": SolverConfig(method="hybrid_lsqr", maxiter=w.iters,
                                 lambda_rule=LambdaRule.wgcv())}


def panel_entries(w, problem_index, prob):
    """(label, b, x_true, config) for every auto-stopped solve on one problem."""
    out = []
    for noise_seed in w.panel_seeds:
        b, _ = add_noise(prob.b_exact, NOISE_LEVEL, noise_seed)
        for method, pivot, rule in w.panel:
            config = SolverConfig(method=method, maxiter=w.panel_maxiter,
                                  pivot=pivot_for(pivot, w.sample_size, noise_seed),
                                  lambda_rule=LambdaRule(kind=rule), stop_tol=STOP_TOL)
            label = (f"{w.problems[problem_index].label}/noise{noise_seed}/"
                     f"{method}/{pivot}/{rule}")
            out.append((label, b, prob.x_true, config))
    return out


# -- correctness checks (each raises CheckFailed)

def check_finite(result):
    if not np.all(np.isfinite(result.x_final)):
        raise CheckFailed("x_final has non-finite entries")


def check_full_pivot_growth(result, config):
    if config.method.endswith("lslu") and config.pivot.kind == "full":
        grow_l, grow_d = pivot_growth(result.state)
        if grow_l > 1.0 or grow_d > 1.0:
            raise CheckFailed(f"full pivoting gave max|L|={grow_l}, max|D|={grow_d}")


def check_relations(result, op):
    state = result.state
    rho1, rho2 = relation_residuals(state, op)
    limit = RELATION_TOL * frobenius_norm(op.matrix) * state.k
    if not (rho1 <= limit and rho2 <= limit):
        raise CheckFailed(f"relation residuals {rho1:.3g}, {rho2:.3g} exceed {limit:.3g}")


def pivot_growth(state):
    return float(np.max(np.abs(state.L))), float(np.max(np.abs(state.D)))


def frobenius_norm(matrix):
    data = matrix.data if hasattr(matrix, "tocsr") else matrix
    return float(np.linalg.norm(np.ravel(data)))


def run_solve(ledger, tracer, label, op, b, config, checks=()):
    """One timed solve: (result, seconds, long-vector reduction count)."""
    def body():
        with reductions.track() as counter:
            with tracer.solve():
                start = time.perf_counter()
                result = solve(op, b, config)
                seconds = time.perf_counter() - start
        check_finite(result)
        check_full_pivot_growth(result, config)
        if config.pure and config.method.endswith("lslu") and counter.count:
            raise CheckFailed(f"pure LSLU took {counter.count} long-vector reductions")
        for check in checks:
            check(result)
        return result, seconds, counter.count
    return ledger.attempt(label, body)


@dataclass
class Context:
    """Per-problem inputs of a workload, built from the seed."""

    spec: ProblemSpec
    prob: object
    op: object        # the operator the solves see (wrapped when tracing)
    panel: list
    sigma2: float


def make_contexts(w, problems, tracer):
    out = []
    for i, (spec, prob) in enumerate(zip(w.problems, problems)):
        sigma2 = float(prob.e @ prob.e / prob.op.nrows)
        out.append(Context(spec, prob, tracer.wrap_operator(prob.op),
                           panel_entries(w, i, prob), sigma2))
    return out


@dataclass
class RoundResult:
    times: dict           # phase -> seconds at nominal speed, summed over problems
    raw: dict             # the same as measured
    panel: list           # label, relative error and k_stop of each auto-stopped solve
    reduction_counts: dict
    lslu_results: list
    bounds_ok: list
    rank_truncations: int


def measure_round(w, contexts, configs, tracer, ledger, clock):
    phases = ("lslu", "lslu_pure", "lsqr", "autostop", "post")
    times = dict.fromkeys(phases, 0.0)       # rescaled by the clock
    raw = dict.fromkeys(phases, 0.0)
    counts = {"lslu": 0, "lslu_pure": 0, "lsqr": 0}
    panel, lslu_results, bounds_ok = [], [], []
    truncations = 0

    def record(phase, seconds):
        raw[phase] += seconds
        times[phase] += clock.rescale(seconds)

    clock.mark()
    for ctx in contexts:
        b = ctx.prob.b
        done = {}
        for phase in ("lslu", "lslu_pure", "lsqr"):
            tracer.phase = phase
            checks = ()
            if phase == "lslu_pure" and "lslu" in done:
                reporting_x = done["lslu"][0].x_final
                checks = (lambda r, x=reporting_x: _check_bitwise(r.x_final, x),)
            out = run_solve(ledger, tracer, f"{ctx.spec.label}/{phase}", ctx.op, b,
                            configs[phase], checks)
            record(phase, out[1] if out is not None else 0.0)
            if out is not None:
                done[phase] = out
                counts[phase] += out[2]
        if "lslu" in done:
            lslu_results.append(done["lslu"][0])

        tracer.phase = "autostop"
        seconds = 0.0
        for label, panel_b, x_true, config in ctx.panel:
            out = run_solve(ledger, tracer, label, ctx.op, panel_b, config)
            if out is not None:
                result = out[0]
                seconds += out[1]
                error = np.linalg.norm(result.x_final - x_true) / np.linalg.norm(x_true)
                panel.append({"solve": label, "rel_error": float(error),
                              "k_stop": result.k_stop})
        record("autostop", seconds)

        tracer.phase = "post"
        reg = done["lsqr"][0].lambdas[-1] if "lsqr" in done else None
        out = ledger.attempt(f"{ctx.spec.label}/post",
                             lambda: postprocess(w, ctx, reg, tracer))
        record("post", out[0] if out is not None else 0.0)
        if out is not None:
            bounds_ok.extend(out[1])
            truncations += out[2]
    tracer.phase = None
    n_panel = max(sum(len(ctx.panel) for ctx in contexts), 1)
    times["autostop"] /= n_panel
    raw["autostop"] /= n_panel
    return RoundResult(times, raw, panel, counts, lslu_results, bounds_ok, truncations)


def _check_bitwise(x_pure, x_reporting):
    if not np.array_equal(x_pure, x_reporting):
        raise CheckFailed("pure and reporting runs returned different x_final")


def postprocess(w, ctx, reg, tracer):
    """UQ for k = 1..post_k on both factorizations, then both bound reports."""
    if reg is None or not reg > 0:
        raise CheckFailed("no positive regularization parameter from the LSQR solve")
    op, b, k_max = ctx.op, ctx.prob.b, w.post_k
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        start = time.perf_counter()
        with tracer.span("hessenberg.run"):
            hstate = hess_run(op, b, strategy=PivotStrategy.full(), maxiter=k_max)
        with tracer.span("golub_kahan.run"):
            gstate = gk_run(op, b, maxiter=k_max)
        sums = []
        for k in range(1, min(hstate.k, gstate.k, k_max) + 1):
            for build, state in ((build_uq, hstate), (build_uq_bidiag, gstate)):
                with tracer.span("uq.build"):
                    uq = build(state, ctx.sigma2, reg, k=k)
                with tracer.span("uq.variance"):
                    sums.append(covariance_sum(uq))
                    sums.append(float(np.sum(variance_diagonal(uq))))
        with tracer.span("diagnostics.bound_report"):
            plain = plain_bound_report(op, b, k_max)
        with tracer.span("diagnostics.bound_report"):
            hybrid = hybrid_bound_report(op, b, reg, k_max)
        seconds = time.perf_counter() - start
    if not np.all(np.isfinite(sums)):
        raise CheckFailed("non-finite posterior variance or covariance sum")
    flags = [f for rep in (plain, hybrid) for f in rep.lower_ok + rep.upper_ok]
    truncations = sum(1 for c in caught if "truncating rank" in str(c.message))
    return seconds, flags, truncations


def median(values):
    return statistics.median(values) if values else None
