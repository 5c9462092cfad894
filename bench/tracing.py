"""Span recording around the library's layer boundaries, from outside it.

The traced run interposes on the names the library looks up at call
time (`lslu.solvers.hess_step`, `lslu.reductions.norm2`, ...) and wraps
the operator, so no source file changes.  Spans are kept in memory as
`[name, start, end, parent, solve_id, phase]` lists and written once,
when the run ends.  A span's self time is its duration minus the
durations of its direct children; a layer is the part of a span name
before the first dot.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import scipy.sparse as sp

import lslu.diagnostics
import lslu.golub_kahan
import lslu.hessenberg
import lslu.projected
import lslu.reductions
import lslu.solvers
from lslu import LinearOperator

LAYERS = ("operators", "hessenberg", "golub_kahan", "projected", "reductions",
          "solvers", "uq", "diagnostics")

NAME, START, END, PARENT, SOLVE, PHASE = range(6)


class NullTracer:
    """Tracing off: every hook is a pass-through."""

    phase = None

    @contextmanager
    def span(self, name):
        yield

    @contextmanager
    def solve(self):
        yield

    @contextmanager
    def active(self):
        yield

    def wrap_operator(self, op):
        return op


class Tracer:
    """In-memory span recorder with per-phase counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.phase = None
        self._stack = []
        self._solve_id = -1
        self._solves = 0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self._solve_id, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def solve(self):
        """A `solvers.solve` span that starts a new solve id."""
        outer = self._solve_id
        self._solve_id = self._solves
        self._solves += 1
        try:
            with self.span("solvers.solve"):
                yield
        finally:
            self._solve_id = outer

    def count(self, key, amount):
        slot = (self.phase, key)
        self.counters[slot] = self.counters.get(slot, 0) + amount

    def wrap(self, name, fn, on_call=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def wrap_solve(self, fn):
        def traced(*args, **kwargs):
            with self.solve():
                return fn(*args, **kwargs)
        return traced

    def wrap_operator(self, op):
        return TracedOperator(op, self)

    @contextmanager
    def active(self):
        """Interpose on the library's call-time lookups; undo on exit."""
        saved = []

        def patch(module, attr, replacement):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

        def hess_bytes(state, op):
            # logical bytes of the two elimination loops: each column axpy
            # reads a basis column and reads and writes the work vector
            kp = state.k + 1
            self.count("hessenberg.elim_bytes",
                       24 * ((kp - 1) * state.n + kp * state.m))

        def gk_flops(state, op):
            # two classical Gram-Schmidt passes, two gemv of 2*rows*cols each
            if state.reorth:
                kp = state.k + 1
                self.count("golub_kahan.reorth_flops",
                           8 * ((kp - 1) * state.n + kp * state.m))

        steps = {"hess_init": ("hessenberg.init", None),
                 "hess_step": ("hessenberg.step", hess_bytes),
                 "gk_init": ("golub_kahan.init", None),
                 "gk_step": ("golub_kahan.step", gk_flops)}
        for attr, (name, hook) in steps.items():
            wrapped = self.wrap(name, getattr(lslu.solvers, attr), hook)
            patch(lslu.solvers, attr, wrapped)
            home = lslu.hessenberg if attr.startswith("hess") else lslu.golub_kahan
            patch(home, attr, wrapped)  # hess_run / gk_run look here
        for attr, name in (("svd_small", "projected.svd"),
                           ("select_lambda", "projected.lambda"),
                           ("tikhonov_projected", "projected.solve"),
                           ("ls_projected", "projected.solve"),
                           ("ghat", "projected.ghat"),
                           ("stop_check", "projected.stop_check")):
            patch(lslu.solvers, attr, self.wrap(name, getattr(lslu.solvers, attr)))
        for attr in ("norm2", "dot"):
            patch(lslu.reductions, attr,
                  self.wrap(f"reductions.{attr}", getattr(lslu.reductions, attr)))
        for attr in ("run_lslu", "run_lsqr", "run_hybrid_lslu", "run_hybrid_lsqr"):
            patch(lslu.diagnostics, attr, self.wrap_solve(getattr(lslu.diagnostics, attr)))

        search = lslu.projected.golden_section_log

        def counted_search(f, lo, hi, *args, **kwargs):
            def counted(lam):
                self.count("projected.lambda_evals", 1)
                return f(lam)
            return search(counted, lo, hi, *args, **kwargs)

        patch(lslu.projected, "golden_section_log", counted_search)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def matvec_bytes(op):
    """Bytes one forward (or adjoint) application reads and writes, computed."""
    m, n = op.shape
    vectors = 8 * (m + n)
    matrix = op.matrix
    if sp.issparse(matrix):
        return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + vectors
    if matrix is not None:
        return 8 * m * n + vectors
    return vectors


class TracedOperator(LinearOperator):
    """The wrapped operator, with a span and a byte count per application."""

    def __init__(self, op, tracer):
        super().__init__(op.nrows, op.ncols, op._forward, op._adjoint, op.matrix)
        self._tracer = tracer
        self._bytes = matvec_bytes(op)

    def forward(self, x):
        self._tracer.count("operators.matvec_bytes", self._bytes)
        with self._tracer.span("operators.forward"):
            return super().forward(x)

    def adjoint(self, y):
        self._tracer.count("operators.matvec_bytes", self._bytes)
        with self._tracer.span("operators.adjoint"):
            return super().adjoint(y)


class SpanTable:
    """Durations and self times of recorded spans, filterable by phase."""

    def __init__(self, spans):
        self.spans = spans
        self.duration = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += self.duration[i]
        self.child = child
        self.self_time = [d - c for d, c in zip(self.duration, child)]

    def _select(self, name=None, phase=None, layer=None):
        for i, s in enumerate(self.spans):
            if name is not None and s[NAME] != name:
                continue
            if phase is not None and s[PHASE] != phase:
                continue
            if layer is not None and s[NAME].split(".", 1)[0] != layer:
                continue
            yield i

    def calls(self, name, phase=None):
        return sum(1 for _ in self._select(name=name, phase=phase))

    def total(self, name, phase=None):
        return sum(self.duration[i] for i in self._select(name=name, phase=phase))

    def self_total(self, name=None, phase=None, layer=None):
        return sum(self.self_time[i]
                   for i in self._select(name=name, phase=phase, layer=layer))

    def solve_coverage(self):
        """Share of each top-level solve's wall time covered by child spans."""
        return [self.child[i] / self.duration[i]
                for i in self._select(name="solvers.solve")
                if self.spans[i][PARENT] < 0 and self.duration[i] > 0]


def phase_breakdown(tracer):
    """Self seconds of each layer within each phase of the traced round."""
    table = SpanTable(tracer.spans)
    phases = sorted({s[PHASE] for s in tracer.spans if s[PHASE] is not None})
    return {phase: {layer: table.self_total(phase=phase, layer=layer)
                    for layer in LAYERS}
            for phase in phases}


def layer_metrics(tracer, extra):
    """Per-layer metrics of one traced round.

    LSLU-side layers are read from the reporting hybrid LSLU solves
    (phase `lslu`), Golub-Kahan from the hybrid LSQR solves (`lsqr`),
    uq and diagnostics from the post-processing step (`post`).  `extra`
    carries the values taken from solver results rather than spans.
    """
    table = SpanTable(tracer.spans)
    counters = tracer.counters

    def counter(phase, key):
        return counters.get((phase, key), 0)

    fwd_s = table.total("operators.forward", "lslu")
    adj_s = table.total("operators.adjoint", "lslu")
    mv_bytes = counter("lslu", "operators.matvec_bytes")
    elim_s = table.self_total("hessenberg.step", "lslu")
    elim_bytes = counter("lslu", "hessenberg.elim_bytes")
    lambda_s = table.total("projected.lambda", "lslu")
    coverage = table.solve_coverage()
    metrics = {
        "operators.build_s": (table.total("operators.build", "setup"), "s"),
        "operators.forward_calls": (table.calls("operators.forward", "lslu"), "count"),
        "operators.adjoint_calls": (table.calls("operators.adjoint", "lslu"), "count"),
        "operators.forward_s": (fwd_s, "s"),
        "operators.adjoint_s": (adj_s, "s"),
        "operators.matvec_bytes": (mv_bytes, "B"),
        "operators.matvec_gbps": (_rate(mv_bytes, fwd_s + adj_s), "GB/s"),
        "hessenberg.steps": (table.calls("hessenberg.step", "lslu"), "count"),
        "hessenberg.step_s": (table.total("hessenberg.step", "lslu"), "s"),
        "hessenberg.elim_self_s": (elim_s, "s"),
        "hessenberg.elim_bytes": (elim_bytes, "B"),
        "hessenberg.elim_gbps": (_rate(elim_bytes, elim_s), "GB/s"),
        "golub_kahan.steps": (table.calls("golub_kahan.step", "lsqr"), "count"),
        "golub_kahan.step_s": (table.total("golub_kahan.step", "lsqr"), "s"),
        "golub_kahan.reorth_self_s": (table.self_total("golub_kahan.step", "lsqr"), "s"),
        "golub_kahan.reorth_flops": (counter("lsqr", "golub_kahan.reorth_flops"), "flop"),
        "projected.svd_calls": (table.calls("projected.svd", "lslu"), "count"),
        "projected.svd_s": (table.total("projected.svd", "lslu"), "s"),
        "projected.lambda_calls": (table.calls("projected.lambda", "lslu"), "count"),
        "projected.lambda_s": (lambda_s, "s"),
        "projected.lambda_evals": (counter("lslu", "projected.lambda_evals"), "count"),
        "projected.solve_s": (table.total("projected.solve", "lslu"), "s"),
        "projected.ghat_s": (table.total("projected.ghat", "lslu"), "s"),
        "solvers.self_s": (table.self_total("solvers.solve", "lslu"), "s"),
        "solvers.self_s_pure": (table.self_total("solvers.solve", "lslu_pure"), "s"),
        "solvers.autostop_self_s": (table.self_total("solvers.solve", "autostop"), "s"),
        "uq.build_s": (table.total("uq.build", "post"), "s"),
        "uq.variance_s": (table.total("uq.variance", "post"), "s"),
        "diagnostics.bound_report_s": (table.total("diagnostics.bound_report", "post"), "s"),
        "trace.coverage_min": (min(coverage, default=None), "ratio"),
        "trace.coverage_median": (statistics.median(coverage) if coverage else None, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"trace.self_s.{layer}"] = (table.self_total(layer=layer), "s")
    metrics.update(extra)
    return metrics


def _rate(amount, seconds):
    return amount / seconds / 1e9 if seconds > 0 else 0.0
