"""lslu benchmark: whole-solve metrics, or a traced per-layer breakdown.

Run from the root of a checkout:

    python3 bench/run.py --workload tomo-large --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in one process.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable table and the
run environment.  Each run also writes `bench/out/BENCH_*.json` (and,
with `--trace 1`, the spans) when it ends.  See bench/README.md for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# numpy, scipy and lslu are imported inside functions, after
# prepare_process() has pinned the BLAS threads and set the path.

#: BLAS threads for this process; one thread keeps timings steady on a
#: shared machine, and the count is capped at nproc in any case.
BLAS_THREADS = 1
SETUP_REPEATS = 5
WARMUP_ITERS = 3
MB = 1e6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-check sizes (schema checks only, not for measuring)")
    return p.parse_args(argv)


def prepare_process():
    """Pin BLAS threads and put the checkout's library first on the path."""
    if not (SRC / "lslu" / "__init__.py").is_file():
        sys.exit(f"bench: library source not found under {SRC}; "
                 "run from the root of a full checkout")
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    return threads


def cache_bytes(level):
    """Per-instance CPU cache size from sysfs, or None when unavailable."""
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            if int((base / "level").read_text()) != level:
                continue
            text = (base / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    return None


def environment(threads, workload, problems, lslu_k):
    import numpy as np
    import scipy

    from tracing import matvec_bytes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l2, l3 = cache_bytes(2), cache_bytes(3)
    sets = []
    for spec, prob in zip(workload.problems, problems):
        m, n = prob.op.shape
        matrix = matvec_bytes(prob.op) - 8 * (m + n)
        # a sparse operator keeps a CSR copy of the transpose for the adjoint
        stored = 2 * matrix if hasattr(prob.op.matrix, "tocsr") else matrix
        k = lslu_k.get(spec.label, workload.iters)
        basis = 8 * (n * k + m * (k + 1))
        sets.append({"problem": spec.label, "shape": [m, n], "matrix_bytes": stored,
                     "basis_bytes_final_k": basis, "final_k": k,
                     "fits_l2": l2 is not None and stored + basis <= l2,
                     "fits_l3": l3 is not None and stored + basis <= l3})
    return {"nproc": os.cpu_count(), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "l2_bytes_per_core": l2,
            "l3_bytes": l3, "working_sets": sets,
            "bandwidth_note": "bytes and flops are computed from sizes, "
                              "not measured against a roofline"}


def build_problems(workload, seed, tracer=None):
    if tracer is None:
        return [spec.build(seed) for spec in workload.problems]
    tracer.phase = "setup"
    with tracer.span("operators.build"):
        problems = [spec.build(seed) for spec in workload.problems]
    tracer.phase = None
    return problems


def timed_setup(workload, seed, clock):
    """Build the problems SETUP_REPEATS times: (problems, rescaled, raw seconds)."""
    times, raw, problems = [], [], None
    for _ in range(SETUP_REPEATS):
        problems = None
        gc.collect()
        clock.mark()
        start = time.perf_counter()
        problems = build_problems(workload, seed)
        raw.append(time.perf_counter() - start)
        times.append(clock.rescale(raw[-1]))
    return problems, times, raw


def warm_up(ctx, config, memory):
    """A discarded reporting LSLU solve: (result, peak MB allocated during it).

    Apart from the timing runs, it is the memory measurement, and its
    final state gets the relation-residual check.
    """
    import workloads as W
    from lslu import solve

    if memory:
        tracemalloc.start()
    try:
        result = solve(ctx.op, ctx.prob.b, config)
        peak = tracemalloc.get_traced_memory()[1] / MB if memory else 0.0
    finally:
        if memory:
            tracemalloc.stop()
    W.check_finite(result)
    W.check_full_pivot_growth(result, config)
    W.check_relations(result, ctx.op)
    return result, peak


def run_workload(workload, seed, seconds, trace, threads):
    import workloads as W
    from tracing import NullTracer, Tracer, layer_metrics, phase_breakdown

    ledger = W.Ledger()
    configs = W.timed_configs(workload, seed)
    null = NullTracer()
    samples = {}

    if trace:
        tracer = Tracer()
        clock = W.RawClock()
        problems = build_problems(workload, seed, tracer)
    else:
        tracer = null
        clock = W.SpeedClock()
        problems, samples["setup_s"], samples["raw_setup_s"] = timed_setup(
            workload, seed, clock)
    raw = W.make_contexts(workload, problems, null)

    peak = 0.0
    lslu_k = {}
    for ctx in raw:
        out = ledger.attempt(f"{ctx.spec.label}/warmup",
                             lambda: warm_up(ctx, configs["lslu"], memory=not trace))
        if out is not None:
            lslu_k[ctx.spec.label] = out[0].state.k
            peak = max(peak, out[1])
        W.run_solve(ledger, null, f"{ctx.spec.label}/warmup", ctx.op, ctx.prob.b,
                    replace(configs["lsqr"], maxiter=WARMUP_ITERS))

    if trace:
        reference = 0.0
        for ctx in raw:
            out = W.run_solve(ledger, null, f"{ctx.spec.label}/reference", ctx.op,
                              ctx.prob.b, configs["lslu"])
            reference += out[1] if out is not None else float("nan")
        traced = W.make_contexts(workload, problems, tracer)
        gc.collect()
        with tracer.active():
            rnd = W.measure_round(workload, traced, configs, tracer, ledger, clock)
        rounds = [rnd]
        growth = [W.pivot_growth(r.state) for r in rnd.lslu_results]
        extra = {
            "hessenberg.pivot_growth_l": (max((g[0] for g in growth), default=None), "ratio"),
            "hessenberg.pivot_growth_d": (max((g[1] for g in growth), default=None), "ratio"),
            "reductions.long_count": (rnd.reduction_counts["lslu_pure"], "count"),
            "reductions.long_count_lslu": (rnd.reduction_counts["lslu"], "count"),
            "reductions.long_count_lsqr": (rnd.reduction_counts["lsqr"], "count"),
            "solvers.iterations": (sum(r.k_reached for r in rnd.lslu_results), "count"),
            "solvers.k_stop": (W.median([p["k_stop"] for p in rnd.panel]), "count"),
            "uq.rank_truncations": (rnd.rank_truncations, "count"),
            "diagnostics.bounds_ok_ratio": (_ratio(rnd.bounds_ok), "ratio"),
            "trace.overhead_s": (rnd.times["lslu"] - reference, "s"),
        }
        metrics = layer_metrics(tracer, extra)
        samples["layer_self_s_by_phase"] = phase_breakdown(tracer)
    else:
        rounds = []
        elapsed = 0.0
        while not rounds or elapsed < seconds:
            gc.collect()
            start = time.perf_counter()
            rounds.append(W.measure_round(workload, raw, configs, null, ledger, clock))
            elapsed += time.perf_counter() - start
        for key in ("lslu", "lslu_pure", "lsqr", "autostop", "post"):
            samples[key] = [r.times[key] for r in rounds]
            samples[f"raw_{key}"] = [r.raw[key] for r in rounds]
        med = lambda key: W.median(samples[key])
        errors = [p["rel_error"] for p in rounds[0].panel]
        metrics = {
            "setup_s": (W.median(samples["setup_s"]), "s"),
            "hybrid_lslu_s": (med("lslu"), "s"),
            "hybrid_lslu_pure_s": (med("lslu_pure"), "s"),
            "hybrid_lsqr_s": (med("lsqr"), "s"),
            "solve_peak_mb": (peak, "MB"),
            "autostop_solve_s": (med("autostop"), "s"),
            "stop_rel_error": (W.median(errors), "ratio"),
            "stop_rel_error_max": (max(errors) if errors else None, "ratio"),
            "postprocess_s": (med("post"), "s"),
        }

    env = environment(threads, workload, problems, lslu_k)
    report = {"workload": workload.name, "seed": seed, "trace": trace,
              "rounds": len(rounds), "samples": samples, "environment": env,
              "failures": ledger.failures, "panel": rounds[0].panel,
              "clock_log": getattr(clock, "log", [])}
    return ledger, metrics, report, tracer


def _ratio(flags):
    return sum(flags) / len(flags) if flags else None


def write_outputs(name, seed, trace, report, metrics, tracer):
    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{name}_seed{seed}_trace{trace}"
    body = dict(report, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(body, indent=1, default=str))
    if trace:
        (OUT / f"{stem}_spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "solve_id", "phase"],
             "spans": tracer.spans}))


def print_table(name, metrics, report):
    print(f"# workload {name}: {report['rounds']} round(s), "
          f"{len(report['failures'])} failed operation(s)")
    for key, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:34s} {shown:>14s} {unit}")
    for phase, layers in report["samples"].get("layer_self_s_by_phase", {}).items():
        top = max(layers, key=layers.get)
        shares = ", ".join(f"{k} {v:.3g}" for k, v in layers.items() if v > 0)
        print(f"  phase {phase:10s} largest self time: {top:12s} ({shares})")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("# environment " + json.dumps(report["environment"], default=str))


def main(argv=None):
    args = parse_args(argv)
    threads = prepare_process()
    sys.path.insert(0, str(BENCH))
    import lslu

    if Path(lslu.__file__).resolve().parent != (SRC / "lslu").resolve():
        sys.exit(f"bench: imported lslu from {lslu.__file__}, not from {SRC}")
    from workloads import TINY_WORKLOADS, WORKLOADS

    table = TINY_WORKLOADS if args.tiny else WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    if any(name not in table for name in names):
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(table)} or all")

    attempted = failed = 0
    combined = {}
    for name in names:
        ledger, metrics, report, tracer = run_workload(
            table[name], args.seed, args.seconds, args.trace, threads)
        attempted += ledger.attempted
        failed += ledger.failed
        write_outputs(name, args.seed, args.trace, report, metrics, tracer)
        print_table(name, metrics, report)
        prefix = f"{name}/" if len(names) > 1 else ""
        combined.update({prefix + k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
