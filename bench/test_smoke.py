"""Smoke check of the benchmark at tiny problem sizes.

Every workload must run, pass its correctness checks and emit exactly
the metrics BENCHMARK.json lists, with their units.  The sizes are far
too small to measure anything; this only guards the schema.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    result = result_of(run(ROOT, "--workload", workload, "--seed", "3",
                           "--seconds", "0.1", "--trace", str(trace), "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert set(result["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        # the inner-product-free witness: pure hybrid LSLU takes no
        # long-vector reduction, while LSQR takes several per iteration
        assert result["metrics"]["reductions.long_count"]["value"] == 0
        assert result["metrics"]["reductions.long_count_lsqr"]["value"] > 0


def test_all_runs_every_workload_in_one_process():
    result = result_of(run(ROOT, "--workload", "all", "--seed", "1",
                           "--seconds", "0.1", "--trace", "0", "--tiny"))
    assert result["correct"] is True
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == {f"{w}/{n}" for w in WORKLOADS for n in names}


def test_without_library_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
