"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_missing_target_and_failing_hook_are_reported_not_raised():
    from sobspec import matrices

    def stale_hook(args, kwargs, result):
        return {"matrices.multiply.madds": args[0].no_such_field}

    original = matrices.multiply
    tracer = Tracer({
        "matrices.multiply": ([("sobspec.matrices", "multiply")], stale_hook),
        "matrices.build_gone": ([("sobspec.matrices", "build_gone")], None),
        "gone.f": ([("sobspec.gone", "f")], None),
    })
    tracer.install()
    try:
        assert tracer.missing == ["sobspec.matrices:build_gone", "sobspec.gone:f"]
        eye = matrices.identity(3, 64)
        tracer.active = True
        matrices.multiply(eye, eye)
        tracer.active = False
        matrices.multiply(eye, eye)
    finally:
        tracer.uninstall()
    assert matrices.multiply is original
    assert [span[1] for span in tracer.spans] == ["matrices.multiply"]
    assert len(tracer.hook_errors) == 1 and not tracer.counts


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")}


@pytest.mark.parametrize("workload", ["cli_exact", "ledger_sweep"])
def test_count_metrics_repeat_exactly(workload):
    first = traced_counts(workload, 5)
    assert first == traced_counts(workload, 5)
    assert first["trace.missing_targets"] == 0


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.workloads.WORKLOADS)
