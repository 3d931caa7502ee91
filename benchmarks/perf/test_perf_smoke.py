"""Self-test of the benchmark at ``--smoke`` size (about a minute).

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly::

    python -m pytest benchmarks/perf

Each run is a subprocess, exactly as the driver invokes the benchmark, so
the BLAS pinning and the worker clean-up are the ones under test.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
COUNT_UNITS = {"count", "ratio", "B"}
# Ratios of times, not of counts: they do not repeat exactly.
TIME_RATIOS = {"tensor.matmul_time_share", "trace.residual_share", "obs.trace_overhead_ratio"}


def run(workload: str, trace: int, *extra: str) -> dict:
    """One smoke run; returns the parsed result line plus the table text."""
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    result["table"] = done.stdout
    return result


def test_declaration_is_within_the_contract():
    import layers

    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(WORKLOADS) <= 8 and len(set(WORKLOADS)) == len(WORKLOADS)
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    # BENCHMARK.json's layer list is layers.METRICS, in order.
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.METRICS
    ]
    assert all(set(m.workloads) <= set(WORKLOADS) for m in layers.METRICS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_pass_prints_every_end_to_end_metric(workload):
    result = run(workload, 0)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(declared)  # none missing, none undeclared
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_repeats_exactly_and_shows_the_contrasts(workload, tmp_path):
    import layers

    trace_path = tmp_path / "trace.json"
    first = run(workload, 1, "--trace-out", str(trace_path))
    second = run(workload, 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == set(declared)
    assert "unresolved_spans" not in first["table"]

    digest = re.compile(r"answers_digest=(\w+)")
    assert digest.search(first["table"]).group(1) == digest.search(second["table"]).group(1)
    for name, unit in declared.items():
        if unit in COUNT_UNITS and name not in TIME_RATIOS:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    events = json.loads(trace_path.read_text())["traceEvents"]
    assert events and all(event["ph"] == "X" and event["dur"] >= 0 for event in events)

    value = lambda name: first["metrics"][name]["value"]
    absent = {m.name for m in layers.METRICS if workload not in m.workloads}
    assert all(value(name) == 0 for name in absent)
    assert value("trace.residual_share") <= 0.05
    if workload == "train_yelp":
        assert all(n in absent for n in declared if n.startswith(("cluster.", "serve.")))
    if workload == "serve_recompute":
        assert value("serve.cache_hit_ratio") <= 0.1
    if workload == "serve_store":
        assert value("serve.cache_hit_ratio") >= 0.5
        assert value("store.hit_ratio") == 1.0
    if workload == "serve_mutating":
        assert value("store.hit_ratio") < 0.5


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    (tmp_path / "benchmarks").mkdir()
    bench = tmp_path / "benchmarks" / "perf"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
