"""The repo's one wall-clock benchmark.

    python3 benchmarks/perf/run.py --workload serve_store --seed 3
    python3 benchmarks/perf/run.py --workload serve_store --trace 1 --trace-out t.json
    python3 benchmarks/perf/run.py --smoke                  # all four, small
    python3 benchmarks/perf/run.py compare A.jsonl B.jsonl  # two --history files

Prints every metric by name with its unit and, as the last line of each
workload, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero when an output is wrong.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

_PROCESS_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "perf"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACE_FRACTION = 0.25
TAIL_P95_MIN_SAMPLES = 100


def pin_host(workdir: Path) -> None:
    """One BLAS thread, and every scratch file inside the checkout.

    Must run before numpy is imported; spawned shard workers inherit it.
    """
    for name in THREAD_ENV:
        os.environ[name] = "1"
    workdir.mkdir(parents=True, exist_ok=True)
    # Workers stage checkpoints in the temp dir; the kernel-selection table
    # is looked up under the cache home.  Neither may come from the host.
    os.environ["TMPDIR"] = str(workdir)
    os.environ["XDG_CACHE_HOME"] = str(workdir / "cache")
    if (os.cpu_count() or 1) < 2:
        print(
            "warning: fewer than 2 cores; a 2-shard fleet and its client "
            "time-slice one core, so serving numbers are not comparable",
            file=sys.stderr,
        )


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def git_sha() -> str:
    """HEAD of the checkout, read from its own .git (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def run_pass(workload: str, seed: int, size, workdir: Path, transport: str, root=None):
    import workloads

    root = root or workloads.NO_ROOT
    if workload == "train_yelp":
        return workloads.run_train(seed, size, root)
    return workloads.run_serve(workload, seed, size, workdir, transport, root)


def timed_metrics(out, import_s: float) -> tuple:
    """(end-to-end metrics, undeclared extras), each name -> (value, unit, note).

    The end-to-end times are host-normalised: each duration is divided by
    the slowdown of the reference kernel around it (workloads.HostSpeed).
    The raw wall-clock figures are printed beside them as ``raw.*``.
    """
    import workloads

    n = len(out.op_ms)
    # The highest percentile whose run-to-run spread the sample supports
    # (README.md, "Measured spread"): p95 of reads, p90 of the few epochs.
    tail = 95 if n >= TAIL_P95_MIN_SAMPLES else 90
    beyond = f"p{tail}, n={n}, {n - math.ceil(tail / 100 * n)} beyond"
    op, write = out.op_norm_ms, out.write_norm_ms
    end_to_end = {
        "setup_s": (import_s / out.slowdown_first + sum(out.phases_norm.values()), "s", ""),
        "nodes_per_s": (out.nodes_answered / out.timed_norm_s, "nodes/s", ""),
        "op_p50_ms": (statistics.median(op), "ms", f"n={n}"),
        "op_tail_ms": (workloads.nearest_rank(op, tail), "ms", beyond),
        "peak_rss_mb": (out.peak_rss_mb, "MB", ""),
    }
    extras = {
        "raw.setup_s": (import_s + sum(out.phases.values()), "s", ""),
        "raw.nodes_per_s": (out.nodes_answered / out.timed_s, "nodes/s", ""),
        "raw.op_p50_ms": (statistics.median(out.op_ms), "ms", ""),
        "raw.op_tail_ms": (workloads.nearest_rank(out.op_ms, tail), "ms", ""),
        "raw.timed_s": (out.timed_s, "s", ""),
        "host_slowdown_p50": (out.slowdown_p50, "ratio", "reference kernel / nominal"),
        "verify_s": (out.verify_s, "s", ""),
    }
    if tail == 95:
        extras["op_p99_ms"] = (workloads.nearest_rank(op, 99), "ms",
                               f"{n - math.ceil(0.99 * n)} beyond; not gated, see README")
    if write:
        few = f"n={len(write)}; too few for a higher percentile"
        extras["write_p50_ms"] = (statistics.median(write), "ms", few)
        extras["raw.write_p50_ms"] = (statistics.median(out.write_ms), "ms", "")
    if "store_build_s" in out.phases:
        extras["store_build_rows_per_s"] = (
            out.extras["store_rows"] / out.phases_norm["store_build_s"], "rows/s", "")
    for name, unit in (("test_micro_f1", "ratio"), ("eval_nodes_per_s", "nodes/s"),
                       ("oracle_max_abs_delta", "")):
        if out.extras.get(name) is not None:
            extras[name] = (out.extras[name], unit, "")
    extras["raw.setup.import_s"] = (import_s, "s", "")
    for phase, seconds in out.phases.items():
        extras[f"raw.setup.{phase}"] = (seconds, "s", "")
    return end_to_end, extras


def run_traced(workload: str, seed: int, size, workdir: Path, trace_out) -> tuple:
    """The same operations untraced, then traced, both on an inline fleet."""
    import layers
    import tracing

    plain = run_pass(workload, seed, size, workdir / "plain", "inline")
    recorder = tracing.Recorder()
    recorder.install()
    try:
        traced = run_pass(workload, seed, size, workdir / "traced", "inline", recorder.root)
    finally:
        recorder.uninstall()
    if trace_out:
        recorder.write_chrome_trace(trace_out)

    aux = dict(traced.phases)
    aux.update({k: v for k, v in traced.extras.items() if v is not None})
    aux["trace_overhead_ratio"] = traced.timed_norm_s / plain.timed_norm_s
    if traced.write_ms:
        aux["write_p50_ms"] = statistics.median(traced.write_ms)
    sent, received, total = tracing.wire_bytes(recorder.kept)
    if sent:
        aux["wire_bytes_per_call"] = total / len(traced.op_ms)
        aux["frame_rtt_us"] = tracing.frame_rtt_us(sent, received)
    if workload == "train_yelp":
        aux.update(profiled_epoch(traced, layers.OP_PROFILER))
    n = {
        "reads": len(traced.op_ms),
        "epochs": len(traced.op_ms),
        "writes": len(traced.write_ms),
        "batches": max(recorder.count("optim.step"), recorder.count("tensor.backward")),
    }
    view = tracing.TraceView(recorder, n, aux)
    values = view.layer_metrics(workload)
    traced.correct = plain.correct and traced.correct and plain.digest == traced.digest
    if plain.digest != traced.digest:
        traced.notes.append("traced and untraced passes disagree on the answers digest")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.notes += plain.notes
    return traced, values, sorted(recorder.unresolved)


def profiled_epoch(out, profiler_name: str) -> dict:
    """One more epoch under the repo's op profiler, after the spans are gone."""
    import tracing

    aux = {}
    classifier = out.classifier
    try:
        history = classifier.trainer.history
        per_epoch = [w + d for w, d in zip(history.wide_messages, history.deep_messages)]
        aux["messages_per_epoch"] = statistics.mean(per_epoch)
    except (AttributeError, statistics.StatisticsError):
        pass
    found = tracing.resolve(profiler_name)
    if found is None:
        return aux
    with found[2]() as profiler:
        classifier.fit(classifier.graph, out.dataset.split.train, 1)
    rows = profiler.summary()
    total = sum(row["total_s"] for row in rows)
    batches = sum(row["calls"] for row in rows if row["op"] == "cross_entropy")
    if total and batches:
        aux["op_calls_per_batch"] = sum(row["calls"] for row in rows) / batches
        aux["matmul_time_share"] = (
            sum(row["total_s"] for row in rows if row["op"] == "matmul") / total
        )
    return aux


def report(workload: str, args, spec: dict, work: Path, import_s: float) -> bool:
    import layers
    import workloads

    fraction = TRACE_FRACTION if args.trace else 1.0
    size = workloads.sizes(workload, args.seconds, args.smoke, fraction)
    workdir = work / f"{workload}-{args.seed}"
    unresolved = []
    if args.trace:
        out, values, unresolved = run_traced(workload, args.seed, size, workdir, args.trace_out)
        by_name = {metric.name: metric for metric in layers.METRICS}
        rows = {name: (value, by_name[name].unit, "") for name, value in values.items()}
        extras = {}
    else:
        out = run_pass(workload, args.seed, size, workdir, "socket")
        rows, extras = timed_metrics(out, import_s)
    shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    print(f"== {workload}  seed={args.seed}  scale={size.scale}  ops={size.ops}"
          f"  {'traced (inline fleet)' if args.trace else 'timed (socket fleet)'}")
    for name, (value, unit, note) in {**rows, **extras}.items():
        if value is not None:
            bound = f"bound {bounds[name]:.2f}" if bounds.get(name) else ""
            print(f"  {name:<40}{value:>14.6g} {unit:<8}{bound:<12}{note}")
    absent = [name for name, (value, _, _) in rows.items() if value is None]
    if absent:
        print(f"  absent on this workload: {' '.join(absent)}")
    print(f"  ops_attempted={out.attempted} ops_failed={out.failed} "
          f"answers_digest={out.digest[:16]} correct={out.correct}")
    if unresolved:
        print(f"  unresolved_spans: {', '.join(unresolved)}")
    for note in out.notes[:10]:
        print(f"  note: {note}")

    if args.history:
        record = {
            **provenance(args),
            "time": time.time(),
            "workload": workload,
            "correct": out.correct,
            "ops_attempted": out.attempted,
            "ops_failed": out.failed,
            "answers_digest": out.digest,
            "samples": {"op": len(out.op_ms), "write": len(out.write_ms)},
            "metrics": {
                name: {"value": value, "unit": unit, "kind": kind if name in rows else "extra"}
                for name, (value, unit, _) in {**rows, **extras}.items()
            },
            "unresolved_spans": unresolved,
            "notes": out.notes,
        }
        with open(args.history, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    # The contract's result line.  It carries every declared metric; a layer
    # that did not run in this workload (shown as "-" above) reads 0.
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(json.dumps({
        "correct": bool(out.correct),
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {
            name: {"value": rows[name][0] or 0.0, "unit": units[name]} for name in units
        },
    }))
    return out.correct


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def load_history(path) -> dict:
    """(workload, metric) -> values, from one JSON record per line."""
    series: dict = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                if metric["value"] is not None:
                    series.setdefault((record["workload"], name), []).append(metric["value"])
    return series


def verdict(base, change, better: str, bound: float) -> str:
    """improved / unchanged / regressed / unresolved (choosing-metrics 6.5, 8)."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(base), statistics.median(change)
    gain = sign * (med_b - med_a) / abs(med_a)
    iqr = 0.0
    if len(base) >= 2:
        q1, _, q3 = statistics.quantiles(base, n=4)
        iqr = q3 - q1
    always_better = all(sign * (b - a) > 0 for a in base for b in change)
    if iqr / abs(med_a) > bound:
        return "improved" if always_better else "unresolved"
    if gain < -bound:
        return "regressed"
    pairs = [(a, b) for a, b in zip(base, change) if a != b]
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > iqr:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    spec = declared()
    gated = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_history(path_a), load_history(path_b)
    print(f"{'workload':<16}{'metric':<40}{'A median':>13}{'B median':>13}"
          f"{'B/A':>8}{'bound':>7}  verdict (nA/nB)")
    regressed = False
    for key in sorted(set(a) & set(b)):
        workload, name = key
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        ratio = med_b / med_a if med_a else float("nan")
        if name in gated:
            bound = gated[name]["bound"]
            result = verdict(a[key], b[key], gated[name]["better"], bound)
            regressed |= result == "regressed"
            bound = f"{bound:.2f}"
        else:
            result, bound = "not gated", "-"
        print(f"{workload:<16}{name:<40}{med_a:>13.5g}{med_b:>13.5g}{ratio:>8.3f}"
              f"{bound:>7}  {result} ({len(a[key])}/{len(b[key])})")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="sizes the fixed operation counts (about this long)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--trace-out", help="write the spans as Chrome trace_event JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 1.0 and 1/20 of the operations")
    parser.add_argument("--history", help="append one JSONL record per workload run")
    args = parser.parse_args(argv)

    work = WORK / f"run-{os.getpid()}"
    pin_host(work)
    sys.path.insert(0, str(ROOT / "src"))
    ok = True
    try:
        import workloads  # noqa: F401  (fails here, before any output, without src/)

        # Interpreter start-up and imports are set-up too: every run pays them.
        import_s = time.perf_counter() - _PROCESS_START
        for workload in names if args.workload == "all" else [args.workload]:
            ok &= report(workload, args, spec, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
