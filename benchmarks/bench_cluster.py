"""Sharded-serving benchmark — ``repro.cluster`` on its request path.

Sends one deterministic Zipf trace through a single
:class:`InferenceServer` and through :class:`ClusterRouter` fleets of 1, 2
and 4 shards (full replicas, each owning a slice of the ids) on both
transports (``inline``, ``socket``), as ``GROUP``-node ``embed`` ops — the
scatter-gather path every served request takes.  Per fleet it reports
wall-clock ops/s over a cold pass (``speedup_vs_single`` against the single
server running the same ops), the critical-path compute summed from the
attribution records (:meth:`ClusterRouter.enable_slo`), and the wall time
of a warm pass, where caches absorb the compute and what is left is the
transport.

Claims asserted:

1. Bit-identical semantics on every transport: every fleet answers a probe
   set exactly like the single server (the transport is a deployment
   decision, not a semantics change), and every transport serves the same
   nodes at every fleet size.
2. Per-shard telemetry survives aggregation: the merged Prometheus
   exposition carries shard-labeled latency/batch/cache series for every
   shard.
3. Kill-and-recover: SIGKILL one socket worker mid-stream; the fleet
   detects a typed ``WorkerDown`` (never a generic timeout), respawns the
   shard from checkpoint + the coordinator's current shard and freshness
   state, and every post-recovery answer matches the single-server
   reference exactly.  The ``kill_recover`` section records the
   detect/respawn breakdown.
4. Request observability is opt-in.  The ``trace_overhead`` section times
   warm ``GROUP``-node ops over the probe on fresh inline 2-shard fleets:
   one untimed pass fills the shard caches, then timed rounds.  Two runs
   with observability off must agree within ``NOISE_GATE`` on p50 (up to
   ``OVERHEAD_ATTEMPTS`` paired attempts, the closest kept), which bounds
   the noise floor; attribution + SLO monitoring must cost at most
   ``SLO_OVERHEAD_CEILING`` times the off p50, and full distributed
   tracing at most ``TRACE_OVERHEAD_CEILING`` times (a regression canary,
   not a performance claim).

Throughput scaling is reported, not asserted: on a host with fewer cores
than shards no route observes it (EXPERIMENTS.md, "Sharded serving").

The ``worker_startup`` section reports (asserts nothing) how long loopback
workers take from launch to their ``LISTENING`` line: one alone, and two
launched together, which a fleet's parallel bring-up makes cost about one.

Run ``python benchmarks/bench_cluster.py --smoke`` for the CI-sized run
(writes ``BENCH_cluster.json``); without ``--smoke`` the trace and graph
grow to reproduction scale.
"""

import argparse
import json
import sys
import tempfile
import time

import numpy as np

from repro.cluster import ClusterRouter, LocalWorkerSpawner, ShardRegistry
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.obs import nearest_rank_percentile
from repro.serve import InferenceServer, ModelRegistry, make_trace

SHARD_COUNTS = (1, 2, 4)
TRANSPORTS = ("inline", "socket")
GROUP = 8  # nodes per embed op, as serve-cluster sends them
NOISE_GATE = 0.02  # paired observability-off runs agree within 2% on p50
OVERHEAD_ATTEMPTS = 4
SLO_OVERHEAD_CEILING = 1.25
TRACE_OVERHEAD_CEILING = 2.0


def _fresh_graph(seed, scale):
    return make_acm(seed=seed, scale=scale).graph


def _ops(nodes):
    """The trace's nodes as ``GROUP``-node ops, in trace order."""
    return [nodes[start:start + GROUP] for start in range(0, nodes.size, GROUP)]


def _timed(embed, ops):
    """Wall seconds to run every op through ``embed``, one after another."""
    started = time.perf_counter()
    for op in ops:
        embed(op)
    return time.perf_counter() - started


def run_bench(out_path, *, scale=0.5, epochs=2, requests=240, zipf=1.1,
              rounds=48, seed=0):
    """Train, checkpoint, run the trace's ops back to back across fleet
    sizes, write the report."""
    with tempfile.TemporaryDirectory(prefix="repro-cluster-bench-") as root:
        return _run_bench(
            out_path, root, scale=scale, epochs=epochs, requests=requests,
            zipf=zipf, rounds=rounds, seed=seed,
        )


def _warm_p50(checkpoint, probe, *, seed, scale, rounds, tracing=False,
              slo=False):
    """Warm p50 seconds of a ``GROUP``-node ``embed`` on a fresh inline
    2-shard fleet: one untimed pass fills the shard caches (and absorbs
    tracing's first span-buffer allocations), then ``rounds`` timed passes
    over the probe."""
    router = ClusterRouter.from_checkpoint(
        checkpoint, _fresh_graph(seed, scale), 2, transport="inline", seed=seed
    )
    try:
        if tracing:
            router.enable_dist_tracing()
        if slo:
            router.enable_slo()
        ops = _ops(probe)
        _timed(router.embed, ops)
        return nearest_rank_percentile(
            [_timed(router.embed, [op]) for _ in range(rounds) for op in ops], 50
        )
    finally:
        router.close()


def _measure_trace_overhead(checkpoint, probe, *, seed, scale, rounds):
    """Warm p50 with observability off (paired, to bound the noise), with
    attribution + SLO monitoring, and with full distributed tracing."""
    def p50(**observed):
        return _warm_p50(
            checkpoint, probe, seed=seed, scale=scale, rounds=rounds, **observed
        )

    def gap(pair):
        return abs(pair[1] / pair[0] - 1.0)

    best = None
    for attempt in range(1, OVERHEAD_ATTEMPTS + 1):
        pair = (p50(), p50())
        best = pair if best is None else min(best, pair, key=gap)
        if gap(best) <= NOISE_GATE:
            break
    off, paired = best
    slo, traced = p50(slo=True), p50(tracing=True, slo=True)
    return {
        "shards": 2,
        "transport": "inline",
        "rounds": rounds,
        "calls": rounds * len(_ops(probe)),
        "off_p50_us": off * 1e6,
        "off_paired_p50_us": paired * 1e6,
        "off_pair_p50_ratio": paired / off,
        "off_pair_attempts": attempt,
        "slo_p50_us": slo * 1e6,
        "trace_p50_us": traced * 1e6,
        "slo_over_off_p50": slo / off,
        "trace_over_off_p50": traced / off,
    }


def _measure_kill_recover(checkpoint, probe, *, seed, scale):
    """SIGKILL one worker of a 2-shard socket fleet between mutations and
    serves; return the detect/respawn breakdown plus exactness of
    every post-recovery answer against a single-server reference."""
    graph = _fresh_graph(seed, scale)
    single = InferenceServer(
        WidenClassifier.load(checkpoint, graph=graph), graph, seed=seed
    )
    router = ClusterRouter.from_checkpoint(
        checkpoint, _fresh_graph(seed, scale), 2, transport="socket",
        seed=seed,
    )
    try:
        dim = router.graph.features.shape[1]
        pre_exact = bool(
            np.array_equal(router.embed(probe), single.embed(probe))
        )
        for target in (router, single):
            added = target.add_nodes("paper", features=np.full((2, dim), 0.3))
            target.add_edges(
                "paper-author", [int(added[0]), int(added[1])], [1, 3]
            )
        router.fleet.registry.kill(0)
        nodes = np.append(probe, added)
        post_exact = bool(
            np.array_equal(router.embed(nodes), single.embed(nodes))
        )
        summary = router.supervisor.summary()
        events = summary["worker_down_events"]
        recoveries = summary["recoveries"]
        return {
            "shards": 2,
            "pre_kill_exact": pre_exact,
            "post_recovery_exact": post_exact,
            "worker_down_reason": events[0]["reason"] if events else None,
            "recoveries": recoveries,
            "respawns": int(router.workers[0].respawns),
        }
    finally:
        router.close()


def _measure_worker_startup():
    """Seconds from launch until every worker has printed ``LISTENING``,
    for one worker and for two launched together."""
    timings = {}
    for name, count in (("one_s", 1), ("two_s", 2)):
        registry = ShardRegistry(LocalWorkerSpawner())
        start = time.perf_counter()
        try:
            registry.launch(list(range(count)))
            timings[name] = time.perf_counter() - start
        finally:
            registry.close()
    return timings


def _run_bench(out_path, registry_root, *, scale, epochs, requests, zipf,
               rounds, seed):
    dataset = make_acm(seed=seed, scale=scale)
    model = WidenClassifier(seed=seed, dim=16, num_wide=6, num_deep=5)
    model.fit(dataset.graph, dataset.split.train, epochs=epochs)
    registry = ModelRegistry(registry_root)
    checkpoint = registry.save("widen-acm-cluster", model)

    pool = dataset.split.test
    ops = _ops(make_trace(pool, requests, zipf_exponent=zipf, rng=seed))
    rng = np.random.default_rng(seed)
    probe = rng.choice(dataset.graph.num_nodes, size=24, replace=False)

    # -- single-server baseline (cold cache) ---------------------------
    graph = _fresh_graph(seed, scale)
    single = InferenceServer(
        WidenClassifier.load(checkpoint, graph=graph), graph, seed=seed
    )
    single_seconds = _timed(single.embed, ops)
    reference = single.embed(probe)

    report = {
        "benchmark": "cluster_scaling",
        "dataset": "acm",
        "scale": scale,
        "requests": requests,
        "group": GROUP,
        "ops": len(ops),
        "zipf_exponent": zipf,
        "single_server": {
            "wall_seconds": single_seconds,
            "ops_per_s": len(ops) / single_seconds,
        },
        # inline rows, one per shard count (the stable shape older tooling
        # reads); the full transport sweep lives in "transport_fleets".
        "fleets": [],
        "transport_fleets": [],
    }

    prometheus_state = {"text": None}

    def measure_fleet(transport, num_shards):
        graph = _fresh_graph(seed, scale)
        router = ClusterRouter.from_checkpoint(
            checkpoint, graph, num_shards, transport=transport,
            seed=seed,
        )
        try:
            exact = bool(np.array_equal(router.embed(probe), reference))
            router.enable_slo()  # one attribution record per op from here
            cold_seconds = _timed(router.embed, ops)
            cold = list(router.attributions)
            # Warm pass: caches absorb the compute, so the wall clock is
            # almost pure transport cost — codec, socket hops, scheduling.
            warm_seconds = _timed(router.embed, ops)
            ops_per_s = len(ops) / cold_seconds
            stats = {
                "transport": transport,
                "num_shards": num_shards,
                "exact_match": exact,
                "requests": sum(r.nodes for r in cold),
                "wall_seconds": cold_seconds,
                "ops_per_s": ops_per_s,
                "speedup_vs_single": (
                    ops_per_s / report["single_server"]["ops_per_s"]
                ),
                "compute_seconds": float(sum(r.compute for r in cold)),
                "warm_wall_seconds": warm_seconds,
            }
            if transport == "inline" and num_shards == SHARD_COUNTS[-1]:
                prometheus_state["text"] = router.render_prometheus()
        finally:
            router.close()
        return stats

    for transport in TRANSPORTS:
        for num_shards in SHARD_COUNTS:
            stats = measure_fleet(transport, num_shards)
            report["transport_fleets"].append(stats)
            if transport == "inline":
                report["fleets"].append(stats)
    # -- kill -9 one socket worker mid-stream, assert exact recovery ----
    report["kill_recover"] = _measure_kill_recover(
        checkpoint, probe, seed=seed, scale=scale
    )
    report["worker_startup"] = _measure_worker_startup()
    report["trace_overhead"] = _measure_trace_overhead(
        checkpoint, probe, seed=seed, scale=scale, rounds=rounds
    )

    prometheus_text = prometheus_state["text"]

    samples = [
        line for line in (prometheus_text or "").splitlines()
        if line and not line.startswith("#")
    ]
    report["prometheus_samples"] = len(samples)

    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)

    print(f"{'fleet':<20}{'ops/s':>10}{'speedup':>9}{'compute s':>11}"
          f"{'warm s':>8}{'exact':>7}")
    single_stats = report["single_server"]
    print(f"{'single server':<20}{single_stats['ops_per_s']:>10.1f}"
          f"{1.0:>9.2f}{'-':>11}{'-':>8}{'-':>7}")
    for stats in report["transport_fleets"]:
        label = f"{stats['transport']} x{stats['num_shards']}"
        print(f"{label:<20}"
              f"{stats['ops_per_s']:>10.1f}"
              f"{stats['speedup_vs_single']:>9.2f}"
              f"{stats['compute_seconds']:>11.3f}"
              f"{stats['warm_wall_seconds']:>8.3f}"
              f"{str(stats['exact_match']):>7}")
    print("scaling is reported, not asserted: a host with fewer cores than "
          "shards shows none")
    recover = report["kill_recover"]
    recovery = recover["recoveries"][0] if recover["recoveries"] else {}
    print(f"kill -9 recovery: reason={recover['worker_down_reason']} "
          f"detect {recovery.get('detect_s', 0) * 1e3:.1f} ms, "
          f"respawn {recovery.get('respawn_s', 0) * 1e3:.1f} ms, "
          f"total {recovery.get('total_s', 0) * 1e3:.1f} ms, "
          f"exact={recover['post_recovery_exact']}")
    startup = report["worker_startup"]
    print(f"worker time-to-LISTENING: one {startup['one_s'] * 1e3:.0f} ms, "
          f"two launched together {startup['two_s'] * 1e3:.0f} ms")
    overhead = report["trace_overhead"]
    print(f"trace overhead, warm p50 on inline x2 over {overhead['calls']} "
          f"ops: off {overhead['off_p50_us']:.1f} us (paired "
          f"{overhead['off_pair_p50_ratio']:.3f}x after "
          f"{overhead['off_pair_attempts']} attempt(s)), slo "
          f"{overhead['slo_over_off_p50']:.2f}x, trace "
          f"{overhead['trace_over_off_p50']:.2f}x")
    print(f"prometheus: {report['prometheus_samples']} shard-labeled samples "
          f"-> {out_path}")

    # Claim 1: every fleet, on every transport, is bit-identical.
    transports = {s["transport"] for s in report["transport_fleets"]}
    assert transports == set(TRANSPORTS), f"fleets ran on {sorted(transports)}"
    for stats in report["transport_fleets"]:
        assert stats["exact_match"], (
            f"{stats['transport']} x{stats['num_shards']} diverged from the "
            "single server"
        )
    # Every transport serves the same nodes at every fleet size.
    for num_shards in SHARD_COUNTS:
        served = {
            s["transport"]: s["requests"]
            for s in report["transport_fleets"]
            if s["num_shards"] == num_shards
        }
        assert set(served.values()) == {requests}, (
            f"transports disagree on served requests at {num_shards} "
            f"shards: {served}"
        )
    # Claim 2: the merged exposition carries per-shard series.
    assert report["prometheus_samples"] > 0, "empty Prometheus exposition"
    for shard in range(4):
        assert f'shard="{shard}"' in (prometheus_text or ""), (
            f"no shard=\"{shard}\" series in the Prometheus exposition"
        )
    # Claim 3: the killed worker came back exact, via a typed WorkerDown
    # and one respawn from the coordinator's present.
    assert recover["pre_kill_exact"] and recover["post_recovery_exact"], (
        f"socket fleet diverged around the kill: {recover}"
    )
    assert recover["worker_down_reason"] in (
        "connection_reset", "send_failed", "heartbeat_missed",
    ), f"kill was not detected as a typed WorkerDown: {recover}"
    assert len(recover["recoveries"]) == recover["respawns"] == 1, recover
    # Claim 4: observability off reproduces itself; on, it stays cheap.
    assert abs(overhead["off_pair_p50_ratio"] - 1.0) <= NOISE_GATE, (
        f"paired observability-off runs disagree by "
        f"{abs(overhead['off_pair_p50_ratio'] - 1.0) * 100:.1f}% on warm p50 "
        f"(> {NOISE_GATE * 100:.0f}%): the noise floor is not credible"
    )
    assert overhead["slo_over_off_p50"] <= SLO_OVERHEAD_CEILING, (
        f"SLO accounting costs {overhead['slo_over_off_p50']:.2f}x warm p50 "
        f"(> {SLO_OVERHEAD_CEILING}x)"
    )
    assert overhead["trace_over_off_p50"] <= TRACE_OVERHEAD_CEILING, (
        f"full tracing costs {overhead['trace_over_off_p50']:.2f}x warm p50 "
        f"(> {TRACE_OVERHEAD_CEILING}x)"
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cluster throughput scaling")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small graph, short trace)")
    parser.add_argument("--out", default="BENCH_cluster.json")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.smoke:
        defaults = {"scale": 0.4, "epochs": 1, "requests": 160, "rounds": 24}
    else:
        defaults = {"scale": 1.0, "epochs": 5, "requests": 600, "rounds": 48}
    run_bench(
        args.out,
        scale=args.scale if args.scale is not None else defaults["scale"],
        epochs=args.epochs if args.epochs is not None else defaults["epochs"],
        requests=(
            args.requests if args.requests is not None else defaults["requests"]
        ),
        rounds=defaults["rounds"],
        seed=args.seed,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
