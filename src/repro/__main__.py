"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``stats [dataset]``
    Print Table-1-style statistics for one or all datasets.
``train [dataset] [--epochs N]``
    Train WIDEN on a dataset and report test micro-F1.
``compare [dataset] [--epochs N]``
    Train WIDEN and every baseline on a dataset; print a leaderboard.
``serve-bench [dataset] [--requests N] [--rate R] ...``
    Train WIDEN, checkpoint it through the model registry, restore it into
    an :class:`~repro.serve.InferenceServer`, replay a deterministic
    Poisson/Zipf arrival trace, and print a latency/throughput report:
    cold single-request baseline vs. the batched server (cold cache) vs.
    the batched server (warm cache).
``serve-cluster [dataset] [--shards K] [--transport T] [--smoke] ...``
    Train WIDEN, serve the graph from K shards — full replicas, shard
    ``n % K`` owning node ``n`` (:mod:`repro.cluster`), replay the same
    deterministic trace through the scatter-gather router, and print the
    cluster report: per-shard ownership/latency plus cluster throughput.  ``--transport``
    selects the shard boundary: ``inline`` (deterministic replay, default)
    or ``socket`` (one TCP worker process per shard, rebuilt from the
    checkpoint, with heartbeats, and a dead worker respawned from the
    coordinator's current graph and write clock; ``--workers
    host:port,...`` points at pre-started ``shard-worker`` processes,
    otherwise workers are spawned locally).  ``--prometheus-out`` writes
    the merged shard-labeled Prometheus exposition, as ``train --shards``
    does for a training fleet.
``shard-worker --listen HOST:PORT``
    Run one shard-engine server speaking the length-prefixed TCP framing
    of :mod:`repro.cluster.net`.  Port 0 picks a free port; the bound
    address is announced as ``LISTENING host port`` on stdout.  Point a
    ``serve-cluster --transport socket --workers`` fleet at one of these
    per shard to span hosts.
``store-build [dataset] [--out DIR] [--checkpoint F] [--epochs N]``
    Materialize every node's serving embedding into a versioned
    on-disk store (:mod:`repro.store`).  Loads ``--checkpoint`` when
    given, otherwise trains first (same seed/epochs defaults as
    ``serve-bench``, so the two line up without a checkpoint file).
    ``serve-bench --store DIR`` and ``serve-cluster --store DIR`` then
    serve cache misses from the store — one gather, no model code —
    falling back to full recompute for stale/absent rows.
``trace [dataset] [--shards K] [--transport T] [--smoke] ...``
    Run a traced workload through the cluster's scatter-gather path with
    distributed tracing and SLO monitoring on (:mod:`repro.obs.dist` /
    :mod:`repro.obs.slo`): writes a stitched Chrome/Perfetto trace with
    router and per-shard process lanes (``--dist-trace-out``), a
    rolling-window SLO report with error budget and slow-request exemplars
    (``--slo-out``), and one attribution record per request — queue-wait
    vs compute, serving-ladder rung counts — as JSONL
    (``--attribution-out``).  Non-zero exit if any request's rung counts
    fail to sum to its node count.
``profile [dataset] [--epochs N] [--trace-out F] [--metrics-out F]``
    Train WIDEN under the :mod:`repro.obs` instrumentation: prints an
    op-level time/FLOP table and the per-epoch message-volume series, and
    writes a Chrome-loadable ``trace.json`` plus a ``metrics.jsonl`` with
    per-epoch loss/F1/message-volume/KL-trigger series.

``train`` and ``serve-bench`` additionally accept ``--metrics-out FILE`` to
dump the shared metrics registry as JSONL after the run.  ``serve-bench``
and ``serve-cluster`` accept ``--metrics-port P`` to expose a live
Prometheus ``/metrics`` endpoint for the duration of the run (port 0
picks a free port).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.datasets import DATASETS, make_dataset

    names = [args.dataset] if args.dataset else sorted(DATASETS)
    for name in names:
        stats = make_dataset(name, seed=args.seed, scale=args.scale).statistics()
        print(f"{name}: {stats['num_nodes']} nodes ({stats['num_node_types']} types), "
              f"{stats['num_edges']} edges ({stats['num_edge_types']} types), "
              f"{stats['num_features']} features, {stats['num_classes']} classes, "
              f"split {stats['train_nodes']}/{stats['val_nodes']}/{stats['test_nodes']}")
    return 0


def _train_widen(args: argparse.Namespace, dataset, epochs=None):
    """The WIDEN classifier every command serves, stores or profiles:
    built from ``--seed``/``--dim`` and fitted on the dataset's train split
    for ``--epochs`` (``epochs=0`` builds and binds without training)."""
    from repro.core import WidenClassifier

    overrides = {} if args.dim is None else {"dim": args.dim}
    model = WidenClassifier(seed=args.seed, **overrides)
    model.fit(
        dataset.graph, dataset.split.train,
        epochs=args.epochs if epochs is None else epochs,
    )
    return model


def _parse_workers(args: argparse.Namespace):
    """``--workers host:port,...`` as a list, or ``None`` to spawn locally."""
    if not args.workers:
        return None
    return [w.strip() for w in args.workers.split(",") if w.strip()]


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.datasets import make_dataset
    from repro.eval import micro_f1

    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    if args.shards is not None or args.resume is not None:
        return _train_distributed(args, dataset)
    model = _train_widen(args, dataset)
    predictions = model.predict(dataset.split.test)
    score = micro_f1(dataset.graph.labels[dataset.split.test], predictions)
    print(f"widen on {dataset.name}: micro-F1 {score:.4f} "
          f"({np.mean(model.epoch_seconds):.3f} s/epoch)")
    _maybe_dump_metrics(args)
    return 0


def _train_distributed(args: argparse.Namespace, dataset) -> int:
    """``train --shards K [--transport T] [--resume PATH]``: data-parallel
    training over the cluster substrate (same flag group serve-cluster
    parses — one shard/transport vocabulary for serving and training).
    """
    from pathlib import Path

    from repro.cluster.train import DistributedTrainer
    from repro.eval import micro_f1

    graph, split = dataset.graph, dataset.split
    shards = args.shards if args.shards is not None else 2
    fleet_kwargs = dict(transport=args.transport, workers=_parse_workers(args))
    resume = Path(args.resume) if args.resume else None
    if resume is not None and resume.is_dir():
        print(f"resuming fleet from {resume} ...")
        trainer = DistributedTrainer.resume(resume, graph, **fleet_kwargs)
    elif resume is not None:
        print(f"spawning {shards} shard(s) from checkpoint {resume} ...")
        trainer = DistributedTrainer(resume, graph, shards, **fleet_kwargs)
    else:
        trainer = DistributedTrainer.from_classifier(
            _train_widen(args, dataset, epochs=0), graph, shards, **fleet_kwargs
        )
    with trainer:
        history = trainer.fit(
            split.train, args.epochs, checkpoint_dir=args.checkpoint_out
        )
        model = trainer.classifier(graph=graph)
        if args.prometheus_out:
            _write_prometheus(trainer, args.prometheus_out)
    predictions = model.predict(split.test)
    score = micro_f1(graph.labels[split.test], predictions)
    seconds = float(np.sum(history.epoch_seconds)) or 1e-12
    rate = history.epochs * split.train.size / seconds
    print(f"widen on {dataset.name}: micro-F1 {score:.4f} "
          f"({trainer.plan.num_shards} shards, {args.transport} transport, "
          f"{np.mean(history.epoch_seconds):.3f} s/epoch, "
          f"{rate:.0f} nodes/s, final loss {history.losses[-1]:.6f})")
    if args.checkpoint_out:
        print(f"fleet checkpoints in {args.checkpoint_out}")
    _maybe_dump_metrics(args)
    return 0


def _write_prometheus(fleet, path: str) -> None:
    """A router's or trainer's merged, shard-labeled exposition, written
    atomically (temp file + rename)."""
    lines = fleet.merged_registry().write_prometheus(path)
    print(f"wrote {lines} Prometheus samples to {path}")


def _maybe_dump_metrics(args: argparse.Namespace) -> None:
    if getattr(args, "metrics_out", None):
        from repro.obs import get_registry

        count = get_registry().dump_jsonl(args.metrics_out)
        print(f"wrote {count} metric records to {args.metrics_out}")


def _maybe_serve_metrics(args: argparse.Namespace, render):
    """A live ``/metrics`` endpoint for the duration of a ``with`` block.

    Does nothing unless ``--metrics-port`` is given.  ``render`` is a
    zero-argument callable producing the Prometheus text exposition, read
    per scrape.
    """
    if getattr(args, "metrics_port", None) is None:
        return contextlib.nullcontext()
    from repro.obs import MetricsHTTPServer

    server = MetricsHTTPServer(render, port=args.metrics_port)
    print(f"metrics endpoint live at {server.url}")
    return server


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.datasets import make_dataset
    from repro.obs import (
        MetricsRegistry, OpProfiler, Tracer, set_registry, set_tracer,
    )

    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    # Fresh registry + enabled tracer for the duration of the run, so the
    # dumps contain exactly this training run.
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True)
    previous_registry = set_registry(registry)
    previous_tracer = set_tracer(tracer)
    profiler = OpProfiler()
    print(f"profiling widen on {dataset.name} ({args.epochs} epochs) ...\n")
    try:
        with profiler:
            model = _train_widen(args, dataset)
    finally:
        profiler.disable()
        set_registry(previous_registry)
        set_tracer(previous_tracer)
    profiler.export(registry)

    print("op-level profile (self-time, analytic FLOPs)")
    print(profiler.table())

    history = model.trainer.history
    print("\nper-epoch training series")
    header = (
        f"{'epoch':>5} {'loss':>8} {'microF1':>8} {'wide msgs':>10} "
        f"{'deep msgs':>10} {'drops':>6} {'KL fires':>9} {'sec':>7}"
    )
    print(header)
    print("-" * len(header))
    for epoch in range(history.epochs):
        print(
            f"{epoch:>5} {history.losses[epoch]:>8.4f} "
            f"{history.train_micro_f1[epoch]:>8.4f} "
            f"{history.wide_messages[epoch]:>10} "
            f"{history.deep_messages[epoch]:>10} "
            f"{history.wide_drops[epoch] + history.deep_drops[epoch]:>6} "
            f"{history.trigger_fires[epoch]:>9} "
            f"{history.epoch_seconds[epoch]:>7.3f}"
        )

    events = tracer.write_chrome_trace(args.trace_out)
    records = registry.dump_jsonl(args.metrics_out)
    print(f"\nwrote {events} trace events to {args.trace_out} "
          f"(load via chrome://tracing or ui.perfetto.dev)")
    print(f"wrote {records} metric records to {args.metrics_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import BASELINES
    from repro.datasets import make_dataset
    from repro.eval import micro_f1

    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    rows = []
    for name in list(BASELINES) + ["widen"]:
        if name == "gtn" and dataset.name == "yelp":
            continue  # matches the paper's skip
        if name == "widen":
            model = _train_widen(args, dataset)
        else:
            kwargs = {"seed": args.seed}
            if name == "han":
                kwargs["target_type"] = dataset.target_type
            model = BASELINES[name](**kwargs)
            epochs = max(1, args.epochs // 5) if name == "node2vec" else args.epochs
            model.fit(dataset.graph, dataset.split.train, epochs=epochs)
        predictions = model.predict(dataset.split.test)
        score = micro_f1(dataset.graph.labels[dataset.split.test], predictions)
        rows.append((score, name, float(np.mean(model.epoch_seconds))))
        print(f"  trained {name}: {score:.4f}")
    print(f"\nleaderboard on {dataset.name}:")
    for score, name, seconds in sorted(rows, reverse=True):
        print(f"  {name:<10} micro-F1 {score:.4f}   {seconds:.3f} s/epoch")
    return 0


def _cmd_store_build(args: argparse.Namespace) -> int:
    from repro.core import WidenClassifier
    from repro.datasets import make_dataset
    from repro.obs import get_registry
    from repro.store import build_store

    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    if args.checkpoint:
        print(f"loading checkpoint {args.checkpoint} ...")
        model = WidenClassifier.load(args.checkpoint, graph=dataset.graph)
    else:
        print(f"training widen on {dataset.name} ({args.epochs} epochs) ...")
        model = _train_widen(args, dataset)

    store = build_store(
        model, dataset.graph, args.out,
        seed=args.seed, dataset=dataset.name, checkpoint=args.checkpoint,
    )
    registry = get_registry()
    seconds = registry.gauge("store_build_seconds").value
    print(f"materialized {store.num_rows} rows x {store.row_nbytes} B/row "
          f"= {store.nbytes / 1e6:.2f} MB of embeddings "
          f"in {seconds:.2f}s -> {args.out}")
    print(f"store keyed to params digest {store.meta['params_digest']}, "
          f"seed {store.meta['seed']}, graph version {store.meta['graph_version']}")
    _maybe_dump_metrics(args)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import tempfile

    from repro.datasets import make_dataset
    from repro.serve import (
        InferenceServer, ModelRegistry, cold_single_requests, make_trace, replay,
    )

    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    print(f"training widen on {dataset.name} ({args.epochs} epochs) ...")
    model = _train_widen(args, dataset)

    # Round-trip through the registry: the served model is restored from its
    # checkpoint exactly as a real serving process would be.
    with tempfile.TemporaryDirectory(prefix="repro-registry-") as root:
        registry = ModelRegistry(root)
        registry.save(f"widen-{dataset.name}", model)
        served = registry.load(f"widen-{dataset.name}", graph=dataset.graph)

        pool = dataset.split.test
        trace = make_trace(
            pool, args.requests, rate=args.rate,
            zipf_exponent=args.zipf, rng=args.seed,
        )
        span = trace[-1].time
        print(f"trace: {len(trace)} requests over {span:.2f}s "
              f"({len(np.unique([e.node for e in trace]))} distinct of "
              f"{pool.size} servable nodes, zipf s={args.zipf})\n")

        cold = cold_single_requests(served, dataset.graph, trace, seed=args.seed)
        print("cold single-request baseline (no batching, no cache)")
        print("-" * 52)
        print(f"latency mean      {cold['latency_mean_s'] * 1e3:.3f} ms")
        print(f"latency p50/p95/p99   "
              f"{cold['latency_p50_s'] * 1e3:.3f} / "
              f"{cold['latency_p95_s'] * 1e3:.3f} / "
              f"{cold['latency_p99_s'] * 1e3:.3f} ms")
        print(f"throughput        {cold['throughput_rps']:.1f} req/s\n")

        store = None
        if args.store:
            from repro.store import AggregateStore

            store = AggregateStore.open(args.store)
            print(f"store: {store.num_rows} materialized rows from "
                  f"{args.store} (digest {store.meta['params_digest']})\n")
        server = InferenceServer(
            served, dataset.graph,
            max_batch_size=args.batch_size, max_wait=args.max_wait,
            cache_capacity=args.cache_capacity, seed=args.seed,
            store=store,
        )
        # The endpoint renders the server's snapshot — registry series
        # plus the cache node-hit histogram and store gauges.
        with _maybe_serve_metrics(args, server.render_prometheus):
            replay(server, trace)
            print(server.telemetry.format_report(
                "server, first pass (cold cache)"))
            warm = replay(server, trace)
            print()
            print(server.telemetry.format_report(
                "server, replayed pass (warm cache)"))
        speedup = (
            cold["latency_mean_s"] / warm["latency_mean_s"]
            if warm["latency_mean_s"] > 0 else float("inf")
        )
        print(f"\nwarm-cache mean latency is {speedup:.1f}x lower than the "
              f"cold single-request baseline "
              f"({warm['latency_mean_s'] * 1e3:.3f} ms vs "
              f"{cold['latency_mean_s'] * 1e3:.3f} ms)")
    _maybe_dump_metrics(args)
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import tempfile

    from repro.cluster import ClusterRouter
    from repro.datasets import make_dataset
    from repro.serve import ModelRegistry, make_trace

    if args.smoke:
        # CI-sized run: tiny graph, short trace, one epoch.
        args.scale = min(args.scale, 0.3)
        args.epochs = min(args.epochs, 1)
        args.requests = min(args.requests, 60)
    if args.shards is None:
        args.shards = 2
    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    print(f"training widen on {dataset.name} ({args.epochs} epochs) ...")
    model = _train_widen(args, dataset)

    with tempfile.TemporaryDirectory(prefix="repro-registry-") as root:
        registry = ModelRegistry(root)
        path = registry.save(f"widen-{dataset.name}", model)
        router = ClusterRouter.from_checkpoint(
            path, dataset.graph, args.shards,
            transport=args.transport,
            workers=_parse_workers(args),
            max_batch_size=args.batch_size, max_wait=args.max_wait,
            cache_capacity=args.cache_capacity, seed=args.seed,
            store_path=args.store or None,
        )
        # Worker processes and the listener go down with the block, also
        # when a replay raises.
        with router, _maybe_serve_metrics(args, router.render_prometheus):
            if args.store:
                print(f"store: sliced {router.store.num_rows} rows from "
                      f"{args.store} across {args.shards} shards by ownership")
            plan = router.plan.summary()
            print(f"\nplan: {plan['num_shards']} shards over the "
                  f"{args.transport} transport, each a replica of all "
                  f"{plan['num_nodes']} nodes")
            for shard in plan["shards"]:
                print(f"  shard {shard['shard']}: {shard['owned']} owned")

            trace = make_trace(
                dataset.split.test, args.requests, rate=args.rate,
                zipf_exponent=args.zipf, rng=args.seed,
            )
            cold = router.replay(trace)
            warm = router.replay(trace)
            for title, stats in (("cold cache", cold), ("warm cache", warm)):
                print(f"\ncluster, {title}")
                print("-" * (9 + len(title)))
                print(f"requests          {stats['requests']}")
                print(f"throughput        {stats['throughput_rps']:.1f} req/s")
                print(f"latency p50/p95/p99   "
                      f"{stats['latency_p50_s'] * 1e3:.3f} / "
                      f"{stats['latency_p95_s'] * 1e3:.3f} / "
                      f"{stats['latency_p99_s'] * 1e3:.3f} ms")
                for shard in stats["shards"]:
                    print(f"  shard {shard['shard']}: "
                          f"{shard['requests']} reqs, "
                          f"p95 {shard['latency_p95_s'] * 1e3:.3f} ms, "
                          f"occupancy {shard['batch_occupancy'] * 100:.0f}%, "
                          f"hit rate {shard['cache_hit_rate'] * 100:.0f}%")
            if args.prometheus_out:
                print()
                _write_prometheus(router, args.prometheus_out)
    _maybe_dump_metrics(args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.cluster import ClusterRouter
    from repro.datasets import make_dataset
    from repro.obs import SLOTarget
    from repro.serve import ModelRegistry, make_trace

    if args.smoke:
        args.scale = min(args.scale, 0.3)
        args.epochs = min(args.epochs, 1)
        args.requests = min(args.requests, 48)
    if args.shards is None:
        args.shards = 2
    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    print(f"training widen on {dataset.name} ({args.epochs} epochs) ...")
    model = _train_widen(args, dataset)

    with tempfile.TemporaryDirectory(prefix="repro-registry-") as root:
        registry = ModelRegistry(root)
        path = registry.save(f"widen-{dataset.name}", model)
        router = ClusterRouter.from_checkpoint(
            path, dataset.graph, args.shards,
            transport=args.transport,
            max_batch_size=args.batch_size, max_wait=args.max_wait,
            cache_capacity=args.cache_capacity, seed=args.seed,
            store_path=args.store or None,
            dist_tracing=True,
            slo_target=SLOTarget(
                latency_threshold=args.slo_threshold,
                objective=args.slo_objective,
            ),
        )
        with router, _maybe_serve_metrics(args, router.render_prometheus):
            print(f"tracing {args.requests} requests over {args.shards} shards "
                  f"({args.transport} transport), scatter groups of {args.group}")

            # The workload goes through the traced request path (embed), not
            # replay: every scatter group becomes one trace id with router +
            # shard spans, and two passes show the cold->warm rung shift.
            trace = make_trace(
                dataset.split.test, args.requests, rate=args.rate,
                zipf_exponent=args.zipf, rng=args.seed,
            )
            nodes = np.asarray([event.node for event in trace], dtype=np.int64)
            for _ in range(2):
                for start in range(0, nodes.size, args.group):
                    router.embed(nodes[start:start + args.group])

            records = router.attribution_records()
            mismatched = sum(
                1 for r in records if sum(r["rungs"].values()) != r["nodes"]
            )
            total_nodes = sum(r["nodes"] for r in records)
            rung_totals: dict = {}
            for record in records:
                for rung, count in record["rungs"].items():
                    rung_totals[rung] = rung_totals.get(rung, 0) + count
            queue_mean = (
                sum(r["queue_wait_s"] for r in records) / len(records)
                if records else 0.0
            )
            compute_mean = (
                sum(r["compute_s"] for r in records) / len(records)
                if records else 0.0
            )
            print(f"\nattribution: {len(records)} requests, {total_nodes} nodes "
                  f"({mismatched} rung-count mismatches)")
            print("rung mix          "
                  + " / ".join(f"{k} {v}" for k, v in sorted(rung_totals.items())))
            print(f"queue/compute     {queue_mean * 1e3:.3f} / "
                  f"{compute_mean * 1e3:.3f} ms (mean, critical path)")

            slo = router.slo_report()
            print(f"SLO               p50 {slo['p50_s'] * 1e3:.3f} ms, "
                  f"p95 {slo['p95_s'] * 1e3:.3f} ms, "
                  f"p99 {slo['p99_s'] * 1e3:.3f} ms")
            print(f"                  compliance {slo['compliance'] * 100:.1f}% "
                  f"vs objective {slo['target']['objective'] * 100:.1f}% "
                  f"(burn rate {slo['burn_rate']:.2f})")

            events = router.write_dist_trace(args.dist_trace_out)
            with open(args.dist_trace_out) as handle:
                pids = {e["pid"] for e in json.load(handle)["traceEvents"]}
            print(f"\nwrote {events} trace events ({len(pids)} process lanes) "
                  f"to {args.dist_trace_out}")
            with open(args.slo_out, "w") as handle:
                json.dump(slo, handle, indent=2)
            print(f"wrote SLO report to {args.slo_out}")
            with open(args.attribution_out, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
            print(f"wrote {len(records)} attribution records to "
                  f"{args.attribution_out}")
    _maybe_dump_metrics(args)
    return 1 if mismatched else 0


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.cluster.net import ShardWorkerServer

    listen = args.listen or "127.0.0.1:0"
    host, _, port = listen.rpartition(":")
    if not host:
        host, port = "127.0.0.1", listen
    return ShardWorkerServer(host=host, port=int(port)).serve_forever()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "command",
        choices=(
            "stats", "train", "compare", "serve-bench", "serve-cluster",
            "store-build", "profile", "trace", "shard-worker",
        ),
    )
    parser.add_argument("dataset", nargs="?", default=None,
                        help="acm | dblp | yelp (default: all for stats, acm otherwise)")
    parser.add_argument("--dataset", dest="dataset_flag", default=None,
                        help="flag spelling of the positional dataset argument")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--dim", type=int, default=None,
                        help="WIDEN hidden dimension override; the "
                             "paper-scale widths make the gemm share visible")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--metrics-out", default=None,
                     help="dump the metrics registry as JSONL to this path "
                          "(default for profile: metrics.jsonl)")
    obs.add_argument("--trace-out", default="trace.json",
                     help="profile: Chrome trace_event output path")
    serve = parser.add_argument_group("serve-bench")
    serve.add_argument("--requests", type=int, default=400,
                       help="trace length (arrivals to replay)")
    serve.add_argument("--rate", type=float, default=300.0,
                       help="mean arrival rate, requests/second")
    serve.add_argument("--zipf", type=float, default=1.1,
                       help="Zipf popularity exponent of the node pool")
    serve.add_argument("--batch-size", type=int, default=16,
                       help="micro-batcher max batch size")
    serve.add_argument("--max-wait", type=float, default=0.002,
                       help="micro-batcher deadline, seconds")
    serve.add_argument("--cache-capacity", type=int, default=1024,
                       help="embedding cache entries")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="expose a live Prometheus /metrics endpoint on "
                            "this port for the run (0 picks a free port)")
    cluster = parser.add_argument_group("cluster (serve-cluster / trace / train)")
    cluster.add_argument("--shards", type=int, default=None,
                         help="number of shards (default 2 "
                              "for serve-cluster/trace; giving it to train "
                              "switches on data-parallel training)")
    cluster.add_argument("--transport",
                         choices=("inline", "socket"),
                         default="inline",
                         help="shard boundary: inline (deterministic "
                              "replay) or socket (one TCP worker process "
                              "per shard)")
    cluster.add_argument("--workers", default=None,
                         help="socket transport: comma-separated "
                              "host:port list of pre-started shard-worker "
                              "processes, one per shard (default: spawn "
                              "local workers)")
    cluster.add_argument("--smoke", action="store_true",
                         help="CI-sized run: caps scale/epochs/requests")
    cluster.add_argument("--prometheus-out", default=None,
                         help="write the merged shard-labeled Prometheus "
                              "text exposition to this path")
    cluster.add_argument("--resume", default=None,
                         help="train: resume from a fleet checkpoint "
                              "directory (manifest.json + shard-K.npz) or a "
                              "single checkpoint file")
    cluster.add_argument("--checkpoint-out", default=None,
                         help="train: snapshot every shard into this "
                              "directory at each epoch boundary (the "
                              "elastic-resume unit)")
    store = parser.add_argument_group("store")
    store.add_argument("--store", default=None,
                       help="serve-bench/serve-cluster: serve cache misses "
                            "from this materialized-aggregate store directory")
    store.add_argument("--out", default="store",
                       help="store-build: output directory for the store")
    store.add_argument("--checkpoint", default=None,
                       help="store-build: materialize from this checkpoint "
                            "instead of training fresh")
    dist = parser.add_argument_group("trace")
    dist.add_argument("--group", type=int, default=8,
                      help="trace: nodes per scatter-gather request")
    dist.add_argument("--slo-threshold", type=float, default=0.050,
                      help="trace: SLO latency threshold, seconds")
    dist.add_argument("--slo-objective", type=float, default=0.99,
                      help="trace: fraction of requests that must meet the "
                           "threshold")
    dist.add_argument("--dist-trace-out", default="dist_trace.json",
                      help="trace: stitched Chrome/Perfetto trace output path")
    dist.add_argument("--slo-out", default="slo_report.json",
                      help="trace: SLO report JSON output path")
    dist.add_argument("--attribution-out", default="attribution.jsonl",
                      help="trace: per-request attribution JSONL output path")
    net = parser.add_argument_group("shard-worker")
    net.add_argument("--listen", default=None,
                     help="shard-worker: host:port to listen on "
                          "(port 0 picks a free port; the bound address "
                          "is announced as 'LISTENING host port')")
    args = parser.parse_args(argv)
    args.dataset = args.dataset or args.dataset_flag
    if args.command == "profile" and args.metrics_out is None:
        args.metrics_out = "metrics.jsonl"
    handlers = {
        "stats": _cmd_stats,
        "train": _cmd_train,
        "compare": _cmd_compare,
        "serve-bench": _cmd_serve_bench,
        "serve-cluster": _cmd_serve_cluster,
        "store-build": _cmd_store_build,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "shard-worker": _cmd_shard_worker,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
