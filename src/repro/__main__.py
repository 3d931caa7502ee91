"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``stats [dataset]``
    Print Table-1-style statistics for one or all datasets.
``train [dataset] [--epochs N] [--trace-out F]``
    Train WIDEN on a dataset and report test micro-F1.  With
    ``--trace-out`` the training runs under the :mod:`repro.obs`
    instrumentation: it prints an op-level time/FLOP table, adds the op
    rows to the metrics registry and writes a Chrome-loadable trace.
``serve-cluster [dataset] [--shards K] [--transport T] [--smoke] ...``
    Train WIDEN, serve the graph from K shards — full replicas, shard
    ``n % K`` owning node ``n`` (:mod:`repro.cluster`) — and send a
    deterministic Zipf trace through the scatter-gather router as
    8-node ``embed`` ops, two passes (cold cache, then warm),
    with distributed tracing and SLO monitoring on (:mod:`repro.obs.dist`
    / :mod:`repro.obs.slo`).  ``--shards 1 --transport inline`` is one
    :class:`~repro.serve.InferenceServer` behind the router.  Prints the
    shard plan, the attribution (compute on the critical path,
    serving-ladder rung mix per pass, store lookups by outcome with
    ``--store``) and the SLO report, and writes a stitched
    Chrome/Perfetto trace with router and per-shard process lanes
    (``--dist-trace-out``), the SLO report with error budget and
    slow-request exemplars (``--slo-out``) and one attribution record per
    op as JSONL (``--attribution-out``).
    Non-zero exit if any op's rung counts fail to sum to its node count.
    ``--transport`` selects the shard boundary: ``inline`` (default) or
    ``socket`` (one TCP worker process per shard, rebuilt from the
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
``store-build [dataset] [--out FILE] [--checkpoint F] [--epochs N]``
    Materialize every node's serving embedding into a versioned
    one-file store (:mod:`repro.store`).  Loads ``--checkpoint`` when
    given, otherwise trains first (same seed/epochs defaults as
    ``serve-cluster``, so the two line up without a checkpoint file).
    ``serve-cluster --store FILE`` then serves cache misses from the
    store — one gather, no model code — falling back to full recompute
    for stale/absent rows.

``train``, ``store-build`` and ``serve-cluster`` additionally accept
``--metrics-out FILE`` to dump the shared metrics registry as JSONL after
the run.  ``serve-cluster`` accepts ``--metrics-port P`` to expose a live
Prometheus ``/metrics`` endpoint for the duration of the run (port 0
picks a free port).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

#: Nodes per ``embed`` op that ``serve-cluster`` sends through the router.
GROUP = 8


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
    """The WIDEN classifier every command trains, serves or stores:
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


def _refuse(args: argparse.Namespace, message) -> int:
    """One ``repro <command>: error:`` line on stderr; exit status 2."""
    print(f"repro {args.command}: error: {message}", file=sys.stderr)
    return 2


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.datasets import make_dataset
    from repro.eval import micro_f1

    distributed = args.shards is not None or args.resume is not None
    if distributed and args.trace_out:
        return _refuse(args, "--trace-out traces a single-process run; a "
                             "fleet (--shards, --resume) has no trace lanes")
    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    if distributed:
        model, detail = _train_distributed(args, dataset)
    else:
        with _maybe_profile(args):
            model = _train_widen(args, dataset)
        detail = f"{np.mean(model.epoch_seconds):.3f} s/epoch"
        _dump_metrics(args)
    predictions = model.predict(dataset.split.test)
    score = micro_f1(dataset.graph.labels[dataset.split.test], predictions)
    print(f"widen on {dataset.name}: micro-F1 {score:.4f} ({detail})")
    return 0


def _train_distributed(args: argparse.Namespace, dataset):
    """``train --shards K [--transport T] [--resume PATH]``: data-parallel
    training over the cluster substrate (same flag group serve-cluster
    parses — one shard/transport vocabulary for serving and training).
    """
    from pathlib import Path

    from repro.cluster.train import DistributedTrainer

    graph, split = dataset.graph, dataset.split
    shards = args.shards if args.shards is not None else 2
    fleet_kwargs = dict(transport=args.transport, workers=args.workers)
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
        _dump_metrics(args, trainer)
    if args.checkpoint_out:
        print(f"fleet checkpoints in {args.checkpoint_out}")
    seconds = float(np.sum(history.epoch_seconds)) or 1e-12
    rate = history.epochs * split.train.size / seconds
    return model, (f"{trainer.plan.num_shards} shards, {args.transport} transport, "
                   f"{np.mean(history.epoch_seconds):.3f} s/epoch, "
                   f"{rate:.0f} nodes/s, final loss {history.losses[-1]:.6f}")


def _dump_metrics(args: argparse.Namespace, fleet=None) -> None:
    """``--metrics-out``: the shared registry as JSONL, merged with
    ``fleet``'s shard-labeled series when one is given.
    ``--prometheus-out``: a router's or trainer's merged, shard-labeled
    exposition, written atomically (temp file + rename)."""
    from repro.obs import get_registry

    if not (args.metrics_out or args.prometheus_out):
        return  # a fleet's merge pulls every shard's registry
    registry = get_registry()
    if fleet is not None:
        registry = fleet.merged_registry()
        if args.prometheus_out:
            lines = registry.write_prometheus(args.prometheus_out)
            print(f"wrote {lines} Prometheus samples to {args.prometheus_out}")
        registry.merge_payload(get_registry().to_payload())
    if args.metrics_out:
        count = registry.dump_jsonl(args.metrics_out)
        print(f"wrote {count} metric records to {args.metrics_out}")


@contextlib.contextmanager
def _maybe_profile(args: argparse.Namespace):
    """``--trace-out``: run the block under an enabled tracer and the op
    profiler, then print the op table, add its rows to the shared registry
    (``--metrics-out`` carries ``op_calls``) and write the Chrome trace."""
    if not args.trace_out:
        yield
        return
    from repro.obs import OpProfiler, Tracer, get_registry, set_tracer

    previous = set_tracer(Tracer(enabled=True))
    try:
        with OpProfiler() as profiler:
            yield
    finally:
        tracer = set_tracer(previous)
    profiler.export(get_registry())
    print("op-level profile (self-time, analytic FLOPs)")
    print(profiler.table())
    events = tracer.write_chrome_trace(args.trace_out)
    print(f"wrote {events} trace events to {args.trace_out} "
          f"(load via chrome://tracing or ui.perfetto.dev)")


def _cmd_store_build(args: argparse.Namespace) -> int:
    from repro.core import WidenClassifier
    from repro.datasets import make_dataset
    from repro.obs import get_registry
    from repro.store import build_store
    from repro.store.store import refuse_directory

    try:
        refuse_directory(args.out)  # before any training or loading
    except ValueError as error:
        return _refuse(args, error)
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
    _dump_metrics(args)
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import ClusterRouter
    from repro.datasets import make_dataset
    from repro.obs import RUNGS, MetricsHTTPServer
    from repro.serve import make_trace

    if args.smoke:
        # CI-sized run: tiny graph, short trace, one epoch.
        args.scale = min(args.scale, 0.3)
        args.epochs = min(args.epochs, 1)
        args.requests = min(args.requests, 48)
    if args.shards is None:
        args.shards = 2
    dataset = make_dataset(args.dataset or "acm", seed=args.seed, scale=args.scale)
    print(f"training widen on {dataset.name} ({args.epochs} epochs) ...")
    model = _train_widen(args, dataset)

    router = ClusterRouter.from_classifier(
        model, dataset.graph, args.shards, transport=args.transport,
        workers=args.workers, seed=args.seed, store_path=args.store or None,
    )
    # Worker processes and the /metrics listener go down with the block,
    # also when an op raises.
    with router, contextlib.ExitStack() as stack:
        if args.metrics_port is not None:
            endpoint = stack.enter_context(MetricsHTTPServer(
                router.render_prometheus, port=args.metrics_port))
            print(f"metrics endpoint live at {endpoint.url}")
        router.enable_dist_tracing()
        router.enable_slo()
        if args.store:
            print(f"store: sliced {router.store.num_rows} rows from "
                  f"{args.store} across {args.shards} shards by ownership")
        plan = router.plan.summary()
        print(f"\nplan: {plan['num_shards']} shards over the "
              f"{args.transport} transport, each a replica of all "
              f"{plan['num_nodes']} nodes")
        for shard in plan["shards"]:
            print(f"  shard {shard['shard']}: {shard['owned']} owned")
        print(f"\nserving {args.requests} requests, scatter groups of "
              f"{GROUP}, two passes (cold cache, then warm)")

        # Every scatter group is one op through the request path (embed):
        # one trace id with router + shard spans, one attribution record,
        # and the second pass shows the cold->warm rung shift.
        nodes = make_trace(dataset.split.test, args.requests, rng=args.seed)
        starts = range(0, nodes.size, GROUP)
        passes = []
        for _ in range(2):
            for start in starts:
                router.embed(nodes[start:start + GROUP])
            passes.append(router.attribution_records()[-len(starts):])

        records = passes[0] + passes[1]
        mismatched = sum(
            1 for r in records if sum(r["rungs"].values()) != r["nodes"]
        )
        total_nodes = sum(r["nodes"] for r in records)
        compute_mean = (
            sum(r["compute_s"] for r in records) / len(records)
            if records else 0.0
        )
        print(f"\nattribution: {len(records)} requests, {total_nodes} nodes "
              f"({mismatched} rung-count mismatches)")
        for name, served in zip(("cold", "warm"), passes):
            mix = {
                rung: sum(r["rungs"].get(rung, 0) for r in served)
                for rung in RUNGS
            }
            print(f"rung mix, {name}    "
                  + " / ".join(f"{k} {v}" for k, v in mix.items() if v))
        if args.store:
            lookups = dict.fromkeys(("hit", "stale", "absent"), 0.0)
            for series in router.merged_registry().series():
                if series.name == "serve_store_requests_total":
                    lookups[series.labels["outcome"]] += series.value
            print("store lookups     "
                  + " / ".join(f"{k} {v:.0f}" for k, v in lookups.items()))
        print(f"compute           {compute_mean * 1e3:.3f} ms "
              "(mean, critical path)")

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
        _dump_metrics(args, router)
    return 1 if mismatched else 0


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.cluster.fleet import parse_address
    from repro.cluster.net import ShardWorkerServer

    try:
        server = ShardWorkerServer(*parse_address(args.listen))
        server.bind()
    except (ValueError, OSError) as error:
        return _refuse(args, f"--listen: {error}")
    return server.serve_forever()


def main(argv=None) -> int:
    handlers = {
        "stats": _cmd_stats,
        "train": _cmd_train,
        "serve-cluster": _cmd_serve_cluster,
        "store-build": _cmd_store_build,
        "shard-worker": _cmd_shard_worker,
    }
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("command", choices=handlers)
    parser.add_argument("dataset", nargs="?", default=None,
                        help="acm | dblp | yelp (default: all for stats, acm otherwise)")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--dim", type=int, default=None,
                        help="WIDEN hidden dimension override; the "
                             "paper-scale widths make the gemm share visible")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--metrics-out", default=None,
                     help="dump the metrics registry as JSONL to this path")
    obs.add_argument("--trace-out", default=None,
                     help="train: profile the run and write its Chrome "
                          "trace_event JSON to this path")
    serve = parser.add_argument_group("serving (serve-cluster)")
    serve.add_argument("--requests", type=int, default=400,
                       help="trace length (nodes to request)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="expose a live Prometheus /metrics endpoint on "
                            "this port for the run (0 picks a free port)")
    cluster = parser.add_argument_group("cluster (serve-cluster / train)")
    cluster.add_argument("--shards", type=int, default=None,
                         help="number of shards (default 2 "
                              "for serve-cluster; giving it to train "
                              "switches on data-parallel training)")
    cluster.add_argument("--transport",
                         choices=("inline", "socket"),
                         default="inline",
                         help="shard boundary: inline (engines on the "
                              "caller's thread) or socket (one TCP worker "
                              "process per shard)")
    cluster.add_argument("--workers", default=None, type=lambda text: text.split(","),
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
                              "directory (manifest + shard-K.ckpt) or a "
                              "single checkpoint file")
    cluster.add_argument("--checkpoint-out", default=None,
                         help="train: snapshot every shard into this "
                              "directory at each epoch boundary (the "
                              "elastic-resume unit)")
    store = parser.add_argument_group("store")
    store.add_argument("--store", default=None,
                       help="serve-cluster: serve cache misses "
                            "from this materialized-aggregate store file")
    store.add_argument("--out", default="store",
                       help="store-build: the store FILE to write")
    store.add_argument("--checkpoint", default=None,
                       help="store-build: materialize from this checkpoint "
                            "instead of training fresh")
    dist = parser.add_argument_group("serve-cluster tracing and SLO")
    dist.add_argument("--dist-trace-out", default="dist_trace.json",
                      help="serve-cluster: stitched Chrome/Perfetto trace "
                           "output path")
    dist.add_argument("--slo-out", default="slo_report.json",
                      help="serve-cluster: SLO report JSON output path")
    dist.add_argument("--attribution-out", default="attribution.jsonl",
                      help="serve-cluster: per-request attribution JSONL "
                           "output path")
    net = parser.add_argument_group("shard-worker")
    net.add_argument("--listen", default="127.0.0.1:0",
                     help="shard-worker: host:port to listen on "
                          "(port 0 picks a free port; the bound address "
                          "is announced as 'LISTENING host port')")
    args = parser.parse_args(argv)
    if args.workers is not None:
        from repro.cluster.fleet import parse_address

        try:  # every address before any work
            for address in args.workers:
                parse_address(address)
        except ValueError as error:
            return _refuse(args, f"--workers: {error}")
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
