"""The layer budget, as data: where spans go and what each metric means.

Three tables, all consumed by ``tracing.py`` during the ``--trace 1`` pass:

``SPANS``    layer -> dotted names of the boundary functions whose time is
             charged to that layer.  A dotted name is resolved when the
             traced pass starts; one that no longer resolves is skipped,
             listed under ``unresolved_spans`` and turns the metrics that
             need its layer into ``absent`` instead of breaking the run.
             A module-level function is named *where it is looked up*
             (``repro.serve.server.mutation_frontier``, not
             ``repro.graph.halo.mutation_frontier``): callers that did
             ``from x import f`` hold their own reference.
``TALLIES``  dotted name -> ``fn(args, kwargs, result)`` returning
             ``{counter: amount}``.  Counts are taken at the same boundary
             the time is, so ratios are measured where the work happens.
``METRICS``  every per-layer metric: unit, direction, the workloads that
             produce it, the end-to-end metric it should move (and where),
             and how it is computed from a :class:`tracing.TraceView`.

Times are self times: a span's duration minus the child spans it covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

TRAIN = ("train_yelp",)
SERVE = ("serve_recompute", "serve_store", "serve_mutating")
STORE = ("serve_store", "serve_mutating")
MUTATING = ("serve_mutating",)
ALL = TRAIN + SERVE

# Root spans opened by the workload loops themselves (workloads.py).
READ, WRITE, EPOCH = "bench.read", "bench.write", "bench.epoch"

SPANS: Dict[str, List[str]] = {
    "graph.sample": [
        "repro.core.state.NeighborStateStore.sample_fresh",
    ],
    "graph.mutate": [
        "repro.graph.hetero_graph.HeteroGraph.add_nodes",
        "repro.graph.hetero_graph.HeteroGraph.add_edges",
        "repro.graph.hetero_graph.HeteroGraph.replace_edges",
    ],
    "graph.frontier": [
        "repro.serve.server.mutation_frontier",
    ],
    "core.packing": [
        "repro.core.model.pack_batch",
    ],
    "core.model.forward": [
        "repro.core.model.WidenModel.forward_batch",
        "repro.core.model.WidenModel.materialize_rows",
    ],
    "core.model.from_blocks": [
        "repro.core.model.WidenModel.forward_from_blocks",
    ],
    "core.model.head": [
        "repro.core.model.WidenModel.logits",
    ],
    # Per-node rng + sampler construction around the model calls.
    "core.classifier": [
        "repro.core.classifier.WidenClassifier.embed_for_serving_batch",
        "repro.core.classifier.WidenClassifier.materialize_store_rows",
        "repro.core.classifier.WidenClassifier.embed_from_store_blocks",
        "repro.core.classifier.WidenClassifier.predict_from_embeddings",
    ],
    "tensor.backward": [
        "repro.tensor.tensor.Tensor.backward",
    ],
    "optim.step": [
        "repro.core.trainer.WidenTrainer.apply_update",
    ],
    "core.trainer": [
        "repro.core.trainer.WidenTrainer.fit",
        "repro.core.trainer.WidenTrainer.epoch_begin",
        "repro.core.trainer.WidenTrainer.run_microbatch",
        "repro.core.trainer.WidenTrainer.epoch_finish",
    ],
    "core.trainer.downsample": [
        "repro.core.trainer.WidenTrainer._maybe_downsample",
    ],
    "serve": [
        "repro.serve.server.InferenceServer.submit",
        "repro.serve.server.InferenceServer.drain",
        "repro.serve.server.InferenceServer._compute_embeddings",
    ],
    "serve.invalidate": [
        "repro.serve.server.InferenceServer._on_graph_mutation",
    ],
    "store.lookup": [
        "repro.store.store.AggregateStore.versions_of",
        "repro.store.store.AggregateStore.blocks_for",
        "repro.store.store.AggregateStore.block_for",
    ],
    "store.refresh": [
        "repro.store.store.AggregateStore.refresh",
    ],
    "store.slice": [
        "repro.store.store.AggregateStore.slice_payload",
    ],
    "cluster.router": [
        "repro.cluster.router.ClusterRouter.classify",
        "repro.cluster.router.ClusterRouter.embed",
    ],
    # Router-side write work: global-graph bookkeeping, the planner's
    # per-shard refresh commands (halo BFS + edge diff), barrier gather.
    "cluster.router.fanout": [
        "repro.cluster.router.ClusterRouter.add_nodes",
        "repro.cluster.router.ClusterRouter.add_edges",
        "repro.cluster.planner.ClusterPlan.add_nodes_commands",
        "repro.cluster.planner.ClusterPlan.refresh_command",
    ],
    # Self time of an inline send is the Envelope + Reply pickle round trip.
    "cluster.transport": [
        "repro.cluster.transport.InlineTransport.send",
    ],
    "cluster.engine": [
        "repro.cluster.engine.ShardEngine.handle",
    ],
}

TALLIES: Dict[str, Callable] = {
    # One call per answered node; ``rung`` names the ladder tier that
    # produced it (cache / store / overlay / recompute).
    "repro.serve.server.InferenceServer._finish":
        lambda args, kwargs, result: {"rung." + kwargs.get("rung", "recompute"): 1},
    "repro.serve.cache.EmbeddingCache.invalidate_nodes":
        lambda args, kwargs, result: {"cache.dropped": int(result)},
    "repro.serve.server.mutation_frontier":
        lambda args, kwargs, result: {"frontier.nodes": len(result)},
    "repro.core.model.pack_batch":
        lambda args, kwargs, result: {
            "slots.valid": float(result.wide_valid.sum() + result.deep_valid.sum()),
            "slots.total": result.wide_valid.size + result.deep_valid.size,
        },
    "repro.cluster.worker.ShardWorker.submit_serve":
        lambda args, kwargs, result: {
            f"routed.shard{args[0].spec.shard_id}": len(args[1])
        },
}

# (args, result) of these calls are kept so that wire sizes and the loopback
# probe use the frames the workload really exchanged.
KEEP = "repro.cluster.engine.ShardEngine.handle"

# Public framing functions the loopback probe sends those frames through.
NET_SEND = "repro.cluster.net.send_frame"
NET_RECV = "repro.cluster.net.recv_frame"

# Profiler used for one extra training epoch after the traced ones.
OP_PROFILER = "repro.obs.OpProfiler"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]
    moves: str
    compute: Callable  # TraceView -> Optional[float]; None means absent


def _per(layer: str, root: str, per: str, scale: float = 1.0):
    """Self time of ``layer`` under ``root`` spans, in ms per ``per``."""
    return lambda t: scale * t.self_ms(layer, root) / t.n[per]


def _ratio(numerator: Tuple[str, ...], denominator: Tuple[str, ...]):
    def compute(t):
        total = sum(t.tally(key) for key in denominator)
        return sum(t.tally(key) for key in numerator) / total if total else 0.0
    return compute


_RUNGS = ("rung.cache", "rung.store", "rung.overlay", "rung.recompute")
_LOOKED_UP = ("rung.store", "rung.overlay", "rung.recompute")


def _imbalance(t) -> Optional[float]:
    routed = [value for key, value in t.tallies.items() if key.startswith("routed.")]
    return max(routed) / (sum(routed) / len(routed)) if routed else None


METRICS: List[Metric] = [
    Metric("datasets.generate_s", "s", "lower", ALL,
           "setup_s on every workload",
           lambda t: t.aux["generate_s"]),
    # -- graph -----------------------------------------------------------
    Metric("graph.sample_ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms and nodes_per_s on serve_recompute; near zero on serve_store",
           _per("graph.sample", READ, "reads")),
    Metric("graph.sample_s_per_epoch", "s", "lower", TRAIN,
           "nodes_per_s on train_yelp",
           _per("graph.sample", EPOCH, "epochs", 1e-3)),
    Metric("graph.mutate_ms_per_write", "ms", "lower", MUTATING,
           "nodes_per_s on serve_mutating (write time)",
           _per("graph.mutate", WRITE, "writes")),
    Metric("graph.frontier_ms_per_write", "ms", "lower", MUTATING,
           "nodes_per_s on serve_mutating (write time)",
           _per("graph.frontier", WRITE, "writes")),
    Metric("graph.frontier_nodes_per_write", "count", "lower", MUTATING,
           "op_p50_ms and op_tail_ms on serve_mutating (how many rows go stale)",
           lambda t: t.tally("frontier.nodes") / t.n["writes"]),
    # -- core.packing ----------------------------------------------------
    Metric("core.packing.ms_per_batch", "ms", "lower", TRAIN,
           "nodes_per_s and op_p50_ms on train_yelp",
           _per("core.packing", EPOCH, "batches")),
    Metric("core.packing.ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms on serve_recompute",
           _per("core.packing", READ, "reads")),
    Metric("core.packing.valid_slot_ratio", "ratio", "higher", TRAIN,
           "nodes_per_s on train_yelp (padding is wasted work)",
           _ratio(("slots.valid",), ("slots.total",))),
    # -- core.model ------------------------------------------------------
    Metric("core.model.forward_ms_per_batch", "ms", "lower", TRAIN,
           "nodes_per_s on train_yelp",
           _per("core.model.forward", EPOCH, "batches")),
    Metric("core.model.forward_ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms on serve_recompute",
           _per("core.model.forward", READ, "reads")),
    Metric("core.model.from_blocks_ms_per_call", "ms", "lower", STORE,
           "op_p50_ms on serve_store",
           _per("core.model.from_blocks", READ, "reads")),
    Metric("core.model.head_ms_per_batch", "ms", "lower", TRAIN,
           "nodes_per_s on train_yelp",
           _per("core.model.head", EPOCH, "batches")),
    Metric("core.model.head_ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms on serve_store (the classify head runs on cache hits too)",
           _per("core.model.head", READ, "reads")),
    Metric("core.classifier.self_ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms on serve_recompute (per-node rng and sampler set-up)",
           _per("core.classifier", READ, "reads")),
    # -- tensor / optim --------------------------------------------------
    Metric("tensor.backward_ms_per_batch", "ms", "lower", TRAIN,
           "nodes_per_s on train_yelp only",
           _per("tensor.backward", EPOCH, "batches")),
    Metric("tensor.op_calls_per_batch", "count", "lower", TRAIN,
           "nodes_per_s on train_yelp only",
           lambda t: t.aux.get("op_calls_per_batch")),
    Metric("tensor.matmul_time_share", "ratio", "lower", TRAIN,
           "nodes_per_s on train_yelp only",
           lambda t: t.aux.get("matmul_time_share")),
    Metric("optim.step_ms_per_batch", "ms", "lower", TRAIN,
           "nodes_per_s on train_yelp (clip + Adam)",
           _per("optim.step", EPOCH, "batches")),
    # -- core.trainer ----------------------------------------------------
    Metric("core.trainer.self_ms_per_epoch", "ms", "lower", TRAIN,
           "op_p50_ms on train_yelp",
           _per("core.trainer", EPOCH, "epochs")),
    Metric("core.trainer.downsample_ms_per_epoch", "ms", "lower", TRAIN,
           "op_p50_ms on train_yelp",
           _per("core.trainer.downsample", EPOCH, "epochs")),
    Metric("core.trainer.messages_per_epoch", "count", "lower", TRAIN,
           "op_p50_ms on train_yelp (attentive downsampling shrinks it)",
           lambda t: t.aux.get("messages_per_epoch")),
    Metric("core.trainer.eval_nodes_per_s", "nodes/s", "higher", TRAIN,
           "nothing timed end to end; it is the cost of the accuracy check",
           lambda t: t.aux["eval_nodes_per_s"]),
    Metric("core.trainer.test_micro_f1", "ratio", "higher", TRAIN,
           "guards nodes_per_s on train_yelp against speed bought with broken learning",
           lambda t: t.aux["test_micro_f1"]),
    # -- serve -----------------------------------------------------------
    Metric("serve.cache_hit_ratio", "ratio", "higher", SERVE,
           "op_p50_ms on serve_store; about 0 on serve_recompute",
           _ratio(("rung.cache",), _RUNGS)),
    Metric("serve.self_ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms on serve_store (submit, drain, ladder bookkeeping)",
           _per("serve", READ, "reads")),
    Metric("serve.recompute_node_ratio", "ratio", "lower", SERVE,
           "op_p50_ms and op_tail_ms on serve_mutating",
           _ratio(("rung.recompute",), _RUNGS)),
    Metric("serve.invalidate_ms_per_write", "ms", "lower", MUTATING,
           "nodes_per_s on serve_mutating (write time)",
           _per("serve.invalidate", WRITE, "writes")),
    Metric("serve.cache_dropped_per_write", "count", "lower", MUTATING,
           "op_p50_ms on serve_mutating (dropped entries miss next time)",
           lambda t: t.tally("cache.dropped") / t.n["writes"]),
    # -- store -----------------------------------------------------------
    Metric("store.lookup_ms_per_call", "ms", "lower", STORE,
           "op_p50_ms on serve_store",
           _per("store.lookup", READ, "reads")),
    Metric("store.hit_ratio", "ratio", "higher", STORE,
           "op_p50_ms and op_tail_ms on serve_mutating (1.0 on serve_store)",
           _ratio(("rung.store", "rung.overlay"), _LOOKED_UP)),
    Metric("store.refresh_ms_per_call", "ms", "lower", STORE,
           "op_tail_ms on serve_mutating; zero on serve_store",
           _per("store.refresh", READ, "reads")),
    Metric("store.build_s", "s", "lower", STORE,
           "setup_s on serve_store and serve_mutating",
           lambda t: t.aux["store_build_s"]),
    Metric("store.build_rows_per_s", "rows/s", "higher", STORE,
           "setup_s on serve_store and serve_mutating",
           lambda t: t.aux["store_rows"] / t.aux["store_build_s"]),
    Metric("store.bytes_per_row", "B", "lower", STORE,
           "setup_s (build and slice time) and peak_rss_mb on the store workloads",
           lambda t: t.aux.get("store_bytes_per_row")),
    Metric("store.slice_ms_per_shard", "ms", "lower", STORE,
           "setup_s on serve_store and serve_mutating",
           lambda t: t.self_ms("store.slice") / t.calls("store.slice")),
    # -- cluster ---------------------------------------------------------
    Metric("cluster.router.self_ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms on serve_store (ownership lookup, scatter, gather, reorder)",
           _per("cluster.router", READ, "reads")),
    Metric("cluster.router.shard_imbalance", "ratio", "lower", SERVE,
           "nodes_per_s on serve_store (the busiest leg sets the gather time)",
           _imbalance),
    Metric("cluster.router.fanout_ms_per_write", "ms", "lower", MUTATING,
           "nodes_per_s on serve_mutating (write time)",
           _per("cluster.router.fanout", WRITE, "writes")),
    Metric("cluster.router.write_p50_ms", "ms", "lower", MUTATING,
           "nodes_per_s on serve_mutating; the whole write, median over the traced writes",
           lambda t: t.aux["write_p50_ms"]),
    Metric("cluster.router.bringup_s", "s", "lower", SERVE,
           "setup_s on the serving workloads",
           lambda t: t.aux["bringup_s"]),
    Metric("cluster.transport.codec_ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms on serve_store; no change on train_yelp",
           _per("cluster.transport", READ, "reads")),
    Metric("cluster.transport.codec_ms_per_write", "ms", "lower", MUTATING,
           "nodes_per_s on serve_mutating (refresh commands carry whole edge sets)",
           _per("cluster.transport", WRITE, "writes")),
    Metric("cluster.transport.bytes_per_call", "B", "lower", SERVE,
           "op_p50_ms on serve_store; no change on train_yelp",
           lambda t: t.aux.get("wire_bytes_per_call")),
    Metric("cluster.net.frame_rtt_us", "us", "lower", SERVE,
           "op_p50_ms on serve_store (socket fleet only; inline has no wire)",
           lambda t: t.aux.get("frame_rtt_us")),
    Metric("cluster.engine.self_ms_per_call", "ms", "lower", SERVE,
           "op_p50_ms on serve_store",
           _per("cluster.engine", READ, "reads")),
    Metric("cluster.engine.self_ms_per_write", "ms", "lower", MUTATING,
           "nodes_per_s on serve_mutating (write time)",
           _per("cluster.engine", WRITE, "writes")),
    # -- the budget itself -----------------------------------------------
    Metric("trace.residual_share", "ratio", "lower", ALL,
           "none; share of the traced roots that no layer row accounts for",
           lambda t: t.residual_share()),
    Metric("obs.trace_overhead_ratio", "ratio", "lower", ALL,
           "none; traced wall time over the same operations untraced",
           lambda t: t.aux["trace_overhead_ratio"]),
]
