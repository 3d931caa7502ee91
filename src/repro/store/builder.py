"""Offline store builder: materialize every node's answer once.

The builder walks the graph in batches through
:meth:`WidenClassifier.materialize_store_rows` — the serving miss path
itself (:meth:`~WidenClassifier.embed_for_serving_batch`) — with each
node's draws keyed ``(seed, node)``, i.e. exactly the scheme
:class:`~repro.serve.server.InferenceServer` uses for a cache miss.  A
served store hit therefore returns what the recompute path would have
produced; the store changes where the work happens (offline, once) but
never the answer.  Every row is written with stamp 0 (made before any
write its server will see) and the read set of its sample, so the server
can tell exactly which rows a later write undercuts.

Instrumentation lands in the shared obs pipeline: a ``store.build`` trace
span per batch, ``store_build_seconds`` / ``store_rows`` /
``store_row_bytes`` / ``store_bytes_total`` gauges on the registry.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.classifier import serving_refusal
from repro.obs import MetricsRegistry, get_registry
from repro.obs.tracing import span as trace_span
from repro.store.store import AggregateStore, refuse_directory, store_geometry


def build_store(
    classifier,
    graph,
    out_path,
    *,
    seed: int = 0,
    batch_size: int = 256,
    dataset: Optional[str] = None,
    checkpoint: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> AggregateStore:
    """Materialize every node's answer into a store at ``out_path``
    (row ``i`` is node ``i``).

    ``seed`` must equal the serving server's seed — it keys every row's
    sampling draws and is recorded in the metadata so
    :meth:`AggregateStore.compatible_with` can refuse a mismatched server.
    Returns the freshly opened (mmap'd) store.
    """
    reason = serving_refusal(classifier)
    if reason is not None:
        raise ValueError(f"cannot build a store for this classifier: {reason}")
    refuse_directory(out_path)
    config = classifier.config
    node_list = np.arange(graph.num_nodes, dtype=np.int64)
    meta = {
        **store_geometry(config),
        "seed": int(seed),
        "graph_version": int(graph.version),
        "num_nodes": int(node_list.size),
        "params_digest": classifier.params_digest(),
        "dataset": dataset,
        "checkpoint": None if checkpoint is None else str(checkpoint),
    }
    embeddings = np.zeros((node_list.size, int(config.dim)))
    stamps = np.zeros(node_list.size, np.int64)
    reads = np.zeros(
        (node_list.size, 1 + int(config.num_deep_walks) * int(config.num_deep)),
        np.int32,
    )

    start = time.perf_counter()
    for begin in range(0, node_list.size, batch_size):
        chunk = node_list[begin : begin + batch_size]
        with trace_span("store.build", nodes=int(chunk.size)):
            stop = begin + chunk.size
            embeddings[begin:stop], reads[begin:stop] = (
                classifier.materialize_store_rows(chunk, graph, int(seed))
            )
    elapsed = time.perf_counter() - start

    store = AggregateStore.create(
        out_path, meta=meta, embeddings=embeddings, versions=stamps, reads=reads,
    )
    registry = registry if registry is not None else get_registry()
    registry.gauge("store_build_seconds").set(elapsed)
    registry.gauge("store_rows").set(store.num_rows)
    registry.gauge("store_row_bytes").set(store.row_nbytes)
    registry.gauge("store_bytes_total").set(store.nbytes)
    return store
