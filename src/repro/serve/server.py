"""The long-lived inference server.

``InferenceServer`` turns a trained WIDEN classifier into a service over
one *serving graph*.  It answers *ops*: :meth:`InferenceServer.replay`
takes a group of nodes, answers the resident ones from the cache, which
holds whole answers, ``(embedding, label)``, with no model code (not even
the head), and runs the misses at once in ``max_batch_size`` chunks, each
one forward and one head call over the rows it computed.  Every time is
read off the wall clock.  Streaming arrivals (:meth:`add_nodes` /
:meth:`add_edges`) mutate the graph in place — the graph's mutation hooks
then invalidate every cache layer, so a post-mutation request can never
observe pre-mutation state.

The serving contract is one predicate,
:func:`~repro.core.classifier.serving_refusal`: a ``WidenClassifier`` in
``"project"`` embedding mode.  Anything else is refused at construction,
with the same reason the cluster router and the store give.

Determinism: each cache miss is computed from draws keyed by ``(server
seed, node id)`` and nothing else.  A response is therefore a pure
function of the model parameters, the *current* graph and the server seed
— independent of request order, batching boundaries, cache history and of
how the graph got here.  That is what makes the "mutated server == cold
server" test in ``tests/test_serve.py`` exact rather than statistical,
what lets a sharded cluster (``repro.cluster``) reproduce single-server
answers bit-for-bit, and what lets a materialization nothing has undercut
stay valid across a write: re-sampling it would draw the same sample from
the same lists.

Invalidation is by *read set*.  Every materialization — cache entry or
store row, built offline or refreshed since — records the ids whose
adjacency lists its sample consulted
(:meth:`~repro.core.state.NeighborTable.read_sets`, at most
``1 + Φ·N_d`` of them) and the *stamp*, this server's write clock when it
was made.  ``touched_at[u]`` is the clock of the last write that changed
``u``'s list (both held by :class:`~repro.serve.cache.WriteClock`, which a
fleet's coordinator runs too), and one rule decides freshness everywhere
(:func:`~repro.serve.cache.fresh_mask`): fresh iff
``touched_at[reads].max() <= stamp``.  A write costs ``clock += 1;
touched_at[sources] = clock`` plus one sweep of the (at most capacity)
resident cache entries — no BFS, no scan over nodes or store rows; stale
store rows are found when a miss batch looks them up.  What a write
*touches* is the event's ``sources`` — the nodes whose lists changed —
or, for an arrival, the new ids (no existing list changed).  Only a
rewire of unknown extent (``replace_edges`` without ``changed_sources``)
touches every node.

One server is single-threaded by design (a chunk amortizes per-call
overhead, it does not juggle OS threads); concurrency comes from running
one server per shard — see ``repro.cluster``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.classifier import WidenClassifier, serving_refusal
from repro.graph import HeteroGraph
# Nothing here calls it; ``benchmarks/perf`` wraps the name until ROADMAP 8(b).
from repro.graph import mutation_frontier  # noqa: F401
from repro.obs import MetricsRegistry, get_registry
from repro.serve.cache import EmbeddingCache, WriteClock, fresh_mask
from repro.serve.telemetry import KINDS, Telemetry


# Store-tier attribution by ``fresh * (1 + (stamp > 0))``.
_STORE_RUNGS = np.array(["recompute", "store", "overlay"], dtype=object)


class InferenceServer:
    """Batched, cached, mutation-aware inference over one graph."""

    def __init__(
        self,
        classifier: WidenClassifier,
        graph: HeteroGraph,
        *,
        max_batch_size: int = 16,
        cache_capacity: int = 1024,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        store=None,
    ) -> None:
        reason = serving_refusal(classifier)
        if reason is not None:
            raise ValueError(reason)
        if classifier.graph is None:
            # A freshly loaded checkpoint: bind the serving graph (schema
            # validated inside bind()).
            classifier.bind(graph)
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.classifier = classifier
        self.graph = graph
        self.seed = int(seed)
        self.max_batch_size = int(max_batch_size)
        self.cache = EmbeddingCache(cache_capacity)
        # Serving reports into the shared metrics pipeline (repro.obs): the
        # table holds the requests in flight, and what outlives them is the
        # registry's series, next to training's.
        self.telemetry = Telemetry(
            registry if registry is not None else get_registry()
        )
        # The answers, by request id, until replay() picks them up;
        # everything else about a request is its telemetry row.
        self._values: Dict[int, Union[int, np.ndarray]] = {}
        # Ids of the misses submitted since the last drain().
        self._queue: List[int] = []
        # Freshness state (module docstring).  A server starts at clock 0
        # with nothing touched.
        self.freshness = WriteClock(graph.num_nodes)
        # Optional materialized-answer tier (repro.store): consulted on
        # cache misses before any sampling happens.
        self.store = None
        if store is not None:
            self.attach_store(store)
        graph.add_mutation_hook(self._on_graph_mutation)

    def attach_store(self, store) -> None:
        """Attach a materialized-answer store (``repro.store``).

        The store is validated against the classifier's geometry, its
        parameter digest and this server's seed — a mismatched store would
        silently serve answers of a different model or rng scheme, so
        incompatibility is a hard error, never a degraded mode.  Once
        attached, cache misses whose store row is *fresh* (nothing it read
        was touched since its stamp) are answered by the row itself; stale
        or absent rows fall back to the recompute rung, which also writes
        the row back into the store (lazy re-materialization).

        Stamps count *this* server's writes, so base rows (stamp 0) are
        only comparable when the store was built from the graph as it is
        now.  A store built at another graph version saw writes this server
        never did: every node counts as touched and every row is stale.
        """
        reason = store.compatible_with(self.classifier, self.seed)
        if reason is not None:
            raise ValueError(f"store incompatible with this server: {reason}")
        self.store = store
        self.freshness.attach_store(store, self.graph)
        self._sweep_cache()

    @classmethod
    def from_checkpoint(
        cls, path, graph: HeteroGraph, **kwargs
    ) -> "InferenceServer":
        """Build a server from exactly (checkpoint path, serving graph).

        This is the spawn path of every cluster shard engine: a worker
        process receives a path and a serialized shard payload, never a
        live classifier — construction is checkpoint-driven by design so
        it works identically on either side of a process boundary.
        """
        return cls(WidenClassifier.load(path), graph, **kwargs)

    # ------------------------------------------------------------------
    # Mutation/invalidation state across the wire (plain data and arrays)
    # ------------------------------------------------------------------

    def export_serving_state(self) -> Dict[str, object]:
        """The freshness state, as plain data (:meth:`WriteClock.export`).

        Answers do not depend on it (they are a function of the current
        graph); *which materializations may still be served* does.  A
        respawned shard starts from its base store slice, whose rows all
        carry stamp 0, and needs ``(clock, touched)`` to know which of them
        writes have since undercut.  A fleet's supervisor holds the same
        state for the coordinator's graph and checks a respawned engine's
        export against it, ``graph_version`` included.
        """
        return self.freshness.export(self.graph)

    def restore_serving_state(self, state: Dict[str, object]) -> None:
        """Adopt an exported write clock and touched stamps (respawned
        shard).

        Cached embeddings are dropped: their stamps count another
        timeline's writes.
        """
        self.freshness.restore(state)
        self.cache.invalidate()

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------

    def submit(self, node: int, *, kind: str = "classify") -> int:
        """Take one request now; returns its id.

        A resident answer (every write sweeps out the stale ones)
        completes the request here from its ``(embedding, label)`` entry,
        with no head call; this probe is the one that counts the request
        as a cache hit or miss.  A miss waits in the queue for
        :meth:`drain`.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown request kind {kind!r}")
        node = int(node)
        if not 0 <= node < self.graph.num_nodes:
            raise IndexError(
                f"node {node} out of range [0, {self.graph.num_nodes})"
            )
        request_id = self.telemetry.open(node, kind, time.perf_counter())
        entry = self.cache.get(node)
        if entry is None:
            self._queue.append(request_id)
            return request_id
        embedding, label = entry
        value = label if kind == "classify" else embedding
        self._finish(request_id, value, time.perf_counter(), rung="cache")
        return request_id

    def drain(self) -> None:
        """Answer every queued miss now, ``max_batch_size`` at a time."""
        queue, self._queue = self._queue, []
        size = self.max_batch_size
        for start in range(0, len(queue), size):
            self._execute(queue[start:start + size])
        # Idle: the answered rows reach the registry in one step.
        self.telemetry.sync()

    def replay(self, nodes, *, kind: str = "classify") -> Dict[str, object]:
        """One op, start to finish: submit every node, drain, and hand back
        the answers as columns, released.

        ``values`` is ``(B,)`` class ids or ``(B, d)`` embeddings in request
        order, ``rungs`` the ``(B,)`` codes into ``RUNGS`` of the tier that
        served each, ``compute`` the op's own miss work — the end of the
        submit loop to the last answer, 0 when every node was a submit-time
        cache hit.  A blocking ``classify`` and a shard engine's serve
        envelope are both this loop; the reply is what the engine puts on
        the wire.
        """
        ids = [
            self.submit(node, kind=kind) for node in np.atleast_1d(nodes).tolist()
        ]
        submitted = time.perf_counter()
        self.drain()
        table = self.telemetry
        rows = table.rows_of(ids)
        reply = {
            "values": np.asarray([self._values.pop(request_id) for request_id in ids]),
            "rungs": table.rung[rows],
            "compute": max([0.0, *(table.completion[rows] - submitted).tolist()]),
        }
        table.release(len(ids))
        return reply

    # -- blocking conveniences ------------------------------------------

    def classify(self, nodes) -> np.ndarray:
        """One op: class predictions for ``nodes`` (blocking)."""
        return self.replay(nodes, kind="classify")["values"]

    def embed(self, nodes) -> np.ndarray:
        """One op: embeddings for ``nodes`` (blocking)."""
        return self.replay(nodes, kind="embed")["values"]

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------

    def add_nodes(
        self,
        type_name: str,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Streaming node arrival; the new ids are immediately servable."""
        return self.graph.add_nodes(type_name, features=features, labels=labels, count=count)

    def add_edges(self, edge_type: str, src, dst, symmetric: bool = True) -> None:
        """Streaming edge arrival (fires invalidation like ``add_nodes``)."""
        self.graph.add_edges(edge_type, src, dst, symmetric=symmetric)

    def metrics_registry_snapshot(self) -> MetricsRegistry:
        """The registry's series plus point-in-time serving state.

        Cumulative series are merged from the live registry *by payload*
        (never mutated), then the snapshot-only series are layered on: the
        :class:`EmbeddingCache` per-node hit distribution (a histogram the
        cache keeps as raw counters, so re-observing it into a live
        registry would double-count) and, when a store is attached, its
        row/overlay gauges.  This is what a shard engine ships to the
        router's merged exposition.
        """
        self.telemetry.sync()
        merged = MetricsRegistry()
        merged.merge_payload(self.telemetry.registry.to_payload())
        merged.histogram("serve_cache_node_hits").observe_many(
            float(count) for count in self.cache.node_hits.values()
        )
        merged.gauge("serve_cache_entries").set(len(self.cache))
        if self.store is not None:
            merged.gauge("serve_store_rows").set(self.store.num_rows)
            merged.gauge("serve_store_row_bytes").set(self.store.row_nbytes)
            merged.gauge("serve_store_overlay_rows").set(
                self.store.overlay_size
            )
        return merged

    def _sweep_cache(self) -> int:
        """Drop the resident cache entries the freshness rule now rejects;
        returns how many.  Store rows are not visited — a stale one is
        found when a miss batch looks it up."""
        return self.cache.invalidate_nodes(
            self.cache.stale_nodes(self.freshness.touched_at)
        )

    def _on_graph_mutation(self, graph: HeteroGraph) -> None:
        touched, reason = self.freshness.observe(graph)
        dropped = self._sweep_cache()
        self.telemetry.record_invalidation(
            frontier_size=int(len(touched)), dropped=dropped, reason=reason
        )
        if self.store is not None:
            # Rows whose *own* list the write touched — a floor on what it
            # staled; the rest is counted as stale lookups when read.
            undercut = int((self.store.versions_of(touched) >= 0).sum())
            if undercut:
                self.telemetry.registry.counter(
                    "serve_store_invalidated_rows_total", reason=reason
                ).inc(undercut)

    def close(self) -> None:
        """Detach from the graph (stop receiving mutation hooks)."""
        try:
            self.graph.remove_mutation_hook(self._on_graph_mutation)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _compute_embeddings(self, nodes: List[int]):
        """Cold-path embeddings for ``nodes`` — one batched model call.

        Returns ``(embeddings, rungs, reads)`` where ``rungs[i]`` names the
        ladder tier that produced row ``i`` (``store`` / ``overlay`` /
        ``recompute``) — the per-node attribution the request records carry
        — and ``reads[i]`` is the read set the row depends on.

        Determinism is preserved under batching: each node's draws are
        keyed ``(server seed, node)`` and nothing else — in particular no
        version, so an answer is a function of the current graph and an
        untouched materialization re-samples to itself — and every row is
        identical to a single-node computation regardless of which other
        misses happened to share the batch.
        """
        nodes_arr = np.asarray(nodes, dtype=np.int64)
        if self.store is not None:
            return self._compute_embeddings_with_store(nodes_arr)
        embeddings, reads = self.classifier.embed_for_serving_batch(
            nodes_arr, self.graph, self.seed, self.telemetry.pack_counters
        )
        return embeddings, ["recompute"] * len(nodes), reads

    def _compute_embeddings_with_store(self, nodes_arr: np.ndarray):
        """Store-tier miss path: a fresh row *is* the answer — one gather.

        A node's store row is *fresh* when nothing in its read set was
        touched since its stamp (:func:`~repro.serve.cache.fresh_mask`, one
        gather for the whole batch; an absent row's stamp of -1 is below
        every ``touched_at``, so the rule rejects it too).  A fresh row
        holds what a recompute would return — same parameters, same rng,
        same lists — with the batch-shape caveat the cache has always had
        (the last bit can depend on the batch a row was computed in).
        Stale and absent nodes take the ordinary recompute rung and are
        written back in place with the current clock as their stamp, so the
        next miss on them is a hit again.  Attribution is taken before the
        write-back: a fresh row a server wrote after a write of its own
        (``stamp > 0``) is an ``overlay`` serve, one the offline builder
        wrote a ``store`` serve.
        """
        store = self.store
        have = store.versions_of(nodes_arr)
        reads = store.reads_of(nodes_arr)
        fresh = fresh_mask(self.freshness.touched_at, reads, have)
        rungs = _STORE_RUNGS[fresh * (1 + (have > 0))].tolist()
        embeddings = np.empty((nodes_arr.size, int(store.meta["dim"])))
        embeddings[fresh] = store.blocks_for(nodes_arr[fresh])[0]
        if not fresh.all():
            stale = ~fresh
            embeddings[stale], reads[stale] = self.classifier.embed_for_serving_batch(
                nodes_arr[stale], self.graph, self.seed, self.telemetry.pack_counters
            )
            store.refresh(
                nodes_arr[stale], self.freshness.clock, embeddings[stale], reads[stale]
            )
        hit = int(fresh.sum())
        absent = int((have < 0).sum())
        self.telemetry.record_store_lookup(
            hit=hit, stale=nodes_arr.size - hit - absent, absent=absent
        )
        return embeddings, rungs, reads

    def _execute(self, batch: List[int]) -> None:
        table = self.telemetry
        rows = table.rows_of(batch)
        nodes = table.node[rows].tolist()
        classify = (table.kind[rows] == KINDS.index("classify")).tolist()
        # ``node -> (embedding, label, rung)``: requests are answered from
        # here, not the cache, which evicts within a batch larger than it.
        answers: Dict[int, tuple] = {}
        miss_nodes: List[int] = []
        for node in dict.fromkeys(nodes):
            # An earlier batch may have computed the node since it was
            # queued, and must not be repeated.  Residency is tested before
            # the lookup because a request's miss was counted when it was
            # submitted; a hit here still counts and refreshes the LRU.
            if node in self.cache:
                answers[node] = (*self.cache.get(node), "cache")
            else:
                miss_nodes.append(node)
        if miss_nodes:
            # All of the batch's misses go through one vectorized forward
            # and one head call, whatever the request kinds.
            computed, miss_rungs, miss_reads = self._compute_embeddings(miss_nodes)
            labels = self.classifier.predict_from_embeddings(computed).tolist()
            self.telemetry.record_compute_batch(len(miss_nodes))
            for node, embedding, label, node_rung, read_set in zip(
                miss_nodes, computed, labels, miss_rungs, miss_reads
            ):
                self.cache.put(
                    node, embedding, label, stamp=self.freshness.clock, reads=read_set
                )
                answers[node] = (embedding, label, node_rung)
        completion = time.perf_counter()
        self.telemetry.record_batch(len(batch))
        for request_id, node, wanted in zip(batch, nodes, classify):
            embedding, label, rung = answers[node]
            self._finish(request_id, label if wanted else embedding, completion, rung=rung)

    def _finish(
        self,
        request_id: int,
        value: Union[int, np.ndarray],
        completion: float,
        *,
        rung: str,
    ) -> None:
        """One answered request: keep its value for pickup, fill its row.
        Entered once per answered node with ``rung`` by keyword — the
        wall-clock benchmark tallies the ladder by wrapping this call."""
        self._values[request_id] = value
        self.telemetry.finish(request_id, completion, rung=rung)
