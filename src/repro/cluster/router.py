"""Scatter-gather routing over a fleet of shard engines behind transports.

:class:`ClusterRouter` is the cluster's front door: it owns the serving
graph (one object — the source of truth mutations land on first, and the
graph every coordinator-side shard spec points at), the
:class:`~repro.cluster.planner.ClusterPlan` (one spec per shard; shard
``n % S`` owns node ``n``), the
:class:`~repro.cluster.fleet.Fleet` that brings the shard engines up
(``inline`` or ``socket`` transport), and one
:class:`~repro.cluster.worker.ShardWorker` per shard — a protocol stub
over that shard's transport.  Its contract is **indistinguishability**:
``router.embed(nodes)`` returns bit-for-bit what one whole-graph
:class:`~repro.serve.server.InferenceServer` with the same seed would
return, in the caller's node order — sharding *and transport choice* are
deployment decisions, not semantics changes (``tests/test_cluster.py`` and
``tests/test_transport.py`` assert this exactly, nodes with neighbors on
other shards and post-mutation state included).

The request path is **async scatter-gather**: requests group by owner
shard, one serve envelope per shard is issued for the whole group (so
every shard computes concurrently on the socket transport), and
the replies are gathered afterwards with a per-shard timeout, re-stitched
into request order.  Shard failures come back as error envelopes and are
raised at the gather as :class:`~repro.cluster.transport.ShardError` —
never as a hung router.

Mutations are **broadcast barriers**: ``add_nodes`` / ``add_edges`` land
on the graph, the plan turns the write into one serializable command, and
every shard replays that same command onto its replica behind its
transport — FIFO with its serve envelopes.  What a write costs a shard's
caches is decided by read sets inside the shard server, exactly as on a
whole-graph server.

Telemetry crosses the boundary as data: :meth:`merged_registry` merges
every shard's serialized registry snapshot into one registry with a
``shard`` label per series (per-shard request counts, latency and rung
mix) — the same output whether the registries live in this process or in
four others.  Its ``write_prometheus(path)`` writes the text exposition.
"""

from __future__ import annotations

import itertools
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.fleet import Fleet, FleetSupervisor
from repro.cluster.net import WorkerDown
from repro.cluster.planner import ClusterPlan, check_node_range, shard_of
from repro.cluster.worker import ShardWorker, merge_registries
from repro.core.classifier import WidenClassifier, serving_refusal
from repro.graph import HeteroGraph
from repro.obs.dist import DistTracer, clock_handshake, make_trace_ctx
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    RUNGS,
    AttributionRecord,
    SLOMonitor,
    SLOTarget,
    SlowRequestLog,
)
from repro.obs.tracing import Tracer


# What an op's spans go to while distributed tracing is off: null spans.
_UNTRACED = Tracer(enabled=False)


class ClusterRouter:
    """Shards one serving graph and routes requests by ownership.

    Every shard's server is rebuilt from ``checkpoint`` behind its
    transport — one independent classifier per shard, no shared mutable
    state.  Use :meth:`from_checkpoint`, or :meth:`from_classifier` (which
    round-trips a live classifier through a temp checkpoint).
    """

    #: Seconds to wait for one shard's reply to any envelope.
    REQUEST_TIMEOUT = 120.0
    #: Attribution records kept while tracing or SLO monitoring is on: the
    #: newest ops only, so a long-lived router's memory stays bounded.
    ATTRIBUTIONS_KEPT = 4096

    def __init__(
        self,
        checkpoint,
        graph: HeteroGraph,
        num_shards: int,
        *,
        transport: str = "inline",
        max_batch_size: int = 16,
        cache_capacity: int = 1024,
        seed: int = 0,
        store_path: Optional[str] = None,
        workers: Optional[Sequence[str]] = None,
    ) -> None:
        # First: a bad transport name or a workers= on the wrong transport
        # fails here, not deep inside a spawn path.
        self.fleet = Fleet(transport, workers=workers)
        self.graph = graph
        self.seed = int(seed)
        self.registry = MetricsRegistry()  # router-scope series
        # The serving contract, before anything is planned or spawned.
        probe = WidenClassifier.load(checkpoint)
        reason = serving_refusal(probe)
        if reason is not None:
            raise ValueError(reason)
        self.plan = ClusterPlan(graph, num_shards)
        # Materialized-answer tier: validate once against the probe
        # classifier (same parameters and seed every shard will use), then
        # slice per shard by ownership — a shard serves only nodes it owns.
        self.store = None
        if store_path is not None:
            from repro.store import AggregateStore

            self.store = AggregateStore.open(store_path)
            reason = self.store.compatible_with(probe, int(seed))
            if reason is not None:
                raise ValueError(
                    f"store at {store_path!r} incompatible with this "
                    f"cluster: {reason}"
                )
        config = {
            "max_batch_size": int(max_batch_size),
            "cache_capacity": int(cache_capacity),
            "seed": int(seed),
        }

        def shard_configs():
            # Lazily, one per bring-up step: on a socket fleet shard k's
            # store slice is cut while the workers before it load their
            # engines, and is not held beside their spawn buffers.
            for spec in self.plan.shards:
                shard_config = dict(config)
                if self.store is not None:
                    shard_config["store"] = self.store.slice_payload(
                        spec.owned, spec.shard_id, spec.num_shards
                    )
                yield shard_config

        # A socket fleet can lose workers, so it gets a supervisor, which
        # holds the freshness state every shard holds and rebuilds a dead
        # shard from it.  None on the inline transport — every supervision
        # check below is a single ``is not None``.
        self.supervisor: Optional[FleetSupervisor] = None
        if transport == "socket":
            self.supervisor = FleetSupervisor(self, self.fleet)
        self._closed = False
        # Request-lifecycle observability, both off until
        # enable_dist_tracing() / enable_slo() — the guard in
        # _scatter_gather is a pair of ``is None`` checks, so the disabled
        # path stays the hot path.
        self.dist: Optional[DistTracer] = None
        self.slo_monitor: Optional[SLOMonitor] = None
        self.slow_log: Optional[SlowRequestLog] = None
        self.attributions: Deque[AttributionRecord] = deque(
            maxlen=self.ATTRIBUTIONS_KEPT
        )
        # Trace ids of ops observed with tracing off (SLO only): one
        # counter per router, so no two records share an id.
        self._untraced_ids = itertools.count(1)
        channels = self.fleet.bring_up(
            "serve",
            self.plan.shards,
            [checkpoint] * self.plan.num_shards,
            shard_configs(),
        )
        try:
            self.workers: List[ShardWorker] = [
                ShardWorker(spec, channel)
                for spec, channel in zip(self.plan.shards, channels)
            ]
            if self.supervisor is not None:
                self.supervisor.start()
        except BaseException:
            # No caller holds this router yet: close what bring-up started.
            self.close()
            raise

    def _recover_worker(self, exc: WorkerDown) -> None:
        """React to a gather-time :class:`WorkerDown`: count it, recover.

        ``shard_errors_total{kind="transport"}`` puts wire failures on the
        same dashboard as engine error replies; the supervisor then
        respawns the worker from the coordinator's present.
        """
        shard = exc.shard_id
        self.registry.counter(
            "shard_errors_total", kind="transport", shard=str(shard)
        ).inc()
        self.supervisor.recover(shard, reason=exc.reason)

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls, path, graph: HeteroGraph, num_shards: int, **kwargs
    ) -> "ClusterRouter":
        """One server per shard, each rebuilt from the same checkpoint."""
        kwargs.pop("partition_seed", None)  # benchmarks/perf still passes it; ROADMAP 8(b)
        return cls(str(path), graph, num_shards, **kwargs)

    @classmethod
    def from_classifier(
        cls, classifier, graph: HeteroGraph, num_shards: int, **kwargs
    ) -> "ClusterRouter":
        """Clone a fitted classifier per shard via a checkpoint round-trip.

        Saving once and loading per shard is the clean way to get fully
        independent instances (parameters copied, no shared trainer state)
        without deep-copying live graph references — and a checkpoint is
        what every shard engine is built from anyway.  The temp checkpoint
        is deleted as soon as every shard has confirmed loading it.
        """
        reason = serving_refusal(classifier)
        if reason is not None:
            raise ValueError(reason)
        with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
            checkpoint = Path(tmp) / "classifier.ckpt"
            classifier.save(checkpoint)
            return cls.from_checkpoint(checkpoint, graph, num_shards, **kwargs)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def embed(self, nodes) -> np.ndarray:
        """Embeddings for ``nodes`` in the given order (scatter-gather)."""
        return self._scatter_gather(nodes, "embed")

    def classify(self, nodes) -> np.ndarray:
        """Class predictions for ``nodes`` in the given order."""
        return self._scatter_gather(nodes, "classify")

    def _scatter_gather(self, nodes, kind: str) -> np.ndarray:
        """One op: group by owner, one serve envelope per shard, stitch.

        Every envelope is issued before any gather, so shards overlap on
        concurrent transports; each leg's ``values`` land at its positions
        of the answer by one fancy-indexed assignment.  With tracing or an
        SLO monitor on, the same body puts a ``trace_ctx`` on every
        envelope (the engines ship their span buffers back on the replies),
        spans the scatter and each gather, and writes one
        :class:`AttributionRecord` per op: compute on the critical path
        (a scatter is as slow as its slowest leg) and
        per-rung node counts that sum to the node count.  Failures are
        attributed too (``ok=False`` burns SLO budget), then re-raised
        unchanged.  With both off this path pays the ``is None`` checks and
        a disabled tracer's null spans: no timestamps, no records.
        """
        self._check_open()
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        dist, slo = self.dist, self.slo_monitor
        observed = dist is not None or slo is not None
        tracer = _UNTRACED if dist is None else dist.tracer
        trace_id = start = None
        if observed:
            trace_id = (
                dist.new_trace_id() if dist is not None
                else f"u{next(self._untraced_ids):06d}"
            )
            start = time.perf_counter()

        def send(shard: int, positions: np.ndarray):
            return self.workers[shard].submit_serve(
                nodes[positions], kind,
                trace_ctx=None if dist is None else make_trace_ctx(trace_id),
            )

        legs: List[Tuple[int, np.ndarray]] = []
        by_rung = np.zeros(len(RUNGS), dtype=np.int64)
        compute = 0.0
        answers = np.empty(0)
        error: Optional[str] = None
        try:
            with tracer.span(
                "router.serve", trace_id=trace_id, nodes=int(nodes.size), kind=kind
            ):
                legs = self._route(nodes)
                pending = []
                for shard, positions in legs:
                    with tracer.span(f"router.scatter.shard{shard}"):
                        pending.append(send(shard, positions))
                for (shard, positions), reply in zip(legs, pending):
                    with tracer.span(f"router.gather.shard{shard}"):
                        try:
                            leg = self._gather_serve(reply)
                        except WorkerDown as down:
                            # Serve legs are idempotent: recover the shard,
                            # then re-issue this exact group.
                            self._recover_worker(down)
                            leg = self._gather_serve(send(shard, positions))
                    values = leg["values"]
                    if answers.shape[:1] != nodes.shape:  # first leg: it names the dtype
                        answers = np.empty(nodes.shape + values.shape[1:], values.dtype)
                    answers[positions] = values
                    if observed:
                        by_rung += np.bincount(leg["rungs"], minlength=by_rung.size)
                        compute = max(compute, leg["compute"])
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            if observed:
                latency = time.perf_counter() - start
                record = AttributionRecord(
                    trace_id=trace_id,
                    nodes=int(nodes.size),
                    shards=len(legs),
                    latency=latency,
                    compute=compute,
                    rungs={r: n for r, n in zip(RUNGS, by_rung.tolist()) if n},
                    ok=error is None,
                    error=error,
                )
                self.attributions.append(record)
                if slo is not None:
                    slo.observe(latency, ok=error is None)
                if self.slow_log is not None:
                    self.slow_log.observe(record)
        return answers

    def _gather_serve(self, reply) -> Dict[str, object]:
        """Gather one serve reply, harvesting its piggybacked span buffer.

        Uses ``reply.wait()`` (not ``result()``) so the shard's trace rides
        error replies too — a raising engine's spans reach the stitched
        trace *before* the :class:`ShardError` propagates.
        """
        raw = reply.wait(self.REQUEST_TIMEOUT)
        if raw.trace is not None and self.dist is not None:
            self.dist.add_reply_trace(raw.trace)
            self.registry.counter("trace_spans_total").inc(
                len(raw.trace.get("spans", []))
            )
        return reply.unwrap(raw)

    def _route(self, nodes: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        """Group ``nodes`` by owner: one ``(shard, positions)`` leg per
        shard that owns any, positions ascending so a leg keeps the op's
        order; each member is counted in ``cluster_requests_total{shard}``.

        ``-1 % S`` is a shard, so ids are range-checked first and an op
        with a bad one is refused before anything is counted or sent.
        """
        check_node_range(nodes, self.graph.num_nodes)
        owners = shard_of(nodes, self.plan.num_shards)
        legs = []
        for shard in range(self.plan.num_shards):
            (positions,) = (owners == shard).nonzero()
            if positions.size:
                legs.append((shard, positions))
                self.registry.counter(
                    "cluster_requests_total", shard=str(shard)
                ).inc(positions.size)
        return legs

    # ------------------------------------------------------------------
    # Distributed tracing + SLO monitoring (repro.obs.dist / .slo)
    # ------------------------------------------------------------------

    def enable_dist_tracing(self, *, clock_samples: int = 5) -> DistTracer:
        """Turn on cross-shard tracing for subsequent requests.

        Runs the clock-alignment handshake against every shard first
        (min-RTT NTP-style probes over the ``clock`` envelope), so spans
        from socket workers — whose ``perf_counter`` epochs share nothing
        with ours — land correctly on the router timeline at stitch time.
        """
        self._check_open()
        if self.dist is None:
            self.dist = DistTracer()
        for worker in self.workers:
            clock = clock_handshake(
                worker.clock_probe,
                shard_id=worker.spec.shard_id,
                samples=clock_samples,
            )
            self.dist.register_clock(clock)
        return self.dist

    def enable_slo(self, target: Optional[SLOTarget] = None) -> SLOMonitor:
        """Attach a rolling-window SLO monitor + slow-request log."""
        self.slo_monitor = SLOMonitor(target)
        self.slow_log = SlowRequestLog()
        return self.slo_monitor

    def write_dist_trace(self, path) -> int:
        """Write the stitched Chrome trace; returns the event count."""
        if self.dist is None:
            raise RuntimeError("distributed tracing is not enabled")
        return self.dist.write_chrome_trace(path)

    def slo_report(self) -> Dict[str, object]:
        """The SLO monitor's windowed report plus the slow-request log."""
        if self.slo_monitor is None:
            raise RuntimeError("SLO monitoring is not enabled")
        report = self.slo_monitor.report()
        report["slow_requests"] = (
            self.slow_log.to_records() if self.slow_log is not None else []
        )
        if self.supervisor is not None:
            # Fleet health in the same report as latency: WorkerDown
            # events and recovery breakdowns.
            report["fleet"] = self.supervisor.summary()
        return report

    def attribution_records(self) -> List[Dict[str, object]]:
        """The newest :attr:`ATTRIBUTIONS_KEPT` observed requests'
        attributions, in request order."""
        return [record.to_record() for record in self.attributions]

    # ------------------------------------------------------------------
    # Streaming mutation fan-out
    # ------------------------------------------------------------------

    def add_nodes(
        self,
        type_name: str,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Streaming node arrival, broadcast to every shard (barrier).

        All shards append the same global ids with the same features (the
        replicas must stay aligned); shard ``n % S`` owns arrival ``n``.
        """
        self._check_open()
        new_ids = self.graph.add_nodes(
            type_name, features=features, labels=labels, count=count
        )
        if features is not None:
            features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        command = self.plan.add_nodes_commands(new_ids, type_name, features, labels)
        self._broadcast(command, kind="add_nodes")
        return new_ids

    def add_edges(self, edge_type: str, src, dst, symmetric: bool = True) -> None:
        """Streaming edge arrival, broadcast to every shard (barrier).

        The edges are spliced into the coordinator's graph first; every
        shard then replays the same appended edges onto its replica, whose
        own mutation event names the same changed sources — so each shard
        server invalidates exactly the owned materializations a
        whole-graph server would, by read set.
        """
        self._check_open()
        version = self.graph.version
        self.graph.add_edges(edge_type, src, dst, symmetric=symmetric)
        if self.graph.version == version:
            return  # empty batch: nothing landed, nothing to broadcast
        self._broadcast(
            self.plan.refresh_command(self.graph.last_mutation), kind="add_edges"
        )

    def _broadcast(self, command, *, kind: str) -> None:
        """Ship one command to every shard, gather every barrier ack.

        A worker that dies at its barrier is recovered instead of retried:
        the coordinator's graph took the write before the broadcast, so the
        shard is rebuilt past it — re-sending here would double-apply.
        """
        pending = [worker.mutate(command) for worker in self.workers]
        for reply in pending:
            try:
                reply.result(self.REQUEST_TIMEOUT)
            except WorkerDown as exc:
                self._recover_worker(exc)
            self.registry.counter(
                "cluster_mutations_total", kind=kind, shard=str(reply.shard_id)
            ).inc()

    # ------------------------------------------------------------------
    # Telemetry aggregation
    # ------------------------------------------------------------------

    def merged_registry(self) -> MetricsRegistry:
        """Every shard's registry snapshot + router series, shard-labeled
        (:func:`~repro.cluster.worker.merge_registries`), plus the fleet's
        connected-worker gauge and the SLO gauges."""
        if self.supervisor is not None:
            up = sum(not worker.transport.is_down for worker in self.workers)
            self.registry.gauge("fleet_workers_connected").set(up)
        merged = merge_registries(self.registry, self.workers, self.REQUEST_TIMEOUT)
        if self.slo_monitor is not None:
            report = self.slo_monitor.report()
            merged.gauge("slo_window_requests").set(report["window_count"])
            merged.gauge("slo_error_budget_remaining").set(
                report["error_budget_remaining"]
            )
            merged.gauge("slo_burn_rate").set(report["burn_rate"])
            for q in ("p50", "p95", "p99"):
                merged.gauge("slo_latency_seconds", quantile=q).set(
                    report[f"{q}_s"]
                )
        return merged

    def render_prometheus(self) -> str:
        """One Prometheus exposition for the whole cluster."""
        return self.merged_registry().render_prometheus()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every transport (drains outstanding envelopes first)."""
        if self._closed:
            return
        if self.supervisor is not None:
            self.supervisor.close()
        self.fleet.close()
        self._closed = True

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("cluster router is closed")
