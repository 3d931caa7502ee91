"""The engine side of the shard boundary: envelopes in, replies out.

Both engine families live here and share one dispatch,
:meth:`ShardEngine.handle`: look up ``_handle_<kind>``, turn a failure into
an error reply counted as ``shard_errors_total{kind=...}`` (exceptions are
data on this boundary, raised again only at the coordinator's gather), and
run a private per-envelope tracer when the envelope carries a
``trace_ctx``.

- :class:`ShardEngine` (``serve`` family) is one rebuilt
  :class:`~repro.cluster.planner.ShardSpec` (the ids it owns and its own
  replica of the graph — never shared with the router) and one
  :class:`~repro.serve.server.InferenceServer` over it.
- :class:`TrainEngine` (``train`` family) is the same spec plus one full
  model replica and its :class:`~repro.core.trainer.WidenTrainer`.

The protocol layer (:class:`~repro.cluster.worker.ShardWorker` + a
transport) never touches either; it only ships
:class:`~repro.cluster.transport.Envelope`\\ s, which is why the same
engine code runs inline and in a worker process on the far side of a
socket without any behavioral difference.

Envelope kinds:

- ``serve`` — one op: a batch of requests for owned nodes, answered by
  the server's :meth:`~repro.serve.server.InferenceServer.replay`; the
  reply is columns read off the server's request rows (``values``,
  ``rungs``, and the op's critical-path ``compute``).  An
  op containing an out-of-range id is refused whole, before any work.
- ``mutate`` — the one serializable command of a write (an arrival, or the
  edges an ``add_edges`` appended), replayed onto the engine's replica.
  The graph mutation fires the server's invalidation hook exactly as on a
  whole-graph server.  FIFO envelope order makes this a barrier between
  the serve envelopes around it.
- ``metrics`` / ``serving_state`` — snapshot pulls, both answered as
  plain payloads (the obs layer's serializable forms); a serving shard's
  metrics carry its process's resident and peak memory
  (``process_resident_bytes`` / ``process_peak_resident_bytes``).
- ``clock`` — a clock-alignment probe (raw ``perf_counter`` + pid) used by
  the distributed tracer to map this process's span timestamps onto the
  router's timeline.
- ``shutdown`` — detach the server; the transport tears the channel down.
- ``train_*`` — the three phase commands of
  :class:`~repro.core.train_loop.TrainLoop`: ``train_epoch_begin``,
  ``train_microbatch`` (the previous step's ``update`` applied, then one
  forward/backward; the gradients ride the reply) and ``train_epoch_end``
  (the epoch's last ``update``, then its stats) — plus
  ``train_checkpoint``, the replica's checkpoint bytes; a training engine
  answers ``metrics``, ``clock`` and ``shutdown`` too.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np

from repro.cluster.planner import (
    ShardSpec,
    check_node_range,
    command_from_payload,
)
from repro.cluster.transport import Envelope, Reply, error_info
from repro.codec import encode
from repro.core.classifier import WidenClassifier
from repro.obs.dist import spans_to_wire
from repro.obs.metrics import MetricsRegistry, record_process_memory
from repro.obs.tracing import _NULL_SPAN, Tracer, set_thread_tracer
from repro.serve.server import InferenceServer


def build_engine_from_args(args: Dict[str, object]):
    """Build the engine ``args`` describes: the one construction route, on
    every transport (:class:`repro.cluster.fleet.Fleet` writes the args;
    the inline transport and ``ShardWorkerServer`` both call this).

    The schema: ``engine`` picks the family — ``"serve"``
    (:class:`ShardEngine`) or ``"train"`` (:class:`TrainEngine`);
    ``spec_payload`` is the
    serialized shard; ``checkpoint`` is a path (engines sharing the
    router's filesystem) or else ``checkpoint_bytes`` the checkpoint
    file's bytes (socket workers share nothing); ``config`` is the family's
    options; ``serving_state``, when not ``None``, is restored after the
    build (a respawned serving engine adopts the coordinator's write clock).
    """
    family = args["engine"]
    if family not in ENGINES:
        raise ValueError(
            f"unknown engine family {family!r}; expected one of {sorted(ENGINES)}"
        )
    return ENGINES[family].from_args(args)


class ShardEngine:
    """One shard's serving state plus the envelope dispatch, which
    :class:`TrainEngine` inherits."""

    def __init__(self, spec: ShardSpec, server: InferenceServer) -> None:
        self.spec = spec
        self.server = server
        self.registry = server.telemetry.registry
        self.closed = False

    @classmethod
    def from_args(cls, args: Dict[str, object]) -> "ShardEngine":
        """Rebuild a serving shard (see :func:`build_engine_from_args`).

        The engine's spec comes from :meth:`ShardSpec.from_payload` and its
        store slice from :meth:`~repro.store.AggregateStore.from_payload`,
        both adopting the arrays ``args`` carries: ``args`` must be what a
        transport delivered (the engine's own arrays, never the
        coordinator's), so the coordinator's graph and the engine's replica
        advance only via the command stream, never via aliasing.
        The restored ``serving_state`` matters because a respawned engine's
        store slice is the *base* slice: the touched stamps say which of
        its rows earlier writes had already undercut.
        """
        spec = ShardSpec.from_payload(args["spec_payload"])
        config = args["config"]
        server = InferenceServer.from_checkpoint(
            args["checkpoint"] or args["checkpoint_bytes"],
            spec.graph,
            max_batch_size=int(config.get("max_batch_size", 16)),
            cache_capacity=int(config.get("cache_capacity", 1024)),
            seed=int(config.get("seed", 0)),
            registry=MetricsRegistry(),  # private per shard; merged on render
        )
        store_payload = config.get("store")
        if store_payload is not None:
            # The shard's slice of the materialized-answer store: tables
            # over the ids it owns only, indexed by id // num_shards.  Plain
            # arrays, so the same payload works in-process and across the
            # wire.
            from repro.store import AggregateStore

            server.attach_store(AggregateStore.from_payload(store_payload))
        if args["serving_state"] is not None:
            server.restore_serving_state(args["serving_state"])
        return cls(spec, server)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(self, envelope: Envelope) -> Reply:
        """Dispatch one envelope; failures come back as error replies.

        An envelope that carries a ``trace_ctx`` runs under a private
        per-envelope tracer, installed as *this thread's* override (never
        the process-wide tracer — concurrent shard threads would
        cross-contaminate buffers) and rooted in a span that echoes the
        router's trace id and send timestamp so the stitcher can bridge
        the queue+wire gap.  The span buffer rides the reply — error
        replies included, so a raising engine's trace survives.  Without
        one, tracing costs this path one ``is None`` check.
        """
        ctx = envelope.trace_ctx
        tracer = previous = None
        root = _NULL_SPAN
        if ctx is not None:
            tracer = Tracer(enabled=True)
            previous = set_thread_tracer(tracer)
            root = tracer.span(
                f"shard.{envelope.kind}",
                trace_id=ctx.get("trace_id"),
                send_ts=ctx.get("send_ts"),
                shard=self.spec.shard_id,
            )
        payload = error = None
        try:
            with root:
                try:
                    handler = getattr(self, f"_handle_{envelope.kind}", None)
                    if handler is None:
                        raise ValueError(f"unknown envelope kind {envelope.kind!r}")
                    payload = handler(envelope.payload)
                except Exception as exc:
                    self._count_error(envelope.kind)
                    error = error_info(exc)
        finally:
            if tracer is not None:
                set_thread_tracer(previous)
        trace = None
        if tracer is not None:
            trace = {
                "shard": int(self.spec.shard_id),
                "pid": os.getpid(),
                "spans": spans_to_wire(tracer),
            }
        return Reply(
            seq=envelope.seq, ok=error is None, payload=payload, error=error,
            trace=trace,
        )

    def _count_error(self, kind: str) -> None:
        """Error replies are observable: ``shard_errors_total{kind=...}``."""
        try:
            self.registry.counter("shard_errors_total", kind=kind).inc()
        except Exception:
            pass  # a broken registry must not mask the original error

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _handle_serve(self, payload: Dict[str, object]) -> Dict[str, object]:
        nodes = np.atleast_1d(np.asarray(payload["nodes"], dtype=np.int64))
        check_node_range(nodes, self.server.graph.num_nodes)  # the op, whole
        return self.server.replay(nodes, kind=payload.get("kind", "classify"))

    def _handle_mutate(self, payload: Dict[str, object]) -> Dict[str, object]:
        # spec.apply mutates the replica, which fires the server's
        # registered invalidation hook — same event, same touched sources
        # as a whole-graph server observing the same mutation.
        self.spec.apply(command_from_payload(payload["command"]))
        return {"version": int(self.spec.graph.version)}

    def _handle_metrics(self, payload: Dict[str, object]) -> Dict[str, object]:
        # Snapshot (not the raw registry): includes the cache node-hit
        # histogram and store gauges, so the cluster-wide exposition shows
        # store efficacy per shard, and this process's resident and peak
        # memory, so it shows each worker's own footprint.
        snapshot = self.server.metrics_registry_snapshot()
        record_process_memory(snapshot)
        return {"registry": snapshot.to_payload()}

    def _handle_serving_state(self, payload: Dict[str, object]) -> Dict[str, object]:
        return {"serving_state": self.server.export_serving_state()}

    def _handle_clock(self, payload: Dict[str, object]) -> Dict[str, object]:
        # Clock-alignment probe: the raw monotonic reading this process's
        # span timestamps are measured on (see repro.obs.dist.clock_handshake).
        return {
            "mono": time.perf_counter(),
            "wall": time.time(),
            "pid": os.getpid(),
        }

    def _handle_shutdown(self, payload: Dict[str, object]) -> Dict[str, object]:
        if not self.closed:
            self.server.close()
            self.closed = True
        return {}


class TrainEngine(ShardEngine):
    """One shard's training replica behind the envelope boundary.

    Holds a graph replica, the shard's owned ids and a full model replica
    whose parameters, optimizer moments and rng streams came from a
    checkpoint — the same spawn contract serving engines use, which is why
    a fleet brings training workers up through the path serving uses
    (``engine_args["engine"] = "train"`` is the only difference on the
    wire).  It answers through :meth:`ShardEngine.handle`, so a
    ``train_*`` envelope with a ``trace_ctx`` ships its span buffer back
    exactly as a ``serve`` one does.  The serving handlers it inherits
    need a server it does not hold: a serving kind sent here comes back
    as an error reply.
    """

    def __init__(self, spec: ShardSpec, classifier) -> None:
        self.spec = spec
        self.classifier = classifier
        self.trainer = classifier.trainer
        self.registry = MetricsRegistry()  # private per shard; merged on pull
        # Route the trainer's hot-path instruments (attention entropy, KL)
        # and per-epoch series into the shard-private registry so the
        # coordinator's merge can label them by shard.
        self.trainer.set_registry(self.registry)
        self._step_seconds = self.registry.histogram("train_shard_step_seconds")
        self.closed = False

    @classmethod
    def from_args(cls, args: Dict[str, object]) -> "TrainEngine":
        """Rebuild a training shard from its shard payload + checkpoint (see
        :func:`build_engine_from_args`).

        The checkpoint is a path or, for a socket worker, its bytes, loaded
        from memory.  It carries the trainer's state (optimizer moments,
        neighbor sets, epoch), so training resumes mid-stream; a fresh
        run's base checkpoint — saved right after build, zero epochs —
        works the same way, every replica restoring identical rng streams.
        """
        spec = ShardSpec.from_payload(args["spec_payload"])
        classifier = WidenClassifier.load(
            args["checkpoint"] or args["checkpoint_bytes"], graph=spec.graph
        )
        return cls(spec, classifier)

    # ------------------------------------------------------------------
    # Handlers (the train envelope family)
    # ------------------------------------------------------------------

    def _handle_train_epoch_begin(self, payload: Dict[str, object]) -> dict:
        train_nodes = np.asarray(payload["train_nodes"], dtype=np.int64)
        return self.trainer.epoch_begin(train_nodes, owned=self.spec.owned)

    def _handle_train_microbatch(self, payload: Dict[str, object]) -> dict:
        started = time.perf_counter()
        reply = self.trainer.run_microbatch(
            int(payload["start"]), payload.get("update")
        )
        self._step_seconds.observe(time.perf_counter() - started)
        return reply

    def _handle_train_epoch_end(self, payload: Dict[str, object]) -> dict:
        return self.trainer.epoch_finish(payload.get("update"))

    def _handle_train_checkpoint(self, payload: Dict[str, object]) -> dict:
        """The replica's full checkpoint as bytes — the elastic-resume
        unit.  Covers parameters, optimizer moments, every rng stream and
        the shard's (possibly downsampled) neighbor states, so an engine
        respawned from it continues bit-identically."""
        return {"checkpoint": encode(self.classifier.to_record())}

    def _handle_metrics(self, payload: Dict[str, object]) -> dict:
        return {"registry": self.registry.to_payload()}

    def _handle_shutdown(self, payload: Dict[str, object]) -> dict:
        self.closed = True
        return {}


#: ``engine_args["engine"]`` → the family that answers it.
ENGINES = {"serve": ShardEngine, "train": TrainEngine}
