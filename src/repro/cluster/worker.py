"""The protocol side of one shard: typed envelopes over a transport.

:class:`ShardWorker` owns no engine — the
:class:`~repro.cluster.engine.ShardEngine` or
:class:`~repro.cluster.engine.TrainEngine` behind the transport does — and
no channel lifecycle: the :class:`~repro.cluster.fleet.Fleet` hands it a
started, ready transport and closes it.  The worker is the coordinator's
one *client stub*, for the router and the distributed trainer alike: it
keeps the coordinator-side :class:`~repro.cluster.planner.ShardSpec` of the
shard (the ids it owns, over the coordinator's graph), wraps each
interaction in a typed :class:`~repro.cluster.transport.Envelope`, and
returns :class:`~repro.cluster.transport.PendingReply` handles so the
coordinator can issue a whole scatter before gathering anything.  Its
three training phases — ``begin_epoch``, ``run_microbatch`` and
``finish_epoch`` — are the :class:`~repro.core.train_loop.TrainLoop`
client protocol, shaped like
:class:`~repro.core.train_loop.LocalTrainClient`'s, so one loop drives a
fleet and a local trainer.

Ordering is inherited from the transport's FIFO contract: one shard, one
envelope stream, processed one at a time.  A ``mutate`` envelope is a
barrier between the ``serve`` envelopes around it, whether the far side is
the caller's thread or another process.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cluster.planner import MutationCommand, ShardSpec
from repro.cluster.transport import Envelope, PendingReply, Transport, WorkerDown
from repro.obs.metrics import MetricsRegistry


class ShardWorker:
    """Client stub for one shard engine, reachable only through envelopes."""

    def __init__(self, spec: ShardSpec, transport: Transport) -> None:
        self.spec = spec
        self.transport = transport
        self.respawns = 0

    def swap_transport(self, transport: Transport) -> None:
        """Readmit a recovered shard: the supervisor hands over a fresh,
        ready, caught-up channel and every later envelope rides it."""
        self.transport = transport
        self.respawns += 1

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def submit_serve(
        self,
        nodes,
        kind: str,
        trace_ctx: Optional[dict] = None,
    ) -> PendingReply:
        """One serve envelope for a group of nodes; gather later.

        The whole group reaches the engine in one envelope, so the server
        computes its misses in real batches instead of singletons.  ``trace_ctx`` (when the
        router is tracing) makes the engine root a private span buffer for
        this envelope and ship it back on the reply.
        """
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        return self.transport.send(
            Envelope(
                kind="serve",
                payload={"nodes": nodes, "kind": kind},
                trace_ctx=trace_ctx,
            )
        )

    # ------------------------------------------------------------------
    # Barriers and pulls
    # ------------------------------------------------------------------

    def mutate(self, command: MutationCommand) -> PendingReply:
        """Ship the write's command; FIFO order makes it a barrier."""
        return self.transport.send(
            Envelope(kind="mutate", payload={"command": command.to_payload()})
        )

    def pull_metrics(self) -> PendingReply:
        return self.transport.send(Envelope(kind="metrics"))

    def pull_serving_state(self) -> PendingReply:
        return self.transport.send(Envelope(kind="serving_state"))

    def checkpoint(self) -> PendingReply:
        """A training replica's checkpoint bytes (elastic resume)."""
        return self.transport.send(Envelope(kind="train_checkpoint"))

    def clock_probe(self) -> dict:
        """One synchronous clock-alignment probe (see ``repro.obs.dist``).

        Blocking on purpose: the handshake's offset math needs the caller's
        clock readings to bracket the engine's, so there is nothing to
        overlap.
        """
        return self.transport.send(Envelope(kind="clock")).result()

    # ------------------------------------------------------------------
    # Training phases (the TrainLoop client protocol)
    # ------------------------------------------------------------------

    def begin_epoch(self, train_nodes: np.ndarray) -> PendingReply:
        return self.transport.send(
            Envelope(
                kind="train_epoch_begin",
                payload={"train_nodes": np.asarray(train_nodes, dtype=np.int64)},
            )
        )

    def run_microbatch(self, start: int, update) -> PendingReply:
        """One global step: ``update``, the previous step's reduced
        ``(grads, norm)`` or ``None``, rides the microbatch's envelope."""
        return self.transport.send(
            Envelope(
                kind="train_microbatch",
                payload={"start": int(start), "update": _wire(update)},
            )
        )

    def finish_epoch(self, update) -> PendingReply:
        return self.transport.send(
            Envelope(kind="train_epoch_end", payload={"update": _wire(update)})
        )


def _wire(update):
    """An update as the codec carries it: a ``[grads, norm]`` list (the
    wire has no tuples), ``None`` as ``None``."""
    return None if update is None else list(update)


def merge_registries(
    coordinator: MetricsRegistry,
    workers: Sequence[ShardWorker],
    timeout: Optional[float],
) -> MetricsRegistry:
    """The coordinator's series plus every shard's registry, shard-labeled.

    Registries cross the shard boundary as serialized payloads
    (:meth:`MetricsRegistry.to_payload`), so the merge is identical whether
    the shards share this process or run in their own.  A down shard has
    no registry to pull and is left out; scraping must not hang on it.
    """
    merged = MetricsRegistry()
    merged.merge_payload(coordinator.to_payload())
    pending = [(worker.spec.shard_id, worker.pull_metrics()) for worker in workers]
    for shard_id, reply in pending:
        try:
            payload = reply.result(timeout)
        except WorkerDown:
            continue
        merged.merge_payload(payload["registry"], extra_labels={"shard": str(shard_id)})
    return merged
