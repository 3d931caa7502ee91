"""Sharded, concurrent inference serving (``repro.cluster``).

Scales the single :class:`~repro.serve.server.InferenceServer` horizontally
while preserving its exact semantics:

- :mod:`~repro.cluster.planner` — placement, one rule: shard ``n % S``
  owns node ``n``.  A shard is ``(whole graph, owned ids)``: every engine
  holds a full replica, so an owned answer is bit-identical to a
  whole-graph server's, and the coordinator holds one graph that all its
  shard specs point at.  Specs serialize as plain arrays
  (:meth:`ShardSpec.to_payload`) and a write propagates as one
  serializable command broadcast to every shard — nothing in the plan
  assumes shared memory.
- :mod:`~repro.cluster.transport` — the message boundary: typed
  :class:`Envelope`/:class:`Reply` pairs over one of two transports,
  ``inline`` (deterministic replay on the caller's thread, the wire
  codec's encode and decode included) or ``socket`` (one worker process
  per shard behind TCP, possibly on another host).
- :mod:`~repro.cluster.codec` — the wire format: the message types and
  one frame codec (a JSON header plus raw array buffers), whose decoder
  checks every frame against the message schema and raises one
  ``ProtocolError`` on anything else.
- :mod:`~repro.cluster.net` — the wire of the ``socket`` transport:
  length-prefixed TCP framing for the same codec's frames,
  :class:`SocketTransport` with heartbeat liveness riding ``clock``
  envelopes and typed :class:`WorkerDown`, and the
  ``python -m repro shard-worker`` server (:class:`ShardWorkerServer`).
- :mod:`~repro.cluster.fleet` — one :class:`Fleet` under serving and
  training: plan + per-shard engine args → transports → ready engines →
  respawn → close, the only place a transport is constructed.  Also the
  socket fleet's membership (:class:`LocalWorkerSpawner`,
  :class:`ShardRegistry`) and its :class:`FleetSupervisor`, which turns a
  SIGKILL'd worker into a respawn from checkpoint bytes, the coordinator's
  current shard payload and the freshness state the coordinator holds for
  every shard, checked against that state before the shard is readmitted
  to scatter-gather.
- :mod:`~repro.cluster.engine` — the far side of the boundary: one
  envelope dispatch (:meth:`ShardEngine.handle`) answering every kind, for
  a serving engine (one rebuilt shard spec + one :class:`InferenceServer`)
  and a training one (:class:`TrainEngine`), and
  :func:`build_engine_from_args`, the one route by which any engine is
  built on either transport.
- :mod:`~repro.cluster.worker` — the coordinator's one per-shard protocol
  stub (serve scatter legs, mutation barriers, telemetry pulls, training
  phases) and the shard-labeled registry merge.
- :mod:`~repro.cluster.router` — ownership-based async scatter-gather with
  order-preserving merges, per-shard gather timeouts, mutation broadcast
  barriers, and cluster-wide telemetry/Prometheus aggregation over
  serialized snapshots.

The contract throughout: sharding — and the transport it runs on — is a
deployment decision, not a semantics change. ``ClusterRouter.embed(nodes)``
equals a single server's output bit for bit, for any shard count, on
either transport.

:mod:`~repro.cluster.train` extends the same substrate to data-parallel
*training*: :class:`TrainEngine` answers the ``train_*`` envelope family
with a :class:`~repro.core.trainer.WidenTrainer` replica over its owned
nodes, :class:`ShardWorker` sends it the
:class:`~repro.core.train_loop.TrainLoop` phases, and
:class:`DistributedTrainer` plans, brings up the same :class:`Fleet`,
reduces gradients and checkpoints it for elastic resume.
"""

from repro.cluster.engine import ShardEngine, TrainEngine, build_engine_from_args
from repro.cluster.fleet import (
    Fleet,
    FleetSupervisor,
    LocalWorkerSpawner,
    RecoveryRecord,
    ShardRegistry,
    WorkerHandle,
)
from repro.cluster.net import ShardWorkerServer, SocketTransport, WorkerDown
from repro.cluster.planner import (
    AddNodesCommand,
    ClusterPlan,
    RefreshCommand,
    ShardSpec,
)
from repro.cluster.router import ClusterRouter
from repro.cluster.train import DistributedTrainer
from repro.cluster.transport import (
    Envelope,
    InlineTransport,
    Reply,
    ShardError,
    ShardTimeoutError,
    Transport,
)
from repro.cluster.worker import ShardWorker

__all__ = [
    "AddNodesCommand",
    "ClusterPlan",
    "ClusterRouter",
    "DistributedTrainer",
    "Envelope",
    "Fleet",
    "FleetSupervisor",
    "InlineTransport",
    "LocalWorkerSpawner",
    "RecoveryRecord",
    "RefreshCommand",
    "Reply",
    "ShardEngine",
    "ShardError",
    "ShardRegistry",
    "ShardSpec",
    "ShardTimeoutError",
    "ShardWorker",
    "ShardWorkerServer",
    "SocketTransport",
    "TrainEngine",
    "Transport",
    "WorkerDown",
    "WorkerHandle",
    "build_engine_from_args",
]
