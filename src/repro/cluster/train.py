"""Data-parallel distributed training over the cluster substrate.

Training rides the exact serving stack: :class:`~repro.cluster.planner.
ShardPlanner` partitions the training nodes into owned sets over full
graph replicas (verbatim adjacency lists, so a shard samples for its
owned nodes what a whole-graph trainer would), the ``train`` family of
:class:`~repro.cluster.transport.Envelope` kinds rides either transport
(``inline``/``socket``) of the same :class:`~repro.cluster.fleet.Fleet`
serving uses, and per-shard metrics merge through the same
registry-payload path ``/metrics`` scrapes.

Three pieces:

- :class:`TrainEngine` — the engine side: one shard's graph replica and
  owned ids, one full model replica (rebuilt from a checkpoint, so
  optimizer moments, neighbor sets and every rng stream arrive intact), one
  :class:`~repro.core.trainer.WidenTrainer` answering phase envelopes.
- :class:`TrainWorker` — the coordinator's client stub; its methods return
  :class:`~repro.cluster.transport.PendingReply` handles shaped exactly
  like :class:`~repro.core.train_loop.LocalTrainClient`'s, so
  :class:`~repro.core.train_loop.TrainLoop` drives a fleet and a local
  trainer through one code path.
- :class:`DistributedTrainer` — plans the partition, brings the fleet up,
  runs the loop, checkpoints per shard for elastic resume.

The synchronization story (why replicas stay bitwise aligned): every
replica restores the *same* checkpoint, so every replica's shuffle stream
produces the same epoch schedule locally; every global step reduces
contributor gradients once, computes one global clip norm, and applies the
same ``(grads, norm)`` on every replica — including shards that owned no
rows of the microbatch, so Adam's step count stays in lockstep.  Initial
neighbor sets are a pure function of ``(base seed, node, adjacency
lists)`` (counter-keyed draws, :class:`~repro.core.state.NeighborStateStore`),
and the restored checkpoint carries the base seed, so the shard that owns
a node samples what a single process would.  What a replica does *not*
share is its dropout/drop streams; each node is owned by exactly one
shard, so those streams are self-consistent where they matter.  Matching
a single-process run beyond loss-curve tolerance additionally wants
``dropout=0`` and ``downsample_mode="off"`` — the remaining difference is
float reassociation from batch splitting, at 1e-15 scale.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.fleet import Fleet
from repro.cluster.net import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_MISSES,
    DEFAULT_MAX_FRAME_BYTES,
)
from repro.cluster.planner import ClusterPlan, ShardPlanner, ShardSpec
from repro.cluster.transport import (
    Envelope,
    PendingReply,
    Reply,
    Transport,
    error_info,
)
from repro.core.classifier import WidenClassifier
from repro.core.train_loop import TrainHistory, TrainLoop
from repro.graph import HeteroGraph
from repro.obs.metrics import MetricsRegistry

__all__ = ["TrainEngine", "TrainWorker", "DistributedTrainer"]

MANIFEST_NAME = "manifest.json"


class TrainEngine:
    """One shard's training replica behind the envelope boundary.

    Holds a graph replica, the shard's owned ids and a full model replica
    whose parameters, optimizer moments and rng streams came from a
    checkpoint —
    the same spawn contract serving engines use, which is why a fleet
    brings training workers up through the path serving uses
    (``engine_args["engine"] = "train"`` is the only difference on the
    wire).
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
        :func:`repro.cluster.engine.build_engine_from_args`).

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
    # Dispatch
    # ------------------------------------------------------------------

    def handle(self, envelope: Envelope) -> Reply:
        try:
            handler = getattr(self, f"_handle_{envelope.kind}", None)
            if handler is None:
                raise ValueError(f"unknown envelope kind {envelope.kind!r}")
            started = time.perf_counter()
            cpu_started = time.process_time()
            payload = handler(envelope.payload)
            cpu_elapsed = time.process_time() - cpu_started
            elapsed = time.perf_counter() - started
            if envelope.kind == "train_microbatch":
                self._step_seconds.observe(elapsed)
            if envelope.kind.startswith("train_") and isinstance(payload, dict):
                # Stamp the compute this replica actually consumed so the
                # coordinator's logical service clock can take the max
                # across shards per phase.  Process-CPU time, not wall: on
                # an oversubscribed host (several shard processes per core)
                # wall time includes being preempted by *sibling shards*,
                # which would charge the same core-seconds to every replica
                # and hide the very parallelism being measured.  On an idle
                # multi-core host the two clocks agree.
                payload = dict(payload, seconds=cpu_elapsed)
            return Reply(seq=envelope.seq, ok=True, payload=payload)
        except Exception as exc:
            self._count_error(envelope.kind)
            return Reply(seq=envelope.seq, ok=False, error=error_info(exc))

    def _count_error(self, kind: str) -> None:
        try:
            self.registry.counter("shard_errors_total", kind=kind).inc()
        except Exception:
            pass  # a broken registry must not mask the original error

    # ------------------------------------------------------------------
    # Handlers (the train envelope family)
    # ------------------------------------------------------------------

    def _handle_train_epoch_begin(self, payload: Dict[str, object]) -> dict:
        train_nodes = np.asarray(payload["train_nodes"], dtype=np.int64)
        return self.trainer.epoch_begin(train_nodes, owned=self.spec.owned)

    def _handle_train_microbatch(self, payload: Dict[str, object]) -> dict:
        return self.trainer.run_microbatch(int(payload["start"]))

    def _handle_train_grads(self, payload: Dict[str, object]) -> dict:
        return {"grads": self.trainer.export_grads()}

    def _handle_train_apply(self, payload: Dict[str, object]) -> dict:
        self.trainer.apply_update(payload.get("grads"), norm=payload.get("norm"))
        return {}

    def _handle_train_epoch_end(self, payload: Dict[str, object]) -> dict:
        return self.trainer.epoch_finish()

    def _handle_train_checkpoint(self, payload: Dict[str, object]) -> dict:
        """The replica's full checkpoint as bytes — the elastic-resume
        unit.  Covers parameters, optimizer moments, every rng stream and
        the shard's (possibly downsampled) neighbor states, so an engine
        respawned from it continues bit-identically."""
        buffer = io.BytesIO()
        self.classifier.save(buffer)
        return {"checkpoint": buffer.getvalue()}

    def _handle_metrics(self, payload: Dict[str, object]) -> dict:
        return {"registry": self.registry.to_payload()}

    def _handle_clock(self, payload: Dict[str, object]) -> dict:
        return {
            "mono": time.perf_counter(),
            "wall": time.time(),
            "pid": os.getpid(),
        }

    def _handle_shutdown(self, payload: Dict[str, object]) -> dict:
        self.closed = True
        return {}


class TrainWorker:
    """Coordinator-side stub for one training shard.

    Implements the :class:`~repro.core.train_loop.TrainLoop` client
    protocol over envelopes — every method scatters one envelope and
    returns its pending reply, so the loop overlaps all shards' microbatch
    computes on concurrent transports.
    """

    def __init__(self, spec: ShardSpec, transport: Transport) -> None:
        self.spec = spec
        self.transport = transport

    # -- TrainLoop client protocol ----------------------------------------

    def begin_epoch(self, train_nodes: np.ndarray) -> PendingReply:
        return self.transport.send(
            Envelope(
                kind="train_epoch_begin",
                payload={"train_nodes": np.asarray(train_nodes, dtype=np.int64)},
            )
        )

    def run_microbatch(self, start: int) -> PendingReply:
        return self.transport.send(
            Envelope(kind="train_microbatch", payload={"start": int(start)})
        )

    def export_grads(self) -> PendingReply:
        return self.transport.send(Envelope(kind="train_grads"))

    def apply_update(self, grads, norm: Optional[float]) -> PendingReply:
        return self.transport.send(
            Envelope(kind="train_apply", payload={"grads": grads, "norm": norm})
        )

    def finish_epoch(self) -> PendingReply:
        return self.transport.send(Envelope(kind="train_epoch_end"))

    # -- pulls -------------------------------------------------------------

    def checkpoint(self) -> PendingReply:
        return self.transport.send(Envelope(kind="train_checkpoint"))

    def pull_metrics(self) -> PendingReply:
        return self.transport.send(Envelope(kind="metrics"))


class DistributedTrainer:
    """Coordinates data-parallel training of one checkpoint over shards.

    ``checkpoint`` seeds every replica (fresh runs save a zero-epoch base
    checkpoint first — see :meth:`from_classifier`); ``shard_checkpoints``
    overrides it per shard for elastic resume, where each replica restores
    its *own* diverged rng/neighbor state.  The partition is a pure
    function of ``(graph, num_shards, partition_seed)``, so a
    resumed run replans the identical ownership its checkpoints were
    written under.
    """

    def __init__(
        self,
        checkpoint,
        graph: HeteroGraph,
        num_shards: int,
        *,
        transport: str = "inline",
        partition_seed: int = 0,
        shard_checkpoints: Optional[Sequence] = None,
        request_timeout: Optional[float] = 600.0,
        start_timeout: float = 120.0,
        workers: Optional[Sequence[str]] = None,
        epochs_done: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_misses: int = DEFAULT_HEARTBEAT_MISSES,
    ) -> None:
        # First: a bad transport name or a workers= on the wrong transport
        # fails before any checkpoint is read.
        self.fleet = Fleet(
            transport,
            workers=workers,
            start_timeout=start_timeout,
            max_frame_bytes=max_frame_bytes,
            heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses,
        )
        probe = WidenClassifier.load(checkpoint)
        self.config = probe.config
        if self.config.embedding_mode != "project":
            raise ValueError(
                'distributed training requires embedding_mode="project": the '
                '"replace" mode\'s node-state table is written by every '
                "forward and read across ownership boundaries, which breaks "
                "shard locality"
            )
        self.graph = graph
        self.partition_seed = int(partition_seed)
        self.request_timeout = request_timeout
        self.registry = MetricsRegistry()  # coordinator-scope series
        self.history = TrainHistory()
        self._epochs_done = int(epochs_done)
        # Logical training span (see TrainLoop.logical_seconds): slowest
        # shard's measured compute per phase + coordinator sync wall time.
        self.logical_seconds = 0.0
        self.plan: ClusterPlan = ShardPlanner(
            graph, num_shards, seed=partition_seed
        ).plan()
        if shard_checkpoints is not None:
            if len(shard_checkpoints) != self.plan.num_shards:
                raise ValueError(
                    f"shard_checkpoints names {len(shard_checkpoints)} files "
                    f"for {self.plan.num_shards} shards"
                )
            checkpoints = [str(path) for path in shard_checkpoints]
        else:
            checkpoints = [str(checkpoint)] * self.plan.num_shards
        channels = self.fleet.bring_up(
            "train", self.plan.shards, checkpoints, [{}] * self.plan.num_shards
        )
        self.workers: List[TrainWorker] = [
            TrainWorker(spec, channel)
            for spec, channel in zip(self.plan.shards, channels)
        ]
        self._closed = False

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------

    @classmethod
    def from_classifier(
        cls, classifier, graph: HeteroGraph, num_shards: int, **kwargs
    ) -> "DistributedTrainer":
        """Spawn a fleet from a live (possibly untrained) classifier.

        A checkpoint round-trip is the clean way to hand every shard an
        independent replica with *identical* parameters and rng streams —
        and a checkpoint is what every engine is built from.  The temp
        file is deleted once every shard has confirmed loading it.
        """
        with tempfile.TemporaryDirectory(prefix="repro-train-") as tmp:
            base = Path(tmp) / "base.npz"
            classifier.save(base)
            return cls(base, graph, num_shards, **kwargs)

    @classmethod
    def resume(
        cls, checkpoint_dir, graph: HeteroGraph, **kwargs
    ) -> "DistributedTrainer":
        """Resume from a :meth:`save_checkpoints` directory.

        Replans with the manifest's shard count + partition seed (the plan
        is deterministic, so ownership matches what the checkpoints were
        written under) and restores each shard from its own file.  Training
        killed mid-epoch resumes from the last completed epoch boundary and
        reaches a final model bit-identical to an uninterrupted run — every
        rng stream, optimizer moment and neighbor set picks up exactly
        where the boundary checkpoint froze it.
        """
        directory = Path(checkpoint_dir)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        num_shards = int(manifest["num_shards"])
        shard_checkpoints = [
            directory / f"shard-{shard_id}.npz" for shard_id in range(num_shards)
        ]
        missing = [str(path) for path in shard_checkpoints if not path.exists()]
        if missing:
            raise FileNotFoundError(
                f"checkpoint dir {str(directory)!r} is missing {missing}"
            )
        kwargs.setdefault("partition_seed", int(manifest["partition_seed"]))
        kwargs.setdefault("epochs_done", int(manifest.get("epochs_done", 0)))
        return cls(
            shard_checkpoints[0],
            graph,
            num_shards,
            shard_checkpoints=shard_checkpoints,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        train_nodes: np.ndarray,
        epochs: int,
        *,
        checkpoint_dir=None,
        checkpoint_every: int = 1,
    ) -> TrainHistory:
        """Run ``epochs`` epochs over the fleet (Algorithm 3, data-parallel).

        With ``checkpoint_dir`` every ``checkpoint_every``-th epoch boundary
        snapshots the whole fleet (atomic per-file tmp+rename), which is the
        elastic-resume granularity: a run killed mid-epoch loses at most the
        partial epoch.
        """
        self._check_open()
        loop = TrainLoop(
            self.workers,
            self.config,
            registry=self.registry,
            history=self.history,
            request_timeout=self.request_timeout,
        )
        try:
            if checkpoint_dir is None:
                loop.run(train_nodes, epochs)
                self._epochs_done += int(epochs)
                return self.history
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            for index in range(int(epochs)):
                loop.run(train_nodes, 1)
                self._epochs_done += 1
                if (index + 1) % checkpoint_every == 0 or index == int(epochs) - 1:
                    self.save_checkpoints(checkpoint_dir)
            return self.history
        finally:
            self.logical_seconds += loop.logical_seconds

    # ------------------------------------------------------------------
    # Checkpointing / extraction
    # ------------------------------------------------------------------

    def save_checkpoints(self, directory) -> Path:
        """Snapshot every replica into ``directory`` (elastic-resume unit).

        One checkpoint per shard plus a manifest naming the partition
        parameters.  Files land via tmp+rename so a crash mid-write never
        leaves a torn checkpoint; the manifest is written last, so a
        directory with a manifest is always complete.
        """
        self._check_open()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        pending = [
            (worker.spec.shard_id, worker.checkpoint()) for worker in self.workers
        ]
        for shard_id, reply in pending:
            data = reply.result(self.request_timeout)["checkpoint"]
            final = directory / f"shard-{shard_id}.npz"
            staging = directory / f".shard-{shard_id}.npz.tmp"
            staging.write_bytes(data)
            os.replace(staging, final)
        manifest = {
            "format": 1,
            "num_shards": int(self.plan.num_shards),
            "partition_seed": int(self.partition_seed),
            "epochs_done": int(self._epochs_done),
            "transport": self.fleet.kind,
        }
        staging = directory / f".{MANIFEST_NAME}.tmp"
        staging.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(staging, directory / MANIFEST_NAME)
        return directory

    def classifier(self, graph: Optional[HeteroGraph] = None):
        """The trained classifier, pulled from shard 0.

        Every replica applies identical updates every global step, so the
        parameters are the same on all of them; shard 0's checkpoint is the
        fleet's model.  Pass ``graph`` to bind it for evaluation.
        """
        self._check_open()
        reply = self.workers[0].checkpoint().result(self.request_timeout)
        return WidenClassifier.load(reply["checkpoint"], graph=graph)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def merged_registry(self) -> MetricsRegistry:
        """Coordinator series + every shard's registry, shard-labeled.

        Same merge path serving clusters use, so one ``/metrics`` scrape
        covers a training fleet: per-shard step/attention/KL instruments
        plus the coordinator's reduce timings, sync bytes and loss series.
        """
        merged = MetricsRegistry()
        merged.merge_payload(self.registry.to_payload())
        pending = [
            (worker.spec.shard_id, worker.pull_metrics()) for worker in self.workers
        ]
        for shard_id, reply in pending:
            payload = reply.result(self.request_timeout)
            merged.merge_payload(
                payload["registry"], extra_labels={"shard": str(shard_id)}
            )
        return merged

    def render_prometheus(self) -> str:
        """One Prometheus exposition for the whole training fleet."""
        return self.merged_registry().render_prometheus()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self.fleet.close()
        self._closed = True

    def __enter__(self) -> "DistributedTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("distributed trainer is closed")
