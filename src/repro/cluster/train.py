"""Data-parallel distributed training over the cluster substrate.

Training rides the exact serving stack: :class:`~repro.cluster.planner.
ClusterPlan` gives shard ``n % S`` node ``n`` over full graph replicas
(verbatim adjacency lists, so a shard samples for its owned nodes what a
whole-graph trainer would), the ``train`` family of
:class:`~repro.cluster.transport.Envelope` kinds rides either transport
(``inline``/``socket``) of the same :class:`~repro.cluster.fleet.Fleet`
serving uses, and per-shard metrics merge through the same
registry-payload path ``/metrics`` scrapes.

The shard protocol is serving's too: the engine side is
:class:`~repro.cluster.engine.TrainEngine` (one shard's graph replica and
owned ids, one full model replica rebuilt from a checkpoint, so optimizer
moments, neighbor sets and every rng stream arrive intact), answered
through the one engine dispatch, and the coordinator's stub is
:class:`~repro.cluster.worker.ShardWorker`, whose ``train_*`` methods let
:class:`~repro.core.train_loop.TrainLoop` drive a fleet and a local trainer
through one code path.  :class:`DistributedTrainer` plans the shards,
brings the fleet up, runs the loop and checkpoints per shard for elastic
resume.

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

import json
import os
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.fleet import Fleet
from repro.cluster.planner import ClusterPlan
from repro.cluster.worker import ShardWorker, merge_registries
from repro.core.classifier import WidenClassifier
from repro.core.train_loop import TrainHistory, TrainLoop
from repro.graph import HeteroGraph
from repro.obs.metrics import MetricsRegistry

__all__ = ["DistributedTrainer"]

MANIFEST_NAME = "manifest.json"
#: Format 2: ownership is ``id % num_shards``, so the manifest holds no
#: partition seed.
MANIFEST_FORMAT = 2


class DistributedTrainer:
    """Coordinates data-parallel training of one checkpoint over shards.

    ``checkpoint`` seeds every replica (fresh runs save a zero-epoch base
    checkpoint first — see :meth:`from_classifier`); ``shard_checkpoints``
    overrides it per shard for elastic resume, where each replica restores
    its *own* diverged rng/neighbor state.  Ownership is a pure function
    of ``(node, num_shards)``, so a resumed run owns what its checkpoints
    were written under.
    """

    #: Seconds to wait for one shard's reply to any envelope.
    REQUEST_TIMEOUT = 600.0

    def __init__(
        self,
        checkpoint,
        graph: HeteroGraph,
        num_shards: int,
        *,
        transport: str = "inline",
        shard_checkpoints: Optional[Sequence] = None,
        workers: Optional[Sequence[str]] = None,
        epochs_done: int = 0,
    ) -> None:
        # First: a bad transport name or a workers= on the wrong transport
        # fails before any checkpoint is read.
        self.fleet = Fleet(transport, workers=workers)
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
        self.registry = MetricsRegistry()  # coordinator-scope series
        self.history = TrainHistory()
        self._epochs_done = int(epochs_done)
        # Logical training span (see TrainLoop.logical_seconds): slowest
        # shard's measured compute per phase + coordinator sync wall time.
        self.logical_seconds = 0.0
        self.plan = ClusterPlan(graph, num_shards)
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
        self.workers: List[ShardWorker] = [
            ShardWorker(spec, channel)
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

        Replans with the manifest's shard count (ownership is ``id % S``,
        so it matches what the checkpoints were written under) and
        restores each shard from its own file.  Training
        killed mid-epoch resumes from the last completed epoch boundary and
        reaches a final model bit-identical to an uninterrupted run — every
        rng stream, optimizer moment and neighbor set picks up exactly
        where the boundary checkpoint froze it.
        """
        directory = Path(checkpoint_dir)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"checkpoint dir {str(directory)!r} has manifest format "
                f"{manifest.get('format')!r}, not {MANIFEST_FORMAT}: its shards "
                "hold rng and neighbor state for a partition's owned nodes, "
                "and resuming them under id % num_shards ownership would "
                "diverge from an uninterrupted run; start a new fleet from "
                "one of its shard files instead"
            )
        num_shards = int(manifest["num_shards"])
        shard_checkpoints = [
            directory / f"shard-{shard_id}.npz" for shard_id in range(num_shards)
        ]
        missing = [str(path) for path in shard_checkpoints if not path.exists()]
        if missing:
            raise FileNotFoundError(
                f"checkpoint dir {str(directory)!r} is missing {missing}"
            )
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
        self, train_nodes: np.ndarray, epochs: int, *, checkpoint_dir=None
    ) -> TrainHistory:
        """Run ``epochs`` epochs over the fleet (Algorithm 3, data-parallel).

        With ``checkpoint_dir`` every epoch boundary snapshots the whole
        fleet (atomic per-file tmp+rename), which is the elastic-resume
        granularity: a run killed mid-epoch loses at most the partial epoch.
        """
        self._check_open()
        loop = TrainLoop(
            self.workers, self.config, registry=self.registry, history=self.history
        )
        try:
            for _ in range(int(epochs)):
                loop.run(train_nodes, 1)
                self._epochs_done += 1
                if checkpoint_dir is not None:
                    self.save_checkpoints(checkpoint_dir)
            return self.history
        finally:
            self.logical_seconds += loop.logical_seconds

    # ------------------------------------------------------------------
    # Checkpointing / extraction
    # ------------------------------------------------------------------

    def save_checkpoints(self, directory) -> Path:
        """Snapshot every replica into ``directory`` (elastic-resume unit).

        One checkpoint per shard plus a manifest naming the shard count.
        Files land via tmp+rename so a crash mid-write never
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
            data = reply.result(self.REQUEST_TIMEOUT)["checkpoint"]
            final = directory / f"shard-{shard_id}.npz"
            staging = directory / f".shard-{shard_id}.npz.tmp"
            staging.write_bytes(data)
            os.replace(staging, final)
        manifest = {
            "format": MANIFEST_FORMAT,
            "num_shards": int(self.plan.num_shards),
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
        reply = self.workers[0].checkpoint().result(self.REQUEST_TIMEOUT)
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
        return merge_registries(self.registry, self.workers, self.REQUEST_TIMEOUT)

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
