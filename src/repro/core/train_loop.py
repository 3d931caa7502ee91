"""Phase-driven training loop shared by single-process and distributed runs.

:class:`~repro.core.trainer.WidenTrainer` decomposes Algorithm 3 into
composable phases — neighbor-state setup + minibatch schedule
(``epoch_begin``), local forward/backward (``run_microbatch``), gradient
export (``export_grads``), clipped optimizer step (``apply_update``) and
the per-epoch stats barrier (``epoch_finish``).  :class:`TrainLoop` is the
driver that sequences those phases over one or many *clients*:

- a single :class:`LocalTrainClient` wrapping a trainer in this process —
  the classic ``WidenTrainer.fit`` path, bit-identical to the pre-phase
  monolith (losses, F1 series, rng-consumption order, trigger fires);
- a fleet of :class:`~repro.cluster.train.TrainWorker` stubs, each backed
  by a partition-local :class:`~repro.cluster.train.TrainEngine` behind
  either transport (``inline``/``socket``).

The data-parallel contract mirrors the serving cluster's: every client
holds a full model replica and consumes identical rng streams, so the
epoch schedule (one ``shuffle_rng.permutation`` per epoch) is computed
*locally and identically* on every shard — a microbatch crosses the wire
as nothing but its start offset.  Each shard trains on the slice of the
global microbatch it owns; the loop gathers contributor gradients,
reduces them by row-count weights (``Σ (n_i / n) · g_i`` — exactly the
gradient of the full batch's mean loss), computes ONE global norm
(:func:`repro.optim.global_grad_norm`), and ships ``(grads, norm)`` back
to every client.  All replicas therefore apply the same clipped update
and the same Adam step count every global step, which keeps them bitwise
aligned for the whole run.  With a single client the reduction
short-circuits to the client's own gradient arrays, unscaled — the
1-shard configuration *is* the single-process loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.eval.metrics import macro_f1, micro_f1
from repro.obs import MetricsRegistry, get_registry
from repro.obs.tracing import span as trace_span
from repro.optim import global_grad_norm

__all__ = [
    "LocalTrainClient",
    "TrainHistory",
    "TrainLoop",
    "reduce_gradients",
]


@dataclass
class TrainHistory:
    """Per-epoch records produced by :meth:`WidenTrainer.fit`.

    ``wide_messages`` / ``deep_messages`` count the message packs that
    actually flowed through PASS° / PASS▷ that epoch (set size + 1 target
    pack per forward) — the structural quantity behind the paper's
    efficiency figures, and what the downsampling tests assert on instead
    of wall-clock seconds.
    """

    losses: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    wide_drops: List[int] = field(default_factory=list)
    deep_drops: List[int] = field(default_factory=list)
    wide_messages: List[int] = field(default_factory=list)
    deep_messages: List[int] = field(default_factory=list)
    trigger_checks: List[int] = field(default_factory=list)
    trigger_fires: List[int] = field(default_factory=list)
    train_micro_f1: List[float] = field(default_factory=list)
    train_macro_f1: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.losses)

    @property
    def messages(self) -> List[int]:
        """Total packs per epoch (wide + deep)."""
        return [w + d for w, d in zip(self.wide_messages, self.deep_messages)]


class _Immediate:
    """Pending-reply shim for results that already exist (local clients)."""

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        self._value = value

    def result(self, timeout: Optional[float] = None):
        return self._value


class LocalTrainClient:
    """A :class:`TrainLoop` client driving a trainer in this process.

    Every method returns a pending-style handle (``.result()``) so the
    loop's scatter-gather code is identical for local trainers and remote
    :class:`~repro.cluster.train.TrainWorker` stubs.  Gradients cross this
    "boundary" as live array references — zero copies, zero overhead —
    which is what keeps the phase-based single-process path bit-identical
    to (and as fast as) the old monolithic epoch loop.
    """

    def __init__(self, trainer) -> None:
        self.trainer = trainer

    def begin_epoch(self, train_nodes: np.ndarray) -> _Immediate:
        return _Immediate(self.trainer.epoch_begin(train_nodes))

    def run_microbatch(self, start: int) -> _Immediate:
        return _Immediate(self.trainer.run_microbatch(start))

    def export_grads(self) -> _Immediate:
        return _Immediate(self.trainer.export_grads())

    def apply_update(self, grads, norm: Optional[float]) -> _Immediate:
        self.trainer.apply_update(grads, norm=norm)
        return _Immediate(None)

    def finish_epoch(self) -> _Immediate:
        return _Immediate(self.trainer.epoch_finish())


def reduce_gradients(
    grad_lists: Sequence[list], counts: Sequence[int], total: int
) -> list:
    """Row-count-weighted mean of per-shard gradient lists.

    Each contributor's loss is the *mean* over its own rows, so the full
    batch's mean-loss gradient is ``Σ (n_i / total) · g_i`` per parameter.
    A parameter some shard never touched contributes ``None`` and is
    treated as zero; all-``None`` stays ``None`` (the optimizer skips it).
    A single contributor returns its gradient arrays untouched — no
    ``1.0 *`` rescale — so the 1-shard path carries the exact bits of a
    single-process backward.
    """
    if len(grad_lists) == 1:
        return list(grad_lists[0])
    lengths = {len(grads) for grads in grad_lists}
    if len(lengths) != 1:
        raise ValueError(f"gradient lists disagree on length: {sorted(lengths)}")
    reduced = []
    for slot in range(lengths.pop()):
        accumulated = None
        for grads, count in zip(grad_lists, counts):
            grad = grads[slot]
            if grad is None:
                continue
            term = (count / total) * grad
            accumulated = term if accumulated is None else accumulated + term
        reduced.append(accumulated)
    return reduced


class TrainLoop:
    """Drives training phases over one or many clients (Algorithm 3).

    One instance owns the epoch-level bookkeeping the old monolithic
    ``WidenTrainer.fit`` did: the :class:`TrainHistory`, the per-epoch
    metric series, the message counters.  Clients own everything
    graph-bound: neighbor states, forwards/backwards, the optimizer.
    """

    def __init__(
        self,
        clients: Sequence,
        config,
        *,
        registry: Optional[MetricsRegistry] = None,
        history: Optional[TrainHistory] = None,
        request_timeout: Optional[float] = 600.0,
    ) -> None:
        if not clients:
            raise ValueError("TrainLoop needs at least one client")
        self.clients = list(clients)
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self.history = history if history is not None else TrainHistory()
        self.request_timeout = request_timeout
        self._distributed = len(self.clients) > 1
        # Logical service clock (same convention as the serving cluster
        # bench): per phase, the span is the *slowest client's measured
        # compute* — engines stamp their handler time into each reply —
        # plus the coordinator's sequential gather/reduce/ship wall time.
        # On a multi-core host this tracks the wall clock; on a 1-core CI
        # box it is where shard parallelism shows up honestly, as span
        # compression rather than wishful wall-clock arithmetic.  Local
        # clients stamp no compute time, so this stays ~0 single-process.
        self.logical_seconds = 0.0
        # Sync observability, meaningful only when gradients cross a shard
        # boundary: reduction wall-clock and bytes moved per global step.
        self._reduce_seconds = None
        self._sync_bytes = None
        if self._distributed:
            self._reduce_seconds = self.registry.histogram(
                "train_grad_reduce_seconds"
            )
            self._sync_bytes = self.registry.counter("train_sync_bytes_total")

    # ------------------------------------------------------------------
    # Scatter-gather plumbing
    # ------------------------------------------------------------------

    def _gather(self, pendings: list) -> list:
        return [pending.result(self.request_timeout) for pending in pendings]

    @staticmethod
    def _slowest(replies: list) -> float:
        """Max engine-stamped compute seconds across a gathered phase."""
        return max(
            (float(reply.get("seconds") or 0.0) for reply in replies),
            default=0.0,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def run(self, train_nodes: np.ndarray, epochs: int) -> TrainHistory:
        """Run ``epochs`` epochs of ``train_nodes`` over every client."""
        train_nodes = np.asarray(train_nodes, dtype=np.int64)
        for _ in range(epochs):
            self._run_epoch(train_nodes)
        return self.history

    def _run_epoch(self, train_nodes: np.ndarray) -> None:
        began = time.perf_counter()
        begins = self._gather(
            [client.begin_epoch(train_nodes) for client in self.clients]
        )
        epochs = {int(begin["epoch"]) for begin in begins}
        sizes = {int(begin["num_nodes"]) for begin in begins}
        if len(epochs) != 1 or len(sizes) != 1:
            raise RuntimeError(
                f"clients disagree on epoch schedule: epochs={sorted(epochs)}, "
                f"sizes={sorted(sizes)} — replicas have diverged"
            )
        epoch = epochs.pop()
        size = sizes.pop()
        self.logical_seconds += self._slowest(begins)
        with trace_span("trainer.epoch", epoch=epoch):
            batch_size = max(1, int(self.config.batch_size))
            for start in range(0, size, batch_size):
                self._run_step(start)
            finishes = self._gather(
                [client.finish_epoch() for client in self.clients]
            )
        self.logical_seconds += self._slowest(finishes)
        seconds = time.perf_counter() - began
        stats, loss = self._merge_epoch(finishes)
        self._record_epoch(epoch, loss, seconds, stats)

    def _run_step(self, start: int) -> None:
        """One global microbatch: local backward everywhere, one reduction,
        one synchronized clipped optimizer step on every replica."""
        replies = self._gather(
            [client.run_microbatch(start) for client in self.clients]
        )
        self.logical_seconds += self._slowest(replies)
        counts = [int(reply["count"]) for reply in replies]
        total = sum(counts)
        contributors = [i for i, count in enumerate(counts) if count > 0]
        if not contributors:
            raise RuntimeError(
                f"no client owns any node of the microbatch at offset {start}"
            )
        began = time.perf_counter()
        grad_lists = self._gather(
            [self.clients[i].export_grads() for i in contributors]
        )
        reduced = reduce_gradients(
            grad_lists, [counts[i] for i in contributors], total
        )
        norm = (
            global_grad_norm(reduced)
            if self.config.grad_clip > 0
            else None
        )
        self._gather(
            [client.apply_update(reduced, norm) for client in self.clients]
        )
        reduce_seconds = time.perf_counter() - began
        # The sync leg (gather + reduce + norm + ship/apply) is coordinator
        # wall time — sequential by construction, so it goes on the logical
        # clock at face value.
        self.logical_seconds += reduce_seconds
        if self._distributed:
            self._reduce_seconds.observe(reduce_seconds)
            gathered = sum(
                grad.nbytes
                for grads in grad_lists
                for grad in grads
                if grad is not None
            )
            shipped = sum(
                grad.nbytes for grad in reduced if grad is not None
            ) * len(self.clients)
            self._sync_bytes.inc(gathered + shipped)

    # ------------------------------------------------------------------
    # Epoch merge + recording
    # ------------------------------------------------------------------

    @staticmethod
    def _merge_epoch(finishes: List[dict]):
        """Merge per-client epoch payloads into one stats dict.

        Loss is the node-weighted mean (``Σ loss_sum / Σ nodes``), counters
        sum, and F1 is computed over the concatenated (label, prediction)
        pairs — micro/macro F1 are pooled confusion-matrix metrics, so pair
        order cannot change the answer; with one client the concatenation
        *is* the single-process epoch's array, bit for bit.  An epoch whose
        objective carries no labels has no F1 (``None``).
        """
        loss_sum = sum(float(finish["loss_sum"]) for finish in finishes)
        node_count = sum(int(finish["node_count"]) for finish in finishes)
        labels = np.concatenate(
            [np.asarray(finish["labels"], dtype=np.int64) for finish in finishes]
        )
        predictions = np.concatenate(
            [
                np.asarray(finish["predictions"], dtype=np.int64)
                for finish in finishes
            ]
        )
        kl_values = [
            float(value) for finish in finishes for value in finish["kl_values"]
        ]
        labeled = labels.size > 0
        stats = {
            "wide_drops": sum(int(f["wide_drops"]) for f in finishes),
            "deep_drops": sum(int(f["deep_drops"]) for f in finishes),
            "wide_messages": sum(int(f["wide_messages"]) for f in finishes),
            "deep_messages": sum(int(f["deep_messages"]) for f in finishes),
            "trigger_checks": sum(int(f["trigger_checks"]) for f in finishes),
            "trigger_fires": sum(int(f["trigger_fires"]) for f in finishes),
            "kl_mean": float(np.mean(kl_values)) if kl_values else None,
            "micro_f1": micro_f1(labels, predictions) if labeled else None,
            "macro_f1": macro_f1(labels, predictions) if labeled else None,
        }
        return stats, loss_sum / max(node_count, 1)

    def _record_epoch(
        self, epoch: int, loss: float, seconds: float, stats: dict
    ) -> None:
        history = self.history
        registry = self.registry
        history.losses.append(loss)
        history.epoch_seconds.append(seconds)
        history.wide_drops.append(stats["wide_drops"])
        history.deep_drops.append(stats["deep_drops"])
        history.wide_messages.append(stats["wide_messages"])
        history.deep_messages.append(stats["deep_messages"])
        history.trigger_checks.append(stats["trigger_checks"])
        history.trigger_fires.append(stats["trigger_fires"])
        # Stepped series: the Fig.-4/5-style efficiency story, one point
        # per epoch, replayable straight out of metrics.jsonl.
        registry.emit("train/loss", loss, step=epoch)
        registry.emit("train/epoch_seconds", seconds, step=epoch)
        if stats["micro_f1"] is not None:
            history.train_micro_f1.append(stats["micro_f1"])
            history.train_macro_f1.append(stats["macro_f1"])
            registry.emit("train/micro_f1", stats["micro_f1"], step=epoch)
            registry.emit("train/macro_f1", stats["macro_f1"], step=epoch)
        registry.emit(
            "train/messages", stats["wide_messages"], step=epoch, path="wide"
        )
        registry.emit(
            "train/messages", stats["deep_messages"], step=epoch, path="deep"
        )
        registry.emit("train/drops", stats["wide_drops"], step=epoch, path="wide")
        registry.emit("train/drops", stats["deep_drops"], step=epoch, path="deep")
        registry.emit("train/kl_trigger_checks", stats["trigger_checks"], step=epoch)
        registry.emit("train/kl_trigger_fires", stats["trigger_fires"], step=epoch)
        if stats["kl_mean"] is not None:
            registry.emit("train/kl_divergence_mean", stats["kl_mean"], step=epoch)
        registry.counter("train_messages_total", path="wide").inc(
            stats["wide_messages"]
        )
        registry.counter("train_messages_total", path="deep").inc(
            stats["deep_messages"]
        )
