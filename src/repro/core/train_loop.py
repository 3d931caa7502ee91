"""Phase-driven training loop shared by single-process and distributed runs.

:class:`~repro.core.trainer.WidenTrainer` decomposes Algorithm 3 into three
phases — neighbor-state setup + minibatch schedule (``epoch_begin``), one
training step (``run_microbatch``: the previous step's clipped optimizer
update, then local forward/backward, whose gradients ride the reply) and
the last update + per-epoch stats barrier (``epoch_finish``).
:class:`TrainLoop` sequences those phases over one or many *clients*:

- a single :class:`LocalTrainClient` wrapping a trainer in this process —
  the classic ``WidenTrainer.fit`` path, bit-identical to the pre-phase
  monolith (losses, F1 series, rng-consumption order, trigger fires);
- a fleet of :class:`~repro.cluster.worker.ShardWorker` stubs, each backed
  by a partition-local :class:`~repro.cluster.engine.TrainEngine` behind
  either transport (``inline``/``socket``).

The data-parallel contract mirrors the serving cluster's: every client
holds a full model replica and consumes identical rng streams, so the
epoch schedule (one ``shuffle_rng.permutation`` per epoch) is computed
*locally and identically* on every shard — a microbatch crosses the wire
as nothing but its start offset.  Each shard trains on the slice of the
global microbatch it owns and answers with its gradients; the loop
reduces them by row-count weights (``Σ (n_i / n) · g_i`` — exactly the
gradient of the full batch's mean loss), computes ONE global norm
(:func:`repro.optim.global_grad_norm`), and ships ``(grads, norm)`` to
every client on the *next* request — the next step's microbatch, or the
epoch's finish.  A global step is therefore one round trip, and every
replica runs apply k, forward k+1, backward k+1 in that order: all
replicas apply the same clipped update and the same Adam step count every
global step, which keeps them bitwise aligned for the whole run.  With a
single client the reduction short-circuits to the client's own gradient
arrays, unscaled — the 1-shard configuration *is* the single-process
loop.
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
    :class:`~repro.cluster.worker.ShardWorker` stubs.  Gradients cross this
    "boundary" as live array references — zero copies, zero overhead —
    which is what keeps the phase-based single-process path bit-identical
    to (and as fast as) the old monolithic epoch loop.
    """

    def __init__(self, trainer) -> None:
        self.trainer = trainer

    def begin_epoch(self, train_nodes: np.ndarray) -> _Immediate:
        return _Immediate(self.trainer.epoch_begin(train_nodes))

    def run_microbatch(self, start: int, update) -> _Immediate:
        return _Immediate(self.trainer.run_microbatch(start, update))

    def finish_epoch(self, update) -> _Immediate:
        return _Immediate(self.trainer.epoch_finish(update))


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

    #: Seconds to wait for one client's reply to a phase.
    REQUEST_TIMEOUT = 600.0

    def __init__(
        self,
        clients: Sequence,
        config,
        *,
        registry: Optional[MetricsRegistry] = None,
        history: Optional[TrainHistory] = None,
    ) -> None:
        if not clients:
            raise ValueError("TrainLoop needs at least one client")
        self.clients = list(clients)
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self.history = history if history is not None else TrainHistory()
        # Sync observability wherever gradients cross a shard boundary —
        # every fleet, a 1-shard one included; a LocalTrainClient's stay
        # live references in this process.  Reduction wall-clock and bytes
        # moved per global step.
        self._reduce_seconds = None
        self._sync_bytes = None
        if not all(isinstance(client, LocalTrainClient) for client in self.clients):
            self._reduce_seconds = self.registry.histogram(
                "train_grad_reduce_seconds"
            )
            self._sync_bytes = self.registry.counter("train_sync_bytes_total")

    # ------------------------------------------------------------------
    # Scatter-gather plumbing
    # ------------------------------------------------------------------

    def _gather(self, pendings: list) -> list:
        return [pending.result(self.REQUEST_TIMEOUT) for pending in pendings]

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
        with trace_span("trainer.epoch", epoch=epoch):
            batch_size = max(1, int(self.config.batch_size))
            update = None
            for start in range(0, size, batch_size):
                update = self._run_step(start, update)
            finishes = self._gather(
                [client.finish_epoch(update) for client in self.clients]
            )
        seconds = time.perf_counter() - began
        stats, loss = self._merge_epoch(finishes)
        self._record_epoch(epoch, loss, seconds, stats)

    def _run_step(self, start: int, update):
        """One global step, one round trip: every client applies ``update``
        (the previous step's) and runs its slice of the microbatch at
        ``start``; the contributors' gradients reduce to this step's
        ``(grads, norm)``, which the next request carries."""
        replies = self._gather(
            [client.run_microbatch(start, update) for client in self.clients]
        )
        contributors = [reply for reply in replies if int(reply["count"]) > 0]
        if not contributors:
            raise RuntimeError(
                f"no client owns any node of the microbatch at offset {start}"
            )
        began = time.perf_counter()
        grad_lists = [reply["grads"] for reply in contributors]
        counts = [int(reply["count"]) for reply in contributors]
        reduced = reduce_gradients(grad_lists, counts, sum(counts))
        norm = (
            global_grad_norm(reduced)
            if self.config.grad_clip > 0
            else None
        )
        if self._sync_bytes is not None:
            self._reduce_seconds.observe(time.perf_counter() - began)
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
        return reduced, norm

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
