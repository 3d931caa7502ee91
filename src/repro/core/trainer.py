"""WIDEN's trainer — the graph-bound phases of Algorithm 3.

The trainer owns the persistent neighbor states (sampled once, line 3), the
model replica and the optimizer, and after every minibatch forward decides —
via the KL-divergence trigger of Eq. 9, for all of the batch's sets at once —
which nodes' wide sets (Algorithm 1) or deep sequences (Algorithm 2) to
actively downsample.

Epoch sequencing lives in :class:`~repro.core.train_loop.TrainLoop`; this
class exposes Algorithm 3 as composable phases the loop drives, whatever
the :mod:`~repro.core.objectives` objective (Eq. 10 classification by
default, walk context, edge existence):

- :meth:`WidenTrainer.epoch_begin` — neighbor-state refresh + the epoch's
  shuffled schedule of examples (plus an optional owned-node filter for
  partition-local training);
- :meth:`WidenTrainer.run_microbatch` — the previous step's reduced
  ``(grads, norm)`` update applied through :meth:`WidenTrainer.apply_update`
  (clip + optimizer step), then forward/backward over one schedule slice,
  whose gradients ride the reply;
- :meth:`WidenTrainer.epoch_finish` — the epoch's last update, then the
  per-epoch stats payload.

:meth:`WidenTrainer.fit` is the classic entry point, now a thin wrapper
running a single-client :class:`~repro.core.train_loop.TrainLoop` — the
same driver distributed training uses over a fleet of shard engines.

Inference helpers:

- :meth:`WidenTrainer.embed` — embeddings of arbitrary nodes in the training
  graph (transductive evaluation).
- :meth:`WidenTrainer.embed_inductive` — embeddings of nodes in a *different*
  graph (the full graph with held-out nodes restored); neighbor sets are
  sampled fresh, nothing is looked up by node identity, which is exactly what
  makes WIDEN inductive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import WidenConfig
from repro.core.model import WidenModel
from repro.core.objectives import Classification, Objective
from repro.core.packing import AttentionGrid, PackCounters
from repro.core.relay import prune_deep, shrink_wide
from repro.core.state import NeighborStateStore, NeighborTable
from repro.core.train_loop import LocalTrainClient, TrainHistory, TrainLoop
from repro.graph import HeteroGraph
from repro.obs import MetricsRegistry, get_registry
from repro.obs.tracing import span as trace_span
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, no_grad
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = ["TrainHistory", "WidenTrainer"]


# Probabilities are clipped here before a log, as ``F.kl_divergence`` does.
_EPS = 1e-12


def _sums_by_length(terms: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``terms[s, :lengths[s]].sum()`` for every row ``s`` of ``(S, L)``.

    Reduced one true-length group at a time: summing a ``(k, n)`` block
    along its rows adds each row's ``n`` terms in the order a 1-D sum of
    that row does, whereas summing the zero-padded row pairs them
    differently and moves the last bit.  Rows that fill the grid — nearly
    all of them — are one such block as they stand.
    """
    sums = np.sum(terms, axis=1)
    for length in np.unique(lengths[lengths < terms.shape[1]]).tolist():
        members = np.flatnonzero(lengths == length)
        sums[members] = np.sum(terms[members, :length], axis=1)
    return sums


def _entropies(attention: AttentionGrid) -> np.ndarray:
    """Shannon entropy (nats) of every distribution in the grid."""
    p = np.clip(attention.weights, _EPS, None)
    return -_sums_by_length(p * np.log(p), attention.lengths)


class _StateArrays(dict):
    """A training state's arrays; a missing name is refused by name."""

    def __missing__(self, name: str):
        raise ValueError(f"training state has no {name!r} array")


class WidenTrainer:
    """Trains a :class:`WidenModel` on one graph (Algorithm 3)."""

    def __init__(
        self,
        model: WidenModel,
        graph: HeteroGraph,
        config: Optional[WidenConfig] = None,
        seed: SeedLike = None,
        registry: Optional[MetricsRegistry] = None,
        objective: Optional[Objective] = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config or model.config
        self.objective = objective if objective is not None else Classification()
        # Per-epoch scalars/series go to this registry (the process-wide one
        # unless a private registry is injected, e.g. by tests).
        self.registry = registry if registry is not None else get_registry()
        sample_rng, self._shuffle_rng, self._drop_rng = spawn_rngs(seed, 3)
        self.store = NeighborStateStore(
            graph,
            num_wide=self.config.num_wide,
            num_deep=self.config.num_deep,
            num_deep_walks=self.config.num_deep_walks,
            rng=sample_rng,
        )
        self.optimizer = Adam(
            model.parameters() + self.objective.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainHistory()
        self._epoch = 0
        # Hoisted instruments: one dict lookup at construction, plain
        # attribute access on the per-node hot path.
        self._bind_instruments()
        # Per-epoch trigger accounting, reset by epoch_begin.
        self._trigger_checks = 0
        self._trigger_fired = 0
        self._kl_values: List[float] = []
        # Phase state between epoch_begin and epoch_finish.
        self._schedule: Optional[np.ndarray] = None
        self._owned_lookup: Optional[np.ndarray] = None
        self._label_chunks: List[np.ndarray] = []
        self._prediction_chunks: List[np.ndarray] = []
        self._acc_loss_sum = 0.0
        self._acc_nodes = 0
        self._acc_wide_drops = 0
        self._acc_deep_drops = 0
        self._acc_wide_messages = 0
        self._acc_deep_messages = 0
        # Algorithm 3's current representations v_t ("replace" mode): every
        # processed node's embedding replaces its row, so neighbors read
        # refined embeddings.  In "project" mode neighbors are fresh feature
        # projections and no table is kept.
        self.node_state = (
            model.initial_node_state(graph)
            if self.config.embedding_mode == "replace"
            else None
        )

    def _bind_instruments(self) -> None:
        self._wide_entropy = self.registry.histogram(
            "train_attention_entropy", path="wide"
        )
        self._deep_entropy = self.registry.histogram(
            "train_attention_entropy", path="deep"
        )
        self._kl_hist = self.registry.histogram("train_kl_divergence")
        self.pack_counters = PackCounters(self.registry)

    def set_registry(self, registry: MetricsRegistry) -> None:
        """Repoint per-epoch series and hot-path instruments at ``registry``.

        Shard engines rebuild their trainer through ``WidenClassifier.bind``
        (which constructs it against the process-wide registry) and then
        attach their private, mergeable registry here so training telemetry
        flows through the same per-shard snapshot path serving uses.
        """
        self.registry = registry
        self._bind_instruments()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, train_nodes: np.ndarray, epochs: int) -> TrainHistory:
        """Run ``epochs`` training epochs over ``train_nodes``.

        ``train_nodes`` are the objective's examples — labeled node ids,
        walk anchors or edge ids.  Drives a single-client
        :class:`~repro.core.train_loop.TrainLoop` over this trainer's
        phases — the same sequencing code distributed training runs over a
        shard fleet, taking the exact single-process path through gradient
        reduction (one contributor → grads untouched).
        """
        loop = TrainLoop(
            [LocalTrainClient(self)],
            self.config,
            registry=self.registry,
            history=self.history,
        )
        return loop.run(train_nodes, epochs)

    # ------------------------------------------------------------------
    # Training phases (driven by TrainLoop)
    # ------------------------------------------------------------------

    def epoch_begin(
        self, train_nodes: np.ndarray, owned: Optional[np.ndarray] = None
    ) -> dict:
        """Phase 1: neighbor-state refresh + this epoch's minibatch schedule.

        Consumes the epoch's ``shuffle_rng`` draws (refresh sample and the
        schedule permutation), so replicas restored from the same checkpoint
        compute the *same* schedule locally — a distributed microbatch is
        just a start offset.  ``owned`` (global node ids) restricts which
        schedule rows this trainer actually computes; the schedule itself is
        always global so offsets mean the same thing on every shard.
        """
        train_nodes = np.asarray(train_nodes, dtype=np.int64)
        trained = self.objective.epoch_begin(self.graph, train_nodes)
        self.model.train()
        with trace_span("trainer.refresh_states"):
            self._refresh_states(trained)
        order = self._shuffle_rng.permutation(train_nodes.size)
        self._schedule = train_nodes[order]
        if owned is None:
            self._owned_lookup = None
        else:
            lookup = np.zeros(self.graph.num_nodes, dtype=bool)
            lookup[np.asarray(owned, dtype=np.int64)] = True
            self._owned_lookup = lookup
        self._trigger_checks = 0
        self._trigger_fired = 0
        self._kl_values = []
        self._label_chunks = []
        self._prediction_chunks = []
        self._acc_loss_sum = 0.0
        self._acc_nodes = 0
        self._acc_wide_drops = 0
        self._acc_deep_drops = 0
        self._acc_wide_messages = 0
        self._acc_deep_messages = 0
        return {"epoch": int(self._epoch), "num_nodes": int(self._schedule.size)}

    def run_microbatch(self, start: int, update=None) -> dict:
        """Phase 2: apply the previous step's update, then forward/backward
        over one schedule slice (owned rows).

        ``update`` is the previous global step's reduced ``(grads, norm)``
        (``None`` on an epoch's first step), applied through
        :meth:`apply_update` before anything else — also on a shard that
        owns no row of this slice, so every replica steps in lockstep.
        Then one forward over the node ids the objective names for the
        slice's examples, Eq. 9 downsampling over the same rows, and the
        objective's loss over the table.  Returns the number of examples
        this trainer computed (its reduction weight), their loss sum and,
        when it computed any, the batch's gradients — live references, one
        entry per parameter (``None`` where nothing flowed).
        """
        if self._schedule is None:
            raise RuntimeError("run_microbatch called before epoch_begin")
        if update is not None:
            self.apply_update(*update)
        self.model.train()  # inference since the last step left eval mode
        batch = self._schedule[int(start) : int(start) + self.config.batch_size]
        if self._owned_lookup is not None:
            batch = batch[self._owned_lookup[batch]]
        if batch.size == 0:
            return {"count": 0, "loss_sum": 0.0}
        with trace_span("trainer.batch", size=int(batch.size)):
            nodes, loss_of = self.objective.microbatch(self, batch)
            ((rows, table, wide_att, deep_att),) = self._forward_chunks(
                self.store, self.graph, self.node_state, nodes,
                replace=self.node_state is not None, batch_size=nodes.size,
            )
            # Every pack in M° (wide set + target) or M▷ is one message
            # through PASS°/PASS▷ — the unit of Fig. 4's volume axis.
            if wide_att is not None:
                self._acc_wide_messages += int(wide_att.lengths.sum())
                self._wide_entropy.observe_many(_entropies(wide_att).tolist())
            if deep_att is not None:
                self._acc_deep_messages += int(deep_att.lengths.sum())
                self._deep_entropy.observe_many(_entropies(deep_att).tolist())
            wide_drops, deep_drops = self._maybe_downsample(rows, wide_att, deep_att)
            self._acc_wide_drops += wide_drops
            self._acc_deep_drops += deep_drops
            self.optimizer.zero_grad()
            loss, labeled = loss_of(table)
            loss_sum = 0.0
            if loss is not None:
                loss.backward()
                loss_sum = loss.item() * batch.size
            if labeled is not None:
                self._label_chunks.append(labeled[0])
                self._prediction_chunks.append(labeled[1])
            self._acc_loss_sum += loss_sum
            self._acc_nodes += int(batch.size)
        return {
            "count": int(batch.size),
            "loss_sum": float(loss_sum),
            "grads": [param.grad for param in self.optimizer.parameters],
        }

    def apply_update(
        self,
        grads: Optional[List[Optional[np.ndarray]]] = None,
        norm: Optional[float] = None,
    ) -> None:
        """Install reduced gradients, clip, and step the optimizer.

        ``norm`` is the globally agreed pre-clip norm — every replica must
        scale by the same factor or they drift.  Called with ``grads=None``
        the trainer clips/steps its own backward's gradients (the pre-phase
        monolith's behavior).  The step runs even when this shard contributed
        no rows: Adam's bias correction counts steps, so replicas step in
        lockstep.
        """
        # The optimizer's own list, built once from ``model.parameters()``:
        # walking the module tree again on every step costs as much as the
        # optimizer step itself.
        parameters = self.optimizer.parameters
        if grads is not None:
            if len(grads) != len(parameters):
                raise ValueError(
                    f"got {len(grads)} gradients for {len(parameters)} parameters"
                )
            for param, grad in zip(parameters, grads):
                param.grad = grad
        if self.config.grad_clip > 0:
            clip_grad_norm(parameters, self.config.grad_clip, norm=norm)
        self.optimizer.step()

    def epoch_finish(self, update=None) -> dict:
        """Phase 3: apply the epoch's last update, close the epoch and
        return its stats payload.

        Labels/predictions come back in schedule order (owned rows only) so
        the loop can pool confusion-matrix F1 across shards; KL values come
        back raw for the same reason.  Advances the epoch counter — the KL
        trigger and refresh schedules key off it.
        """
        if self._schedule is None:
            raise RuntimeError("epoch_finish called before epoch_begin")
        if update is not None:
            self.apply_update(*update)
        empty = np.empty(0, dtype=np.int64)
        payload = {
            "loss_sum": float(self._acc_loss_sum),
            "node_count": int(self._acc_nodes),
            "wide_drops": int(self._acc_wide_drops),
            "deep_drops": int(self._acc_deep_drops),
            "wide_messages": int(self._acc_wide_messages),
            "deep_messages": int(self._acc_deep_messages),
            "trigger_checks": int(self._trigger_checks),
            "trigger_fires": int(self._trigger_fired),
            "kl_values": [float(value) for value in self._kl_values],
            "labels": (
                np.concatenate(self._label_chunks) if self._label_chunks else empty
            ),
            "predictions": (
                np.concatenate(self._prediction_chunks)
                if self._prediction_chunks
                else empty
            ),
        }
        self._schedule = None
        self._owned_lookup = None
        self._label_chunks = []
        self._prediction_chunks = []
        self._epoch += 1
        return payload

    def _refresh_states(self, train_nodes: np.ndarray) -> None:
        """Forward-only embedding refresh for a sample of non-training nodes.

        Algorithm 3 iterates over all of V, updating every node's embedding
        while masking unlabeled nodes from the loss.  Refreshing a random
        ``refresh_fraction`` of the remaining nodes per epoch reproduces that
        propagation (multi-hop information spreads through the state table)
        at a fraction of the cost.
        """
        fraction = self.config.refresh_fraction
        if self.node_state is None or fraction <= 0 or self._epoch == 0:
            # Skip in epoch 0: every row is still the (normalized) feature
            # projection, and the model has not learned anything to propagate.
            return
        others = np.setdiff1d(
            np.arange(self.graph.num_nodes), np.asarray(train_nodes)
        )
        count = int(round(fraction * others.size))
        if count == 0:
            return
        sample = others[self._shuffle_rng.permutation(others.size)[:count]]
        with no_grad():
            for _ in self._forward_chunks(
                self.store, self.graph, self.node_state, sample, replace=True
            ):
                pass  # run for the write-back

    def _forward_chunks(
        self,
        store: NeighborStateStore,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray],
        node_ids: np.ndarray,
        *,
        replace: bool = False,
        batch_size: Optional[int] = None,
    ):
        """``forward_batch`` over ``node_ids``, one ``batch_size`` slice at a time.

        The one place the trainer turns node ids into a model call: training
        minibatches (one slice of all the objective's ids), the per-epoch
        refresh, the inductive warm-up and evaluation all iterate this, each
        under its own grad/eval context.  ``batch_size`` defaults to the
        config's.  Yields ``(rows, embeddings, wide_attention,
        deep_attention)`` per slice, ``rows`` being the slice's rows in
        ``store.table``.  With ``replace`` a slice's embeddings overwrite its
        ``node_state`` rows before the next slice is computed — line 8 of
        Algorithm 3 in its synchronous minibatch form: every row of a slice
        reads the table as it stood before the slice (DESIGN.md, "One
        forward at run time").
        """
        batch_size = max(1, batch_size or self.config.batch_size)
        for start in range(0, len(node_ids), batch_size):
            chunk = node_ids[start : start + batch_size]
            rows = store.rows_for(chunk)
            embeddings, wide_att, deep_att = self.model.forward_batch(
                store.table.take(rows), graph, node_state, counters=self.pack_counters
            )
            if replace:
                node_state[chunk] = embeddings.data
            yield rows, embeddings, wide_att, deep_att

    # ------------------------------------------------------------------
    # Active downsampling (Algorithms 1-2 + Eq. 9 trigger)
    # ------------------------------------------------------------------

    def _maybe_downsample(
        self,
        rows: np.ndarray,
        wide_att: Optional[AttentionGrid],
        deep_att: Optional[AttentionGrid],
    ) -> Tuple[int, int]:
        """Trigger + downsample one minibatch; returns ``(wide, deep)`` drops.

        ``rows`` are the minibatch's rows in ``self.store.table`` and the
        grids the attention its forward just produced.  Which segments fire
        is decided for the whole batch at once (:meth:`_fires`); only those
        go through :func:`shrink_wide` / :func:`prune_deep`, target by
        target — wide first, then each walk — which is the order the
        random modes draw their victims in.
        """
        config = self.config
        table = self.store.table
        num_walks = table.num_walks
        wide_fires = np.zeros(rows.size, bool)
        deep_fires = np.zeros((rows.size, num_walks), bool)
        kl = np.full((rows.size, 1 + num_walks), np.nan)
        wide_mode = config.effective_wide_mode
        deep_mode = config.effective_deep_mode
        if wide_att is not None and wide_mode != "off":
            wide_fires, kl[:, 0] = self._fires(
                # Random downsampling (Table 4) removes the KL trigger.
                "always" if wide_mode == "random" else config.trigger,
                wide_att,
                table.wide_len[rows] > config.wide_floor,
                table.prev_wide, table.prev_wide_len, rows,
                config.wide_threshold,
            )
        if deep_att is not None and deep_mode != "off":
            # Walk (row, phi) is segment row·Φ + phi of the flattened columns.
            walks = (rows[:, np.newaxis] * num_walks + np.arange(num_walks)).ravel()
            fires, walk_kl = self._fires(
                "always" if deep_mode == "random" else config.trigger,
                deep_att,
                table.deep_len.reshape(-1)[walks] > config.deep_floor,
                table.prev_deep.reshape(-1, table.num_deep + 1),
                table.prev_deep_len.reshape(-1),
                walks,
                config.deep_threshold,
            )
            deep_fires = fires.reshape(deep_fires.shape)
            kl[:, 1:] = walk_kl.reshape(deep_fires.shape)
        checks = kl[~np.isnan(kl)].tolist()  # target-major: wide, then walks
        self._trigger_checks += len(checks)
        self._kl_values.extend(checks)
        self._kl_hist.observe_many(checks)
        wide_drops, deep_drops = int(wide_fires.sum()), int(deep_fires.sum())
        self._trigger_fired += wide_drops + deep_drops

        for b in np.flatnonzero(wide_fires | deep_fires.any(axis=1)).tolist():
            row = int(rows[b])
            if wide_fires[b]:
                wide = table.wide(row)
                if wide_mode == "attentive":
                    wide = shrink_wide(wide, wide_att.weights[b, : len(wide) + 1])
                else:
                    wide = wide.drop(int(self._drop_rng.integers(len(wide))))
                table.set_wide(row, wide)
            for phi in np.flatnonzero(deep_fires[b]).tolist():
                deep = table.walk(row, phi)
                if deep_mode == "attentive":
                    weights = deep_att.weights[b * num_walks + phi, : len(deep) + 1]
                else:
                    weights = np.ones(len(deep) + 1)
                    victim = int(self._drop_rng.integers(len(deep)))
                    weights[victim + 1] = 0.0  # force the random victim
                table.set_walk(
                    row, phi, prune_deep(deep, weights, use_relay=config.use_relay)
                )
        return wide_drops, deep_drops

    def _fires(
        self,
        trigger: str,
        attention: AttentionGrid,
        eligible: np.ndarray,
        prev: np.ndarray,
        prev_len: np.ndarray,
        segments: np.ndarray,
        threshold: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 9 for the ``S`` segments of one side: ``(fires, kl)``.

        KL between the remembered attention distribution and this epoch's
        over the SAME neighbor set; +∞ (no fire) when nothing comparable is
        remembered — first epoch, or a set that changed since (a downsample
        zeroes ``prev_len``).  ``kl`` is NaN where Eq. 9 was not evaluated:
        every evaluation is a *trigger check* (the value lands in the
        ``train_kl_divergence`` histogram), every ``True`` a *trigger fire*
        — ``metrics.jsonl`` then shows when in training the downsampler
        became active.

        ``segments`` are the batch's rows in ``prev``/``prev_len``, the
        trigger memory, which is updated here: a segment that fires forgets
        its distribution, an ``eligible`` (above the floor) one that does
        not remembers this epoch's, the rest are left alone.
        """
        weights, lengths = attention
        width = weights.shape[1]
        fires = np.zeros(lengths.size, bool)
        kl = np.full(lengths.size, np.nan)
        if trigger == "always":
            fires = eligible
        elif trigger == "kl" and self._epoch >= 1:
            # Algorithm 3 line 9: only from the second epoch on.
            members = np.flatnonzero(eligible & (prev_len[segments] == lengths))
            p = np.clip(prev[segments[members], :width], _EPS, None)
            q = np.clip(weights[members], _EPS, None)
            kl[members] = _sums_by_length(p * np.log(p / q), lengths[members])
            fires[members] = kl[members] < threshold
        keep = eligible & ~fires
        prev[segments[keep], :width] = weights[keep]
        prev_len[segments[keep]] = lengths[keep]
        prev_len[segments[fires]] = 0
        return fires, kl

    # ------------------------------------------------------------------
    # Rng persistence
    # ------------------------------------------------------------------

    def rng_state(self) -> dict:
        """Serializable snapshot of every rng stream training consumes.

        Covers epoch shuffling, random-mode downsampling victims, neighbor
        sampling and both dropout masks — restoring it makes the *stochastic
        decisions* of subsequent epochs identical to an uninterrupted run;
        with :meth:`training_state` (optimizer moments, epoch, neighbor sets,
        stored together with it in a checkpoint) resume is bit-identical.
        """
        return {
            "shuffle": self._shuffle_rng.bit_generator.state,
            "drop": self._drop_rng.bit_generator.state,
            "store": self.store.rng_state(),
            "pack_dropout": self.model.pack_dropout.rng_state(),
            "hidden_dropout": self.model.hidden_dropout.rng_state(),
        }

    def load_rng_state(self, state: dict) -> None:
        """Restore a :meth:`rng_state` snapshot onto the live generators."""
        self._shuffle_rng.bit_generator.state = state["shuffle"]
        self._drop_rng.bit_generator.state = state["drop"]
        self.store.load_rng_state(state["store"])
        self.model.pack_dropout.load_rng_state(state["pack_dropout"])
        self.model.hidden_dropout.load_rng_state(state["hidden_dropout"])

    # ------------------------------------------------------------------
    # Training-progress persistence
    # ------------------------------------------------------------------

    def training_state(self) -> dict:
        """Everything beyond parameters + rng that exact resume needs.

        Adam's moments/step count drive the next update's magnitude; the
        epoch counter gates the KL trigger and state-refresh schedules; the
        neighbor store's cached (and possibly downsampled) per-node sets
        plus the refined node-state table are the training-time state the
        next epoch reads.  Together with :meth:`rng_state` this makes
        ``fit(n); save; load; fit(m)`` bit-identical to ``fit(n + m)`` on
        the same graph.

        ``{"epoch", "step_count", "arrays"}``: two ints and flat named
        arrays, all copies — the store table's :meth:`NeighborTable.arrays`,
        one ``"<slot>.<i>"`` per optimizer slot and parameter, and
        ``node_state`` in replace mode.
        """
        optimizer = self.optimizer.state_dict()
        arrays = self.store.table.arrays()
        for slot, moments in optimizer["slots"].items():
            arrays.update((f"{slot}.{i}", moment) for i, moment in enumerate(moments))
        if self.node_state is not None:
            arrays["node_state"] = self.node_state.copy()
        return {
            "epoch": int(self._epoch),
            "step_count": int(optimizer["step_count"]),
            "arrays": arrays,
        }

    def load_training_state(self, state: dict) -> None:
        """Restore a :meth:`training_state` snapshot; an array it lacks is
        refused by name.

        Only valid against a graph equivalent to the one the snapshot was
        taken on — neighbor sets reference node ids and the node-state
        table is indexed by them.  The serving path is unaffected either
        way (it always samples fresh stores).
        """
        arrays = _StateArrays(state["arrays"])
        self._epoch = int(state["epoch"])
        self.optimizer.load_state_dict({
            "step_count": state["step_count"],
            "slots": {
                slot: [arrays[f"{slot}.{i}"] for i in range(len(moments))]
                for slot, moments in self.optimizer.state_dict()["slots"].items()
            },
        })
        self.store.load_table(NeighborTable.from_arrays(arrays))
        if self.node_state is not None or "node_state" in arrays:
            node_state = arrays["node_state"]
            if self.node_state is None or self.node_state.shape != node_state.shape:
                raise ValueError(
                    "checkpoint carries a node-state table that does not "
                    "match this trainer's (embedding_mode/graph mismatch)"
                )
            np.copyto(self.node_state, node_state)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def embed(self, nodes: Sequence[int]) -> np.ndarray:
        """Embeddings for nodes of the training graph (persistent states).

        Evaluation reads the refined node-state table but never mutates it.
        """
        return self._embed_with(self.store, self.graph, self.node_state, nodes)

    def embed_inductive(
        self,
        graph: HeteroGraph,
        nodes: Sequence[int],
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Embeddings for nodes of an *unseen* graph (fresh neighbor sets).

        This is the paper's inductive protocol: the model was trained with
        these nodes absent, and now embeds them purely from features and
        sampled neighborhoods — no identity lookup anywhere.

        In ``"replace"`` mode one refinement pass is first run over the
        requested nodes' sampled neighbors so their table entries
        approximate the refined representations they would carry after
        training — the streaming analogue of Algorithm 3's embedding
        replacement.
        """
        store = NeighborStateStore(
            graph,
            num_wide=self.config.num_wide,
            num_deep=self.config.num_deep,
            num_deep_walks=self.config.num_deep_walks,
            rng=rng,
        )
        if self.config.embedding_mode != "replace":
            return self._embed_with(store, graph, None, nodes)
        node_state = self.model.initial_node_state(graph)
        sampled = store.batch(nodes)
        wide_real = np.arange(sampled.num_wide) < sampled.wide_len[:, np.newaxis]
        deep_real = np.arange(sampled.num_deep) < sampled.deep_len[..., np.newaxis]
        warm_nodes = np.setdiff1d(
            np.concatenate(
                [sampled.wide_nodes[wide_real], sampled.deep_nodes[deep_real]]
            ),
            sampled.targets,
        )
        self.model.eval()
        with no_grad():
            for _ in self._forward_chunks(
                store, graph, node_state, warm_nodes, replace=True
            ):
                pass  # run for the write-back
        self.model.train()
        return self._embed_with(store, graph, node_state, nodes)

    def _embed_with(
        self,
        store: NeighborStateStore,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray],
        nodes: Sequence[int],
    ) -> np.ndarray:
        self.model.eval()
        node_ids = np.asarray([int(node) for node in nodes], dtype=np.int64)
        with no_grad():
            rows = [
                embeddings.data
                for _, embeddings, _, _ in self._forward_chunks(
                    store, graph, node_state, node_ids
                )
            ]
        self.model.train()
        return np.concatenate(rows, axis=0)

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        """Class predictions from embeddings."""
        with no_grad():
            logits = self.model.logits(Tensor(embeddings))
        return logits.data.argmax(axis=1)
