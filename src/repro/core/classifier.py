"""Adapter exposing WIDEN through the shared baseline interface.

Benchmarks and protocol runners treat every model as a
:class:`~repro.baselines.common.BaseClassifier`; this wraps
:class:`WidenModel` + :class:`WidenTrainer` behind that interface so WIDEN
slots into the same harness rows as the baselines.

Persistence: :meth:`WidenClassifier.save` writes a *self-describing*
checkpoint — parameters plus hyperparameters, seed, the dataset schema the
model was trained against and the trainer's state — and
:meth:`WidenClassifier.load` rebuilds a ready-to-serve classifier from it
without a training graph.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.baselines.common import BaseClassifier
from repro.codec import ProtocolError, Record, decode, publish, read_record
from repro.core.config import WidenConfig
from repro.core.model import HALF_FORWARD_GONE, WidenModel
from repro.core.state import NeighborStateStore, NeighborTable
from repro.core.trainer import WidenTrainer
from repro.graph import HeteroGraph
from repro.tensor import no_grad
from repro.utils.rng import SeedLike, spawn_rngs

# A checkpoint is one ``"checkpoint"`` record frame (repro.codec): the
# metadata (config, seed, schema, rng streams, epoch and step count), the
# parameters and the trainer's arrays.  v5 made it a frame; v4 was a zip of
# arrays and older versions held Python objects, and all are refused.
CHECKPOINT_FORMAT_VERSION = 5
_RETRAIN = "python -m repro train <dataset> --shards 1 --checkpoint-out DIR"
#: ``WidenConfig`` keys that became constants while the checkpoint format
#: stayed v5: a saved key is dropped when it holds the one value the code
#: now hard-wires and refused otherwise.  Any other unknown key still fails.
_RETIRED_CONFIG = {"num_heads": 1}


def _at_least_two(count: int) -> np.ndarray:
    """Rows ``0..count-1``, a lone row repeated once.

    BLAS dispatches single-row matmuls to gemv, whose summation order
    differs from the gemm kernel every larger batch hits, while gemm row
    results do not depend on which other rows share the call.  Padding a
    batch of one with a copy of itself gives its answer the same bits as
    the same node served inside any larger batch — the sharded router
    relies on that to stay exactly equal to a single server whatever the
    miss batches look like on either side.
    """
    return np.arange(max(count, 2)) % count


# Rows per gemm block for the classifier head: 16 is a multiple of the
# dgemm row unroll of both OpenBLAS's Haswell (4) and SkylakeX (16) kernels.
_HEAD_ROW_BLOCK = 16


def _whole_row_blocks(count: int) -> np.ndarray:
    """Rows ``0..count-1`` padded with repeats to whole head row blocks.

    A gemm with few output columns (a classifier head over two or three
    classes) is row-count dependent beyond gemv: a row in the last partial
    block of the kernel's row unroll is summed in another order than the
    same row in a full block.  Padding to whole blocks gives every row the
    full-block bits (measured on OpenBLAS 0.3.31 Haswell kernels).
    """
    return np.arange(-(-count // _HEAD_ROW_BLOCK) * _HEAD_ROW_BLOCK) % count


class WidenClassifier(BaseClassifier):
    """WIDEN as a drop-in classifier."""

    name = "widen"

    def __init__(
        self,
        config: Optional[WidenConfig] = None,
        seed: SeedLike = None,
        **config_overrides,
    ) -> None:
        super().__init__()
        if config is None:
            defaults = dict(
                dim=32, num_wide=10, num_deep=8, num_deep_walks=2,
                learning_rate=1e-2, dropout=0.5,
            )
            defaults.update(config_overrides)
            config = WidenConfig(**defaults)
        elif config_overrides:
            config = dataclasses.replace(config, **config_overrides)
        self.config = config
        # Remember the original seed when it round-trips through JSON; a
        # caller-supplied Generator has consumed state we cannot serialize.
        self._seed = int(seed) if isinstance(seed, (int, np.integer)) else None
        self._model_seed, self._trainer_seed, self._eval_seed = spawn_rngs(seed, 3)
        self.model: Optional[WidenModel] = None
        self.trainer: Optional[WidenTrainer] = None
        self._schema: Optional[dict] = None
        # Checkpoint snapshots applied by the next bind(): the rng streams
        # and the training state.
        self._pending_rng_state: Optional[dict] = None
        self._pending_training_state: Optional[dict] = None

    def _build(self, graph: HeteroGraph) -> None:
        self._schema = self._graph_schema(graph)
        self.model = WidenModel(
            graph.features.shape[1],
            graph.num_edge_types_with_loops,
            graph.num_classes,
            self.config,
            seed=self._model_seed,
        )
        self.trainer = WidenTrainer(self.model, graph, self.config, seed=self._trainer_seed)

    def _on_rebind(self, graph: HeteroGraph) -> None:
        # Keep the trained parameters; rebuild the graph-bound trainer state
        # (neighbor stores, embedding table) for the new graph.
        self.trainer = WidenTrainer(
            self.model, graph, self.config, seed=self._trainer_seed
        )

    def _train_epoch(self, train_nodes: np.ndarray) -> float:
        history = self.trainer.fit(train_nodes, epochs=1)
        return history.losses[-1]

    def _embed(self, nodes: np.ndarray, graph: HeteroGraph) -> np.ndarray:
        if graph is self.graph:
            return self.trainer.embed(nodes)
        return self.trainer.embed_inductive(graph, nodes, rng=self._eval_seed)

    def _predict(self, nodes: np.ndarray, graph: HeteroGraph) -> np.ndarray:
        return self.trainer.predict(self._embed(nodes, graph))

    def num_parameters(self) -> int:
        return 0 if self.model is None else self.model.num_parameters()

    # ------------------------------------------------------------------
    # Serving hooks (repro.serve)
    # ------------------------------------------------------------------

    def predict_from_embeddings(self, embeddings: np.ndarray) -> np.ndarray:
        """Class predictions from precomputed embeddings (the serving head).

        The rows are padded to whole gemm blocks (:func:`_whole_row_blocks`)
        and the padding dropped, so a node's logits, and with them its
        label, have the same bits whichever batch it was labelled in.
        """
        if self.trainer is None:
            raise RuntimeError("predict_from_embeddings before fit/bind")
        embeddings = np.asarray(embeddings, dtype=np.float64)
        count = embeddings.shape[0]
        if count % _HEAD_ROW_BLOCK:
            embeddings = embeddings.take(_whole_row_blocks(count), axis=0)
        return self.trainer.predict(embeddings)[:count]

    def _sample_for_serving(self, nodes: np.ndarray, graph: HeteroGraph, seed: int):
        """Fresh samples of ``nodes[_at_least_two(B)]`` keyed ``(seed, node)``,
        in a table of exactly those rows, plus the ``B`` read sets."""
        config = self.config
        rows = _at_least_two(nodes.size)
        store = NeighborStateStore(
            graph,
            num_wide=config.num_wide,
            num_deep=config.num_deep,
            num_deep_walks=config.num_deep_walks,
            rng=seed,
        )
        store.table = NeighborTable(
            config.num_wide, config.num_deep, config.num_deep_walks,
            capacity=rows.size,
        )
        store.sample_fresh(nodes[rows])
        return store.table, store.table.read_sets()[: nodes.size]

    def embed_for_serving_batch(
        self, nodes: np.ndarray, graph: HeteroGraph, seed: int, counters=None
    ):
        """Batched identity-free serving compute (the server's cold path).

        Each node's neighborhoods are keyed by ``(seed, node)``, so every
        row equals what the per-node reference
        :meth:`~repro.core.trainer.WidenTrainer.embed_inductive` returns for
        that node alone — responses stay independent of batch composition —
        while the sampling is one array pass and all the forwards run
        through one vectorized
        :meth:`~repro.core.model.WidenModel.forward_batch` call, in eval
        mode: serving sets it here and leaves it so (training sets its own
        mode at every step).  ``counters`` are the caller's bound
        :class:`~repro.core.packing.PackCounters`.

        Returns ``(embeddings, reads)``: row ``i`` of ``reads`` is node
        ``i``'s read set (:meth:`NeighborTable.read_sets`).  A classifier
        outside the serving contract (:func:`serving_refusal`) is refused.
        """
        if self.trainer is None:
            raise RuntimeError("embed_for_serving_batch before fit/bind")
        reason = serving_refusal(self)
        if reason is not None:
            raise ValueError(reason)
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return np.empty((0, self.config.dim)), None
        model = self.trainer.model
        model.eval()
        table, reads = self._sample_for_serving(nodes, graph, seed)
        with no_grad():
            embeddings, _, _ = model.forward_batch(table, graph, counters=counters)
        return embeddings.data[: nodes.size], reads

    # ------------------------------------------------------------------
    # Materialized-answer hooks (repro.store)
    # ------------------------------------------------------------------

    def params_digest(self) -> str:
        """Content hash of the model parameters (the store's checkpoint id).

        A materialized store holds finished embeddings, so it is only
        valid against the exact parameters that produced them; the digest
        lets :class:`repro.store.AggregateStore` refuse a mismatched model
        instead of silently serving another model's answers.
        """
        if self.model is None:
            raise RuntimeError("params_digest before fit/load")
        import hashlib

        digest = hashlib.sha256()
        state = self.model.state_dict()
        for name in sorted(state):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(state[name]).tobytes())
        return digest.hexdigest()[:16]

    def materialize_store_rows(self, nodes: np.ndarray, graph: HeteroGraph, seed: int):
        """Store rows for ``nodes``: ``(embeddings, reads)``.

        The store's build hook, and nothing but the serving miss path
        (:meth:`embed_for_serving_batch` with its read sets) — a stored
        row *is* the answer a recompute under the same seed returns, until
        a write touches a list in its read set.
        """
        return self.embed_for_serving_batch(nodes, graph, seed)

    def embed_from_store_blocks(self, *args, **kwargs):
        """Gone with store format v3; kept as a name for ``benchmarks/perf``."""
        raise RuntimeError(HALF_FORWARD_GONE)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @staticmethod
    def _graph_schema(graph: HeteroGraph) -> dict:
        return {
            "num_features": int(graph.features.shape[1]),
            "num_edge_types_with_loops": int(graph.num_edge_types_with_loops),
            "num_classes": int(graph.num_classes),
            "node_type_names": list(graph.node_type_names),
            "edge_type_names": list(graph.edge_type_names),
        }

    def bind(self, graph: HeteroGraph) -> "WidenClassifier":
        """Attach ``graph`` for inference without touching parameters.

        Validates the graph against the schema captured at build/save time,
        then rebuilds the graph-bound trainer state (neighbor stores).  Use
        after :meth:`load` to point a restored model at a serving graph, or
        to force a state rebuild on the current graph.
        """
        if self.model is None:
            raise RuntimeError("bind() before the model exists; fit() or load()")
        if self._schema is not None:
            incoming = self._graph_schema(graph)
            mismatched = {
                key: (self._schema[key], incoming[key])
                for key in ("num_features", "num_edge_types_with_loops", "num_classes")
                if self._schema[key] != incoming[key]
            }
            if mismatched:
                raise ValueError(
                    f"graph schema mismatch: {mismatched} "
                    "(expected vs offered; the model's parameter shapes are "
                    "fixed by the schema it was trained on)"
                )
        self.graph = graph
        self.trainer = WidenTrainer(
            self.model, graph, self.config, seed=self._trainer_seed
        )
        if self._pending_rng_state is not None:
            self.trainer.load_rng_state(self._pending_rng_state)
            self._pending_rng_state = None
        if self._pending_training_state is not None:
            self.trainer.load_training_state(self._pending_training_state)
            self._pending_training_state = None
        return self

    def to_record(self) -> Record:
        """The checkpoint :meth:`save` writes: metadata, ``parameters`` and
        the trainer's arrays.  With the rng streams the training state makes
        resume bit-identical — ``fit(n); save; load; fit(m)`` equals
        ``fit(n + m)``.  A loaded classifier not yet bound writes back the
        state it loaded."""
        if self.model is None:
            raise RuntimeError("save() before fit(); there is nothing to save")
        if self.trainer is not None:
            rng, training = self.trainer.rng_state(), self.trainer.training_state()
        else:
            rng, training = self._pending_rng_state, self._pending_training_state
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "class": self.name,
            "config": dataclasses.asdict(self.config),
            "seed": self._seed,
            "schema": self._schema,
            "trainer_rng": rng,
            "trainer": {key: training[key] for key in ("epoch", "step_count")},
        }
        parameters = self.model.state_dict()
        return Record(
            "checkpoint",
            {"meta": meta, "parameters": parameters, "trainer": training["arrays"]},
        )

    def save(self, path) -> None:
        """Write a self-describing checkpoint (parameters + config + schema
        + training state) to ``path``, atomically (:func:`repro.codec.publish`)."""
        publish(path, self.to_record())

    @classmethod
    def load(cls, path, graph: Optional[HeteroGraph] = None) -> "WidenClassifier":
        """Rebuild a classifier from :meth:`save` output — no graph needed.

        ``path`` is a path or the checkpoint's bytes (what a socket worker
        receives).  Hyperparameters, seed and schema come from the
        checkpoint.  Pass ``graph`` to bind a serving graph immediately
        (validated against the saved schema); otherwise call :meth:`bind`
        later.
        """
        named = "checkpoint bytes" if isinstance(path, bytes) else repr(str(path))
        try:
            if isinstance(path, bytes):
                payload = decode(path, Record, ("checkpoint",)).payload
            else:
                payload = read_record(path, "checkpoint")
        except ProtocolError as error:
            raise ProtocolError(
                f"{error}: not a v{CHECKPOINT_FORMAT_VERSION} checkpoint.  One "
                f"of an older format is rebuilt by training again: {_RETRAIN}"
            ) from error
        meta = payload["meta"]
        if meta["class"] != cls.name:
            raise ValueError(
                f"checkpoint {named} holds a {meta['class']!r} model, "
                f"not {cls.name!r}"
            )
        version = int(meta["format_version"])
        if version < CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {named} is format v{version}; this code "
                f"reads only v{CHECKPOINT_FORMAT_VERSION}.  Rebuild it by "
                f"training again: {_RETRAIN}"
            )
        if version > CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {named} is format v{version}, newer than "
                f"this code's v{CHECKPOINT_FORMAT_VERSION}; upgrade the "
                "code (old readers cannot know what a newer format added)"
            )
        config = dict(meta["config"])
        for key, constant in _RETIRED_CONFIG.items():
            if key in config and config.pop(key) != constant:
                raise ValueError(
                    f"checkpoint {named} sets {key}={meta['config'][key]!r}; "
                    f"this code hard-wires {key}={constant!r}, so its "
                    f"parameters would serve a different model.  Rebuild it "
                    f"by training again: {_RETRAIN}"
                )
        classifier = cls(config=WidenConfig(**config), seed=meta["seed"])
        schema = classifier._schema = meta["schema"]
        classifier.model = WidenModel(
            schema["num_features"],
            schema["num_edge_types_with_loops"],
            schema["num_classes"],
            classifier.config,
            seed=classifier._model_seed,
        )
        classifier.model.load_state_dict(payload["parameters"])
        classifier._pending_rng_state = meta["trainer_rng"]
        classifier._pending_training_state = dict(
            meta["trainer"], arrays=payload["trainer"]
        )
        if graph is not None:
            classifier.bind(graph)
        return classifier


def serving_refusal(classifier) -> Optional[str]:
    """``None`` if ``classifier`` meets the serving contract; otherwise why not.

    Serving (server, router, store) takes a :class:`WidenClassifier` in
    ``"project"`` embedding mode: its answers name the adjacency lists they
    read, which is what keeps a cached or stored answer exact until a write
    touches one.  ``"replace"`` mode stays a training mode.
    """
    if not isinstance(classifier, WidenClassifier):
        return f"serving takes a WidenClassifier, not {type(classifier).__name__}"
    if classifier.config.embedding_mode != "project":
        return (
            "serving takes embedding_mode='project'; 'replace' warms a "
            "per-call state table, so its answers name no read set"
        )
    return None

