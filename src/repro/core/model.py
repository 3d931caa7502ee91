"""The WIDEN model: heterogeneous message packaging + wide/deep passing.

One forward pass for a target node ``v_t`` (Section 3):

1. ``pack_wide`` builds ``M°`` (Eq. 1): row 0 is the target's own pack
   ``v_t ⊙ e_{t,t}`` (self-loop edge embedding of its node type); the rest
   are ``v_n ⊙ e_{n,t}`` over the wide neighbor set.
2. ``pack_deep`` builds ``M▷`` (Eq. 2) the same way over a deep random-walk
   sequence, where each pack's edge links it to its *predecessor*.  Pruned
   positions carry :class:`~repro.core.relay.RelayRecipe` edges which are
   re-evaluated against current parameters (Eq. 8).
3. PASS° (Eq. 3): the target's pack queries ``M°`` through a self-attention
   unit, yielding ``h_t°`` and the attention distribution the downsampler
   consumes.
4. PASS▷ (Eqs. 4-6): successive self-attention with the causal mask Θ
   refines ``M▷`` into ``H▷``; the target's pack then queries ``H▷`` (keys)
   against ``M▷`` (values), yielding ``h_t▷`` per walk; the Φ walks are
   average-pooled.
5. FUSE (Eq. 7): ``v_t' = normalize(ReLU(W [h°; h▷] + b))``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import WidenConfig
from repro.core.packing import AttentionGrid, PackCounters, PackedBatch, pack_batch
from repro.core.relay import EdgeSpecLike, RelayRecipe
from repro.core.state import NeighborState, NeighborTable
from repro.graph import HeteroGraph
from repro.graph.sampling import DeepNeighborSet, WideNeighborSet
from repro.nn import (
    Dropout,
    Embedding,
    Linear,
    Module,
    QueryAttention,
    SelfAttention,
    causal_mask,
)
from repro.obs.tracing import span as trace_span
from repro.tensor import Tensor, functional as F, ops
from repro.utils.rng import SeedLike, spawn_rngs

_EmbedCache = Dict[int, Tensor]

HALF_FORWARD_GONE = (
    "store rows are finished embeddings since format v4: there is no half "
    "forward to materialize or to resume (use embed_for_serving_batch)"
)


class WidenModel(Module):
    """Wide and deep message passing network.

    Parameters
    ----------
    num_features:
        Raw node feature dimension d0.
    num_edge_types:
        Size of the edge-type vocabulary **including** per-node-type
        self-loop types (``graph.num_edge_types_with_loops``).
    num_classes:
        Output classes of the semi-supervised task (Eq. 10's ``c``).
    config, seed:
        Hyperparameters and deterministic initialization seed.
    """

    def __init__(
        self,
        num_features: int,
        num_edge_types: int,
        num_classes: int,
        config: WidenConfig,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(seed, 6)
        self.config = config
        d = config.dim
        self.project = Linear(num_features, d, bias=False, rng=rngs[0])  # G^node
        self.edge_embedding = Embedding(num_edge_types, d, rng=rngs[1])  # G^edge
        self.wide_pass = QueryAttention(d, rng=rngs[2])  # Eq. 3
        self.deep_successive = SelfAttention(d, rng=rngs[3])  # Eq. 4
        self.deep_pass = QueryAttention(d, rng=rngs[4])  # Eq. 5
        self.fuse = Linear(2 * d, d, rng=rngs[5])  # Eq. 7
        self.classifier = Linear(d, num_classes, bias=False, rng=rngs[0])  # C, Eq. 10
        self.pack_dropout = Dropout(config.dropout, rng=rngs[1])
        self.hidden_dropout = Dropout(config.dropout, rng=rngs[2])

    # ------------------------------------------------------------------
    # Embeddings
    # ------------------------------------------------------------------

    def initial_node_state(self, graph: HeteroGraph) -> np.ndarray:
        """Embedding initialization for every node: ``v = x G^node``.

        Algorithm 3 *replaces* ``v_t`` with the passing output every time a
        node is processed, so neighbor packs consume progressively refined
        embeddings — this table holds those current representations.  The
        target's own pack is always recomputed from features so gradients
        reach ``G^node``; neighbor entries enter as constants (historical
        embeddings), which truncates backpropagation to one passing step
        exactly as the paper's per-node update rule implies.

        Rows are L2-normalized to match the scale of refined embeddings
        (Eq. 7 normalizes every passing output), so packs never mix raw and
        refined vectors of incomparable magnitude.
        """
        state = graph.features @ self.project.weight.data
        norms = np.linalg.norm(state, axis=1, keepdims=True)
        return state / np.maximum(norms, 1e-12)

    def fresh_projection(self, node: int, graph: HeteroGraph) -> Tensor:
        """Trainable ``v_t = x_t G^node`` for the target node itself."""
        return ops.matmul(Tensor(graph.features[node]), self.project.weight)

    def node_embedding(
        self,
        node: int,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """Current representation ``v_i`` of a *neighbor* node.

        Reads the refined embedding table when provided (the normal path);
        falls back to a fresh feature projection otherwise.
        """
        node = int(node)
        if cache is not None and node in cache:
            return cache[node]
        if node_state is not None:
            embedding = Tensor(node_state[node])
        else:
            embedding = self.fresh_projection(node, graph)
        if cache is not None:
            cache[node] = embedding
        return embedding

    def edge_vector(
        self,
        spec: EdgeSpecLike,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """Edge embedding for a plain type id, or a relay recipe (Eq. 8)."""
        if isinstance(spec, RelayRecipe):
            outer = self.edge_vector(spec.outer, graph, node_state, cache)
            deleted_pack = self.node_embedding(
                spec.deleted_node, graph, node_state, cache
            ) * self.edge_vector(spec.deleted, graph, node_state, cache)
            return ops.maximum(outer, deleted_pack)
        return self.edge_embedding(np.asarray(spec))

    def relay_vectors_bulk(
        self,
        recipes: Sequence[RelayRecipe],
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
    ) -> Tensor:
        """All relay recipes of a batch as one ``(R, d)`` tensor (Eq. 8).

        Levelized evaluation of the recipe forest: one embedding lookup
        covers every plain-edge leaf, one table read (or feature projection)
        covers every deleted node, and each nesting depth then resolves with
        a single gather → mul → maximum round.  Numerically identical to
        mapping :meth:`edge_vector` over ``recipes`` — everything here is
        elementwise — but issues O(depth) ops instead of O(recipes · depth).
        """
        leaf_etypes: List[int] = []
        # Per recipe node: (outer_ref, deleted_node, deleted_ref, level)
        # where a ref is ('leaf', i) or ('rec', i).
        rec_nodes: List[tuple] = []

        def visit(spec: EdgeSpecLike):
            if isinstance(spec, RelayRecipe):
                outer_ref, outer_level = visit(spec.outer)
                deleted_ref, deleted_level = visit(spec.deleted)
                level = max(outer_level, deleted_level) + 1
                rec_nodes.append(
                    (outer_ref, int(spec.deleted_node), deleted_ref, level)
                )
                return ("rec", len(rec_nodes) - 1), level
            leaf_etypes.append(int(spec))
            return ("leaf", len(leaf_etypes) - 1), 0

        roots = [visit(recipe)[0] for recipe in recipes]

        # Table rows: leaves first, then recipe values level by level.
        table = self.edge_embedding(np.asarray(leaf_etypes, dtype=np.int64))
        deleted_nodes = np.asarray([rec[1] for rec in rec_nodes], dtype=np.int64)
        if node_state is not None:
            node_mat = Tensor(node_state[deleted_nodes])
        else:
            node_mat = ops.matmul(
                Tensor(graph.features[deleted_nodes]), self.project.weight
            )

        row_of = {("leaf", i): i for i in range(len(leaf_etypes))}
        max_level = max(rec[3] for rec in rec_nodes)
        for level in range(1, max_level + 1):
            members = [
                i for i, rec in enumerate(rec_nodes) if rec[3] == level
            ]
            ones = np.ones(len(members))
            outer_idx = np.asarray([row_of[rec_nodes[i][0]] for i in members])
            deleted_idx = np.asarray([row_of[rec_nodes[i][2]] for i in members])
            outer_rows = ops.pad_gather(table, outer_idx, ones)
            deleted_rows = ops.pad_gather(table, deleted_idx, ones)
            node_rows = ops.pad_gather(node_mat, np.asarray(members), ones)
            new_rows = ops.maximum(outer_rows, node_rows * deleted_rows)
            base = int(table.data.shape[0])
            for position, i in enumerate(members):
                row_of[("rec", i)] = base + position
            table = ops.concat([table, new_rows], axis=0)

        root_idx = np.asarray([row_of[ref] for ref in roots])
        return ops.pad_gather(table, root_idx, np.ones(len(roots)))

    def self_loop_vector(
        self,
        target: int,
        graph: HeteroGraph,
        cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """Self-loop edge embedding ``e_{t,t}`` as a ``(1, d)`` row.

        Self-loop types are per *node type*, so within one forward pass the
        target's Φ + 1 pack matrices all share the same row — ``cache``
        (keyed by loop-type id) gathers it from the embedding table once.
        """
        loop_type = int(graph.self_loop_type(target))
        if cache is not None and loop_type in cache:
            return cache[loop_type]
        vec = self.edge_embedding(np.asarray([loop_type]))
        if cache is not None:
            cache[loop_type] = vec
        return vec

    # ------------------------------------------------------------------
    # Message packaging (Eqs. 1-2)
    # ------------------------------------------------------------------

    def pack_wide(
        self,
        target: int,
        wide: WideNeighborSet,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        loop_cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """``M° = PACK°(W(v_t))`` — shape ``(|W| + 1, d)``, target pack first."""
        target_vec = self.fresh_projection(target, graph)
        if node_state is not None:
            neighbor_vecs = Tensor(node_state[wide.nodes])
        else:
            neighbor_vecs = ops.matmul(
                Tensor(graph.features[wide.nodes]), self.project.weight
            )
        if loop_cache is None:
            etypes = np.concatenate(([graph.self_loop_type(target)], wide.etypes))
            edge_vecs = self.edge_embedding(etypes)
        else:
            loop_vec = self.self_loop_vector(target, graph, loop_cache)
            if len(wide):
                edge_vecs = ops.concat(
                    [loop_vec, self.edge_embedding(wide.etypes)], axis=0
                )
            else:
                edge_vecs = loop_vec
        node_vecs = ops.concat(
            [ops.reshape(target_vec, (1, self.config.dim)), neighbor_vecs], axis=0
        )
        return node_vecs * edge_vecs

    def pack_deep(
        self,
        target: int,
        deep: DeepNeighborSet,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        cache: Optional[_EmbedCache] = None,
        loop_cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """``M▷ = PACK▷(D(v_t))`` — shape ``(|D| + 1, d)``, target pack first.

        Positions whose edge was replaced by a relay recipe evaluate the
        recipe against current parameters, so relays stay trainable.  The
        relay-free case (every walk before its first prune) takes a fully
        vectorized path — one projection matmul + one embedding gather —
        which dominates WIDEN's per-epoch cost.
        """
        relay_positions = [
            position for position, relay in enumerate(deep.relays)
            if relay is not None
        ]
        target_vec = ops.reshape(
            self.fresh_projection(target, graph), (1, self.config.dim)
        )
        if node_state is not None:
            neighbor_vecs = Tensor(node_state[deep.nodes])
        else:
            neighbor_vecs = ops.matmul(
                Tensor(graph.features[deep.nodes]), self.project.weight
            )
        node_vecs = ops.concat([target_vec, neighbor_vecs], axis=0)
        if loop_cache is None:
            etypes = np.concatenate(([graph.self_loop_type(target)], deep.etypes))
            edge_vecs = self.edge_embedding(etypes)
        else:
            loop_vec = self.self_loop_vector(target, graph, loop_cache)
            if len(deep):
                edge_vecs = ops.concat(
                    [loop_vec, self.edge_embedding(deep.etypes)], axis=0
                )
            else:
                edge_vecs = loop_vec
        if relay_positions:
            # Splice relay rows into the looked-up edge matrix.  Relays are
            # rare (one per prune), so per-row handling here stays cheap.
            segments: List[Tensor] = []
            cursor = 0
            for position in relay_positions:
                row = position + 1  # row 0 is the target's self-loop
                if row > cursor:
                    segments.append(ops.slice(edge_vecs, cursor, row, axis=0))
                relay_vec = self.edge_vector(
                    deep.relays[position], graph, node_state, cache
                )
                segments.append(ops.reshape(relay_vec, (1, self.config.dim)))
                cursor = row + 1
            if cursor < len(deep) + 1:
                segments.append(ops.slice(edge_vecs, cursor, len(deep) + 1, axis=0))
            edge_vecs = ops.concat(segments, axis=0)
        return node_vecs * edge_vecs

    # ------------------------------------------------------------------
    # Message passing (Eqs. 3-7)
    # ------------------------------------------------------------------

    def forward(
        self,
        target: int,
        state: NeighborState,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Optional[np.ndarray], List[np.ndarray]]:
        """Compute ``v_t'`` for one target node.

        ``node_state`` is the refined-embedding table (Algorithm 3's current
        representations); when omitted, neighbors fall back to fresh feature
        projections (a pure one-step pass).  Returns ``(embedding,
        wide_attention, deep_attentions)``; the attention distributions
        (detached numpy arrays over ``set size + 1`` packs, target first)
        feed the active downsampler and KL trigger.
        """
        config = self.config
        cache: _EmbedCache = {}
        loop_cache: _EmbedCache = {}
        d = config.dim

        with trace_span("widen.forward"):
            wide_attention: Optional[np.ndarray] = None
            if config.use_wide:
                with trace_span("widen.wide_pass", packs=len(state.wide) + 1):
                    packs = self.pack_wide(
                        target, state.wide, graph, node_state, loop_cache
                    )
                    packs = self.pack_dropout(packs)
                    h_wide, weights = self.wide_pass(packs[0], packs)
                    wide_attention = weights.data.copy()
            else:
                h_wide = Tensor(np.zeros(d))

            deep_attentions: List[np.ndarray] = []
            if config.use_deep:
                h_walks: List[Tensor] = []
                for deep in state.deep:
                    with trace_span("widen.deep_pass", packs=len(deep) + 1):
                        packs = self.pack_deep(
                            target, deep, graph, node_state, cache, loop_cache
                        )
                        packs = self.pack_dropout(packs)
                        if config.use_successive:
                            refined, _ = self.deep_successive(
                                packs, mask=causal_mask(len(deep) + 1)
                            )
                        else:
                            # Table-4 ablation: deep passing degenerates to plain
                            # attentive aggregation of the raw packs.
                            refined = packs
                        h_walk, weights = self.deep_pass(
                            packs[0], refined, values=packs
                        )
                        deep_attentions.append(weights.data.copy())
                        h_walks.append(h_walk)
                stacked = ops.stack(h_walks)
                h_deep = ops.mean(stacked, axis=0)  # average pooling over Φ walks
            else:
                h_deep = Tensor(np.zeros(d))

            hidden = ops.relu(self.fuse(ops.concat([h_wide, h_deep], axis=0)))
            hidden = self.hidden_dropout(hidden)
            embedding = F.l2_normalize(hidden, axis=-1)
        return embedding, wide_attention, deep_attentions

    def forward_batch(
        self,
        batch: NeighborTable,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        counters: Optional[PackCounters] = None,
    ) -> Tuple[Tensor, Optional[AttentionGrid], Optional[AttentionGrid]]:
        """Vectorized ``forward`` over the ``B`` rows of ``batch`` at once.

        Packs every target's ``M°`` and every walk's ``M▷`` into batch
        tensors (see :mod:`repro.core.packing`) and runs each stage —
        projection, edge gather, attention, fusion — as one batched op
        instead of ``B·(Φ + 1)`` small ones: *assemble packs*
        (:meth:`_assemble`) → *attend + fuse* (:meth:`_pass_and_fuse`).

        The grids pad to the batch maximum, exactly: padded node rows
        gather as zeros and padded attention slots carry ``-inf`` mask
        entries (exactly zero weight, exactly zero gradient).  The batch
        and the per-node reference :meth:`forward` compute one algebra (the
        query is projected, never the key or value grid) in different
        summation orders, which is the whole contract: batch == per-node to
        <= 1e-12, identical dropout streams.  Training, serving and the
        store all run this one body, which is what keeps recompute, store
        and fleet bit-identical.

        Returns ``(embeddings, wide_attention, deep_attention)``:
        ``embeddings`` is ``(B, d)``; the attentions are the
        :class:`~repro.core.packing.AttentionGrid` of the ``B`` wide sets
        and of the ``B·Φ`` walks (target-major) — row ``s`` trimmed to
        ``lengths[s]`` is what ``forward`` returns for that set — or
        ``None`` for an ablated side.  ``counters`` go to :func:`pack_batch`.
        """
        pack = pack_batch(
            batch,
            graph,
            self.config,
            pack_dropout=self.pack_dropout,
            hidden_dropout=self.hidden_dropout,
            counters=counters,
        )
        with trace_span("widen.forward", batch=pack.batch_size):
            wide_packs, deep_packs = self._assemble(pack, graph, node_state)
            embeddings, wide_weights, deep_weights = self._pass_and_fuse(
                pack, wide_packs, deep_packs
            )

        def grid(weights: Optional[Tensor], lengths):
            return None if weights is None else AttentionGrid(weights.data, lengths)

        return (
            embeddings,
            grid(wide_weights, pack.wide_lengths),
            grid(deep_weights, pack.deep_lengths),
        )

    def _assemble(
        self,
        pack: PackedBatch,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray],
    ) -> Tuple[Optional[Tensor], Optional[Tensor]]:
        """First half of the minibatch forward: ``M°`` and ``M▷`` (Eqs. 1-2).

        Everything that depends on the sampled neighborhoods — feature
        projection, edge-embedding gathers, relay evaluation, the fused
        gather·mul pack assembly — as ``(S, L, d)`` grids.  ``None`` for an
        ablated side.
        """
        config = self.config
        target_vecs = ops.matmul(
            Tensor(graph.features[pack.targets]), self.project.weight
        )
        if pack.neighbor_nodes.size:
            if node_state is not None:
                neighbor_vecs = Tensor(node_state[pack.neighbor_nodes])
            else:
                neighbor_vecs = ops.matmul(
                    Tensor(graph.features[pack.neighbor_nodes]),
                    self.project.weight,
                )
            flat = ops.concat([target_vecs, neighbor_vecs], axis=0)
        else:
            flat = target_vecs

        wide_packs = deep_packs = None
        if config.use_wide:
            wide_packs = ops.pad_gather_mul(
                flat, pack.wide_index, pack.wide_valid,
                self.edge_embedding(pack.wide_etypes), pack.wide_dropout,
            )
        if config.use_deep:
            edge_vecs = self.edge_embedding(pack.deep_etypes)
            if pack.deep_relays:
                relay_rows = self.relay_vectors_bulk(
                    pack.deep_relays, graph, node_state
                )
                flat_edges = ops.scatter_rows(
                    ops.reshape(edge_vecs, (-1, config.dim)),
                    pack.deep_relay_rows,
                    relay_rows,
                )
                edge_vecs = ops.reshape(flat_edges, edge_vecs.shape)
            deep_packs = ops.pad_gather_mul(
                flat, pack.deep_index, pack.deep_valid, edge_vecs,
                pack.deep_dropout,
            )
        return wide_packs, deep_packs

    def _pass_and_fuse(
        self,
        pack: PackedBatch,
        wide_packs: Optional[Tensor],
        deep_packs: Optional[Tensor],
    ) -> Tuple[Tensor, Optional[Tensor], Optional[Tensor]]:
        """Second half: PASS° (Eq. 3), PASS▷ (Eqs. 4-6), FUSE (Eq. 7).

        Runs over the packs :meth:`_assemble` built.  Each of the three
        attention blocks is one autograd node
        (:func:`~repro.tensor.functional.query_attend`,
        :func:`~repro.tensor.functional.self_attend`); row 0 of every
        segment — the target's own pack — queries it.  Returns
        ``(embeddings, wide_weights, deep_weights)``; the weights are the
        raw ``(S, L)`` attention distributions (callers trim), detached,
        ``None`` for an ablated side.
        """
        config = self.config
        d = config.dim
        batch = pack.batch_size

        wide_weights = deep_weights = None
        if config.use_wide:
            with trace_span(
                "widen.wide_pass", packs=int(wide_packs.data[..., 0].size)
            ):
                h_wide, wide_weights = self.wide_pass(
                    wide_packs, wide_packs, mask=pack.wide_attn_mask
                )
        else:
            h_wide = Tensor(np.zeros((batch, d)))

        if config.use_deep:
            with trace_span(
                "widen.deep_pass", packs=int(deep_packs.data[..., 0].size)
            ):
                if config.use_successive:
                    refined, _ = self.deep_successive(
                        deep_packs, mask=pack.deep_causal_mask
                    )
                else:
                    # Table-4 ablation: deep passing degenerates to plain
                    # attentive aggregation of the raw packs.
                    refined = deep_packs
                h_walks, deep_weights = self.deep_pass(
                    deep_packs, refined, values=deep_packs,
                    mask=pack.deep_attn_mask,
                )
                # Average pooling over the Φ walks.
                h_deep = ops.mean(
                    ops.reshape(h_walks, (batch, pack.num_walks, d)), axis=1
                )
        else:
            h_deep = Tensor(np.zeros((batch, d)))

        hidden = ops.relu(self.fuse(ops.concat([h_wide, h_deep], axis=1)))
        if pack.hidden_dropout is not None:
            hidden = ops.dropout_mask(hidden, pack.hidden_dropout)
        return F.l2_normalize(hidden, axis=-1), wide_weights, deep_weights

    # Kept as names only: ``benchmarks/perf/layers.py`` wraps them and may
    # not change in a PR that claims a gain (ROADMAP, open items 1(b) and
    # 8(b)).

    def materialize_rows(self, *args, **kwargs):
        """Gone with store format v3; kept as a name for ``benchmarks/perf``."""
        raise RuntimeError(HALF_FORWARD_GONE)

    def forward_from_blocks(self, *args, **kwargs):
        """Gone with store format v3; kept as a name for ``benchmarks/perf``."""
        raise RuntimeError(HALF_FORWARD_GONE)

    def logits(self, embeddings: Tensor) -> Tensor:
        """Class logits ``v' C`` (Eq. 10, pre-softmax)."""
        return self.classifier(embeddings)
