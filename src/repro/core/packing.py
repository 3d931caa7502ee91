"""Batch packing for the vectorized forward path.

The per-node reference path (:meth:`WidenModel.forward`) builds one small
``(L + 1, d)`` pack matrix per target and per walk and runs attention on
each — thousands of tiny op calls per epoch.  This module assembles the
*indices* for a whole minibatch up front so the model can execute the same
mathematics as a handful of batched tensor ops:

- every wide set becomes one row of a padded ``(B, Lw)`` index/etype grid;
- every deep walk becomes one row of a padded ``(B·Φ, Ld)`` grid;
- validity masks (1/0) zero out padded node rows at gather time, and
  additive attention masks (0/-inf) give padded slots exactly zero softmax
  weight — so padding is numerically inert, not approximately so.

Relay edges (Eq. 8) cannot be table lookups: they are re-evaluated against
current parameters each forward.  The pack records their flat positions so
:meth:`WidenModel.forward_batch` can splice the evaluated rows into the
edge matrix with one ``scatter_rows``.

Dropout reproducibility: the per-node path draws one mask per pack matrix
(wide, then each walk, then the hidden vector) in target order.  When the
dropout modules are passed in, :func:`pack_batch` consumes the rng streams
in exactly that order and assembles the draws into padded batch masks, so
the batched path's training losses are bit-identical to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import WidenConfig
from repro.core.relay import RelayRecipe
from repro.core.state import NeighborState
from repro.graph import HeteroGraph
from repro.obs.metrics import get_registry

_NEG_INF = float("-inf")

# width -> strictly-lower-triangular -inf base for deep_causal_mask.
_CAUSAL_BASES: Dict[int, np.ndarray] = {}


@dataclass
class PackRows:
    """One target's materialized pack matrices, trimmed to true lengths.

    ``wide`` is the ``(|W| + 1, d)`` matrix ``M°`` (Eq. 1) and ``deep``
    holds Φ matrices ``M▷`` (Eq. 2), each ``(|D_j| + 1, d)`` with the
    target pack in row 0 — exactly the values :func:`pad_gather_mul`
    produces in eval mode, before any attention.  These rows are what
    ``repro.store`` persists: re-running attention + fuse over them
    (:meth:`WidenModel.forward_from_rows`) reproduces the full forward
    bit-for-bit without sampling, feature projection or edge gathers.

    ``reads`` is the read set of the sample the rows were packed from
    (:meth:`NeighborState.read_set`): the ids whose adjacency lists decided
    these values.  The rows stay exact until one of those lists changes, so
    the read set travels with them into the store.
    """

    wide: Optional[np.ndarray]
    deep: List[np.ndarray]
    reads: Optional[np.ndarray] = None

    def nbytes(self) -> int:
        total = 0 if self.wide is None else self.wide.nbytes
        return total + sum(walk.nbytes for walk in self.deep)


def pad_pack_rows(rows: Sequence[np.ndarray], dim: int):
    """Stack trimmed pack matrices into a padded batch tensor + masks.

    Returns ``(padded, valid, attn_mask, lengths)`` with the identical
    padding convention as :func:`pack_batch`: padded slots are exactly
    zero and carry ``-inf`` additive mask entries, so attention over the
    reassembled tensor is bit-equal to attention over the original
    gather output — padding is numerically inert, not approximately so.
    """
    lengths = np.array([row.shape[0] for row in rows], np.int64)
    width = int(lengths.max())
    padded = np.zeros((len(rows), width, dim))
    valid = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        padded[i, : row.shape[0]] = row
        valid[i, : row.shape[0]] = 1.0
    attn_mask = np.where(valid > 0.0, 0.0, _NEG_INF)
    return padded, valid, attn_mask, lengths


def pad_block_masks(lengths: np.ndarray, width: int):
    """``(valid, attn_mask)`` for capacity-padded blocks, no Python loops.

    Store blocks are persisted zero-padded to a fixed capacity, so the
    serving hot path never re-packs rows — it only needs masks derived
    from the true lengths.  Padding to capacity instead of the batch
    maximum is numerically inert for the same reason :func:`pad_pack_rows`
    padding is: padded slots are exactly zero, carry ``-inf`` mask
    entries, and appending exact zeros to a summation changes nothing.
    """
    valid = (
        np.arange(width) < np.asarray(lengths, np.int64).reshape(-1, 1)
    ).astype(float)
    attn_mask = np.where(valid > 0.0, 0.0, _NEG_INF)
    return valid, attn_mask


def deep_causal_mask(valid: np.ndarray, attn_mask: np.ndarray) -> np.ndarray:
    """Causal mask Θ (Eq. 6) plus key padding for a padded walk batch.

    Padded *rows* would see only -inf (causal keeps j >= i, all of which
    are padding), which NaNs the softmax — let them attend to themselves
    instead: their packs are exactly zero, so the refined row stays zero
    and carries no gradient.
    """
    width = valid.shape[1]
    causal = _CAUSAL_BASES.get(width)
    if causal is None:
        # One strictly-lower-triangular -inf template per width; widths
        # are bounded by the deep sampling cap, so the cache stays tiny
        # while the serving hot path skips the tril rebuild per batch.
        causal = np.zeros((width, width))
        causal[np.tril_indices(width, k=-1)] = _NEG_INF
        _CAUSAL_BASES[width] = causal
    mask = causal[np.newaxis] + attn_mask[:, np.newaxis, :]
    pad_w, pad_i = np.nonzero(valid == 0.0)
    mask[pad_w, pad_i, pad_i] = 0.0
    return mask


def segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR boundaries ``(S + 1,)`` for segments of the given lengths."""
    lengths = np.asarray(lengths, np.int64)
    offsets = np.zeros(lengths.size + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Flat ``(P,)`` map from entry position to segment index."""
    offsets = np.asarray(offsets, np.int64)
    return np.repeat(
        np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets)
    )


def causal_pairs(offsets: np.ndarray):
    """Enumerate the (row, col) pairs the causal mask Θ (Eq. 6) keeps.

    For each flat pack row ``i`` in a segment ``[start, end)``, the causal
    self-attention attends to cols ``i..end-1`` (information flows from the
    walk's end back toward the target).  Returns
    ``(pair_rows, pair_cols, pair_offsets)`` where ``pair_offsets`` has one
    segment per *attending row* — exactly the pairs the padded kernel's
    ``tril(-inf)`` mask leaves finite, with no ``(W, Ld, Ld)`` grid.
    """
    offsets = np.asarray(offsets, np.int64)
    total = int(offsets[-1])
    lengths = np.diff(offsets)
    rows_range = np.arange(total, dtype=np.int64)
    counts = np.repeat(offsets[1:], lengths) - rows_range
    pair_offsets = np.zeros(total + 1, np.int64)
    np.cumsum(counts, out=pair_offsets[1:])
    pair_rows = np.repeat(rows_range, counts)
    pair_cols = (
        np.arange(int(pair_offsets[-1]), dtype=np.int64)
        - np.repeat(pair_offsets[:-1], counts)
        + pair_rows
    )
    return pair_rows, pair_cols, pair_offsets


def flat_slot_indices(lengths: np.ndarray, starts: np.ndarray):
    """Gather indices selecting the first ``lengths[i]`` slots per segment.

    ``starts[i]`` is segment ``i``'s base position in some flat row matrix
    (e.g. a capacity-padded store block reshaped to ``(B·R, d)``).  Returns
    ``(indices, offsets)`` where ``indices`` picks the valid slots of every
    segment back-to-back — the bridge from capacity-padded storage to the
    CSR kernels.
    """
    lengths = np.asarray(lengths, np.int64)
    starts = np.asarray(starts, np.int64)
    offsets = segment_offsets(lengths)
    total = int(offsets[-1])
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    return np.repeat(starts, lengths) + within, offsets


def _observe_padding(
    path: str, lengths: np.ndarray, width: int, materialized: bool
) -> None:
    """Export the padding-waste share of a pack's ``[B, L_max]`` grid.

    ``pack_padding_waste`` is the fraction of grid slots that are padding
    for this batch's geometry — the sparse packer reports the same number
    (the waste it *avoided*), so the gauge describes the workload's skew
    regardless of the active path.  The ``pack_slots_total`` counters only
    count slots actually materialized: under the sparse path the
    ``padding`` series stays flat, which is the observable win.
    """
    registry = get_registry()
    slots = int(lengths.shape[0]) * int(width)
    used = int(lengths.sum())
    waste = 0.0 if slots == 0 else 1.0 - used / slots
    registry.gauge("pack_padding_waste", path=path).set(waste)
    registry.counter("pack_slots_total", path=path, kind="valid").inc(used)
    if materialized:
        registry.counter("pack_slots_total", path=path, kind="padding").inc(
            slots - used
        )


def padded_waste(states: Sequence[NeighborState], config: WidenConfig) -> float:
    """Padding fraction the padded grids would carry for these states.

    The ``forward_mode="auto"`` dispatch compares this against the
    kernel-selection table's ``sparse_min_waste`` without building any
    grid: high-skew batches (a few hubs stretching ``L_max``) route to the
    CSR kernels, near-uniform ones keep the gemm-friendly padded path.
    """
    slots = 0
    used = 0
    if config.use_wide:
        lengths = [len(state.wide) + 1 for state in states]
        slots += len(lengths) * max(lengths)
        used += sum(lengths)
    if config.use_deep:
        lengths = [
            len(deep) + 1 for state in states for deep in state.deep
        ]
        if lengths:
            slots += len(lengths) * max(lengths)
            used += sum(lengths)
    return 0.0 if slots == 0 else 1.0 - used / slots


@dataclass
class PackedBatch:
    """Index-level description of a minibatch forward pass.

    Flat node-vector rows are laid out as ``[fresh target projections (B);
    unique neighbor embeddings (U)]``: slot indices below ``B`` address a
    target's trainable projection, the rest address ``neighbor_nodes``.
    All arrays are plain numpy — no gradients flow through the pack itself.
    """

    targets: np.ndarray            # (B,) target node ids
    neighbor_nodes: np.ndarray     # (U,) unique neighbor ids -> flat rows B..B+U-1

    # Wide grids, padded to Lw = max(|W_b| + 1); row layout: target pack first.
    wide_index: Optional[np.ndarray] = None       # (B, Lw) flat row per slot
    wide_valid: Optional[np.ndarray] = None       # (B, Lw) 1.0 valid / 0.0 pad
    wide_etypes: Optional[np.ndarray] = None      # (B, Lw) edge-type ids (pad: 0)
    wide_attn_mask: Optional[np.ndarray] = None   # (B, Lw) additive 0 / -inf
    wide_lengths: Optional[np.ndarray] = None     # (B,) valid packs incl. target

    # Deep grids: the B×Φ walks flatten to W = B·Φ rows, padded to Ld.
    num_walks: int = 0
    deep_index: Optional[np.ndarray] = None       # (W, Ld)
    deep_valid: Optional[np.ndarray] = None       # (W, Ld)
    deep_etypes: Optional[np.ndarray] = None      # (W, Ld)
    deep_attn_mask: Optional[np.ndarray] = None   # (W, Ld) for PASS▷'s query
    deep_causal_mask: Optional[np.ndarray] = None # (W, Ld, Ld) Θ + key padding
    deep_lengths: Optional[np.ndarray] = None     # (W,)
    deep_relay_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int64)
    )                                             # flat rows into (W·Ld, d)
    deep_relays: List[RelayRecipe] = field(default_factory=list)

    # Scaled dropout masks drawn in per-node rng order (None in eval mode).
    wide_dropout: Optional[np.ndarray] = None     # (B, Lw, d)
    deep_dropout: Optional[np.ndarray] = None     # (W, Ld, d)
    hidden_dropout: Optional[np.ndarray] = None   # (B, d)

    @property
    def batch_size(self) -> int:
        return int(self.targets.shape[0])


def _draw(dropout, shape):
    return None if dropout is None else dropout.draw_mask(shape)


def pack_batch(
    targets: Sequence[int],
    states: Sequence[NeighborState],
    graph: HeteroGraph,
    config: WidenConfig,
    pack_dropout=None,
    hidden_dropout=None,
    dim: Optional[int] = None,
) -> PackedBatch:
    """Assemble padded index grids and masks for ``B`` targets.

    ``pack_dropout``/``hidden_dropout`` are the model's :class:`Dropout`
    modules (or ``None``); their rng streams are consumed in per-node order
    so training stays bit-identical with the reference path.  ``dim``
    defaults to ``config.dim`` and sizes the dropout masks.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = targets.shape[0]
    if batch == 0:
        raise ValueError("pack_batch requires at least one target")
    if len(states) != batch:
        raise ValueError(f"{batch} targets but {len(states)} neighbor states")
    d = int(dim if dim is not None else config.dim)
    loop_types = graph.self_loop_types(targets)

    # ---- unique neighbor rows -----------------------------------------
    chunks: List[np.ndarray] = []
    if config.use_wide:
        chunks.extend(state.wide.nodes for state in states)
    if config.use_deep:
        chunks.extend(deep.nodes for state in states for deep in state.deep)
    if chunks:
        neighbor_nodes = np.unique(np.concatenate(chunks))
    else:
        neighbor_nodes = np.empty(0, np.int64)

    def flat_rows(nodes: np.ndarray) -> np.ndarray:
        return batch + np.searchsorted(neighbor_nodes, nodes)

    pack = PackedBatch(targets=targets, neighbor_nodes=neighbor_nodes)

    # ---- wide grids ----------------------------------------------------
    if config.use_wide:
        lengths = np.array([len(state.wide) + 1 for state in states], np.int64)
        width = int(lengths.max())
        index = np.zeros((batch, width), np.int64)
        valid = np.zeros((batch, width))
        etypes = np.zeros((batch, width), np.int64)
        index[:, 0] = np.arange(batch)
        etypes[:, 0] = loop_types
        for b, state in enumerate(states):
            wide = state.wide
            n = len(wide)
            if n:
                index[b, 1 : n + 1] = flat_rows(wide.nodes)
                etypes[b, 1 : n + 1] = wide.etypes
            valid[b, : n + 1] = 1.0
        pack.wide_index = index
        pack.wide_valid = valid
        pack.wide_etypes = etypes
        pack.wide_attn_mask = np.where(valid > 0.0, 0.0, _NEG_INF)
        pack.wide_lengths = lengths

    # ---- deep grids ----------------------------------------------------
    if config.use_deep:
        num_walks = len(states[0].deep)
        for state in states:
            if len(state.deep) != num_walks:
                raise ValueError("all targets must carry the same walk count Φ")
        pack.num_walks = num_walks
        walks = [deep for state in states for deep in state.deep]
        total = len(walks)
        lengths = np.array([len(deep) + 1 for deep in walks], np.int64)
        width = int(lengths.max())
        index = np.zeros((total, width), np.int64)
        valid = np.zeros((total, width))
        etypes = np.zeros((total, width), np.int64)
        relay_rows: List[int] = []
        relays: List[RelayRecipe] = []
        for w, deep in enumerate(walks):
            b = w // num_walks
            n = len(deep)
            index[w, 0] = b
            etypes[w, 0] = loop_types[b]
            if n:
                index[w, 1 : n + 1] = flat_rows(deep.nodes)
                etypes[w, 1 : n + 1] = deep.etypes
            valid[w, : n + 1] = 1.0
            for position, relay in enumerate(deep.relays):
                if relay is not None:
                    relay_rows.append(w * width + position + 1)
                    relays.append(relay)
        pack.deep_index = index
        pack.deep_valid = valid
        pack.deep_etypes = etypes
        pack.deep_attn_mask = np.where(valid > 0.0, 0.0, _NEG_INF)
        pack.deep_lengths = lengths
        pack.deep_relay_rows = np.asarray(relay_rows, np.int64)
        pack.deep_relays = relays

        pack.deep_causal_mask = deep_causal_mask(valid, pack.deep_attn_mask)

    if config.use_wide:
        _observe_padding(
            "wide", pack.wide_lengths, pack.wide_index.shape[1], True
        )
    if config.use_deep:
        _observe_padding(
            "deep", pack.deep_lengths, pack.deep_index.shape[1], True
        )

    # ---- dropout draws in per-node order -------------------------------
    wide_drop = deep_drop = hidden_drop = None
    for b in range(batch):
        if config.use_wide:
            mask = _draw(pack_dropout, (int(pack.wide_lengths[b]), d))
            if mask is not None:
                if wide_drop is None:
                    wide_drop = np.ones((batch,) + pack.wide_index.shape[1:] + (d,))
                wide_drop[b, : mask.shape[0]] = mask
        if config.use_deep:
            for j in range(pack.num_walks):
                w = b * pack.num_walks + j
                mask = _draw(pack_dropout, (int(pack.deep_lengths[w]), d))
                if mask is not None:
                    if deep_drop is None:
                        deep_drop = np.ones(
                            (total,) + pack.deep_index.shape[1:] + (d,)
                        )
                    deep_drop[w, : mask.shape[0]] = mask
        mask = _draw(hidden_dropout, (d,))
        if mask is not None:
            if hidden_drop is None:
                hidden_drop = np.ones((batch, d))
            hidden_drop[b] = mask
    pack.wide_dropout = wide_drop
    pack.deep_dropout = deep_drop
    pack.hidden_dropout = hidden_drop
    return pack


@dataclass
class SparseBatch:
    """CSR description of a minibatch forward — flat edge arrays, no grids.

    Same flat node-row convention as :class:`PackedBatch` (``[fresh target
    projections (B); unique neighbor embeddings (U)]``), but pack rows live
    in flat ``(E,)`` arrays segmented by CSR ``offsets`` instead of padded
    ``[B, L_max]`` grids.  Work downstream is proportional to real pack
    rows, so high-skew batches pay nothing for their hubs' long tails.
    """

    targets: np.ndarray            # (B,) target node ids
    neighbor_nodes: np.ndarray     # (U,) unique neighbor ids -> flat rows B..B+U-1

    # Wide CSR: segment b = target b's pack rows, target pack first.
    wide_src: Optional[np.ndarray] = None       # (Ew,) flat node row per pack
    wide_etypes: Optional[np.ndarray] = None    # (Ew,) edge-type ids
    wide_offsets: Optional[np.ndarray] = None   # (B + 1,)
    wide_seg_ids: Optional[np.ndarray] = None   # (Ew,) pack -> target
    wide_lengths: Optional[np.ndarray] = None   # (B,) incl. target pack

    # Deep CSR: segment w = walk w's pack rows (w = b * Φ + j).
    num_walks: int = 0
    deep_src: Optional[np.ndarray] = None       # (Ed,)
    deep_etypes: Optional[np.ndarray] = None    # (Ed,)
    deep_offsets: Optional[np.ndarray] = None   # (W + 1,)
    deep_seg_ids: Optional[np.ndarray] = None   # (Ed,) pack -> walk
    deep_lengths: Optional[np.ndarray] = None   # (W,)
    # Causal pair arrays for the successive self-attention (Eq. 4/6);
    # None when config.use_successive is off.
    pair_rows: Optional[np.ndarray] = None      # (P,)
    pair_cols: Optional[np.ndarray] = None      # (P,)
    pair_offsets: Optional[np.ndarray] = None   # (Ed + 1,)
    deep_relay_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int64)
    )                                           # flat rows into (Ed, d)
    deep_relays: List[RelayRecipe] = field(default_factory=list)

    # Scaled dropout masks drawn in per-node rng order (None in eval mode).
    wide_dropout: Optional[np.ndarray] = None   # (Ew, d)
    deep_dropout: Optional[np.ndarray] = None   # (Ed, d)
    hidden_dropout: Optional[np.ndarray] = None # (B, d)

    @property
    def batch_size(self) -> int:
        return int(self.targets.shape[0])


def pack_batch_sparse(
    targets: Sequence[int],
    states: Sequence[NeighborState],
    graph: HeteroGraph,
    config: WidenConfig,
    pack_dropout=None,
    hidden_dropout=None,
    dim: Optional[int] = None,
) -> SparseBatch:
    """Assemble flat CSR pack arrays for ``B`` targets — no padding.

    Row layout inside each segment matches :func:`pack_batch` (target pack
    first, then sampled neighbors in state order), and the dropout rng
    streams are consumed in the identical per-node order with the identical
    true-length shapes — so the drawn masks equal the padded masks at every
    valid slot, bit for bit, and training losses agree across paths.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = targets.shape[0]
    if batch == 0:
        raise ValueError("pack_batch_sparse requires at least one target")
    if len(states) != batch:
        raise ValueError(f"{batch} targets but {len(states)} neighbor states")
    d = int(dim if dim is not None else config.dim)
    loop_types = graph.self_loop_types(targets)

    chunks: List[np.ndarray] = []
    if config.use_wide:
        chunks.extend(state.wide.nodes for state in states)
    if config.use_deep:
        chunks.extend(deep.nodes for state in states for deep in state.deep)
    if chunks:
        neighbor_nodes = np.unique(np.concatenate(chunks))
    else:
        neighbor_nodes = np.empty(0, np.int64)

    def flat_rows(nodes: np.ndarray) -> np.ndarray:
        return batch + np.searchsorted(neighbor_nodes, nodes)

    pack = SparseBatch(targets=targets, neighbor_nodes=neighbor_nodes)

    # ---- wide CSR ------------------------------------------------------
    if config.use_wide:
        lengths = np.array([len(state.wide) + 1 for state in states], np.int64)
        offsets = segment_offsets(lengths)
        src = np.empty(int(offsets[-1]), np.int64)
        etypes = np.empty(int(offsets[-1]), np.int64)
        for b, state in enumerate(states):
            start = int(offsets[b])
            src[start] = b
            etypes[start] = loop_types[b]
            wide = state.wide
            n = len(wide)
            if n:
                src[start + 1 : start + 1 + n] = flat_rows(wide.nodes)
                etypes[start + 1 : start + 1 + n] = wide.etypes
        pack.wide_src = src
        pack.wide_etypes = etypes
        pack.wide_offsets = offsets
        pack.wide_seg_ids = segment_ids(offsets)
        pack.wide_lengths = lengths
        _observe_padding("wide", lengths, int(lengths.max()), False)

    # ---- deep CSR ------------------------------------------------------
    if config.use_deep:
        num_walks = len(states[0].deep)
        for state in states:
            if len(state.deep) != num_walks:
                raise ValueError("all targets must carry the same walk count Φ")
        pack.num_walks = num_walks
        walks = [deep for state in states for deep in state.deep]
        lengths = np.array([len(deep) + 1 for deep in walks], np.int64)
        offsets = segment_offsets(lengths)
        src = np.empty(int(offsets[-1]), np.int64)
        etypes = np.empty(int(offsets[-1]), np.int64)
        relay_rows: List[int] = []
        relays: List[RelayRecipe] = []
        for w, deep in enumerate(walks):
            b = w // num_walks
            start = int(offsets[w])
            src[start] = b
            etypes[start] = loop_types[b]
            n = len(deep)
            if n:
                src[start + 1 : start + 1 + n] = flat_rows(deep.nodes)
                etypes[start + 1 : start + 1 + n] = deep.etypes
            for position, relay in enumerate(deep.relays):
                if relay is not None:
                    relay_rows.append(start + position + 1)
                    relays.append(relay)
        pack.deep_src = src
        pack.deep_etypes = etypes
        pack.deep_offsets = offsets
        pack.deep_seg_ids = segment_ids(offsets)
        pack.deep_lengths = lengths
        pack.deep_relay_rows = np.asarray(relay_rows, np.int64)
        pack.deep_relays = relays
        if config.use_successive:
            pack.pair_rows, pack.pair_cols, pack.pair_offsets = causal_pairs(
                offsets
            )
        _observe_padding("deep", lengths, int(lengths.max()), False)

    # ---- dropout draws in per-node order -------------------------------
    wide_drop = deep_drop = hidden_drop = None
    for b in range(batch):
        if config.use_wide:
            mask = _draw(pack_dropout, (int(pack.wide_lengths[b]), d))
            if mask is not None:
                if wide_drop is None:
                    wide_drop = np.ones((int(pack.wide_offsets[-1]), d))
                start = int(pack.wide_offsets[b])
                wide_drop[start : start + mask.shape[0]] = mask
        if config.use_deep:
            for j in range(pack.num_walks):
                w = b * pack.num_walks + j
                mask = _draw(pack_dropout, (int(pack.deep_lengths[w]), d))
                if mask is not None:
                    if deep_drop is None:
                        deep_drop = np.ones((int(pack.deep_offsets[-1]), d))
                    start = int(pack.deep_offsets[w])
                    deep_drop[start : start + mask.shape[0]] = mask
        mask = _draw(hidden_dropout, (d,))
        if mask is not None:
            if hidden_drop is None:
                hidden_drop = np.ones((batch, d))
            hidden_drop[b] = mask
    pack.wide_dropout = wide_drop
    pack.deep_dropout = deep_drop
    pack.hidden_dropout = hidden_drop
    return pack
