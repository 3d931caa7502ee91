"""Batch packing for the minibatch forward.

The per-node reference path (:meth:`WidenModel.forward`) builds one small
``(L + 1, d)`` pack matrix per target and per walk and runs attention on
each — thousands of tiny op calls per epoch.  :func:`pack_batch` assembles
the *indices* for a whole minibatch up front so the model can execute the
same mathematics as a handful of batched tensor ops, in one of two layouts:

- **padded grids** — every wide set is one row of a ``(B, Lw)`` index/etype
  grid, every deep walk one row of a ``(B·Φ, Ld)`` grid; validity masks
  (1/0) zero out padded node rows at gather time and additive attention
  masks (0/-inf) give padded slots exactly zero softmax weight;
- **flat CSR** — the grids' valid slots back to back in ``(E,)`` arrays
  segmented by ``offsets``, for the segment kernels (``sddmm`` /
  ``segment_softmax`` / ``segment_matmul``) whose work is proportional to
  real pack rows.

The grids are filled first (the only loop over ``states``); the CSR arrays
are a vectorised selection of their valid slots
(:func:`flat_slot_indices`).  Which layout a batch gets is decided from the
padding waste it measures for the ``pack_padding_waste`` gauge anyway.

Relay edges (Eq. 8) cannot be table lookups: they are re-evaluated against
current parameters each forward.  The pack records their flat positions so
the model can splice the evaluated rows into the edge matrix with one
``scatter_rows``.

Dropout reproducibility: the per-node path draws one mask per pack matrix
(wide, then each walk, then the hidden vector) in target order.  When the
dropout modules are passed in, :func:`pack_batch` consumes the rng streams
in exactly that order with the true-length shapes, so training losses are
bit-identical to the reference under the padded layout and the masks are
the same numbers under either.
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
    (:meth:`WidenModel.forward_from_blocks`) reproduces the full forward
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


def pad_block_masks(lengths: np.ndarray, width: int):
    """``(valid, attn_mask)`` for rows padded to ``width``, no Python loops.

    Serves both padded layouts: :func:`pack_batch` pads to the batch
    maximum, store blocks are persisted zero-padded to the sampling caps so
    the serving hot path never re-packs rows.  Either way padded slots are
    exactly zero and carry ``-inf`` mask entries, so they add exact zeros to
    every attention sum.  That makes the pad width inert for the *sums*, not
    for the last bit: the flattened projection gemm blocks by row count, so
    one node's answer can move by an ulp with the shape of the batch it was
    computed in (5.6e-17 measured on a 6-node graph even with both paths
    padded to capacity) — which is why mixed-shape comparisons use
    ``ANSWER_TOLERANCE = 1e-12`` rather than equality.
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


def split_segments(
    data: np.ndarray, lengths: np.ndarray, offsets: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Per-segment copies of ``data`` trimmed to true lengths.

    Padded layout (``offsets is None``): the first ``lengths[s]`` slots of
    grid row ``s``; flat CSR: the slice ``offsets[s]:offsets[s + 1]``.
    """
    if offsets is None:
        return [data[s, : int(n)].copy() for s, n in enumerate(lengths)]
    return [
        data[offsets[s] : offsets[s + 1]].copy() for s in range(len(lengths))
    ]


def _observe_padding(
    path: str, lengths: np.ndarray, width: int, materialized: bool
) -> None:
    """Export the padding-waste share of a pack's ``[B, L_max]`` grid.

    ``pack_padding_waste`` is the fraction of grid slots that are padding
    for this batch's geometry — a CSR pack reports the same number (the
    waste it *avoided*), so the gauge describes the workload's skew
    regardless of the layout.  The ``pack_slots_total`` counters only count
    slots actually materialized: under CSR the ``padding`` series stays
    flat, which is the observable win.
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


@dataclass
class PackedBatch:
    """Index-level description of a minibatch forward pass.

    Flat node-vector rows are laid out as ``[fresh target projections (B);
    unique neighbor embeddings (U)]``: slot indices below ``B`` address a
    target's trainable projection, the rest address ``neighbor_nodes``.
    All arrays are plain numpy — no gradients flow through the pack itself.

    Segments are the ``B`` wide sets and the ``W = B·Φ`` walks, target pack
    first.  ``sparse`` names the layout of the per-slot arrays: padded
    ``(S, L)`` grids with masks, or — CSR — flat ``(E,)`` arrays holding
    the grids' valid slots back to back, segment ``s`` at
    ``offsets[s]:offsets[s + 1]``.
    """

    batch_size: int
    targets: Optional[np.ndarray] = None          # (B,) target node ids
    neighbor_nodes: Optional[np.ndarray] = None   # (U,) ids -> flat rows B..B+U-1
    sparse: bool = False
    waste: float = 0.0             # padding share of the (would-be) grids

    wide_index: Optional[np.ndarray] = None       # flat node row per slot
    wide_etypes: Optional[np.ndarray] = None      # edge-type ids (pad: 0)
    wide_lengths: Optional[np.ndarray] = None     # (B,) valid packs incl. target
    wide_valid: Optional[np.ndarray] = None       # padded: (B, Lw) 1.0 / 0.0
    wide_attn_mask: Optional[np.ndarray] = None   # padded: (B, Lw) additive 0 / -inf
    wide_offsets: Optional[np.ndarray] = None     # CSR: (B + 1,)

    num_walks: int = 0
    deep_index: Optional[np.ndarray] = None
    deep_etypes: Optional[np.ndarray] = None
    deep_lengths: Optional[np.ndarray] = None     # (W,)
    deep_valid: Optional[np.ndarray] = None       # padded: (W, Ld)
    deep_attn_mask: Optional[np.ndarray] = None   # padded: (W, Ld) for PASS▷'s query
    deep_causal_mask: Optional[np.ndarray] = None # padded: (W, Ld, Ld) Θ + key padding
    deep_offsets: Optional[np.ndarray] = None     # CSR: (W + 1,)
    deep_causal_pairs: Optional[tuple] = None     # CSR: causal_pairs(deep_offsets)
    deep_relay_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int64)
    )                                             # rows into the flattened deep slots
    deep_relays: List[RelayRecipe] = field(default_factory=list)

    # Scaled dropout masks drawn in per-node rng order (None in eval mode),
    # shaped like the packs: (S, L, d) padded with ones, or (E, d).
    wide_dropout: Optional[np.ndarray] = None
    deep_dropout: Optional[np.ndarray] = None
    hidden_dropout: Optional[np.ndarray] = None   # (B, d)


def block_pack(
    lengths: np.ndarray, wide_cap: int, deep_cap: int, num_walks: int
) -> PackedBatch:
    """The pack of ``(B, R, d)`` capacity-padded store blocks: masks only.

    A store block is a pack whose gather is already done — wide rows
    first, then Φ walk segments, zero-padded to the sampling caps — so all
    that is left to derive from its ``(B, 1 + Φ)`` ``lengths`` is what
    attention needs.  A cap of 0 means that side is ablated.
    """
    lengths = np.asarray(lengths, np.int64)
    pack = PackedBatch(batch_size=int(lengths.shape[0]), num_walks=num_walks)
    if wide_cap:
        pack.wide_lengths = lengths[:, 0]
        pack.wide_valid, pack.wide_attn_mask = pad_block_masks(
            pack.wide_lengths, wide_cap
        )
    if deep_cap:
        pack.deep_lengths = lengths[:, 1:].reshape(-1)
        pack.deep_valid, pack.deep_attn_mask = pad_block_masks(
            pack.deep_lengths, deep_cap
        )
        pack.deep_causal_mask = deep_causal_mask(
            pack.deep_valid, pack.deep_attn_mask
        )
    return pack


def _draw(dropout, shape):
    return None if dropout is None else dropout.draw_mask(shape)


def pack_batch(
    targets: Sequence[int],
    states: Sequence[NeighborState],
    graph: HeteroGraph,
    config: WidenConfig,
    pack_dropout=None,
    hidden_dropout=None,
    sparse_min_waste: Optional[float] = None,
) -> PackedBatch:
    """Assemble the index arrays and masks for ``B`` targets.

    ``pack_dropout``/``hidden_dropout`` are the model's :class:`Dropout`
    modules (or ``None``); their rng streams are consumed in per-node order
    so training stays bit-identical with the reference path.

    The result is padded grids unless ``sparse_min_waste`` is given and the
    batch's padding waste reaches it, in which case the same slots come
    back as flat CSR arrays.  Callers whose answers must not depend on
    batch composition (serving, the store) leave it ``None``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = targets.shape[0]
    if batch == 0:
        raise ValueError("pack_batch requires at least one target")
    if len(states) != batch:
        raise ValueError(f"{batch} targets but {len(states)} neighbor states")
    d = config.dim
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

    pack = PackedBatch(
        batch_size=batch, targets=targets, neighbor_nodes=neighbor_nodes
    )

    def fill(segments, owners: np.ndarray):
        """``(index, etypes, lengths)`` grids, one row per neighbor set."""
        lengths = np.array([len(segment) + 1 for segment in segments], np.int64)
        index = np.zeros((len(segments), int(lengths.max())), np.int64)
        etypes = np.zeros(index.shape, np.int64)
        index[:, 0] = owners
        etypes[:, 0] = loop_types[owners]
        for s, segment in enumerate(segments):
            n = len(segment)
            if n:
                index[s, 1 : n + 1] = batch + np.searchsorted(
                    neighbor_nodes, segment.nodes
                )
                etypes[s, 1 : n + 1] = segment.etypes
        return index, etypes, lengths

    slots = used = wide_width = deep_width = 0
    if config.use_wide:
        pack.wide_index, pack.wide_etypes, pack.wide_lengths = fill(
            [state.wide for state in states], np.arange(batch)
        )
        wide_width = pack.wide_index.shape[1]
        slots += pack.wide_index.size
        used += int(pack.wide_lengths.sum())
    if config.use_deep:
        num_walks = len(states[0].deep)
        for state in states:
            if len(state.deep) != num_walks:
                raise ValueError("all targets must carry the same walk count Φ")
        pack.num_walks = num_walks
        walks = [deep for state in states for deep in state.deep]
        pack.deep_index, pack.deep_etypes, pack.deep_lengths = fill(
            walks, np.repeat(np.arange(batch), num_walks)
        )
        deep_width = pack.deep_index.shape[1]
        slots += pack.deep_index.size
        used += int(pack.deep_lengths.sum())
        relay_rows: List[int] = []
        for w, deep in enumerate(walks):
            for position, relay in enumerate(deep.relays):
                if relay is not None:
                    relay_rows.append(w * deep_width + position + 1)
                    pack.deep_relays.append(relay)
        pack.deep_relay_rows = np.asarray(relay_rows, np.int64)

    # ---- layout: padded grids, or their valid slots as flat CSR --------
    pack.waste = 0.0 if slots == 0 else 1.0 - used / slots
    pack.sparse = sparse_min_waste is not None and pack.waste >= sparse_min_waste
    get_registry().counter(
        "pack_batches_total", layout="sparse" if pack.sparse else "padded"
    ).inc()

    def valid_slots(lengths: np.ndarray, width: int):
        starts = np.arange(lengths.size, dtype=np.int64) * width
        return flat_slot_indices(lengths, starts)

    if config.use_wide:
        _observe_padding("wide", pack.wide_lengths, wide_width, not pack.sparse)
        if pack.sparse:
            keep, pack.wide_offsets = valid_slots(pack.wide_lengths, wide_width)
            pack.wide_index = pack.wide_index.ravel()[keep]
            pack.wide_etypes = pack.wide_etypes.ravel()[keep]
        else:
            pack.wide_valid, pack.wide_attn_mask = pad_block_masks(
                pack.wide_lengths, wide_width
            )
    if config.use_deep:
        _observe_padding("deep", pack.deep_lengths, deep_width, not pack.sparse)
        if pack.sparse:
            keep, pack.deep_offsets = valid_slots(pack.deep_lengths, deep_width)
            pack.deep_index = pack.deep_index.ravel()[keep]
            pack.deep_etypes = pack.deep_etypes.ravel()[keep]
            pack.deep_relay_rows = np.searchsorted(keep, pack.deep_relay_rows)
            if config.use_successive:
                pack.deep_causal_pairs = causal_pairs(pack.deep_offsets)
        else:
            pack.deep_valid, pack.deep_attn_mask = pad_block_masks(
                pack.deep_lengths, deep_width
            )
            pack.deep_causal_mask = deep_causal_mask(
                pack.deep_valid, pack.deep_attn_mask
            )

    # ---- dropout draws in per-node order -------------------------------
    wide_masks, deep_masks, hidden_masks = [], [], []
    for b in range(batch):
        if config.use_wide:
            wide_masks.append(_draw(pack_dropout, (int(pack.wide_lengths[b]), d)))
        if config.use_deep:
            for w in range(b * pack.num_walks, (b + 1) * pack.num_walks):
                deep_masks.append(
                    _draw(pack_dropout, (int(pack.deep_lengths[w]), d))
                )
        hidden_masks.append(_draw(hidden_dropout, (d,)))

    def place(masks, lengths, width):
        if not masks or masks[0] is None:
            return None
        flat = np.concatenate(masks)
        if pack.sparse:
            return flat
        grid = np.ones((lengths.size * width, d))
        grid[valid_slots(lengths, width)[0]] = flat
        return grid.reshape(lengths.size, width, d)

    pack.wide_dropout = place(wide_masks, pack.wide_lengths, wide_width)
    pack.deep_dropout = place(deep_masks, pack.deep_lengths, deep_width)
    if hidden_masks[0] is not None:
        pack.hidden_dropout = np.stack(hidden_masks)
    return pack
