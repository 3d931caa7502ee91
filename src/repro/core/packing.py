"""Batch packing for the minibatch forward.

The per-node reference path (:meth:`WidenModel.forward`) builds one small
``(L + 1, d)`` pack matrix per target and per walk and runs attention on
each — thousands of tiny op calls per epoch.  :func:`pack_batch` assembles
the *indices* for a whole minibatch up front so the model can execute the
same mathematics as a handful of batched tensor ops over padded grids:
every wide set is one row of a ``(B, Lw)`` index/etype grid, every deep
walk one row of a ``(B·Φ, Ld)`` grid; validity masks (1/0) zero out padded
node rows at gather time and additive attention masks (0/-inf) give padded
slots exactly zero softmax weight.

The input is a :class:`~repro.core.state.NeighborTable` holding the
minibatch's rows, so the grids are filled with one sort of the batch's
neighbor ids and one masked scatter per side.  The grid is the only
layout: Def. 2's replacement sampling fills every wide set to ``N_w``, so
a minibatch is nearly dense and a segment-kernel layout never paid for
itself (EXPERIMENTS.md, "One kernel family").

Relay edges (Eq. 8) cannot be table lookups: they are re-evaluated against
current parameters each forward.  The pack records their flat positions so
the model can splice the evaluated rows into the edge matrix with one
``scatter_rows``.

Dropout reproducibility: the per-node path draws one mask per pack matrix
(wide, then each walk) from one module and one per hidden vector from
another, in target order.  When the dropout modules are passed in,
:func:`pack_batch` makes one draw per module of all those rows at once —
the same stream positions, since ``Generator.random`` fills in C order — so
training losses are bit-identical to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.config import WidenConfig
from repro.core.relay import RelayRecipe
from repro.core.state import NeighborTable
from repro.graph import HeteroGraph
from repro.obs.metrics import MetricsRegistry, get_registry

_NEG_INF = float("-inf")

# width -> strictly-lower-triangular -inf base for deep_causal_mask.
_CAUSAL_BASES: Dict[int, np.ndarray] = {}


def pad_block_masks(lengths: np.ndarray, width: int):
    """``(valid, attn_mask)`` for rows padded to ``width``, no Python loops.

    :func:`pack_batch` pads to the batch maximum.  Padded slots are exactly
    zero and carry ``-inf`` mask entries, so they add exact zeros to every
    attention sum.  That makes the pad width inert for the *sums*, not for
    the last bit: the flattened projection gemm blocks by row count, so one
    node's answer can move by an ulp with the shape of the batch it was
    computed in (5.6e-17 measured on a 6-node graph even with both paths
    padded to capacity) — which is why a stored or cached embedding is
    compared with one recomputed in another batch at
    ``ANSWER_TOLERANCE = 1e-12`` rather than by equality.
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


def flat_slot_indices(lengths: np.ndarray, starts: np.ndarray):
    """Gather indices selecting the first ``lengths[i]`` slots per segment.

    ``starts[i]`` is segment ``i``'s base position in some flat row matrix
    (the dropout buffer :func:`pack_batch` scatters one draw into).  Returns
    ``(indices, offsets)`` where ``indices`` picks the valid slots of every
    segment back-to-back.
    """
    lengths = np.asarray(lengths, np.int64)
    starts = np.asarray(starts, np.int64)
    offsets = segment_offsets(lengths)
    total = int(offsets[-1])
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    return np.repeat(starts, lengths) + within, offsets


class AttentionGrid(NamedTuple):
    """One side's attention distributions for a minibatch, as computed.

    ``weights`` is ``(S, L)`` — one row per wide set or walk, target pack
    first, exact zeros beyond ``lengths[s]``.
    """

    weights: np.ndarray
    lengths: np.ndarray

    def rows(self) -> List[np.ndarray]:
        """The distributions trimmed to true lengths (copies)."""
        return [
            self.weights[s, : int(n)].copy() for s, n in enumerate(self.lengths)
        ]


class PackCounters:
    """One registry's pack instruments, looked up once by whoever packs (a
    trainer, a server's telemetry), so a shard counts into the registry its
    fleet merges.  ``pack_padding_waste{path}`` is the padding share of the
    last ``[B, L_max]`` grid; ``pack_slots_total{path, kind}`` adds up the
    valid and the padding slots materialized."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._paths = {
            path: (
                registry.gauge("pack_padding_waste", path=path),
                registry.counter("pack_slots_total", path=path, kind="valid"),
                registry.counter("pack_slots_total", path=path, kind="padding"),
            )
            for path in ("wide", "deep")
        }

    def observe(self, path: str, lengths: np.ndarray, width: int) -> None:
        waste, valid, padding = self._paths[path]
        slots = int(lengths.shape[0]) * int(width)
        used = int(lengths.sum())
        waste.set(0.0 if slots == 0 else 1.0 - used / slots)
        valid.inc(used)
        padding.inc(slots - used)


@dataclass
class PackedBatch:
    """Index-level description of a minibatch forward pass.

    Flat node-vector rows are laid out as ``[fresh target projections (B);
    unique neighbor embeddings (U)]``: slot indices below ``B`` address a
    target's trainable projection, the rest address ``neighbor_nodes``.
    All arrays are plain numpy — no gradients flow through the pack itself.

    Segments are the ``B`` wide sets and the ``W = B·Φ`` walks, target pack
    first, one row of an ``(S, L)`` grid each.
    """

    batch_size: int
    targets: Optional[np.ndarray] = None          # (B,) target node ids
    neighbor_nodes: Optional[np.ndarray] = None   # (U,) ids -> flat rows B..B+U-1

    wide_index: Optional[np.ndarray] = None       # (B, Lw) flat node row per slot
    wide_etypes: Optional[np.ndarray] = None      # edge-type ids (pad: 0)
    wide_lengths: Optional[np.ndarray] = None     # (B,) valid packs incl. target
    wide_valid: Optional[np.ndarray] = None       # (B, Lw) 1.0 / 0.0
    wide_attn_mask: Optional[np.ndarray] = None   # (B, Lw) additive 0 / -inf

    num_walks: int = 0
    deep_index: Optional[np.ndarray] = None       # (W, Ld)
    deep_etypes: Optional[np.ndarray] = None
    deep_lengths: Optional[np.ndarray] = None     # (W,)
    deep_valid: Optional[np.ndarray] = None       # (W, Ld)
    deep_attn_mask: Optional[np.ndarray] = None   # (W, Ld) for PASS▷'s query
    deep_causal_mask: Optional[np.ndarray] = None # (W, Ld, Ld) Θ + key padding
    deep_relay_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int64)
    )                                             # rows into the flattened deep slots
    deep_relays: List[RelayRecipe] = field(default_factory=list)

    # Scaled dropout masks drawn in per-node rng order (None in eval mode),
    # shaped like the packs: (S, L, d) padded with ones.
    wide_dropout: Optional[np.ndarray] = None
    deep_dropout: Optional[np.ndarray] = None
    hidden_dropout: Optional[np.ndarray] = None   # (B, d)


def _draw(dropout, shape):
    return None if dropout is None else dropout.draw_mask(shape)


def pack_batch(
    batch: NeighborTable,
    graph: HeteroGraph,
    config: WidenConfig,
    pack_dropout=None,
    hidden_dropout=None,
    counters: Optional[PackCounters] = None,
) -> PackedBatch:
    """Assemble the index arrays and masks for the ``B`` rows of ``batch``.

    ``batch`` is a :class:`~repro.core.state.NeighborTable` holding exactly
    the minibatch (``store.batch(nodes)``, ``table.take(rows)``, or
    :func:`~repro.core.state.stack_states` over records).

    ``pack_dropout``/``hidden_dropout`` are the model's :class:`Dropout`
    modules (or ``None``); each is drawn from once, and because
    ``Generator.random`` fills in C order that one draw is the per-node
    draws back to back, so training stays bit-identical with the reference
    path.  ``counters`` are the packer's bound instruments; without them the
    pack is counted in the process-wide registry.
    """
    size = len(batch)
    if size == 0:
        raise ValueError("pack_batch requires at least one target")
    if counters is None:
        counters = PackCounters(get_registry())
    d = config.dim
    num_walks = batch.num_walks
    loop_types = graph.self_loop_types(batch.targets)

    # ---- real set slots -> rows of the flat node-vector matrix ---------
    def real_slots(nodes, etypes, lens):
        """One side's ``(S, width - 1)`` neighbor-slot mask and the node ids
        and edge types in its real slots, flat in slot order."""
        reach = int(lens.max())
        keep = np.arange(reach) < lens[:, np.newaxis]
        return keep, nodes[:, :reach][keep], etypes[:, :reach][keep]

    wide = deep = None
    if config.use_wide:
        wide = real_slots(batch.wide_nodes, batch.wide_etypes, batch.wide_len)
    if config.use_deep:
        walks = (size * num_walks, -1)
        deep = real_slots(
            batch.deep_nodes.reshape(walks),
            batch.deep_etypes.reshape(walks),
            batch.deep_len.reshape(-1),
        )
    # One sort serves both sides: the unique ids and every slot's rank.
    neighbor_nodes, rank = np.unique(
        np.concatenate([side[1] for side in (wide, deep) if side is not None]),
        return_inverse=True,
    )
    pack = PackedBatch(
        batch_size=size, targets=batch.targets, neighbor_nodes=neighbor_nodes
    )

    def fill(side, rank: np.ndarray, owners: np.ndarray):
        """``(index, etypes)`` grids, one row per neighbor set."""
        keep, _, etypes = side
        index = np.zeros((keep.shape[0], keep.shape[1] + 1), np.int64)
        etype_grid = np.zeros(index.shape, np.int64)
        index[:, 0] = owners
        etype_grid[:, 0] = loop_types[owners]
        index[:, 1:][keep] = size + rank
        etype_grid[:, 1:][keep] = etypes
        return index, etype_grid

    used = wide_width = deep_width = 0
    if config.use_wide:
        pack.wide_index, pack.wide_etypes = fill(
            wide, rank[: wide[1].size], np.arange(size)
        )
        pack.wide_lengths = batch.wide_len + 1
        wide_width = pack.wide_index.shape[1]
        used += int(pack.wide_lengths.sum())
        counters.observe("wide", pack.wide_lengths, wide_width)
        pack.wide_valid, pack.wide_attn_mask = pad_block_masks(
            pack.wide_lengths, wide_width
        )
    if config.use_deep:
        pack.num_walks = num_walks
        pack.deep_index, pack.deep_etypes = fill(
            deep, rank[rank.size - deep[1].size :],
            np.repeat(np.arange(size), num_walks),
        )
        pack.deep_lengths = batch.deep_len.reshape(-1) + 1
        deep_width = pack.deep_index.shape[1]
        used += int(pack.deep_lengths.sum())
        counters.observe("deep", pack.deep_lengths, deep_width)
        pack.deep_valid, pack.deep_attn_mask = pad_block_masks(
            pack.deep_lengths, deep_width
        )
        pack.deep_causal_mask = deep_causal_mask(
            pack.deep_valid, pack.deep_attn_mask
        )
        if batch.relays:
            # Row-major over (target, walk, position): the order the
            # per-node path meets them in.
            b, walk, position = np.nonzero(batch.deep_relay)
            pack.deep_relay_rows = (b * num_walks + walk) * deep_width + position + 1
            pack.deep_relays = [
                batch.relays[key]
                for key in zip(b.tolist(), walk.tolist(), position.tolist())
            ]

    # ---- dropout: one draw per module, scattered by position -----------
    # The per-node path draws one mask per pack matrix — wide, then each
    # walk — target by target: the rows of one ``(used, d)`` draw, in that
    # order.  They land in one buffer laid out like the packs (all wide
    # slots, then all deep slots; ones where a grid is padding).
    drawn = _draw(pack_dropout, (used, d))
    if drawn is not None:
        wide_rows = pack.wide_index.size if config.use_wide else 0
        deep_rows = pack.deep_index.size if config.use_deep else 0

        # Per target: its wide segment, then its walks — the draw order;
        # each segment starts at its grid row's first slot.
        lengths, starts = [], []
        if config.use_wide:
            lengths.append(pack.wide_lengths.reshape(size, 1))
            starts.append((np.arange(size) * wide_width).reshape(size, 1))
        if config.use_deep:
            lengths.append(pack.deep_lengths.reshape(size, num_walks))
            starts.append(
                wide_rows
                + (np.arange(size * num_walks) * deep_width).reshape(size, num_walks)
            )
        lengths = np.concatenate(lengths, axis=1).ravel()
        starts = np.concatenate(starts, axis=1).ravel()
        masks = np.ones((wide_rows + deep_rows, d))
        masks[flat_slot_indices(lengths, starts)[0]] = drawn
        if config.use_wide:
            pack.wide_dropout = masks[:wide_rows].reshape(pack.wide_index.shape + (d,))
        if config.use_deep:
            pack.deep_dropout = masks[wide_rows:].reshape(pack.deep_index.shape + (d,))
    pack.hidden_dropout = _draw(hidden_dropout, (size, d))
    return pack
