"""Scaled dot-product attention blocks.

Two flavours mirror the paper's two uses:

- :class:`QueryAttention` — a single query vector attends over a matrix of
  message packs (PASS° in Eq. 3 and PASS▷ in Eq. 5).
- :class:`SelfAttention` — every row attends over every row, optionally with
  an additive mask (the successive self-attention of Eq. 4 with the causal
  mask Θ of Eq. 6).

Both expose the attention weights because WIDEN's active downsampling and the
KL-divergence trigger consume them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedLike, spawn_rngs


def causal_mask(length: int) -> np.ndarray:
    """Additive mask Θ (Eq. 6): row may attend to col only when row <= col.

    In WIDEN's deep message passing, information flows from the *end* of the
    random-walk sequence back toward the target node, so position ``row``
    aggregates from positions at or beyond itself.
    """
    mask = np.zeros((length, length))
    mask[np.tril_indices(length, k=-1)] = -np.inf
    return mask


class QueryAttention(Module):
    """One query vector attending over a pack matrix.

    Computes ``softmax(q W_Q (M W_K)^T / sqrt(d)) · M W_V`` and returns both
    the attended vector and the weight distribution.

    ``num_heads > 1`` splits the projections into parallel heads whose
    outputs are concatenated (multi-head attention, Vaswani et al. 2017) —
    an extension beyond the paper's single-head Eq. 3.  The returned weight
    distribution is the mean over heads, which keeps the downsampler's
    contract (one probability per pack) intact.
    """

    def __init__(self, dim: int, num_heads: int = 1, rng: SeedLike = None) -> None:
        super().__init__()
        if num_heads < 1 or dim % num_heads != 0:
            raise ValueError(
                f"num_heads must be >= 1 and divide dim, got {num_heads} for dim {dim}"
            )
        rngs = spawn_rngs(rng, 3)
        self.dim = dim
        self.num_heads = num_heads
        self.w_query = Parameter(init.xavier_uniform((dim, dim), rng=rngs[0]), name="w_q")
        self.w_key = Parameter(init.xavier_uniform((dim, dim), rng=rngs[1]), name="w_k")
        self.w_value = Parameter(init.xavier_uniform((dim, dim), rng=rngs[2]), name="w_v")

    def forward(
        self,
        query: Tensor,
        keys: Tensor,
        values: Optional[Tensor] = None,
        mask: Optional[np.ndarray] = None,
        pairs: Optional[tuple] = None,
    ) -> Tuple[Tensor, Tensor]:
        """``query``: (d,) or (1, d); ``keys``/``values``: (m, d).

        ``values`` defaults to ``keys`` (ordinary PASS°, Eq. 3).  PASS▷
        (Eq. 5) passes refined packs H▷ as keys but the raw packs M▷ as
        values.  Returns ``(attended, weights)`` with shapes matching the
        query's dimensionality.

        Padded batch: ``query`` (B, d) with ``keys``/``values`` (B, m, d)
        attends each batch row's query over its own pack matrix in single
        batched ops, returning ``((B, d), (B, m))``.  ``mask`` is an
        additive array broadcastable to the score shape — ``-inf`` at
        padded pack slots gives them exactly zero weight, so a padded batch
        reproduces the per-target results.

        CSR batch: with ``pairs = (segment_ids, None, offsets)`` the
        keys/values are flat ``(E, d)`` pack rows, segment ``s`` at
        ``offsets[s]:offsets[s + 1]`` answering query row ``s`` of
        ``(S, d)``.  Returns ``((S, d), (E,))``; the flat weight vector
        holds each segment's distribution contiguously, matching the padded
        kernel's valid slots.
        """
        if values is None:
            values = keys
        batched = keys.ndim == 3
        if batched and query.ndim == 2:
            query = ops.reshape(query, (keys.shape[0], 1, self.dim))
            if mask is not None and mask.ndim == 2:
                mask = mask[:, np.newaxis, :]
        q = ops.matmul(query, self.w_query)
        k = ops.matmul(keys, self.w_key)
        v = ops.matmul(values, self.w_value)
        if self.num_heads == 1:
            attended, weights = F.attention(
                q, k, v, mask=mask, return_weights=True, pairs=pairs
            )
        else:
            head_dim = self.dim // self.num_heads
            attended_heads = []
            weight_heads = []
            key_axis = k.ndim - 1
            for head in range(self.num_heads):
                lo, hi = head * head_dim, (head + 1) * head_dim
                q_h = ops.slice(q, lo, hi, axis=q.ndim - 1)
                k_h = ops.slice(k, lo, hi, axis=key_axis)
                v_h = ops.slice(v, lo, hi, axis=key_axis)
                head_out, weights = F.attention(
                    q_h, k_h, v_h, mask=mask, return_weights=True, pairs=pairs
                )
                attended_heads.append(head_out)
                weight_heads.append(weights)
            attended = ops.concat(attended_heads, axis=-1)
            weights = weight_heads[0]
            for head_weights in weight_heads[1:]:
                weights = weights + head_weights
            weights = weights / float(self.num_heads)
        if batched:
            batch = keys.shape[0]
            attended = ops.reshape(attended, (batch, self.dim))
            weights = ops.reshape(weights, (batch, keys.shape[1]))
        return attended, weights


class SelfAttention(Module):
    """Full self-attention over a pack matrix with optional additive mask."""

    def __init__(self, dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        rngs = spawn_rngs(rng, 3)
        self.dim = dim
        self.w_query = Parameter(init.xavier_uniform((dim, dim), rng=rngs[0]), name="w_q")
        self.w_key = Parameter(init.xavier_uniform((dim, dim), rng=rngs[1]), name="w_k")
        self.w_value = Parameter(init.xavier_uniform((dim, dim), rng=rngs[2]), name="w_v")

    def forward(
        self,
        packs: Tensor,
        mask: Optional[np.ndarray] = None,
        pairs: Optional[tuple] = None,
    ) -> Tuple[Tensor, Tensor]:
        """``packs``: (m, d); ``mask``: additive (m, m) or None.

        Returns ``(updated_packs, weights)`` of shapes ((m, d), (m, m)).

        Padded batch: ``packs`` (B, m, d) with a mask broadcastable to
        (B, m, m) refines every batch row's pack matrix in single batched
        ops.  Every row of the mask must keep at least one finite entry —
        padded rows conventionally attend to themselves — or the softmax
        sees an all ``-inf`` row.

        CSR batch: ``packs`` is the flat ``(E, d)`` pack-row matrix and
        ``pairs`` (from :func:`repro.core.packing.causal_pairs`) enumerates
        exactly the (row, col) pairs the causal mask Θ keeps — row ``i``
        attends to cols ``i..end-of-segment`` — grouped by attending row,
        so no ``(m, m)`` grid is built.  The weights come back flat, one
        per pair.
        """
        q = ops.matmul(packs, self.w_query)
        k = ops.matmul(packs, self.w_key)
        v = ops.matmul(packs, self.w_value)
        return F.attention(q, k, v, mask=mask, return_weights=True, pairs=pairs)
