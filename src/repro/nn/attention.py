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
    the attended vector and the weight distribution.  Only one row queries,
    so the product is taken in the order that projects the query and never
    the grid: ``u = (q W_Q) W_K^T``, ``w = softmax(u M^T / sqrt(d))``,
    ``(w M) W_V`` — gemms over ``(S, d)`` rows instead of ``(S·L, d)``, and
    no projected key or value matrix exists in any layout.
    """

    def __init__(self, dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        rngs = spawn_rngs(rng, 3)
        self.dim = dim
        self.w_query = Parameter(init.xavier_uniform((dim, dim), rng=rngs[0]), name="w_q")
        self.w_key = Parameter(init.xavier_uniform((dim, dim), rng=rngs[1]), name="w_k")
        self.w_value = Parameter(init.xavier_uniform((dim, dim), rng=rngs[2]), name="w_v")

    def forward(
        self,
        query: Tensor,
        keys: Tensor,
        values: Optional[Tensor] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor]:
        """``query``: (d,) or (1, d); ``keys``/``values``: (m, d).

        ``values`` defaults to ``keys`` (ordinary PASS°, Eq. 3).  PASS▷
        (Eq. 5) passes refined packs H▷ as keys but the raw packs M▷ as
        values.  Returns ``(attended, weights)`` with shapes matching the
        query's dimensionality.

        Padded batch: ``query`` (B, d) with ``keys``/``values`` (B, m, d)
        attends each batch row's query over its own pack matrix as one
        autograd node (:func:`repro.tensor.functional.query_attend`),
        returning ``((B, d), (B, m))`` with the weights detached.  ``query``
        may instead be a ``(B, m, d)`` pack grid whose row 0 queries.
        ``mask`` is additive ``(B, m)`` — ``-inf`` at padded pack slots gives
        them exactly zero weight, so a padded batch reproduces the
        per-target results.
        """
        if values is None:
            values = keys
        if keys.data.ndim == 3:
            return F.query_attend(
                query, keys, values, self.w_query, self.w_key, self.w_value, mask=mask
            )
        # 2-D reference: the same reassociation out of composed ops.
        q = ops.matmul(query, self.w_query)
        u = ops.matmul(q, self.w_key, transpose_b=True)
        pooled, weights = F.attention(u, keys, values, mask=mask, return_weights=True)
        return ops.matmul(pooled, self.w_value), weights


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
    ) -> Tuple[Tensor, Tensor]:
        """``packs``: (m, d); ``mask``: additive (m, m) or None.

        Returns ``(updated_packs, weights)`` of shapes ((m, d), (m, m)).

        Padded batch: ``packs`` (B, m, d) with a mask broadcastable to
        (B, m, m) refines every batch row's pack matrix as one autograd
        node (:func:`repro.tensor.functional.self_attend`, weights
        detached).  Every row of the mask must keep at least one finite entry —
        padded rows conventionally attend to themselves — or the softmax
        sees an all ``-inf`` row.
        """
        if packs.data.ndim == 3:
            return F.self_attend(
                packs, self.w_query, self.w_key, self.w_value, mask=mask
            )
        q = ops.matmul(packs, self.w_query)
        k = ops.matmul(packs, self.w_key)
        v = ops.matmul(packs, self.w_value)
        return F.attention(q, k, v, mask=mask, return_weights=True)
