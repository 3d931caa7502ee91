"""Core layers: linear projection, embedding table, dropout, ReLU."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedLike, new_rng


class Linear(Module):
    """Affine map ``x W + b`` with row-vector convention (as in the paper)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng=rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Lookup table of ``num_embeddings`` vectors of size ``dim``.

    Used for edge-type embeddings (``G^edge`` in the paper) and for
    transductive node-ID embeddings in Node2Vec.
    """

    def __init__(self, num_embeddings: int, dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            init.xavier_uniform((num_embeddings, dim), rng=rng), name="embedding"
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return ops.embedding_lookup(self.weight, indices)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.dim})"


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        mask = self.draw_mask(x.data.shape)
        if mask is None:
            return x
        return ops.dropout_mask(x, mask)

    def draw_mask(self, shape) -> "np.ndarray | None":
        """Draw one scaled keep-mask for ``shape``, or None in eval mode.

        Exposed so the batched forward path can consume the rng stream in
        exactly the per-target order the per-node path would (one draw per
        pack matrix), assemble the draws into a padded batch mask, and stay
        bit-identical with the reference implementation under training.
        """
        if not self.training or self.p == 0.0:
            return None
        keep = 1.0 - self.p
        return (self._rng.random(shape) < keep) / keep

    def rng_state(self) -> dict:
        """Serializable bit-generator state of the mask rng."""
        return self._rng.bit_generator.state

    def load_rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)
