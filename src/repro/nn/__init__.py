"""Neural-network building blocks on top of :mod:`repro.tensor`.

Provides a small ``Module``/``Parameter`` system (state collection, train/eval
mode, serialization) and the layers shared by WIDEN and every baseline:
linear projections, embeddings, dropout, and scaled dot-product attention
blocks with optional additive masks.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, Embedding, Dropout
from repro.nn.attention import SelfAttention, QueryAttention, causal_mask
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "SelfAttention",
    "QueryAttention",
    "causal_mask",
    "init",
]
