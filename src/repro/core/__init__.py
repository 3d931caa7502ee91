"""WIDEN — the paper's primary contribution.

Implements the wide and deep message passing network of Section 3:

- heterogeneous message packaging (Eqs. 1-2) in
  :meth:`~repro.core.model.WidenModel.pack_wide` / ``pack_deep``;
- wide attentive message passing PASS° (Eq. 3) and successive self-attentive
  deep passing PASS▷ (Eqs. 4-6) in :class:`~repro.core.model.WidenModel`;
- wide/deep fusion (Eq. 7);
- active downsampling — Algorithm 1 (wide shrinking), Algorithm 2 (deep
  pruning with contextualized relay edges, Eq. 8) in :mod:`repro.core.relay`,
  with the KL-divergence trigger (Eq. 9) in
  :class:`~repro.core.trainer.WidenTrainer`;
- the full training loop of Algorithm 3 plus inductive inference for nodes
  unseen during training, under any of three objectives
  (:mod:`repro.core.objectives`: classification, walk context, edge
  existence).

Every Table-4 ablation is expressible through :class:`WidenConfig` switches
(see :mod:`repro.core.ablation`).
"""

from repro.core.classifier import WidenClassifier, serving_refusal
from repro.core.config import WidenConfig
from repro.core.model import WidenModel
from repro.core.objectives import Classification, EdgeExistence, WalkContext, split_edges
from repro.core.relay import RelayRecipe, prune_deep, shrink_wide
from repro.core.state import (
    NeighborState,
    NeighborStateStore,
    NeighborTable,
    stack_states,
)
from repro.core.train_loop import LocalTrainClient, TrainHistory, TrainLoop
from repro.core.trainer import WidenTrainer
from repro.core.ablation import ABLATION_VARIANTS, make_variant_config
from repro.core.analysis import downsampling_summary, edge_type_attention_profile

__all__ = [
    "WidenClassifier",
    "serving_refusal",
    "WidenConfig",
    "WidenModel",
    "WidenTrainer",
    "TrainLoop",
    "TrainHistory",
    "LocalTrainClient",
    "RelayRecipe",
    "prune_deep",
    "shrink_wide",
    "NeighborState",
    "NeighborStateStore",
    "NeighborTable",
    "stack_states",
    "ABLATION_VARIANTS",
    "make_variant_config",
    "edge_type_attention_profile",
    "downsampling_summary",
    "Classification",
    "WalkContext",
    "EdgeExistence",
    "split_edges",
]
