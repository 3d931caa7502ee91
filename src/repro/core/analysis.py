"""Post-hoc analysis of what WIDEN's attention learned.

The paper's central mechanism claim is that the self-attentive message
passing "distinguish[es] the varied contributions from all heterogeneous
message packs" — i.e. the model learns which *relations* matter.  These
utilities make that inspectable: they aggregate attention mass per edge type
across many target nodes, which both the tests and downstream users can use
to verify that informative relations (e.g. authorship) receive more weight
than noisy ones (e.g. broad subject tags).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.trainer import WidenTrainer
from repro.tensor import no_grad


def edge_type_attention_profile(
    trainer: WidenTrainer, nodes: Sequence[int]
) -> Dict[str, float]:
    """Mean wide-attention weight per edge type across ``nodes``.

    Runs one batched forward pass over ``nodes`` and attributes each neighbor
    pack's attention weight to the edge type connecting it.  Returns
    ``{edge_type_name: mean weight}`` (plus ``"self"`` for the target's own
    pack), normalized so a type attracting more attention *per pack* scores
    higher regardless of how many packs it contributes.
    """
    graph = trainer.graph
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    batch = trainer.store.batch(nodes)
    trainer.model.eval()
    with no_grad():
        _, wide_attention, _ = trainer.model.forward_batch(
            batch, graph, trainer.node_state, counters=trainer.pack_counters
        )
    trainer.model.train()
    if wide_attention is None:
        return {}
    for state, weights in zip(batch.records(), wide_attention.rows()):
        totals["self"] = totals.get("self", 0.0) + float(weights[0])
        counts["self"] = counts.get("self", 0) + 1
        for weight, etype in zip(weights[1:], state.wide.etypes):
            name = graph.edge_type_names[int(etype)]
            totals[name] = totals.get(name, 0.0) + float(weight)
            counts[name] = counts.get(name, 0) + 1
    return {name: totals[name] / counts[name] for name in totals}


def downsampling_summary(trainer: WidenTrainer, nodes: Sequence[int]) -> Dict[str, float]:
    """How far active downsampling compressed the neighbor sets.

    Returns mean wide/deep set sizes, relay counts, and maximum relay
    nesting depth over ``nodes`` — the structural footprint of Algorithms
    1-2 after training.
    """
    from repro.core.relay import RelayRecipe

    wide_sizes = []
    deep_sizes = []
    relay_count = 0
    max_depth = 0
    for node in nodes:
        state = trainer.store.get(int(node))
        wide_sizes.append(len(state.wide))
        for deep in state.deep:
            deep_sizes.append(len(deep))
            for relay in deep.relays:
                if isinstance(relay, RelayRecipe):
                    relay_count += 1
                    max_depth = max(max_depth, relay.depth())
    return {
        "mean_wide_size": float(np.mean(wide_sizes)) if wide_sizes else 0.0,
        "mean_deep_size": float(np.mean(deep_sizes)) if deep_sizes else 0.0,
        "relay_count": float(relay_count),
        "max_relay_depth": float(max_depth),
    }
