"""Synthetic, schema-preserving stand-ins for the paper's datasets.

The paper evaluates on real DBLP, ACM and Yelp heterogeneous graphs that are
not available offline.  These generators produce graphs with the **same
schema** (node types, edge types, labeled node type, class count), the same
qualitative structure (degree skew, class homophily through shared
intermediate nodes, class-correlated features) at a CPU-friendly scale.
Every model in the evaluation consumes the same graphs, so comparative
results keep their shape.

Public entry points::

    dataset = make_acm(seed=0)      # ACM: classify papers (3 classes)
    dataset = make_dblp(seed=0)     # DBLP: classify authors (4 classes)
    dataset = make_yelp(seed=0)     # Yelp: classify businesses (3 classes)
"""

from repro.datasets.dataset import Dataset, TransductiveSplit
from repro.datasets.catalog import (
    make_acm, make_dblp, make_yelp, make_dataset, DATASETS,
)
from repro.datasets.splits import label_fraction, make_inductive_split, InductiveSplit
from repro.datasets.synthetic import SchemaConfig, generate_heterogeneous_graph

__all__ = [
    "Dataset",
    "TransductiveSplit",
    "InductiveSplit",
    "make_acm",
    "make_dblp",
    "make_yelp",
    "make_dataset",
    "DATASETS",
    "label_fraction",
    "make_inductive_split",
    "SchemaConfig",
    "generate_heterogeneous_graph",
]
