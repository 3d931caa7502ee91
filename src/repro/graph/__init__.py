"""Heterogeneous graph substrate.

Provides the typed-graph data structure (Definition 1 of the paper), a
validating builder, neighbor sampling (wide sets, Definition 2; deep
random-walk sequences, Definition 3), subgraph extraction for the inductive
protocol, a graph partitioner (the paper's METIS role), and meta-path
utilities for the HAN/GTN baselines.
"""

from repro.graph.hetero_graph import HeteroGraph, MutationEvent
from repro.graph.builder import GraphBuilder
from repro.graph.halo import k_hop_in, k_hop_out, mutation_frontier
from repro.graph.random_walk import random_walk, node2vec_walks
from repro.graph.sampling import (
    DeepNeighborSet,
    WideNeighborSet,
    sample_deep,
    sample_wide,
)
from repro.graph.partition import partition_graph, edge_cut
from repro.graph.metapath import (
    compose_adjacency,
    metapath_adjacency,
)

__all__ = [
    "HeteroGraph",
    "MutationEvent",
    "GraphBuilder",
    "k_hop_in",
    "k_hop_out",
    "mutation_frontier",
    "random_walk",
    "node2vec_walks",
    "WideNeighborSet",
    "DeepNeighborSet",
    "sample_wide",
    "sample_deep",
    "partition_graph",
    "edge_cut",
    "compose_adjacency",
    "metapath_adjacency",
]
