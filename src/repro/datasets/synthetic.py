"""Schema-driven synthetic heterogeneous graph generation.

A :class:`SchemaConfig` declares node types (one of which is *primary* — the
labeled classification target), edge types between them, feature style and
structural knobs.  :func:`generate_heterogeneous_graph` then builds a graph
where class information is recoverable through two channels, mirroring what
makes the real datasets learnable:

1. **Feature channel** — every class has a topic over a synthetic vocabulary;
   primary nodes draw bag-of-words (or dense word2vec-like) features from
   their class topic, and secondary nodes from the mixture of classes they
   attach to.
2. **Structure channel** — every secondary node has a latent class affinity;
   primary nodes connect to affinity-matching secondary nodes with
   probability ``homophily`` and uniformly otherwise.  Two primary nodes of
   the same class therefore share intermediate neighbors far more often than
   across classes, which is exactly the signal heterogeneous GNNs exploit.

Degree sequences are right-skewed (lognormal), matching the sparsity profile
the paper highlights (user-item graphs with average degree below 5).

**Draw order is the contract** every pinned digest and store row rests on:
the functions below make the RNG calls of the per-node loops kept in
``tests/helpers.py``, in their order, and no other work per node.
``integers`` stays per node: its bound follows the node's class and its
calls interleave with ``random``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph import GraphBuilder, HeteroGraph
from repro.utils.rng import SeedLike, new_rng


@dataclass
class EdgeSpec:
    """One edge type between two node types.

    ``mean_degree`` is the expected number of such edges per source-type
    node.  ``homophilous`` controls whether the class-affinity channel is
    used when wiring (it is for edges incident to the primary type).
    """

    name: str
    src_type: str
    dst_type: str
    mean_degree: float
    homophilous: bool = True
    homophily: Optional[float] = None
    """Per-edge-type homophily override; ``None`` inherits the schema-wide
    value.  Real heterogeneous graphs have *differentially* informative edge
    types (authorship is a strong class signal, subject tagging a weak one);
    this knob reproduces that, which is precisely what separates type-aware
    models from type-blind ones."""

    def __post_init__(self) -> None:
        if not self.mean_degree > 0.0:
            raise ValueError(f"mean_degree must be > 0, got {self.mean_degree}")
        if self.homophily is not None and not 0.0 <= self.homophily <= 1.0:
            raise ValueError(f"homophily must be in [0, 1], got {self.homophily}")


@dataclass
class SchemaConfig:
    """Full recipe for a synthetic heterogeneous dataset."""

    name: str
    node_counts: Dict[str, int]
    primary_type: str
    num_classes: int
    edges: List[EdgeSpec]
    num_features: int = 64
    feature_style: str = "bow"  # "bow" | "dense"
    tokens_per_node: int = 40
    topic_sharpness: float = 8.0
    homophily: float = 0.8
    feature_noise: float = 0.3
    secondary_feature_signal: float = 1.0
    """How class-correlated *non-primary* node features are, in [0, 1].
    Real heterogeneous benchmarks give secondary types weak or meaningless
    raw features (conference nodes in DBLP carry no bag-of-words); lowering
    this reproduces that, making indiscriminate neighbor averaging costly."""
    degree_sigma: float = 0.6

    def __post_init__(self) -> None:
        if self.primary_type not in self.node_counts:
            raise ValueError(
                f"primary type {self.primary_type!r} missing from node_counts"
            )
        if not 0.0 <= self.homophily <= 1.0:
            raise ValueError(f"homophily must be in [0, 1], got {self.homophily}")
        if not 0.0 <= self.secondary_feature_signal <= 1.0:
            raise ValueError(
                "secondary_feature_signal must be in [0, 1], got "
                f"{self.secondary_feature_signal}"
            )
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")
        if self.feature_style not in ("bow", "dense"):
            raise ValueError(f"unknown feature_style {self.feature_style!r}")
        for spec in self.edges:
            for side in (spec.src_type, spec.dst_type):
                if side not in self.node_counts:
                    raise ValueError(f"edge {spec.name!r} references unknown type {side!r}")


def generate_heterogeneous_graph(
    config: SchemaConfig, seed: SeedLike = None
) -> Tuple[HeteroGraph, Dict[str, np.ndarray]]:
    """Generate a graph from ``config``.

    Returns ``(graph, id_ranges)`` where ``id_ranges[type_name]`` holds the
    global node ids of that type.
    """
    rng = new_rng(seed)
    builder = GraphBuilder()
    id_ranges: Dict[str, np.ndarray] = {}
    for type_name, count in config.node_counts.items():
        id_ranges[type_name] = builder.add_nodes(type_name, count)

    # Latent class affinity for every node.  Primary nodes: their label.
    # Secondary nodes: a uniformly drawn affinity that steers homophilous
    # wiring and feature generation.
    affinity = np.empty(builder.num_nodes, dtype=np.int64)
    labels = np.full(builder.num_nodes, -1, dtype=np.int64)
    primary_ids = id_ranges[config.primary_type]
    primary_classes = rng.integers(0, config.num_classes, size=primary_ids.size)
    labels[primary_ids] = primary_classes
    for type_name, ids in id_ranges.items():
        if type_name == config.primary_type:
            affinity[ids] = primary_classes
        else:
            affinity[ids] = rng.integers(0, config.num_classes, size=ids.size)

    for spec in config.edges:
        src_ids = id_ranges[spec.src_type]
        dst_ids = id_ranges[spec.dst_type]
        src, dst = _wire_edges(spec, src_ids, dst_ids, affinity, config, rng)
        builder.add_edges(spec.name, src, dst, symmetric=True)

    features = _make_features(config, id_ranges, affinity, rng)
    graph = builder.finalize(
        features=features, labels=labels, num_classes=config.num_classes
    )
    return graph, id_ranges


def _wire_edges(
    spec: EdgeSpec,
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
    affinity: np.ndarray,
    config: SchemaConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw edges for one edge type with skewed degrees and homophily."""
    # Right-skewed (lognormal) degree sequence with the requested mean.
    raw = rng.lognormal(mean=0.0, sigma=config.degree_sigma, size=src_ids.size)
    degrees = np.maximum(1, np.round(raw * spec.mean_degree / raw.mean())).astype(int)

    # Destinations bucketed by affinity class, then all of them (the last).
    buckets = [dst_ids[affinity[dst_ids] == c] for c in range(config.num_classes)] + [dst_ids]
    homophily = config.homophily if spec.homophily is None else spec.homophily
    classes = affinity[src_ids]
    # Per node only the draws: indices into its class bucket (the first
    # ``taken[i]``), then into ``dst_ids``.
    picks, taken, pos = np.empty(int(degrees.sum()), np.int64), [], 0
    for degree, cls in zip(degrees.tolist(), classes.tolist()):
        n_same = np.count_nonzero(rng.random(degree) < homophily) if spec.homophilous else 0
        if n_same and buckets[cls].size:
            picks[pos : pos + n_same] = rng.integers(buckets[cls].size, size=n_same)
        else:  # an empty bucket hands its share to the uniform draw
            n_same = 0
        if degree > n_same:
            picks[pos + n_same : pos + degree] = rng.integers(dst_ids.size, size=degree - n_same)
        taken.append(n_same)
        pos += degree
    bucket_of = np.repeat(
        np.stack([classes, np.full_like(classes, config.num_classes)], axis=1).ravel(),
        np.stack([taken, degrees - taken], axis=1).ravel(),
    )
    src = np.repeat(src_ids, degrees)
    starts = np.cumsum([0] + [bucket.size for bucket in buckets])
    dst = np.concatenate(buckets)[starts[bucket_of] + picks]
    keep = src != dst  # drop accidental self-loops (same-type edges)
    src, dst = src[keep], dst[keep]
    # Deduplicate (and sort) the (src, dst) pairs so parallel edges do not
    # accumulate.
    pair_key = src * (affinity.size + 1) + dst
    _, unique_index = np.unique(pair_key, return_index=True)
    return src[unique_index], dst[unique_index]


def _make_features(
    config: SchemaConfig,
    id_ranges: Dict[str, np.ndarray],
    affinity: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Class-correlated features: bag-of-words counts or dense vectors."""
    # One topic per class: a Dirichlet sharpened on a class-specific block of
    # the vocabulary, so topics overlap partially (classification is not
    # trivially separable from features alone).
    concentration = np.ones((config.num_classes, config.num_features))
    block = config.num_features // config.num_classes
    for c in range(config.num_classes):
        start = c * block
        concentration[c, start : start + block] += config.topic_sharpness
    topics = np.stack([rng.dirichlet(concentration[c]) for c in range(config.num_classes)])
    uniform = np.full(config.num_features, 1.0 / config.num_features)

    features = np.zeros((affinity.size, config.num_features))
    for type_name, ids in id_ranges.items():
        signal = 1.0 if type_name == config.primary_type else config.secondary_feature_signal
        # Each node's mixture is its class's row: one row per class, gathered.
        topic = signal * topics + (1.0 - signal) * uniform
        mixed = (1.0 - config.feature_noise) * topic + config.feature_noise * uniform
        rows = mixed[affinity[ids]]
        if config.feature_style == "bow":
            # Counts, row-normalized to frequencies (the common preprocessing).
            counts = rng.multinomial(config.tokens_per_node, rows)
            features[ids] = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
        else:
            # Dense word2vec-like: topic embedding + Gaussian noise.
            features[ids] = rows * config.num_features + rng.normal(
                0.0, config.feature_noise * 3.0, size=rows.shape
            )
    return features
