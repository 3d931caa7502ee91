"""Concrete dataset recipes matching the paper's three benchmarks.

Each factory matches the real dataset's schema exactly (Table 1's node/edge
types, labeled node type, class count) at a single-CPU-friendly scale.  The
``scale`` parameter multiplies all node counts for the scalability
experiments (Fig. 5 samples *down* instead, via ``HeteroGraph.subgraph``).

| Paper dataset | Nodes (paper) | Nodes (here, scale=1) | Labeled type  |
|---------------|---------------|-----------------------|---------------|
| ACM           | 8,994         | ~1,080                | paper (3)     |
| DBLP          | 18,405        | ~1,530                | author (4)    |
| Yelp          | 2,179,470     | ~3,800                | business (3)  |
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.datasets.dataset import Dataset
from repro.datasets.splits import make_transductive_split
from repro.datasets.synthetic import EdgeSpec, SchemaConfig, generate_heterogeneous_graph
from repro.utils.rng import SeedLike, spawn_rngs


def make_acm(seed: SeedLike = 0, scale: float = 1.0) -> Dataset:
    """ACM-like graph: classify *papers* into 3 research areas.

    Schema (paper Section 4.1): paper/author/subject nodes; paper-author and
    paper-subject edges; bag-of-words features.
    """
    config = SchemaConfig(
        name="acm",
        node_counts={
            "paper": _scaled(600, scale),
            "author": _scaled(420, scale),
            "subject": _scaled(60, scale),
        },
        primary_type="paper",
        num_classes=3,
        edges=[
            # Authorship is a strong class signal; subject tags are broad and
            # noisy — mixing them indiscriminately (as type-blind models do)
            # dilutes the signal, mirroring real heterogeneous graphs.
            EdgeSpec("paper-author", "paper", "author", mean_degree=2.5, homophily=0.9),
            EdgeSpec("paper-subject", "paper", "subject", mean_degree=1.5, homophily=0.15),
        ],
        num_features=96,
        feature_style="bow",
        tokens_per_node=20,
        topic_sharpness=2.0,
        feature_noise=0.6,
        homophily=0.8,
    )
    return _build(config, train_per_class=40, val_per_class=20, seed=seed, scale=scale)


def make_dblp(seed: SeedLike = 0, scale: float = 1.0) -> Dataset:
    """DBLP-like graph: classify *authors* into 4 research areas.

    Schema: paper/author/conference/term nodes; paper-author, paper-conference
    and paper-term edges; bag-of-words features.
    """
    config = SchemaConfig(
        name="dblp",
        node_counts={
            "paper": _scaled(800, scale),
            "author": _scaled(480, scale),
            "conference": _scaled(24, scale),
            "term": _scaled(220, scale),
        },
        primary_type="author",
        num_classes=4,
        edges=[
            # Authors are the labeled type, so author-incident edges carry the
            # homophily channel.
            EdgeSpec("paper-author", "author", "paper", mean_degree=3.0, homophily=0.9),
            EdgeSpec("paper-conference", "paper", "conference", mean_degree=1.0, homophily=0.9),
            EdgeSpec("paper-term", "paper", "term", mean_degree=3.0, homophily=0.25),
        ],
        num_features=64,
        feature_style="bow",
        tokens_per_node=20,
        topic_sharpness=2.5,
        feature_noise=0.6,
        homophily=0.85,
    )
    return _build(config, train_per_class=40, val_per_class=20, seed=seed, scale=scale)


def make_yelp(seed: SeedLike = 0, scale: float = 1.0) -> Dataset:
    """Yelp-like graph: classify *businesses* into 3 service-quality tiers.

    Schema: user/business/category/attribute nodes; user-business, user-user,
    business-category and business-attribute edges; dense word2vec-like
    features (the paper averages pre-trained word embeddings of reviews).
    The graph is sparser and noisier than the academic graphs, mirroring the
    paper's observation that user-item graphs have average degree below 5.
    """
    config = SchemaConfig(
        name="yelp",
        node_counts={
            "business": _scaled(1200, scale),
            "user": _scaled(2400, scale),
            "category": _scaled(60, scale),
            "attribute": _scaled(120, scale),
        },
        primary_type="business",
        num_classes=3,
        edges=[
            EdgeSpec("user-business", "business", "user", mean_degree=3.0, homophily=0.75),
            EdgeSpec("user-user", "user", "user", mean_degree=1.5, homophilous=False),
            EdgeSpec("business-category", "business", "category", mean_degree=1.5, homophily=0.3),
            EdgeSpec("business-attribute", "business", "attribute", mean_degree=2.0, homophily=0.85),
        ],
        num_features=48,
        feature_style="dense",
        topic_sharpness=2.0,
        homophily=0.7,
        feature_noise=0.75,
    )
    return _build(config, train_per_class=100, val_per_class=50, seed=seed, scale=scale)


DATASETS: Dict[str, Callable[..., Dataset]] = {
    "acm": make_acm,
    "dblp": make_dblp,
    "yelp": make_yelp,
}


def make_dataset(name: str, seed: SeedLike = 0, scale: float = 1.0) -> Dataset:
    """Factory by name (``"acm"``, ``"dblp"``, ``"yelp"``)."""
    try:
        factory = DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    return factory(seed=seed, scale=scale)


def _scaled(count: int, scale: float) -> int:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return max(2, int(round(count * scale)))


def _build(
    config: SchemaConfig,
    train_per_class: int,
    val_per_class: int,
    seed: SeedLike,
    scale: float = 1.0,
) -> Dataset:
    graph_rng, split_rng = spawn_rngs(seed, 2)
    graph, _ = generate_heterogeneous_graph(config, seed=graph_rng)
    # Split sizes follow the dataset scale so reduced-scale graphs keep the
    # paper's train/test proportions (with sane floors).
    split = make_transductive_split(
        graph,
        config.primary_type,
        train_per_class=max(5, int(round(train_per_class * scale))),
        val_per_class=max(3, int(round(val_per_class * scale))),
        rng=split_rng,
    )
    return Dataset(
        name=config.name, graph=graph, target_type=config.primary_type, split=split
    )
