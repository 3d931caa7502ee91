"""Tests for synthetic dataset generation and splits."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    DATASETS,
    Dataset,
    TransductiveSplit,
    label_fraction,
    make_acm,
    make_dataset,
    make_dblp,
    make_inductive_split,
    make_yelp,
)
from repro.datasets.synthetic import EdgeSpec, SchemaConfig, generate_heterogeneous_graph
from tests.helpers import per_node_graph


class TestSchemaConfig:
    def test_rejects_unknown_primary(self):
        with pytest.raises(ValueError):
            SchemaConfig(
                name="x", node_counts={"a": 5}, primary_type="b", num_classes=2,
                edges=[],
            )

    def test_rejects_unknown_edge_types(self):
        with pytest.raises(ValueError):
            SchemaConfig(
                name="x", node_counts={"a": 5}, primary_type="a", num_classes=2,
                edges=[EdgeSpec("e", "a", "missing", 1.0)],
            )

    def test_rejects_bad_homophily(self):
        with pytest.raises(ValueError):
            SchemaConfig(
                name="x", node_counts={"a": 5}, primary_type="a", num_classes=2,
                edges=[], homophily=1.5,
            )

    @pytest.mark.parametrize("field, value, message", [
        ("homophily", 1.7, r"homophily must be in \[0, 1\], got 1.7"),
        ("homophily", -0.1, r"homophily must be in \[0, 1\], got -0.1"),
        ("mean_degree", -3.0, "mean_degree must be > 0, got -3.0"),
        ("mean_degree", 0.0, "mean_degree must be > 0, got 0.0"),
    ])
    def test_edge_spec_rejects_bad_override(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            EdgeSpec("e", "a", "b", **{"mean_degree": 1.0, field: value})

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SchemaConfig(
                name="x", node_counts={"a": 5}, primary_type="a", num_classes=1,
                edges=[],
            )

    def test_rejects_unknown_feature_style(self):
        with pytest.raises(ValueError):
            SchemaConfig(
                name="x", node_counts={"a": 5}, primary_type="a", num_classes=2,
                edges=[], feature_style="sparse",
            )


class TestGenerator:
    @pytest.fixture
    def config(self):
        return SchemaConfig(
            name="toy",
            node_counts={"paper": 60, "author": 30},
            primary_type="paper",
            num_classes=3,
            edges=[EdgeSpec("pa", "paper", "author", 2.0)],
            num_features=24,
        )

    def test_only_primary_nodes_are_labeled(self, config):
        graph, ranges = generate_heterogeneous_graph(config, seed=0)
        assert (graph.labels[ranges["paper"]] >= 0).all()
        assert (graph.labels[ranges["author"]] == -1).all()

    def test_deterministic_with_seed(self, config):
        g1, _ = generate_heterogeneous_graph(config, seed=5)
        g2, _ = generate_heterogeneous_graph(config, seed=5)
        np.testing.assert_array_equal(g1.labels, g2.labels)
        np.testing.assert_allclose(g1.features, g2.features)
        np.testing.assert_array_equal(g1.indices, g2.indices)

    def test_different_seeds_differ(self, config):
        g1, _ = generate_heterogeneous_graph(config, seed=1)
        g2, _ = generate_heterogeneous_graph(config, seed=2)
        assert not np.array_equal(g1.indices, g2.indices)

    def test_all_classes_present(self, config):
        graph, _ = generate_heterogeneous_graph(config, seed=0)
        labeled = graph.labels[graph.labels >= 0]
        assert set(labeled.tolist()) == {0, 1, 2}

    def test_bow_features_are_frequencies(self, config):
        graph, _ = generate_heterogeneous_graph(config, seed=0)
        assert (graph.features >= 0).all()
        sums = graph.features.sum(axis=1)
        np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-9)

    def test_homophily_increases_same_class_shared_neighbors(self):
        """The structural channel: same-class papers share authors more often."""

        def shared_neighbor_rate(homophily):
            config = SchemaConfig(
                name="toy",
                node_counts={"paper": 120, "author": 60},
                primary_type="paper",
                num_classes=2,
                edges=[EdgeSpec("pa", "paper", "author", 3.0)],
                homophily=homophily,
            )
            graph, ranges = generate_heterogeneous_graph(config, seed=0)
            papers = ranges["paper"]
            adj = graph.adjacency()
            two_hop = (adj @ adj).tocsr()
            same = cross = 0
            for p in papers:
                row = two_hop[p]
                for other, weight in zip(row.indices, row.data):
                    if other in papers and other != p and weight > 0:
                        if graph.labels[p] == graph.labels[other]:
                            same += 1
                        else:
                            cross += 1
            return same / max(same + cross, 1)

        assert shared_neighbor_rate(0.95) > shared_neighbor_rate(0.0) + 0.1

    def test_degree_skew_is_right_tailed(self, config):
        graph, _ = generate_heterogeneous_graph(config, seed=0)
        degrees = graph.degrees()
        degrees = degrees[degrees > 0]
        assert degrees.max() > 2 * np.median(degrees)


NAMES = ("a", "b", "c")
UNIT = st.floats(0.0, 1.0)


@st.composite
def schemas(draw):
    """Small schemas whose draws reach every branch of the generator: types
    of 1-4 nodes against up to 4 classes leave some class without a
    destination, and same-type edges meet their own source."""
    names = NAMES[: draw(st.integers(1, len(NAMES)))]
    edges = [
        EdgeSpec(
            f"e{index}",
            draw(st.sampled_from(names)),
            draw(st.sampled_from(names)),
            mean_degree=draw(st.floats(0.5, 4.0)),
            homophilous=draw(st.booleans()),
            homophily=draw(st.none() | UNIT),
        )
        for index in range(draw(st.integers(1, 3)))
    ]
    return SchemaConfig(
        name="drawn",
        node_counts={name: draw(st.integers(1, 4)) for name in names},
        primary_type=draw(st.sampled_from(names)),
        num_classes=draw(st.integers(2, 4)),
        edges=edges,
        num_features=draw(st.integers(1, 9)),
        feature_style=draw(st.sampled_from(["bow", "dense"])),
        tokens_per_node=draw(st.integers(1, 30)),
        topic_sharpness=draw(st.floats(0.0, 8.0)),
        homophily=draw(UNIT),
        feature_noise=draw(UNIT),
        secondary_feature_signal=draw(st.sampled_from([1.0, 0.0]) | UNIT),
        degree_sigma=draw(st.floats(0.0, 1.5)),
    )


def test_generator_matches_the_per_node_reference_draw_for_draw():
    """The batched ``_wire_edges`` / ``_make_features`` make the per-node
    loops' RNG calls in the same order: the same CSR arrays, features and
    labels bit for bit, and the generator left in the same state.  The
    draws must reach every branch the batching folds away."""
    reached = set()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(config=schemas(), seed=st.integers(0, 2**32 - 1))
    def check(config, seed):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        graph, ranges = generate_heterogeneous_graph(config, seed=rng)
        want, want_ranges = per_node_graph(config, reference_rng, cases=reached)
        for name in ("indptr", "indices", "edge_type_of", "features", "labels", "node_types"):
            np.testing.assert_array_equal(getattr(graph, name), getattr(want, name))
            assert getattr(graph, name).dtype == getattr(want, name).dtype, name
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert ranges.keys() == want_ranges.keys()
        reached.update(
            case
            for case, hit in (
                ("homophilous", any(spec.homophilous for spec in config.edges)),
                ("non_homophilous", not all(spec.homophilous for spec in config.edges)),
                ("edge_homophily", any(spec.homophily is not None for spec in config.edges)),
                ("weak_secondary", len(ranges) > 1 and config.secondary_feature_signal < 1),
                (config.feature_style, True),
            )
            if hit
        )

    check()
    assert reached == {
        "homophilous", "non_homophilous", "edge_homophily", "weak_secondary",
        "bow", "dense", "empty_bucket", "self_loop",
    }


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_factories_produce_valid_datasets(self, name):
        dataset = make_dataset(name, seed=0)
        assert isinstance(dataset, Dataset)
        graph = dataset.graph
        assert graph.num_nodes > 500
        assert graph.num_edges > 1000
        stats = dataset.statistics()
        assert stats["train_nodes"] > 0
        assert stats["test_nodes"] > stats["val_nodes"]

    def test_acm_schema(self):
        graph = make_acm(seed=0).graph
        assert set(graph.node_type_names) == {"paper", "author", "subject"}
        assert set(graph.edge_type_names) == {"paper-author", "paper-subject"}
        assert graph.num_classes == 3

    def test_dblp_schema(self):
        dataset = make_dblp(seed=0)
        graph = dataset.graph
        assert set(graph.node_type_names) == {"paper", "author", "conference", "term"}
        assert graph.num_edge_types == 3
        assert graph.num_classes == 4
        assert dataset.target_type == "author"

    def test_yelp_schema(self):
        dataset = make_yelp(seed=0)
        graph = dataset.graph
        assert set(graph.node_type_names) == {"user", "business", "category", "attribute"}
        assert graph.num_edge_types == 4
        assert dataset.target_type == "business"
        # Dense features: not non-negative frequencies.
        assert (graph.features < 0).any()

    @pytest.mark.parametrize(
        "make, seed, scale, want",
        [
            (make_yelp, 3, 1.0, "98332f55f3fc4b80"),
            (make_acm, 0, 0.3, "8406ecbbb524ed3a"),
            (make_yelp, 0, 6.5, "9abd4675b13fd5bd"),
            (make_dblp, 0, 0.5, "8c863475e6558bf1"),
        ],
        ids=["yelp", "acm", "yelp_bench", "dblp_bow"],
    )
    def test_generated_graphs_are_pinned(self, make, seed, scale, want):
        """Every digest, pinned loss and store row downstream is a function
        of these arrays; the sha256 prefixes of the first two were taken at
        09253de, of ``yelp_bench`` (the benchmark's graph) and ``dblp_bow``
        at 2fe63de, before the per-node generator loops were batched."""
        graph = make(seed, scale=scale).graph
        digest = hashlib.sha256()
        for name in (
            "indptr", "indices", "edge_type_of", "features", "labels", "node_types"
        ):
            digest.update(np.ascontiguousarray(getattr(graph, name)).tobytes())
        assert digest.hexdigest()[:16] == want

    def test_relative_sizes_match_paper_ordering(self):
        acm = make_acm(seed=0).graph.num_nodes
        dblp = make_dblp(seed=0).graph.num_nodes
        yelp = make_yelp(seed=0).graph.num_nodes
        assert acm < dblp < yelp

    def test_scale_parameter(self):
        small = make_acm(seed=0, scale=0.5).graph.num_nodes
        full = make_acm(seed=0).graph.num_nodes
        assert 0.4 * full < small < 0.6 * full

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            make_acm(seed=0, scale=0.0)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            make_dataset("imaginary")

    def test_split_nodes_are_targets_and_labeled(self):
        dataset = make_acm(seed=0)
        graph = dataset.graph
        targets = set(dataset.target_nodes().tolist())
        for part in (dataset.split.train, dataset.split.val, dataset.split.test):
            assert set(part.tolist()) <= targets
            assert (graph.labels[part] >= 0).all()

    def test_split_is_stratified(self):
        dataset = make_acm(seed=0)
        labels = dataset.graph.labels[dataset.split.train]
        counts = np.bincount(labels)
        assert (counts == counts[0]).all()


class TestSplits:
    def test_transductive_split_rejects_overlap(self):
        with pytest.raises(ValueError):
            TransductiveSplit(
                train=np.array([1, 2]), val=np.array([2, 3]), test=np.array([4])
            )

    def test_label_fraction_sizes(self):
        nodes = np.arange(100)
        assert label_fraction(nodes, 0.25, rng=0).size == 25
        assert label_fraction(nodes, 1.0, rng=0).size == 100

    def test_label_fraction_subset(self):
        nodes = np.arange(50, 150)
        subset = label_fraction(nodes, 0.5, rng=0)
        assert set(subset.tolist()) <= set(nodes.tolist())

    def test_label_fraction_at_least_one(self):
        assert label_fraction(np.arange(3), 0.01, rng=0).size == 1

    def test_label_fraction_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            label_fraction(np.arange(5), 0.0)
        with pytest.raises(ValueError):
            label_fraction(np.arange(5), 1.5)

    def test_inductive_split_removes_holdout_from_graph(self):
        dataset = make_acm(seed=0)
        split = make_inductive_split(dataset, holdout_fraction=0.2, rng=0)
        expected_holdout = int(round(0.2 * dataset.graph.labeled_nodes().size))
        assert split.holdout.size == expected_holdout
        assert split.train_graph.num_nodes == dataset.graph.num_nodes - expected_holdout
        assert not set(split.holdout.tolist()) & set(split.train_mapping.tolist())

    def test_inductive_train_nodes_are_labeled_in_train_graph(self):
        dataset = make_acm(seed=0)
        split = make_inductive_split(dataset, rng=0)
        assert (split.train_graph.labels[split.train_nodes] >= 0).all()
        # Every labeled node not held out appears exactly once.
        assert split.train_nodes.size == dataset.graph.labeled_nodes().size - split.holdout.size

    def test_inductive_mapping_roundtrip(self):
        dataset = make_acm(seed=0)
        split = make_inductive_split(dataset, rng=0)
        # Features of train-graph node i must equal original features of mapping[i].
        np.testing.assert_allclose(
            split.train_graph.features, dataset.graph.features[split.train_mapping]
        )

    def test_inductive_rejects_bad_fraction(self):
        dataset = make_acm(seed=0)
        with pytest.raises(ValueError):
            make_inductive_split(dataset, holdout_fraction=0.0)
        with pytest.raises(ValueError):
            make_inductive_split(dataset, holdout_fraction=1.0)
