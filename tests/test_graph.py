"""Tests for the heterogeneous graph substrate."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_acm, make_yelp
from repro.graph import (
    GraphBuilder,
    edge_cut,
    k_hop_in,
    k_hop_out,
    mutation_frontier,
    metapath_adjacency,
    node2vec_walks,
    partition_graph,
    random_walk,
    sample_deep,
    sample_wide,
)
from repro.graph.metapath import compose_adjacency, row_normalize


def small_academic_graph(seed: int = 0):
    """A toy ACM-like graph: papers, authors, subjects."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    papers = builder.add_nodes("paper", 30)
    authors = builder.add_nodes("author", 15)
    subjects = builder.add_nodes("subject", 5)
    pa_src = rng.integers(0, 30, 60)
    pa_dst = authors[rng.integers(0, 15, 60)]
    builder.add_edges("paper-author", pa_src, pa_dst)
    ps_src = np.arange(30)
    ps_dst = subjects[rng.integers(0, 5, 30)]
    builder.add_edges("paper-subject", ps_src, ps_dst)
    labels = np.full(50, -1, dtype=np.int64)
    labels[:30] = rng.integers(0, 3, 30)
    return builder.finalize(
        features=rng.normal(size=(50, 8)), labels=labels, num_classes=3
    )


class TestBuilder:
    def test_id_ranges_are_contiguous(self):
        builder = GraphBuilder()
        a = builder.add_nodes("a", 3)
        b = builder.add_nodes("b", 4)
        np.testing.assert_array_equal(a, [0, 1, 2])
        np.testing.assert_array_equal(b, [3, 4, 5, 6])

    def test_same_type_twice_extends(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 2)
        builder.add_nodes("b", 2)
        more = builder.add_nodes("a", 2)
        graph = builder.finalize()
        assert graph.num_node_types == 2
        assert (graph.node_types[more] == 0).all()

    def test_symmetric_edges_stored_both_ways(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 2)
        builder.add_edges("link", np.array([0]), np.array([1]), symmetric=True)
        graph = builder.finalize()
        assert graph.num_edges == 2
        assert graph.neighbors(0)[0].tolist() == [1]
        assert graph.neighbors(1)[0].tolist() == [0]

    def test_asymmetric_edges(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 2)
        builder.add_edges("link", np.array([0]), np.array([1]), symmetric=False)
        graph = builder.finalize()
        assert graph.neighbors(1)[0].size == 0

    def test_rejects_out_of_range_edges(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 2)
        with pytest.raises(IndexError):
            builder.add_edges("link", np.array([0]), np.array([5]))

    def test_rejects_self_loops(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 2)
        with pytest.raises(ValueError):
            builder.add_edges("link", np.array([1]), np.array([1]))

    def test_rejects_shape_mismatch(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 3)
        with pytest.raises(ValueError):
            builder.add_edges("link", np.array([0, 1]), np.array([2]))

    def test_rejects_bad_feature_rows(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 3)
        with pytest.raises(ValueError):
            builder.finalize(features=np.zeros((2, 4)))

    def test_rejects_small_num_classes(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 3)
        with pytest.raises(ValueError):
            builder.finalize(labels=np.array([0, 1, 2]), num_classes=2)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            GraphBuilder().finalize()

    def test_empty_edge_batch_is_noop(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 2)
        builder.add_edges("link", np.empty(0, int), np.empty(0, int))
        assert builder.finalize().num_edges == 0


class TestHeteroGraph:
    def test_statistics_shape(self):
        stats = small_academic_graph().statistics()
        assert stats["num_nodes"] == 50
        assert stats["num_node_types"] == 3
        assert stats["num_edge_types"] == 2
        assert stats["num_features"] == 8
        assert stats["num_classes"] == 3
        assert sum(stats["nodes_per_type"].values()) == 50
        assert sum(stats["edges_per_type"].values()) == stats["num_edges"]

    def test_neighbors_consistent_with_degree(self):
        graph = small_academic_graph()
        for node in range(graph.num_nodes):
            neighbors, etypes = graph.neighbors(node)
            assert neighbors.size == graph.degree(node)
            assert neighbors.shape == etypes.shape

    def test_degrees_sum_to_edges(self):
        graph = small_academic_graph()
        assert graph.degrees().sum() == graph.num_edges

    def test_self_loop_types_are_distinct_per_node_type(self):
        graph = small_academic_graph()
        paper = graph.nodes_of_type("paper")[0]
        author = graph.nodes_of_type("author")[0]
        assert graph.self_loop_type(paper) != graph.self_loop_type(author)
        assert graph.self_loop_type(paper) >= graph.num_edge_types
        assert graph.num_edge_types_with_loops == 2 + 3

    def test_self_loop_types_vectorized(self):
        graph = small_academic_graph()
        nodes = np.array([0, 35, 46])
        expected = [graph.self_loop_type(int(v)) for v in nodes]
        np.testing.assert_array_equal(graph.self_loop_types(nodes), expected)

    def test_nodes_of_type(self):
        graph = small_academic_graph()
        assert graph.nodes_of_type("paper").size == 30
        assert graph.nodes_of_type("subject").size == 5

    def test_labeled_nodes(self):
        graph = small_academic_graph()
        labeled = graph.labeled_nodes()
        assert labeled.size == 30
        assert (graph.labels[labeled] >= 0).all()

    def test_adjacency_symmetric(self):
        graph = small_academic_graph()
        adj = graph.adjacency()
        assert (adj != adj.T).nnz == 0

    def test_adjacency_per_edge_type_partitions_edges(self):
        graph = small_academic_graph()
        full = graph.adjacency()
        combined = graph.adjacency(edge_type=0) + graph.adjacency(edge_type=1)
        combined.data = np.minimum(combined.data, 1.0)
        assert (full != combined).nnz == 0

    def test_adjacency_self_loops(self):
        graph = small_academic_graph()
        adj = graph.adjacency(add_self_loops=True)
        np.testing.assert_allclose(adj.diagonal(), np.ones(graph.num_nodes))

    def test_normalized_adjacency_spectrum_bounded(self):
        graph = small_academic_graph()
        norm = graph.normalized_adjacency()
        # Symmetric normalization keeps eigenvalues in [-1, 1]; the row sums
        # are a cheap proxy bound.
        assert norm.max() <= 1.0 + 1e-9

    def test_subgraph_preserves_types_features_labels(self):
        graph = small_academic_graph()
        keep = np.arange(0, 40)
        sub, mapping = graph.subgraph(keep)
        np.testing.assert_array_equal(mapping, keep)
        np.testing.assert_array_equal(sub.node_types, graph.node_types[keep])
        np.testing.assert_allclose(sub.features, graph.features[keep])
        np.testing.assert_array_equal(sub.labels, graph.labels[keep])

    def test_subgraph_drops_crossing_edges(self):
        graph = small_academic_graph()
        sub, mapping = graph.subgraph(np.arange(30))  # papers only
        # paper-paper edges do not exist; all edges crossed into authors/subjects.
        assert sub.num_edges == 0

    def test_subgraph_edges_are_remapped(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 5)
        builder.add_edges("link", np.array([1, 3]), np.array([3, 4]))
        graph = builder.finalize()
        sub, mapping = graph.subgraph(np.array([1, 3, 4]))
        # old 1->3 becomes new 0->1; old 3->4 becomes new 1->2 (plus reverses)
        assert sub.num_edges == 4
        assert set(sub.neighbors(0)[0].tolist()) == {1}
        assert set(sub.neighbors(1)[0].tolist()) == {0, 2}

    def test_remove_nodes_complement(self):
        graph = small_academic_graph()
        sub, mapping = graph.remove_nodes(np.array([0, 1, 2]))
        assert sub.num_nodes == graph.num_nodes - 3
        assert 0 not in mapping and 2 not in mapping

    def test_subgraph_out_of_range_raises(self):
        graph = small_academic_graph()
        with pytest.raises(IndexError):
            graph.subgraph(np.array([999]))


class TestRandomWalk:
    def test_walk_length_and_connectivity(self):
        graph = small_academic_graph()
        nodes, etypes = random_walk(graph, 0, 10, rng=0)
        assert nodes.size == etypes.size == 10
        # Each step must be an actual edge with the recorded type.
        previous = 0
        for node, etype in zip(nodes, etypes):
            neighbors, types = graph.neighbors(previous)
            matches = types[neighbors == node]
            assert etype in matches
            previous = int(node)

    def test_walk_stops_at_sink(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 3)
        builder.add_edges("link", np.array([0]), np.array([1]), symmetric=False)
        graph = builder.finalize()
        nodes, etypes = random_walk(graph, 0, 10, rng=0)
        assert nodes.tolist() == [1]

    def test_walk_deterministic_with_seed(self):
        graph = small_academic_graph()
        a, _ = random_walk(graph, 5, 8, rng=42)
        b, _ = random_walk(graph, 5, 8, rng=42)
        np.testing.assert_array_equal(a, b)

    def test_node2vec_includes_start(self):
        graph = small_academic_graph()
        walks, lengths = node2vec_walks(graph, np.array([3, 5]), 6, p=0.5, q=2.0, rng=0)
        assert walks.shape == (2, 7)
        assert walks[:, 0].tolist() == [3, 5]
        assert (lengths <= 7).all()
        for walk, size in zip(walks, lengths):
            for a, b in zip(walk[: size - 1], walk[1:size]):
                assert b in graph.neighbors(int(a))[0]

    def test_node2vec_low_p_returns_often(self):
        graph = small_academic_graph(seed=3)
        return_rates = {}
        for p in (0.01, 100.0):
            walks, lengths = node2vec_walks(graph, np.zeros(60, np.int64), 10, p=p, q=1.0, rng=0)
            returns = total = 0
            for walk, size in zip(walks, lengths):
                for i in range(2, size):
                    total += 1
                    if walk[i] == walk[i - 2]:
                        returns += 1
            return_rates[p] = returns / max(total, 1)
        assert return_rates[0.01] > return_rates[100.0]

    def test_node2vec_step_matches_the_biased_distribution(self):
        """Rejection draws the second step with probability ∝ 1/p (return),
        1 (common neighbor of the previous node), 1/q (farther)."""
        graph = small_academic_graph(seed=3)
        start = 0
        first = int(graph.neighbors(start)[0][0])
        p, q = 0.5, 4.0
        candidates = graph.neighbors(first)[0]
        previous_neighbors = set(graph.neighbors(start)[0].tolist())
        weights = np.array([
            1 / p if c == start else 1.0 if c in previous_neighbors else 1 / q
            for c in candidates
        ])
        expected = {}
        for c, w in zip(candidates.tolist(), weights / weights.sum()):
            expected[c] = expected.get(c, 0.0) + w
        # Step 2 of the walks whose step 1 landed on ``first``.
        walks, lengths = node2vec_walks(
            graph, np.full(40000, start), 2, p=p, q=q, rng=1
        )
        second = walks[(walks[:, 1] == first) & (lengths == 3), 2]
        assert second.size > 500
        for c, share in expected.items():
            assert abs(np.mean(second == c) - share) < 0.05

    def test_node2vec_large_p_leaves_a_leaf_without_spinning(self):
        """On the path 0 - 1 - 2 with p = 1e6 a walker at a leaf can only go
        back, a step rejection keeps once in a million draws; the capped
        rounds hand it to the normalised draw, and in the middle the way
        back is (almost surely) not taken."""
        builder = GraphBuilder()
        builder.add_nodes("a", 3)
        builder.add_edges("link", np.array([0, 1]), np.array([1, 2]))
        graph = builder.finalize()
        walks, lengths = node2vec_walks(graph, np.zeros(50, np.int64), 6, p=1e6, rng=0)
        assert (lengths == 7).all()
        assert (walks == [0, 1, 2, 1, 0, 1, 2]).all()

    def test_node2vec_normalised_draw_matches_the_weights(self):
        """At the centre of a star, coming from leaf 1, with p = 1e6 and
        q = 2e6 rejection keeps almost nothing, so the normalised draw picks
        the step: back to 1 with 1/p / (1/p + 3/q) = 0.4, each other leaf
        with 0.2."""
        builder = GraphBuilder()
        builder.add_nodes("a", 5)
        builder.add_edges("link", np.zeros(4, np.int64), np.arange(1, 5))
        graph = builder.finalize()
        walks, _ = node2vec_walks(graph, np.ones(20000, np.int64), 2, p=1e6, q=2e6, rng=0)
        shares = np.bincount(walks[:, 2], minlength=5)[1:] / walks.shape[0]
        np.testing.assert_allclose(shares, [0.4, 0.2, 0.2, 0.2], atol=0.02)

    def test_node2vec_rejects_bad_params(self):
        graph = small_academic_graph()
        with pytest.raises(ValueError):
            node2vec_walks(graph, np.array([0]), 5, p=0.0)


class TestSampling:
    def test_wide_sample_size(self):
        graph = small_academic_graph()
        wide = sample_wide(graph, 0, 4, rng=0)
        assert len(wide) == 4

    def test_wide_sample_without_replacement_when_possible(self):
        builder = GraphBuilder()
        nodes = builder.add_nodes("a", 10)
        builder.add_edges("link", np.zeros(9, int), nodes[1:])
        graph = builder.finalize()
        wide = sample_wide(graph, 0, 9, rng=0)
        assert len(set(wide.nodes.tolist())) == 9

    def test_wide_sample_isolated_node_empty(self):
        builder = GraphBuilder()
        builder.add_nodes("a", 3)
        builder.add_edges("link", np.array([0]), np.array([1]))
        graph = builder.finalize()
        assert len(sample_wide(graph, 2, 5, rng=0)) == 0

    def test_wide_edges_are_real(self):
        graph = small_academic_graph()
        wide = sample_wide(graph, 0, 5, rng=1)
        neighbors, types = graph.neighbors(0)
        for node, etype in zip(wide.nodes, wide.etypes):
            assert etype in types[neighbors == node]

    def test_wide_drop_reindexes(self):
        graph = small_academic_graph()
        wide = sample_wide(graph, 0, 5, rng=1)
        smaller = wide.drop(2)
        assert len(smaller) == 4
        expected = np.delete(wide.nodes, 2)
        np.testing.assert_array_equal(smaller.nodes, expected)

    def test_wide_drop_out_of_range(self):
        graph = small_academic_graph()
        wide = sample_wide(graph, 0, 3, rng=1)
        with pytest.raises(IndexError):
            wide.drop(99)

    def test_deep_sample_is_walk(self):
        graph = small_academic_graph()
        deep = sample_deep(graph, 0, 7, rng=0)
        assert len(deep) == 7
        assert all(relay is None for relay in deep.relays)

    def test_rejects_nonpositive_sizes(self):
        graph = small_academic_graph()
        with pytest.raises(ValueError):
            sample_wide(graph, 0, 0)
        with pytest.raises(ValueError):
            sample_deep(graph, 0, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**31 - 1))
    def test_property_wide_size_bounded(self, num_wide, seed):
        graph = small_academic_graph()
        wide = sample_wide(graph, 0, num_wide, rng=seed)
        assert len(wide) in (0, num_wide)


class TestPartition:
    def test_parts_cover_all_nodes_exactly_once(self):
        graph = small_academic_graph()
        parts = partition_graph(graph, 4, rng=0)
        combined = np.concatenate(parts)
        assert combined.size == graph.num_nodes
        assert np.unique(combined).size == graph.num_nodes

    def test_parts_are_balanced(self):
        graph = small_academic_graph()
        parts = partition_graph(graph, 4, rng=0)
        sizes = [len(p) for p in parts]
        assert max(sizes) <= 1.5 * graph.num_nodes / 4 + 1

    def test_single_part_is_identity(self):
        graph = small_academic_graph()
        parts = partition_graph(graph, 1)
        np.testing.assert_array_equal(parts[0], np.arange(graph.num_nodes))

    def test_refinement_does_not_increase_cut(self):
        graph = small_academic_graph(seed=7)
        raw = partition_graph(graph, 3, refine_passes=0, rng=0)
        refined = partition_graph(graph, 3, refine_passes=3, rng=0)
        assert edge_cut(graph, refined) <= edge_cut(graph, raw)

    def test_too_many_parts_raises(self):
        graph = small_academic_graph()
        with pytest.raises(ValueError):
            partition_graph(graph, graph.num_nodes + 1)

    def test_invalid_num_parts(self):
        graph = small_academic_graph()
        with pytest.raises(ValueError):
            partition_graph(graph, 0)


class TestMetapath:
    def test_apa_connects_coauthors(self):
        builder = GraphBuilder()
        papers = builder.add_nodes("paper", 2)
        authors = builder.add_nodes("author", 3)
        # paper0 by authors {0,1}; paper1 by authors {1,2}
        builder.add_edges(
            "paper-author",
            np.array([0, 0, 1, 1]),
            np.array([authors[0], authors[1], authors[1], authors[2]]),
        )
        graph = builder.finalize()
        # author -> paper -> author
        apa = metapath_adjacency(graph, ["paper-author", "paper-author"])
        assert apa[authors[0], authors[1]] == 1
        assert apa[authors[0], authors[2]] == 0  # no shared paper
        assert apa[authors[1], authors[2]] == 1

    def test_binary_flag(self):
        graph = small_academic_graph()
        counted = metapath_adjacency(graph, ["paper-author", "paper-author"], binary=False)
        binary = metapath_adjacency(graph, ["paper-author", "paper-author"], binary=True)
        assert counted.max() >= binary.max()
        assert set(np.unique(binary.data)) <= {1.0}

    def test_empty_metapath_raises(self):
        graph = small_academic_graph()
        with pytest.raises(ValueError):
            metapath_adjacency(graph, [])

    def test_compose_adjacency_identityish(self):
        graph = small_academic_graph()
        adjs = [graph.adjacency(edge_type=e) for e in range(graph.num_edge_types)]
        # Selecting only edge type 0 on a single hop reproduces that adjacency.
        composed = compose_adjacency(adjs, [np.array([1.0, 0.0])])
        assert (composed != adjs[0]).nnz == 0

    def test_compose_two_hops_matches_product(self):
        graph = small_academic_graph()
        adjs = [graph.adjacency(edge_type=e) for e in range(graph.num_edge_types)]
        composed = compose_adjacency(adjs, [np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        expected = (adjs[0] @ adjs[0]).tocsr()
        np.testing.assert_allclose(composed.toarray(), expected.toarray())

    def test_compose_rejects_mismatched_weights(self):
        graph = small_academic_graph()
        adjs = [graph.adjacency(edge_type=e) for e in range(graph.num_edge_types)]
        with pytest.raises(ValueError):
            compose_adjacency(adjs, [np.array([1.0])])
        with pytest.raises(ValueError):
            compose_adjacency(adjs, [])

    def test_row_normalize_rows_sum_to_one(self):
        graph = small_academic_graph()
        norm = row_normalize(graph.adjacency())
        sums = np.asarray(norm.sum(axis=1)).reshape(-1)
        nonzero = sums[sums > 0]
        np.testing.assert_allclose(nonzero, np.ones_like(nonzero), atol=1e-12)


class TestHalo:
    """k-hop reachability (repro.graph.halo) — the sharding substrate."""

    def test_depth_zero_is_the_seeds(self):
        graph = small_academic_graph()
        seeds = np.array([3, 7, 11])
        np.testing.assert_array_equal(k_hop_out(graph, seeds, 0), seeds)
        np.testing.assert_array_equal(k_hop_in(graph, seeds, 0), seeds)

    def test_depth_one_matches_adjacency(self):
        graph = small_academic_graph()
        seed = 5
        neighbors, _ = graph.neighbors(seed)
        want = np.unique(np.append(neighbors, seed))
        np.testing.assert_array_equal(k_hop_out(graph, [seed], 1), want)

    def test_out_sets_grow_monotonically_with_depth(self):
        graph = small_academic_graph()
        seeds = [0]
        previous = k_hop_out(graph, seeds, 0)
        for depth in range(1, 5):
            current = k_hop_out(graph, seeds, depth)
            assert np.isin(previous, current).all()
            previous = current

    def test_in_is_the_reverse_of_out(self):
        """u reaches v within d out-hops iff u is in v's d-hop in-set."""
        graph = small_academic_graph(seed=3)
        for v in (2, 17, 40):
            in_set = set(k_hop_in(graph, [v], 2).tolist())
            for u in range(graph.num_nodes):
                reaches = v in k_hop_out(graph, [u], 2)
                assert (u in in_set) == reaches

    def test_empty_seeds_empty_result(self):
        graph = small_academic_graph()
        assert k_hop_out(graph, np.empty(0, dtype=np.int64), 3).size == 0
        assert k_hop_in(graph, np.empty(0, dtype=np.int64), 3).size == 0

    def test_out_of_range_seeds_rejected(self):
        graph = small_academic_graph()
        with pytest.raises(IndexError):
            k_hop_out(graph, [graph.num_nodes], 1)
        with pytest.raises(IndexError):
            k_hop_in(graph, [-1], 1)

    def test_negative_depth_rejected(self):
        graph = small_academic_graph()
        with pytest.raises(ValueError):
            k_hop_out(graph, [0], -1)
        with pytest.raises(ValueError):
            k_hop_in(graph, [0], -1)

    def test_mutation_frontier_is_reach_minus_one_in_hops(self):
        graph = small_academic_graph()
        sources = np.array([4, 9])
        np.testing.assert_array_equal(
            mutation_frontier(graph, sources, 3), k_hop_in(graph, sources, 2)
        )
        np.testing.assert_array_equal(
            mutation_frontier(graph, sources, 1), np.sort(sources)
        )
        with pytest.raises(ValueError):
            mutation_frontier(graph, sources, 0)


def parts_digest(parts):
    """First 16 hex digits of the sha256 of the parts, in part order."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.asarray(part, dtype="<i8").tobytes() + b"|")
    return digest.hexdigest()[:16]


#: ``partition_graph``'s parts, pinned: every router's shard plan and the
#: inductive protocol's partition training depend on them, so a rewrite
#: must reproduce each one exactly (rng call sequence and tie rules).  ACM
#: has isolated nodes, so its pins also cover growth's draws from the
#: unassigned pool when every frontier is empty.
PARTITION_PINS = {
    ("yelp", 2, 0): "6eaab87a5183f701",
    ("yelp", 2, 3): "6eaab87a5183f701",
    ("yelp", 2, 11): "6eaab87a5183f701",
    ("yelp", 3, 0): "fce21451c2272114",
    ("yelp", 3, 3): "fce21451c2272114",
    ("yelp", 3, 11): "fce21451c2272114",
    ("yelp", 4, 0): "cc7e385b6d53b2bb",
    ("yelp", 4, 3): "cc7e385b6d53b2bb",
    ("yelp", 4, 11): "f5dfca65faa359c2",
    ("yelp", 8, 0): "fad7b637cb542811",
    ("yelp", 8, 3): "da3e706b2ea8f9ae",
    ("yelp", 8, 11): "5ce9f4fab9ab54b4",
    ("acm", 2, 0): "788b2783c23870c0",
    ("acm", 2, 3): "066838970a3591f5",
    ("acm", 2, 11): "7bc2c31d69998406",
    ("acm", 3, 0): "a4427e9cca48d457",
    ("acm", 3, 3): "8493c96db214b1a0",
    ("acm", 3, 11): "6d23d05a8640ff93",
    ("acm", 4, 0): "c96a8c320b0c65a2",
    ("acm", 4, 3): "2fc4b660c00c8c77",
    ("acm", 4, 11): "2bb15899483ce57d",
    ("acm", 8, 0): "3991827cbdd93e15",
    ("acm", 8, 3): "2c073f33c5706dc2",
    ("acm", 8, 11): "efec2883ea22b496",
}


@pytest.fixture(scope="module")
def pinned_graphs():
    return {"yelp": make_yelp(0, scale=1.0).graph, "acm": make_acm(0).graph}


class TestPartitionPins:
    @pytest.mark.parametrize("dataset,num_parts,seed", sorted(PARTITION_PINS))
    def test_parts_match_pin(self, pinned_graphs, dataset, num_parts, seed):
        parts = partition_graph(pinned_graphs[dataset], num_parts, rng=seed)
        assert parts_digest(parts) == PARTITION_PINS[dataset, num_parts, seed]

    def test_refine_passes_match_pins(self):
        graph = small_academic_graph(seed=7)
        raw = partition_graph(graph, 3, refine_passes=0, rng=0)
        refined = partition_graph(graph, 3, refine_passes=3, rng=0)
        assert parts_digest(raw) == "54b426f26a576fd0"
        assert parts_digest(refined) == "61ec11a1caa5cf51"

    def test_toy_graph_matches_pins(self):
        """Four parts, and one part per node (seeding only, no growth)."""
        graph = small_academic_graph()
        assert parts_digest(partition_graph(graph, 4, rng=0)) == "2e21fc92ab7f4098"
        singletons = partition_graph(graph, graph.num_nodes, rng=0)
        assert parts_digest(singletons) == "b9de40bbfcea2ce6"


class TestPartitionDeterminism:
    def test_same_seed_same_parts(self):
        graph = small_academic_graph(seed=2)
        first = partition_graph(graph, 3, rng=11)
        second = partition_graph(graph, 3, rng=11)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_one_part_per_node_is_singletons(self):
        graph = small_academic_graph()
        parts = partition_graph(graph, graph.num_nodes, rng=0)
        sizes = sorted(len(p) for p in parts)
        assert sizes == [1] * graph.num_nodes
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(graph.num_nodes))
