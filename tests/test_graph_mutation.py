"""Property tests (hypothesis) for O(delta) streaming writes.

Two oracles:

- ``HeteroGraph._rebuild_csr(concat(old, new))`` — the full stable-argsort
  rebuild the in-place splice replaced (kept on the test side); the four
  CSR arrays must match it bit for bit.
- the coordinator's own graph — a shard is ``(whole graph, owned ids)``,
  so an engine-side replica advanced by the one broadcast command per
  write must equal the graph the write landed on, array for array.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.planner import ShardPlanner, ShardSpec, command_from_payload
from repro.graph import HeteroGraph
from tests.helpers import wire_round_trip

NODE_TYPES = ["a", "b"]
EDGE_TYPES = ["x", "y"]
CSR_ARRAYS = ("indptr", "indices", "edge_type_of", "_src")
FEATURE_DIM = 3

raw_ids = st.integers(0, 10**6)


@st.composite
def graphs(draw, min_nodes=3, max_nodes=24, edges_per_node=3):
    """A small random typed graph; parallel edges allowed, self-loops not."""
    n = draw(st.integers(min_nodes, max_nodes))
    triples = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(0, 1)),
            max_size=edges_per_node * n,
        )
    )
    src = np.array([s for s, _, _ in triples], dtype=np.int64)
    dst = np.array([(s + off) % n for s, off, _ in triples], dtype=np.int64)
    etypes = np.array([t for _, _, t in triples], dtype=np.int64)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    return HeteroGraph(
        node_types=rng.integers(0, 2, n),
        src=src,
        dst=dst,
        edge_types=etypes,
        node_type_names=NODE_TYPES,
        edge_type_names=EDGE_TYPES,
        features=rng.normal(size=(n, FEATURE_DIM)),
    )


# One write: either an arrival of isolated nodes, or an edge batch.  Edge
# endpoints are drawn as raw integers and folded onto the id space at
# application time (the id space grows under arrivals); ``newest`` pins a
# source to the most recently added node, so freshly added isolated nodes
# really do get edges.
edge_batches = st.tuples(
    st.just("edges"),
    st.sampled_from(EDGE_TYPES),
    st.lists(st.tuples(raw_ids, raw_ids, st.booleans()), min_size=1, max_size=6),
    st.booleans(),
)
arrivals = st.tuples(st.just("nodes"), st.sampled_from(NODE_TYPES), st.integers(1, 3))
writes = st.lists(st.one_of(edge_batches, arrivals), min_size=1, max_size=8)


def fold_batch(num_nodes: int, pairs):
    """Raw draws -> valid ``(src, dst)`` with ``src != dst``; duplicate
    sources and parallel edges survive on purpose."""
    src = np.array(
        [num_nodes - 1 if newest else s % num_nodes for s, _, newest in pairs],
        dtype=np.int64,
    )
    offsets = np.array([1 + d % (num_nodes - 1) for _, d, _ in pairs], dtype=np.int64)
    return src, (src + offsets) % num_nodes


def assert_same_csr(got: HeteroGraph, want: HeteroGraph) -> None:
    for name in CSR_ARRAYS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert got.num_edges == want.num_edges


class TestSpliceEqualsRebuild:
    @settings(max_examples=120, deadline=None)
    @given(graph=graphs(), stream=writes)
    def test_add_edges_matches_rebuild_csr_oracle(self, graph, stream):
        everyone = np.arange(graph.num_nodes)
        oracle = ShardSpec.from_payload(
            wire_round_trip(ShardSpec(0, everyone, graph).to_payload())
        ).graph
        for write in stream:
            if write[0] == "nodes":
                _, type_name, count = write
                features = np.ones((count, FEATURE_DIM))
                graph.add_nodes(type_name, features=features)
                oracle.add_nodes(type_name, features=features)
                continue
            _, edge_type, pairs, symmetric = write
            src, dst = fold_batch(graph.num_nodes, pairs)
            version = graph.version
            graph.add_edges(edge_type, src, dst, symmetric=symmetric)
            if symmetric:
                src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            oracle._rebuild_csr(
                np.concatenate([oracle._src, src]),
                np.concatenate([oracle.indices, dst]),
                np.concatenate(
                    [oracle.edge_type_of, np.full(src.shape, EDGE_TYPES.index(edge_type))]
                ),
            )
            assert_same_csr(graph, oracle)
            assert graph.version == version + 1
            event = graph.last_mutation
            assert event.kind == "add_edges"
            np.testing.assert_array_equal(event.sources, np.unique(src))
            for got, want in zip(event.edges, (src, dst)):
                np.testing.assert_array_equal(got, want)

    def test_splice_replaces_arrays_instead_of_writing_into_them(self):
        """Shard payloads and engine arguments hold references to the CSR
        arrays; a later write must leave those snapshots untouched."""
        graph = HeteroGraph(
            node_types=np.zeros(4, np.int64), src=[0, 1], dst=[1, 2],
            edge_types=[0, 0], node_type_names=["a"], edge_type_names=["x"],
        )
        held = {name: getattr(graph, name) for name in CSR_ARRAYS}
        copies = {name: array.copy() for name, array in held.items()}
        graph.add_edges("x", [0, 3], [2, 1])
        for name in CSR_ARRAYS:
            np.testing.assert_array_equal(held[name], copies[name])


# ----------------------------------------------------------------------
# Broadcast commands vs the coordinator's graph
# ----------------------------------------------------------------------


class TestDeltaCommandsEqualRebuild:
    @settings(max_examples=80, deadline=None)
    @given(
        graph=graphs(min_nodes=8, max_nodes=40, edges_per_node=1),
        stream=writes,
        num_shards=st.integers(1, 3),
    )
    def test_mutation_stream(self, graph, stream, num_shards):
        """Engine-side replicas fed the wire-decoded command of each write
        track the coordinator's graph through arrivals and edge batches,
        and ownership stays a partition of the growing id space."""
        plan = ShardPlanner(graph, num_shards, seed=0).plan()
        engines = [ShardSpec.from_payload(spec.to_payload()) for spec in plan.shards]
        for write in stream:
            if write[0] == "nodes":
                _, type_name, count = write
                features = np.full((count, FEATURE_DIM), float(graph.num_nodes))
                new_ids = graph.add_nodes(type_name, features=features)
                owner = plan.place_new_nodes(count)
                command = plan.add_nodes_commands(
                    owner, new_ids, type_name, features, None
                )
                assert (plan.owner_of[new_ids] == owner).all()
            else:
                _, edge_type, pairs, symmetric = write
                src, dst = fold_batch(graph.num_nodes, pairs)
                graph.add_edges(edge_type, src, dst, symmetric=symmetric)
                command = plan.refresh_command(graph.last_mutation)
            payload = command.to_payload()
            for spec, engine in zip(plan.shards, engines):
                assert spec.graph is graph
                engine.apply(command_from_payload(wire_round_trip(payload)))
                assert_same_csr(engine.graph, graph)
                np.testing.assert_array_equal(engine.graph.features, graph.features)
                np.testing.assert_array_equal(engine.graph.node_types, graph.node_types)
                np.testing.assert_array_equal(engine.graph.labels, graph.labels)
                assert engine.graph.version == graph.version
                np.testing.assert_array_equal(engine.owned, spec.owned)
                # The replica's own event names what the coordinator's did.
                got, want = engine.graph.last_mutation, graph.last_mutation
                assert got.kind == want.kind
                np.testing.assert_array_equal(got.sources, want.sources)
                np.testing.assert_array_equal(got.nodes, want.nodes)
            owned = np.concatenate([spec.owned for spec in plan.shards])
            np.testing.assert_array_equal(np.sort(owned), np.arange(graph.num_nodes))
            for spec in plan.shards:
                assert (plan.owner_of[spec.owned] == spec.shard_id).all()
