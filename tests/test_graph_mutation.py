"""Property tests (hypothesis) for O(delta) streaming writes.

Two oracles, both kept on the test side:

- ``HeteroGraph._rebuild_csr(concat(old, new))`` — the full stable-argsort
  rebuild the in-place splice replaced; the four CSR arrays must match it
  bit for bit.
- a from-scratch shard rebuild (``k_hop_out`` closure and halo,
  ``_shard_edge_arrays``, ``_masked_features``, a reverse-BFS
  ``touches_halo``) — what the planner shipped whole on every write before
  it shipped deltas; a shard advanced by delta commands must equal it.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.planner import (
    ClusterPlan,
    ShardPlanner,
    ShardSpec,
    _masked_features,
    _shard_edge_arrays,
)
from repro.graph import HeteroGraph, k_hop_in, k_hop_out
from repro.graph.halo import in_hops, out_hops

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
        oracle = pickle.loads(pickle.dumps(graph))
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
        """Shard payloads and rebuild baselines hold references to the CSR
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
# Delta commands vs a from-scratch shard rebuild
# ----------------------------------------------------------------------


def touches_halo_oracle(graph: HeteroGraph, owned: np.ndarray, reach: int) -> np.ndarray:
    owned_mask = np.zeros(graph.num_nodes, dtype=bool)
    owned_mask[owned] = True
    mask = np.zeros(graph.num_nodes, dtype=bool)
    foreign = np.flatnonzero(~owned_mask)
    if foreign.size:
        mask[k_hop_in(graph, foreign, reach)] = True
    return mask & owned_mask


def assert_shard_equals_rebuild(spec: ShardSpec, graph: HeteroGraph, reach: int) -> None:
    closure = k_hop_out(graph, spec.owned, reach - 1)
    halo = k_hop_out(graph, spec.owned, reach)
    np.testing.assert_array_equal(spec.closure_sources, closure)
    np.testing.assert_array_equal(spec.halo, halo)
    src, dst, etypes = _shard_edge_arrays(graph, closure)
    rebuilt = HeteroGraph(
        node_types=graph.node_types, src=src, dst=dst, edge_types=etypes,
        node_type_names=graph.node_type_names, edge_type_names=graph.edge_type_names,
    )
    assert_same_csr(spec.graph, rebuilt)
    np.testing.assert_array_equal(spec.graph.features, _masked_features(graph, halo))
    np.testing.assert_array_equal(spec.graph.node_types, graph.node_types)


class TestDeltaCommandsEqualRebuild:
    def test_delta_carries_exactly_what_entered(self):
        """A directed chain 0→1→2→3→4→5 at reach 2, shard 0 owning only
        node 0 (closure {0, 1}, halo {0, 1, 2}): each write's command names
        the appended edges inside the closure, the lists of sources that
        entered it, and feature rows for what entered the halo."""
        n = 7
        graph = HeteroGraph(
            node_types=np.zeros(n, np.int64), src=np.arange(5), dst=np.arange(1, 6),
            edge_types=np.zeros(5, np.int64), node_type_names=["a"],
            edge_type_names=["x"], features=np.arange(n * 2, dtype=float).reshape(n, 2),
        )
        planner = ShardPlanner(graph, reach=2, num_shards=2)
        plan = ClusterPlan(
            global_graph=graph, reach=2,
            shards=[
                planner._build_shard(0, np.array([0])),
                planner._build_shard(1, np.arange(1, n)),
            ],
            owner_of=np.array([0] + [1] * (n - 1)),
        )
        spec = plan.shards[0]
        np.testing.assert_array_equal(spec.closure_sources, [0, 1])
        np.testing.assert_array_equal(spec.halo, [0, 1, 2])

        graph.add_edges("x", [5], [6], symmetric=False)  # out of shard 0's sight
        assert plan.refresh_command(spec, graph.last_mutation) is None

        graph.add_edges("x", [1], [4], symmetric=False)  # halo grows, closure not
        command = plan.refresh_command(spec, graph.last_mutation)
        np.testing.assert_array_equal(command.src, [1])
        np.testing.assert_array_equal(command.dst, [4])
        assert command.new_closure.size == 0
        np.testing.assert_array_equal(command.new_halo, [4])
        np.testing.assert_array_equal(command.new_halo_features, graph.features[[4]])

        graph.add_edges("x", [0, 5], [3, 2], symmetric=False)  # 3 enters the closure
        command = plan.refresh_command(spec, graph.last_mutation)
        np.testing.assert_array_equal(command.src, [0, 3])  # appended, then 3's list
        np.testing.assert_array_equal(command.dst, [3, 4])
        np.testing.assert_array_equal(command.new_closure, [3])
        np.testing.assert_array_equal(command.new_halo, [3])
        np.testing.assert_array_equal(command.changed_sources, [0, 5])

        # An arrival owned by shard 1 reaches shard 0 as zeros, and gets its
        # real features once an edge pulls it into shard 0's halo.
        new = graph.add_nodes("a", features=[[7.0, 7.0]])
        plan.add_nodes_commands(1, new, "a", np.array([[7.0, 7.0]]), None, 1)
        assert not spec.graph.features[new].any()
        graph.add_edges("x", [0], new, symmetric=False)
        command = plan.refresh_command(spec, graph.last_mutation)
        np.testing.assert_array_equal(command.new_closure, new)
        np.testing.assert_array_equal(command.new_halo_features, [[7.0, 7.0]])
        assert_shard_equals_rebuild(spec, graph, 2)

    @settings(max_examples=80, deadline=None)
    @given(
        graph=graphs(min_nodes=8, max_nodes=40, edges_per_node=1),
        stream=writes,
        reach=st.integers(1, 3),
        num_shards=st.integers(1, 3),
    )
    def test_mutation_stream(self, graph, stream, reach, num_shards):
        """Mirror specs *and* engine-side copies fed the pickled commands
        track a from-scratch rebuild through arrivals and edge batches —
        on sparse graphs at a small reach, where closure and halo are
        proper subsets that really grow."""
        plan = ShardPlanner(graph, reach, num_shards, seed=0).plan()
        engines = [ShardSpec.from_payload(spec.to_payload()) for spec in plan.shards]
        for write in stream:
            if write[0] == "nodes":
                _, type_name, count = write
                features = np.full((count, FEATURE_DIM), float(graph.num_nodes))
                new_ids = graph.add_nodes(type_name, features=features)
                owner = plan.place_new_nodes(count)
                commands = plan.add_nodes_commands(
                    owner, new_ids, type_name, features, None, count
                )
            else:
                _, edge_type, pairs, symmetric = write
                src, dst = fold_batch(graph.num_nodes, pairs)
                before = [
                    _shard_edge_arrays(graph, spec.closure_sources) for spec in plan.shards
                ]
                graph.add_edges(edge_type, src, dst, symmetric=symmetric)
                commands = [
                    plan.refresh_command(spec, graph.last_mutation) for spec in plan.shards
                ]
                # A shard is skipped exactly when its materialized edge set
                # did not move.
                for spec, command, old in zip(plan.shards, commands, before):
                    new = _shard_edge_arrays(graph, k_hop_out(graph, spec.owned, reach - 1))
                    moved = any(a.shape != b.shape or (a != b).any() for a, b in zip(old, new))
                    assert (command is not None) == moved
            for spec, engine, command in zip(plan.shards, engines, commands):
                if command is not None:
                    engine.apply(pickle.loads(pickle.dumps(command)))
                for side in (spec, engine):
                    assert_shard_equals_rebuild(side, graph, reach)
                np.testing.assert_array_equal(engine.owned, spec.owned)
                # Router-only state, kept on the mirror alone.
                np.testing.assert_array_equal(
                    spec.touches_halo, touches_halo_oracle(graph, spec.owned, reach)
                )
                np.testing.assert_array_equal(
                    spec.owned_hops, out_hops(graph, spec.owned, reach)
                )
                foreign = np.flatnonzero(plan.owner_of != spec.shard_id)
                np.testing.assert_array_equal(
                    spec.foreign_hops, in_hops(graph, foreign, reach)
                )
                assert engine.touches_halo is None and engine.owned_hops is None
