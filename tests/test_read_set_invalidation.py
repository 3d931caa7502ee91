"""Property tests (hypothesis) for exact read-set invalidation.

The server invalidates by *read set*: a write stales exactly the
materializations (cache entries, store rows, overlay rows) whose sample
consulted an adjacency list the write changed.  Three properties, on small
sparse graphs where what a three-step walk reads is *not* the whole graph —
so an over-wide invalidation and an over-narrow one are both visible:

- **soundness** — after every write of a random stream a warm server
  (cache + store + overlay) answers every node exactly as a cold storeless
  server on the same graph does; likewise through a 2-shard inline fleet;
- **the read set is what was read** — the ids ``graph.extents`` was
  asked about are a subset of the reported read set, row by row;
- **precision** — against a brute-force oracle that re-samples every node
  before and after the write: {sample changed} ⊆ {invalidated} ⊆ {recorded
  read set meets the write's sources}.

What is compared exactly, and what is not.  Answers are seeded by
``(server seed, node)`` alone, so a warm server and a cold one draw the
same samples: read sets and every set relation are compared exactly.
Embeddings are compared at ``ANSWER_TOLERANCE``.  On these graphs a row's
last bit depends on the shape of the batch it was computed in: the padded
attention kernels pad to the longest pack of the batch — the build batch
for a stored row, the miss batch for a recomputed one — and those differ
whenever a pack is *shorter* than capacity: dead ends and isolated nodes,
i.e. exactly the graphs below (measured on them: at most 4.4e-16; the
cache has always carried the same caveat).
That is a few ulps of kernel noise; a stale answer is off by ~1e-2.  On
graphs without dead ends — every other exactness test in this suite — all
packs sit at capacity, the shapes coincide and the same comparisons read
0.0.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier
from repro.core.state import NeighborStateStore
from repro.graph import HeteroGraph
from repro.obs import MetricsRegistry
from repro.serve import InferenceServer
from repro.serve.cache import fresh_mask
from repro.store import AggregateStore, build_store
from tests.helpers import store_delta, store_totals

NODE_TYPES = ["a", "b"]
EDGE_TYPES = ["x", "y"]
FEATURE_DIM = 3
NUM_CLASSES = 2
SEED = 5
# Walks of 3: on ~20 nodes with about one edge each, three hops is a
# neighbourhood, not the graph.
MODEL = dict(dim=8, num_wide=3, num_deep=3, num_deep_walks=2, dropout=0.0)
READ_WIDTH = 1 + MODEL["num_deep_walks"] * MODEL["num_deep"]
ANSWER_TOLERANCE = 1e-12  # float64, values O(1): ~4000 ulps; staleness is ~1e-2

raw_ids = st.integers(0, 10**6)


def build_graph(n, triples, seed) -> HeteroGraph:
    rng = np.random.default_rng(seed)
    return HeteroGraph(
        node_types=rng.integers(0, 2, n),
        src=np.array([s for s, _, _ in triples], dtype=np.int64),
        dst=np.array([(s + off) % n for s, off, _ in triples], dtype=np.int64),
        edge_types=np.array([t for _, _, t in triples], dtype=np.int64),
        node_type_names=NODE_TYPES,
        edge_type_names=EDGE_TYPES,
        features=rng.normal(size=(n, FEATURE_DIM)),
        labels=rng.integers(0, NUM_CLASSES, n),
        num_classes=NUM_CLASSES,
    )


@st.composite
def graphs(draw, min_nodes=6, max_nodes=22):
    """A small sparse *directed* graph: about one out-edge per node, so
    isolated nodes and dead-ended walks are common."""
    n = draw(st.integers(min_nodes, max_nodes))
    triples = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(0, 1)),
            max_size=n,
        )
    )
    return build_graph(n, triples, draw(st.integers(0, 2**16)))


# One write: an arrival of isolated nodes, or an edge batch.  Endpoints are
# raw integers folded onto the id space at application time; ``newest``
# pins a source to the most recently added node, so arrivals get wired to
# existing nodes and isolated nodes gain their first edge.
edge_batches = st.tuples(
    st.just("edges"),
    st.sampled_from(EDGE_TYPES),
    st.lists(st.tuples(raw_ids, raw_ids, st.booleans()), min_size=1, max_size=4),
    st.booleans(),
)
arrivals = st.tuples(st.just("nodes"), st.sampled_from(NODE_TYPES), st.integers(1, 2))
writes = st.lists(st.one_of(edge_batches, arrivals), min_size=1, max_size=6)


def apply_write(target, write) -> None:
    """Apply one drawn write to a server, a router or a bare graph."""
    graph = getattr(target, "graph", target)
    if write[0] == "nodes":
        _, type_name, count = write
        target.add_nodes(
            type_name, features=np.full((count, FEATURE_DIM), float(graph.num_nodes))
        )
        return
    _, edge_type, pairs, symmetric = write
    n = graph.num_nodes
    src = np.array([n - 1 if newest else s % n for s, _, newest in pairs], np.int64)
    offsets = np.array([1 + d % (n - 1) for _, d, _ in pairs], np.int64)
    target.add_edges(edge_type, src, (src + offsets) % n, symmetric=symmetric)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """Random-initialised parameters: exactness does not need training."""
    template = build_graph(8, [(i, 1, i % 2) for i in range(8)], seed=0)
    model = WidenClassifier(seed=0, **MODEL)
    model.fit(template, np.arange(4), epochs=0)
    path = tmp_path_factory.mktemp("read-set") / "widen.ckpt"
    model.save(path)
    return path


def assert_same_answers(got, want) -> None:
    np.testing.assert_allclose(got, want, rtol=0.0, atol=ANSWER_TOLERANCE)


def assert_rows_are_current(store, classifier, graph, nodes) -> None:
    """Each node's stored row is what serving it *now* returns: the same
    read set exactly, the same embedding (``graph`` may be the
    coordinator's graph while ``store`` is a shard's slice: the shard's
    replica holds the same lists and features)."""
    want_embeddings, want_reads = classifier.materialize_store_rows(
        nodes, graph, SEED
    )
    got_embeddings, got_reads = store.blocks_for(nodes)
    np.testing.assert_array_equal(got_reads, want_reads)
    assert_same_answers(got_embeddings, want_embeddings)


def cold_answers(checkpoint, graph, nodes) -> np.ndarray:
    """A storeless server built on a copy of ``graph`` as it is now (the
    CSR arrays are already in stable source order, so the copy's adjacency
    lists are verbatim)."""
    copy = HeteroGraph(
        node_types=graph.node_types.copy(),
        src=graph._src.copy(),
        dst=graph.indices.copy(),
        edge_types=graph.edge_type_of.copy(),
        node_type_names=graph.node_type_names,
        edge_type_names=graph.edge_type_names,
        features=graph.features.copy(),
        labels=graph.labels.copy(),
        num_classes=graph.num_classes,
    )
    server = InferenceServer(
        WidenClassifier.load(checkpoint, graph=copy), copy, seed=SEED
    )
    return server.embed(nodes)


def sample_signature(classifier, graph, node):
    """What the serving seed samples for ``node`` on ``graph`` right now."""
    config = classifier.config
    state = NeighborStateStore(
        graph, num_wide=config.num_wide, num_deep=config.num_deep,
        num_deep_walks=config.num_deep_walks, rng=SEED,
    ).get(int(node))
    return (
        state.wide.nodes.tolist(), state.wide.etypes.tolist(),
        [deep.nodes.tolist() for deep in state.deep],
        [deep.etypes.tolist() for deep in state.deep],
    )


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------


class TestSoundness:
    @settings(max_examples=40, deadline=None)
    @given(
        graph=graphs(),
        stream=writes,
        capacity=st.sampled_from([4, 64]),
        lazy=st.booleans(),
        subset_seed=st.integers(0, 2**16),
    )
    def test_warm_server_equals_cold_after_every_write(
        self, checkpoint, graph, stream, capacity, lazy, subset_seed
    ):
        """Cache + store + overlay vs a cold storeless server, every node,
        after every write.  ``capacity=4`` evicts, so most reads go through
        store rows whose stamps are many writes old; ``lazy`` reads only a
        few nodes between writes and everything at the end, so rows stay
        stale across several writes before anyone asks for them."""
        rng = np.random.default_rng(subset_seed)
        with tempfile.TemporaryDirectory() as tmp:
            store_path = os.path.join(tmp, "store")
            classifier = WidenClassifier.load(checkpoint, graph=graph)
            store = build_store(classifier, graph, store_path, seed=SEED)
            warm = InferenceServer(
                classifier, graph, seed=SEED, store=store, cache_capacity=capacity,
                registry=MetricsRegistry(),
            )
            everyone = np.arange(graph.num_nodes)
            assert_same_answers(
                warm.embed(everyone), cold_answers(checkpoint, graph, everyone)
            )
            for index, write in enumerate(stream):
                apply_write(warm, write)
                nodes = np.arange(graph.num_nodes)
                if lazy and index < len(stream) - 1:
                    nodes = rng.choice(nodes, size=min(3, nodes.size), replace=False)
                assert_same_answers(
                    warm.embed(nodes), cold_answers(checkpoint, graph, nodes)
                )
                # Whatever was just served out of the store tier (base or
                # overlay) is the answer a cold server would compute.
                assert_rows_are_current(store, classifier, graph, nodes)
            # The run was not trivially cold: something was served warm.
            assert store_totals(warm)["hit"] > 0

    @settings(max_examples=25, deadline=None)
    @given(graph=graphs(min_nodes=10, max_nodes=26), stream=writes)
    def test_two_shard_fleet_equals_cold_after_every_write(
        self, checkpoint, graph, stream
    ):
        """The same property through a 2-shard inline fleet with store
        slices.  Arrivals are wired with symmetric edges to arbitrary
        nodes, so a node one shard owns regularly comes to read an arrival
        the *other* shard owns (whose features reached it in the arrival's
        broadcast command)."""
        with tempfile.TemporaryDirectory() as tmp:
            store_path = os.path.join(tmp, "store")
            build_store(
                WidenClassifier.load(checkpoint, graph=graph), graph, store_path,
                seed=SEED,
            )
            with ClusterRouter.from_checkpoint(
                checkpoint, graph, 2, transport="inline", seed=SEED,
                store_path=store_path,
            ) as router:
                everyone = np.arange(graph.num_nodes)
                assert_same_answers(
                    router.embed(everyone), cold_answers(checkpoint, graph, everyone)
                )
                probe = WidenClassifier.load(checkpoint, graph=graph)
                for write in stream:
                    apply_write(router, write)
                    everyone = np.arange(graph.num_nodes)
                    assert_same_answers(
                        router.embed(everyone),
                        cold_answers(checkpoint, graph, everyone),
                    )
                    for worker in router.workers:
                        assert_rows_are_current(
                            worker.transport.engine.server.store,
                            probe, graph, worker.spec.owned,
                        )

    def test_arrival_pulled_into_the_other_shards_halo(self, checkpoint):
        """The fleet case spelled out: shard A owns an arrival, a symmetric
        edge then wires it to a node shard B owns.  B's node now reads the
        arrival's features (B's replica took the real rows with the
        arrival itself) and must be re-served; B's other rows stay warm."""
        graph = build_graph(16, [(i, 1, 0) for i in range(15)], seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            store_path = os.path.join(tmp, "store")
            build_store(
                WidenClassifier.load(checkpoint, graph=graph), graph, store_path,
                seed=SEED,
            )
            with ClusterRouter.from_checkpoint(
                checkpoint, graph, 2, transport="inline", seed=SEED,
                store_path=store_path,
            ) as router:
                router.embed(np.arange(graph.num_nodes))
                new = int(router.add_nodes(
                    "a", features=np.full((1, FEATURE_DIM), 9.0)
                )[0])
                other = 1 - new % 2
                theirs = router.plan.shards[other].owned
                engine = router.workers[other].transport.engine
                assert engine.spec.graph is not router.graph
                np.testing.assert_array_equal(
                    engine.spec.graph.features[new], np.full(FEATURE_DIM, 9.0)
                )
                assert new not in engine.spec.owned
                router.add_edges("x", [new], [int(theirs[0])], symmetric=True)
                everyone = np.arange(graph.num_nodes)
                before = store_totals(engine.server)
                assert_same_answers(
                    router.embed(everyone), cold_answers(checkpoint, graph, everyone)
                )
                # theirs[0] at least was re-served, and not the whole slice:
                # the rest of shard B answered from its cache.
                delta = store_delta(engine.server, before)
                assert delta["lookups"] == 1
                assert 1 <= delta["stale"] < theirs.size
                assert 0 < len(engine.server.cache.node_invalidations) < theirs.size


# ----------------------------------------------------------------------
# The read set is what was read
# ----------------------------------------------------------------------


def record_extents(graph):
    """Replace ``graph.extents`` — how the batched samplers open adjacency
    lists — with a recording proxy; returns the log of ids asked about."""
    seen = []
    inner = graph.extents

    def extents(nodes):
        seen.extend(np.asarray(nodes).tolist())
        return inner(nodes)

    graph.extents = extents
    return seen


class TestReadSetIsWhatWasRead:
    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(), stream=writes)
    def test_neighbors_calls_are_inside_the_reported_read_set(
        self, checkpoint, graph, stream
    ):
        """The neighbor lists the sampler opens — ``graph.extents`` calls
        since the sampler became an array op, ``graph.neighbors`` calls
        before — are all in the read set it reports."""
        for write in stream:
            apply_write(graph, write)
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        nodes = np.arange(graph.num_nodes)
        _, batch_reads = classifier.embed_for_serving_batch(nodes, graph, SEED)
        assert batch_reads.shape == (nodes.size, READ_WIDTH)
        _, row_reads = classifier.materialize_store_rows(nodes, graph, SEED)
        samplers = (
            lambda one: classifier.embed_for_serving_batch(one, graph, SEED)[1][0],
            lambda one: classifier.materialize_store_rows(one, graph, SEED)[1][0],
        )
        seen = record_extents(graph)
        try:
            for node in nodes:
                for sampler in samplers:
                    del seen[:]
                    reads = sampler([node])
                    # Row by row: same key, same sample, same read set
                    # whatever batch it was part of ...
                    np.testing.assert_array_equal(reads, batch_reads[node])
                    np.testing.assert_array_equal(reads, row_reads[node])
                    # ... and every list the sampler opened is in it.
                    assert node in seen and set(seen) <= set(reads.tolist())
                    assert reads[0] == node
        finally:
            del graph.extents

    def test_dead_end_of_a_walk_is_a_dependency(self, checkpoint):
        """0 → 1 and nothing else: node 0's walks stop at 1 because 1's
        list is empty.  That emptiness was read, so 1 is in the read set —
        and 1's first out-edge must re-serve node 0."""
        graph = build_graph(6, [(0, 1, 0)], seed=1)
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        server = InferenceServer(classifier, graph, seed=SEED)
        seen = record_extents(graph)
        before = server.embed([0, 3])
        del graph.extents
        assert set(seen) == {0, 1, 3}
        _, reads = classifier.embed_for_serving_batch([0], graph, SEED)
        assert set(reads[0].tolist()) == {0, 1}
        server.add_edges("y", [1], [4], symmetric=False)
        assert server.cache.node_invalidations == Counter({0: 1})
        after = server.embed([0, 3])
        assert_same_answers(after, cold_answers(checkpoint, graph, [0, 3]))
        assert not np.array_equal(before[0], after[0])  # the walk extended
        np.testing.assert_array_equal(before[1], after[1])


# ----------------------------------------------------------------------
# Precision
# ----------------------------------------------------------------------


class TestPrecision:
    @settings(max_examples=40, deadline=None)
    @given(
        graph=graphs(min_nodes=8),
        stream=writes,
        subset_seed=st.integers(0, 2**16),
    )
    def test_invalidated_between_changed_and_read_set_meets_sources(
        self, checkpoint, graph, stream, subset_seed
    ):
        """Serve a subset through cache + a store slice, then per write:
        {sample changed} ⊆ {invalidated} ⊆ {recorded reads ∩ sources ≠ ∅},
        cache and store agreeing on "invalidated".  Each stream ends with a
        write aimed outside every recorded read set (when there is such a
        node): it must drop nothing and stale nothing."""
        rng = np.random.default_rng(subset_seed)
        subset = np.sort(
            rng.choice(graph.num_nodes, size=graph.num_nodes // 2, replace=False)
        )
        with tempfile.TemporaryDirectory() as tmp:
            store_path = os.path.join(tmp, "store")
            classifier = WidenClassifier.load(checkpoint, graph=graph)
            full = build_store(classifier, graph, store_path, seed=SEED)
            store = AggregateStore.from_payload(full.slice_payload(subset.tolist()))
            server = InferenceServer(
                classifier, graph, seed=SEED, store=store, cache_capacity=256
            )

            def stale_rows():
                return set(subset[~fresh_mask(
                    server.freshness.touched_at, store.reads_of(subset), store.versions_of(subset)
                )].tolist())

            def check(write_fn):
                server.embed(subset)  # everything resident, every row fresh
                assert not stale_rows()
                recorded = {
                    int(node): set(reads.tolist())
                    for node, reads in zip(subset, store.reads_of(subset))
                }
                before = {
                    int(node): sample_signature(classifier, graph, node)
                    for node in subset
                }
                dropped_before = Counter(server.cache.node_invalidations)
                write_fn()
                event = graph.last_mutation
                sources = set(
                    (event.nodes if event.kind == "add_nodes" else event.sources).tolist()
                )
                changed = {
                    node for node in before
                    if sample_signature(classifier, graph, node) != before[node]
                }
                dropped = Counter(server.cache.node_invalidations) - dropped_before
                assert set(dropped.values()) <= {1}
                invalidated = set(dropped)
                meets = {node for node, reads in recorded.items() if reads & sources}
                assert invalidated == stale_rows()
                assert changed <= invalidated <= meets
                return invalidated, meets

            for write in stream:
                check(lambda: apply_write(server, write))
            server.embed(subset)
            read_by_someone = set(store.reads_of(subset).ravel().tolist())
            unread = sorted(set(range(graph.num_nodes)) - read_by_someone)
            if unread:
                source = unread[0]
                target = (source + 1) % graph.num_nodes
                invalidated, meets = check(
                    lambda: server.add_edges("x", [source], [target], symmetric=False)
                )
                assert not meets and not invalidated
                assert len(server.cache) == subset.size

    def test_unrelated_write_keeps_cache_and_store_warm(self, checkpoint):
        """Two components, 0→1→2 and 3→4→5, everything served.  A write
        inside the second touches no list the first one's samples read:
        its three entries and rows survive and are served warm."""
        graph = build_graph(6, [(0, 1, 0), (1, 1, 0), (3, 1, 0), (4, 1, 0)], seed=2)
        with tempfile.TemporaryDirectory() as tmp:
            store_path = os.path.join(tmp, "store")
            classifier = WidenClassifier.load(checkpoint, graph=graph)
            store = build_store(classifier, graph, store_path, seed=SEED)
            server = InferenceServer(
                classifier, graph, seed=SEED, store=store, registry=MetricsRegistry()
            )
            everyone = np.arange(6)
            server.embed(everyone)
            server.add_edges("x", [4], [3], symmetric=False)
            assert set(server.cache.node_invalidations) == {3, 4}
            assert len(server.cache) == 4
            fresh = fresh_mask(
                server.freshness.touched_at, store.reads_of(everyone), store.versions_of(everyone)
            )
            assert fresh.tolist() == [True, True, True, False, False, True]
            hits = server.cache.hits
            before = store_totals(server)
            assert_same_answers(
                server.embed(everyone), cold_answers(checkpoint, graph, everyone)
            )
            assert server.cache.hits == hits + 4
            assert store_delta(server, before) == {
                "lookups": 1, "hit": 0, "stale": 2, "absent": 0
            }
