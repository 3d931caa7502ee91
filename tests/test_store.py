"""The ``repro.store`` materialized-aggregate tier.

The store's contract mirrors the cluster's: **indistinguishability**.  A
store-backed server answers bit-for-bit what the storeless recompute
oracle answers — for any batch size (singletons included), after mutation
streams that undercut rows' read sets, and across cluster fleets carrying
per-shard store slices.  Every equality assertion is exact
(``assert_array_equal``); the rows hold the same values the recompute
path's ``(seed, node)`` rng would produce, so any drift is a bug, not
noise.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.serve import InferenceServer
from repro.serve.cache import fresh_mask
from repro.store import STORE_FORMAT_VERSION, AggregateStore, build_store


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def trained(acm):
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
    model.fit(acm.graph, acm.split.train[:40], epochs=2)
    return model


@pytest.fixture(scope="module")
def checkpoint(trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("store-ckpt") / "widen.npz"
    trained.save(path)
    return path


@pytest.fixture(scope="module")
def store_path(trained, acm, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "acm-store"
    build_store(trained, acm.graph, path, seed=7, dataset="acm")
    return path


def fresh_graph():
    return make_acm(seed=0, scale=0.5).graph


def fresh_server(checkpoint, store_path=None, **kwargs):
    graph = fresh_graph()
    classifier = WidenClassifier.load(checkpoint, graph=graph)
    store = None if store_path is None else AggregateStore.open(store_path)
    return InferenceServer(classifier, graph, seed=7, store=store, **kwargs)


def probe_nodes(graph, count, seed=3):
    rng = np.random.default_rng(seed)
    return rng.choice(graph.num_nodes, size=count, replace=False)


# ----------------------------------------------------------------------
# Build / open roundtrip and compatibility
# ----------------------------------------------------------------------


class TestStoreRoundtrip:
    def test_build_covers_every_node_with_meta(self, store_path, acm):
        store = AggregateStore.open(store_path)
        assert store.num_rows == acm.graph.num_nodes
        assert store.meta["format_version"] == STORE_FORMAT_VERSION
        assert store.meta["seed"] == 7
        assert store.meta["graph_version"] == int(acm.graph.version)
        assert store.meta["dataset"] == "acm"
        assert store.row_nbytes > 0
        assert store.nbytes == store.num_rows * store.row_nbytes

    def test_rows_survive_the_disk_roundtrip(self, trained, acm, store_path):
        store = AggregateStore.open(store_path)
        nodes = probe_nodes(acm.graph, 6)
        direct = trained.materialize_store_rows(nodes, acm.graph, 7)

        def assert_same_rows(stored, rows):
            np.testing.assert_array_equal(stored.wide, rows.wide)
            assert len(stored.deep) == len(rows.deep)
            for got, expected in zip(stored.deep, rows.deep):
                np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(stored.reads, rows.reads)

        for node, rows in zip(nodes, direct):
            assert_same_rows(store.rows_for(int(node)), rows)
            assert rows.reads[0] == node  # a sample always reads its target
        np.testing.assert_array_equal(
            store.reads_of(nodes), np.stack([rows.reads for rows in direct])
        )
        assert store.reads_of(nodes).dtype == np.int32
        assert (store.versions_of(nodes) == 0).all()  # builder stamp

        # ... and through slice_payload -> from_payload, overlay rows
        # included: node 0's row is replaced by node 1's sample at stamp 3.
        first, second = int(nodes[0]), int(nodes[1])
        store.refresh(first, 3, direct[1])
        sliced = AggregateStore.from_payload(
            store.slice_payload([first, second, int(nodes[2])])
        )
        assert_same_rows(sliced.rows_for(first), direct[1])
        assert_same_rows(sliced.rows_for(second), direct[1])
        assert_same_rows(sliced.rows_for(int(nodes[2])), direct[2])
        assert list(sliced.versions_of([first, second])) == [3, 0]
        np.testing.assert_array_equal(
            sliced.reads_of([first, int(nodes[2])]),
            np.stack([direct[1].reads, direct[2].reads]),
        )

    def test_vectorized_lookups_match_scalar(self, store_path, acm):
        store = AggregateStore.open(store_path)
        nodes = probe_nodes(acm.graph, 8)
        versions = store.versions_of(nodes)
        blocks, lengths = store.blocks_for(nodes)
        for position, node in enumerate(nodes):
            assert versions[position] == store.version_of(int(node))
            block, length_row = store.block_for(int(node))
            np.testing.assert_array_equal(blocks[position], block)
            np.testing.assert_array_equal(lengths[position], length_row)

    def test_open_refuses_newer_format(self, store_path, tmp_path):
        import json
        import shutil

        copy = tmp_path / "newer"
        shutil.copytree(store_path, copy)
        meta = json.loads((copy / "meta.json").read_text())
        meta["format_version"] = STORE_FORMAT_VERSION + 1
        (copy / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="newer"):
            AggregateStore.open(copy)

    def test_format_v1_is_refused_naming_format_and_seed_scheme(
        self, checkpoint, store_path, tmp_path
    ):
        """A v1 directory (no ``reads.npy``, rows sampled with the node
        version in the rng seed) would serve *wrong* rows, not stale ones:
        refused at open, and at attach for a v1 store that got in some
        other way."""
        import json
        import shutil

        old = tmp_path / "v1"
        shutil.copytree(store_path, old)
        (old / "reads.npy").unlink()
        meta = json.loads((old / "meta.json").read_text())
        meta["format_version"] = 1
        (old / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=r"format v1.*\(seed, node version, node\)"):
            AggregateStore.open(old)

        graph = fresh_graph()
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        smuggled = AggregateStore.open(store_path)
        smuggled.meta["format_version"] = 1
        reason = smuggled.compatible_with(classifier, 7)
        assert "format v1" in reason and "rng scheme" in reason
        with pytest.raises(ValueError, match="format v1"):
            InferenceServer(classifier, graph, seed=7, store=smuggled)

    def test_format_v2_is_refused(self, checkpoint, store_path, tmp_path):
        """A v2 directory has every file a v3 one has, but its rows were
        drawn from per-node generator streams: no keyed server re-samples
        to them, so it is refused by format — at open, and at attach —
        naming the format and the draw scheme."""
        import json
        import shutil

        old = tmp_path / "v2"
        shutil.copytree(store_path, old)
        meta = json.loads((old / "meta.json").read_text())
        meta["format_version"] = 2
        (old / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(
            ValueError, match=r"format v2.*one generator per node.*counter-keyed"
        ):
            AggregateStore.open(old)

        graph = fresh_graph()
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        smuggled = AggregateStore.open(store_path)
        smuggled.meta["format_version"] = 2
        reason = smuggled.compatible_with(classifier, 7)
        assert "format v2" in reason and "store-build" in reason
        with pytest.raises(ValueError, match="format v2"):
            InferenceServer(classifier, graph, seed=7, store=smuggled)

    def test_store_from_an_older_graph_version_is_all_stale(
        self, checkpoint, store_path
    ):
        """Built at version V, attached at V+1: the server cannot know what
        changed in between, so no row is served — answers equal a cold
        storeless server's, never a version-V row."""
        graph = fresh_graph()
        author = int(graph.nodes_of_type("author")[0])
        nodes = probe_nodes(graph, 10)
        graph.add_edges("paper-author", [int(nodes[0])], [author])
        oracle_graph = fresh_graph()
        oracle_graph.add_edges("paper-author", [int(nodes[0])], [author])
        store = AggregateStore.open(store_path)
        assert store.meta["graph_version"] == graph.version - 1
        late = InferenceServer(
            WidenClassifier.load(checkpoint, graph=graph), graph, seed=7, store=store
        )
        oracle = InferenceServer(
            WidenClassifier.load(checkpoint, graph=oracle_graph), oracle_graph, seed=7
        )
        np.testing.assert_array_equal(late.embed(nodes), oracle.embed(nodes))
        assert late.telemetry.store_lookups == [
            {"hit": 0, "stale": nodes.size, "absent": 0}
        ]
        # Re-materialized rows are trusted again from here on.
        late.cache.invalidate()
        np.testing.assert_array_equal(late.embed(nodes), oracle.embed(nodes))
        assert late.telemetry.store_lookups[-1]["hit"] == nodes.size

    def test_attach_refuses_wrong_seed(self, checkpoint, store_path):
        graph = fresh_graph()
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        with pytest.raises(ValueError, match="seed"):
            InferenceServer(
                classifier, graph, seed=8,
                store=AggregateStore.open(store_path),
            )

    def test_attach_refuses_different_parameters(self, acm, store_path):
        other = WidenClassifier(seed=1, dim=16, num_wide=6, num_deep=5)
        other.fit(acm.graph, acm.split.train[:40], epochs=1)
        reason = AggregateStore.open(store_path).compatible_with(other, 7)
        assert reason is not None and "digest" in reason

    def test_attach_refuses_geometry_mismatch(self, acm, store_path):
        other = WidenClassifier(seed=0, dim=16, num_wide=4, num_deep=5)
        other.fit(acm.graph, acm.split.train[:40], epochs=1)
        reason = AggregateStore.open(store_path).compatible_with(other, 7)
        assert reason is not None and "num_wide" in reason


# ----------------------------------------------------------------------
# Serving equality: store tier vs recompute oracle
# ----------------------------------------------------------------------


class TestStoreServingEquality:
    @pytest.mark.parametrize("batch", [1, 2, 7, 24])
    def test_store_hits_match_recompute(self, checkpoint, store_path, batch):
        oracle = fresh_server(checkpoint)
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(oracle.graph, batch)
        np.testing.assert_array_equal(
            stored.embed(nodes), oracle.embed(nodes)
        )
        lookups = stored.telemetry.store_lookups
        assert sum(record["hit"] for record in lookups) == batch

    def test_interleaved_mutations_stay_exact(self, checkpoint, store_path):
        oracle = fresh_server(checkpoint)
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(oracle.graph, 10)
        author = int(oracle.graph.nodes_of_type("author")[0])
        subject = int(oracle.graph.nodes_of_type("subject")[0])
        dim = oracle.graph.features.shape[1]
        steps = [
            ("add_edges", "paper-author", [int(nodes[0])], [author]),
            ("add_nodes", "paper", np.full((1, dim), 0.5)),
            ("add_edges", "paper-subject", [int(nodes[1])], [subject]),
        ]
        np.testing.assert_array_equal(
            stored.embed(nodes), oracle.embed(nodes)
        )
        for step in steps:
            for server in (oracle, stored):
                if step[0] == "add_edges":
                    server.add_edges(step[1], step[2], step[3])
                else:
                    server.add_nodes(step[1], features=step[2])
            np.testing.assert_array_equal(
                stored.embed(nodes), oracle.embed(nodes)
            )
        summary = stored.telemetry.summary()
        assert summary["store_stale"] > 0, (
            "the mutation stream never drove a frontier-stale store row"
        )

    def test_stale_row_refreshes_back_to_hit(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        node = int(probe_nodes(stored.graph, 1)[0])
        author = int(stored.graph.nodes_of_type("author")[0])
        stored.embed([node])
        stored.add_edges("paper-author", [node], [author])
        stored.embed([node])       # stale -> fallback + overlay refresh
        stored.cache.invalidate()  # force another miss on the same node
        stored.embed([node])       # overlay row is fresh again
        outcomes = stored.telemetry.store_lookups
        assert outcomes[0] == {"hit": 1, "stale": 0, "absent": 0}
        assert outcomes[1] == {"hit": 0, "stale": 1, "absent": 0}
        assert outcomes[2] == {"hit": 1, "stale": 0, "absent": 0}
        assert stored.store.overlay_size == 1

    def test_new_node_is_absent_then_materialized(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        oracle = fresh_server(checkpoint)
        dim = stored.graph.features.shape[1]
        features = np.full((1, dim), 0.25)
        new = int(stored.add_nodes("paper", features=features)[0])
        assert new == int(oracle.add_nodes("paper", features=features)[0])
        np.testing.assert_array_equal(
            stored.embed([new]), oracle.embed([new])
        )
        assert stored.telemetry.store_lookups[-1]["absent"] == 1

    def test_forward_from_blocks_equals_rows_path(self, trained, store_path, acm):
        """The second half fed stored packs == the whole forward, same seeds."""
        store = AggregateStore.open(store_path)
        nodes = probe_nodes(acm.graph, 9)
        blocks, lengths = store.blocks_for(nodes)
        np.testing.assert_array_equal(
            trained.embed_from_store_blocks(blocks, lengths),
            trained.embed_for_serving_batch(nodes, acm.graph, 7),
        )


# ----------------------------------------------------------------------
# Cluster fleets with per-shard store slices
# ----------------------------------------------------------------------


class LoopReference:
    """The freshness rule as a per-node Python loop, kept as the reference
    for the server's array version: a dict of touched stamps, one
    ``any(touched[r] > stamp for r in reads)`` per resident cache entry and
    per store row."""

    def __init__(self, server):
        self.server = server
        self.clock = 0
        self.touched = {}
        self.made = {}  # node -> (stamp, read set) as the server put it
        self.invalidations = 0
        self.node_invalidations = Counter()
        self.undercut_rows = 0
        self.drop_counts = []
        # The cache reference must look at the resident nodes *before* the
        # server drops them, so it wraps the calls.
        self._put = server.cache.put
        self._invalidate_nodes = server.cache.invalidate_nodes
        server.cache.put = self.put
        server.cache.invalidate_nodes = self.invalidate_nodes

    def put(self, node, embedding, *, stamp, reads):
        self.made[int(node)] = (int(stamp), reads.tolist())
        self._put(node, embedding, stamp=stamp, reads=reads)

    def stale(self, stamp, reads):
        return any(self.touched.get(int(read), 0) > stamp for read in reads)

    def invalidate_nodes(self, nodes):
        """Runs inside the server's mutation hook: replay the write on the
        reference clock, then judge every resident entry one by one."""
        event = self.server.graph.last_mutation
        touched = event.nodes if event.kind == "add_nodes" else event.sources
        self.clock += 1
        for node in touched:
            self.touched[int(node)] = self.clock
        self.undercut_rows += sum(
            1 for node in touched if self.server.store.has(int(node))
        )
        victims = [
            node for node in self.server.cache._entries
            if self.stale(*self.made[node])
        ]
        # Verdicts agree: the ids the vectorized sweep handed over are
        # exactly the entries the loop finds stale.
        assert sorted(int(node) for node in nodes) == sorted(victims)
        for node in victims:
            self.node_invalidations[node] += 1
        self.invalidations += len(victims)
        got = self._invalidate_nodes(nodes)
        self.drop_counts.append((got, len(victims)))
        return got

    def store_verdicts(self, nodes):
        """Loop verdict per node: does it hold a row nothing has undercut?"""
        store = self.server.store
        return [
            store.has(int(node)) and not self.stale(
                store.version_of(int(node)), store.rows_for(int(node)).reads
            )
            for node in nodes
        ]


class TestVectorizedInvalidation:
    def test_matches_per_node_loop_reference(self, checkpoint, store_path):
        from repro.obs import MetricsRegistry

        stored = fresh_server(checkpoint, store_path, registry=MetricsRegistry())
        reference = LoopReference(stored)
        graph = stored.graph
        nodes = probe_nodes(graph, 24)
        author = int(graph.nodes_of_type("author")[0])
        subject = int(graph.nodes_of_type("subject")[0])
        dim = graph.features.shape[1]

        def check_store_verdicts():
            everyone = np.arange(graph.num_nodes)
            vectorized = fresh_mask(
                stored._touched_at,
                stored.store.reads_of(everyone),
                stored.store.versions_of(everyone),
            )
            assert list(vectorized) == reference.store_verdicts(everyone)
            return vectorized

        stored.embed(nodes)
        stored.add_edges("paper-author", [int(nodes[0])], [author])
        after_first = check_store_verdicts()
        assert not after_first[nodes[0]] and not after_first[author]
        assert after_first.sum() > 0.5 * graph.num_nodes  # most rows untouched
        stored.embed(nodes)  # stale rows refresh into the overlay
        assert check_store_verdicts()[nodes].all()
        new = int(stored.add_nodes("paper", features=np.full((1, dim), 0.5))[0])
        stored.embed([new])  # absent -> an overlay row past the base range
        stored.add_edges("paper-subject", [new, int(nodes[1])], [subject, subject])
        check_store_verdicts()
        stored.embed(np.concatenate([nodes, [new]]))
        stored.add_edges("paper-author", [new], [author])
        check_store_verdicts()

        state = stored.export_serving_state()
        assert state["touched"] == reference.touched
        assert state["clock"] == reference.clock == 4
        assert state["graph_version"] == graph.version
        assert stored.cache.invalidations == reference.invalidations > 0
        assert stored.cache.node_invalidations == reference.node_invalidations
        assert all(got == want for got, want in reference.drop_counts)
        assert len(reference.drop_counts) == 4  # one per mutation
        assert len(stored.cache) > 0  # ... and none of them emptied the cache
        counter = stored.telemetry.registry.counter(
            "serve_store_invalidated_rows_total", reason="frontier"
        )
        assert counter.value == reference.undercut_rows > 0
        # The arrival's overlay row counted once its own list was touched.
        assert stored.store.versions_of([new])[0] >= 0

    def test_sliced_store_versions_match_scalar_lookups(self, store_path, acm):
        """A shard's slice resolves ids by search, not position; the
        vectorized lookup must agree with the scalar one on base rows,
        refreshed rows, rows past the base range and missing ids."""
        full = AggregateStore.open(store_path)
        owned = np.arange(1, acm.graph.num_nodes, 3)[::-1]  # unsorted on purpose
        sliced = AggregateStore.from_payload(full.slice_payload(owned.tolist()))
        arrival = acm.graph.num_nodes + 5
        sliced.refresh(int(owned[0]), 4, sliced.rows_for(int(owned[1])))
        sliced.refresh(arrival, 2, sliced.rows_for(int(owned[1])))
        probe = np.array([int(owned[0]), int(owned[1]), 0, arrival, arrival + 1, -1])
        got = sliced.versions_of(probe)
        want = [
            -1 if (version := sliced.version_of(int(node))) is None else version
            for node in probe
        ]
        np.testing.assert_array_equal(got, want)
        assert list(got[[0, 2, 3, 4, 5]]) == [4, -1, 2, -1, -1]
        blocks, _ = sliced.blocks_for(owned[:5])
        for position, node in enumerate(owned[:5]):
            np.testing.assert_array_equal(blocks[position], sliced.block_for(int(node))[0])
        with pytest.raises(KeyError):
            sliced.blocks_for([0])

    def test_arrival_grows_touched_array_and_is_servable_at_once(self, checkpoint):
        server = fresh_server(checkpoint)
        oracle = fresh_server(checkpoint)
        before = server.graph.num_nodes
        assert server._touched_at.shape == (before,)
        features = np.full((2, server.graph.features.shape[1]), 0.25)
        new = server.add_nodes("paper", features=features)
        oracle.add_nodes("paper", features=features)
        assert server._touched_at.shape == (before + 2,)
        assert server._touched_at.dtype == np.int64
        state = server.export_serving_state()
        assert state["clock"] == 1
        assert state["touched"] == {int(node): 1 for node in new}
        np.testing.assert_array_equal(server.embed(new), oracle.embed(new))
        # A restored server adopts the sparse dict back into an array.
        server.restore_serving_state(server.export_serving_state())
        assert server.export_serving_state() == oracle.export_serving_state()


class TestClusterStoreSlices:
    @pytest.mark.parametrize("transport,num_shards", [
        ("inline", 1), ("inline", 4), ("socket", 4),
    ])
    def test_fleet_matches_oracle_through_mutations(
        self, checkpoint, store_path, transport, num_shards
    ):
        oracle = fresh_server(checkpoint)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), num_shards, transport=transport,
            seed=7, partition_seed=7, store_path=store_path,
        )
        try:
            nodes = probe_nodes(oracle.graph, 12)
            np.testing.assert_array_equal(
                router.embed(nodes), oracle.embed(nodes)
            )
            author = int(oracle.graph.nodes_of_type("author")[0])
            for target in (oracle, router):
                target.add_edges("paper-author", [int(nodes[0])], [author])
            np.testing.assert_array_equal(
                router.embed(nodes), oracle.embed(nodes)
            )
        finally:
            router.close()

    def test_shard_slices_cover_owned_nodes_only(self, checkpoint, store_path):
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 4, transport="inline",
            seed=7, partition_seed=7, store_path=store_path,
        )
        try:
            for worker in router.workers:
                engine = worker.transport.engine
                shard_store = engine.server.store
                owned = set(int(n) for n in worker.spec.owned)
                assert shard_store is not None
                assert shard_store.num_rows == len(owned)
                for node in list(owned)[:5]:
                    assert shard_store.has(node)
                halo = [
                    int(n) for n in range(router.graph.num_nodes)
                    if n not in owned
                ][:5]
                for node in halo:
                    assert not shard_store.has(node)
        finally:
            router.close()

    def test_router_refuses_incompatible_store(self, checkpoint, store_path):
        with pytest.raises(ValueError, match="seed"):
            ClusterRouter.from_checkpoint(
                checkpoint, fresh_graph(), 2, transport="inline",
                seed=8, partition_seed=7, store_path=store_path,
            )

    def test_cluster_exposition_carries_store_series(
        self, checkpoint, store_path
    ):
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="inline",
            seed=7, partition_seed=7, store_path=store_path,
        )
        try:
            router.embed(probe_nodes(router.graph, 8))
            text = router.render_prometheus()
        finally:
            router.close()
        assert "serve_store_requests_total" in text
        assert 'shard="0"' in text and 'shard="1"' in text
        store_lines = [
            line for line in text.splitlines()
            if line.startswith("serve_store_requests_total")
        ]
        assert any('outcome="hit"' in line for line in store_lines)


# ----------------------------------------------------------------------
# Observability: counters, gauges, exposition
# ----------------------------------------------------------------------


class TestStoreObservability:
    def test_exposition_has_store_and_cache_series(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(stored.graph, 8)
        stored.embed(nodes)
        stored.embed(nodes)  # warm-cache pass feeds the node-hit histogram
        text = stored.render_prometheus()
        assert 'serve_store_requests_total{outcome="hit"}' in text
        assert "serve_cache_node_hits" in text
        assert "serve_store_rows" in text
        assert "serve_store_overlay_rows" in text

    def test_invalidation_counters_carry_reason_labels(
        self, checkpoint, store_path
    ):
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(stored.graph, 6)
        stored.embed(nodes)
        author = int(stored.graph.nodes_of_type("author")[0])
        stored.add_edges("paper-author", [int(nodes[0])], [author])
        # Unknown-extent mutations take the coarse whole-cache path.
        stored._serving_reach = None
        stored.add_edges("paper-author", [int(nodes[1])], [author])
        registry = stored.telemetry.registry
        payload = registry.to_payload()
        series = {
            (record["name"], tuple(sorted(record["labels"].items())))
            for record in payload["series"]
            if record["kind"] == "counter"
        }
        assert (
            "serve_invalidated_entries_total", (("reason", "frontier"),)
        ) in series
        assert (
            "serve_invalidated_entries_total", (("reason", "full"),)
        ) in series
        assert (
            "serve_store_invalidated_rows_total", (("reason", "frontier"),)
        ) in series
        assert (
            "serve_store_invalidated_rows_total", (("reason", "full"),)
        ) in series

    def test_build_records_gauges(self, trained, acm, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        store = build_store(
            trained, acm.graph, tmp_path / "gauged", seed=7,
            registry=registry,
        )
        assert registry.gauge("store_rows").value == store.num_rows
        assert registry.gauge("store_row_bytes").value == store.row_nbytes
        assert registry.gauge("store_bytes_total").value == store.nbytes
        assert registry.gauge("store_build_seconds").value > 0
