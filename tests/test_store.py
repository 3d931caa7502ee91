"""The ``repro.store`` materialized-answer tier.

The store's contract mirrors the cluster's: **indistinguishability**.  A
store-backed server answers what the storeless recompute oracle answers —
for any batch size (singletons included), after mutation streams that
undercut rows' read sets, and across cluster fleets carrying per-shard
store slices.  A stored row is the finished embedding the recompute path's
``(seed, node)`` draws produce; on this graph every pack sits at capacity,
so the build batch and the miss batch have one shape and the hand-picked
equality assertions are exact (``assert_array_equal``).  The property test
at the bottom also serves isolated arrivals, whose packs are shorter, and
compares embeddings at ``ANSWER_TOLERANCE`` where the batch shapes differ.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.cluster.fleet import Fleet
from repro.codec import ProtocolError, Record, publish, read_record
from repro.core import WidenClassifier, serving_refusal
from repro.datasets import make_acm
from repro.obs import MetricsRegistry
from repro.serve import InferenceServer
from repro.serve.cache import fresh_mask, state_differences
from repro.serve.telemetry import RUNGS
from repro.store import STORE_FORMAT_VERSION, AggregateStore, build_store
from tests.helpers import store_delta, store_totals, wire_round_trip, wire_size
from tests.test_read_set_invalidation import assert_same_answers

DIM = 16


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
    path = tmp_path_factory.mktemp("store-ckpt") / "widen.ckpt"
    trained.save(path)
    return path


@pytest.fixture(scope="module")
def store_path(trained, acm, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "acm-store"
    build_store(trained, acm.graph, path, seed=7, dataset="acm")
    return path


def fresh_graph():
    return make_acm(seed=0, scale=0.5).graph


def republished(store_path, path, **meta):
    """A copy of the store at ``store_path`` at ``path``, its metadata
    entries in ``meta`` replaced."""
    payload = read_record(store_path, "store")
    payload["meta"] = dict(payload["meta"], **meta)
    publish(path, Record("store", payload))
    return path


def fresh_server(checkpoint, store_path=None, **kwargs):
    graph = fresh_graph()
    classifier = WidenClassifier.load(checkpoint, graph=graph)
    store = None if store_path is None else AggregateStore.open(store_path)
    kwargs.setdefault("registry", MetricsRegistry())  # per-server totals
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
        assert store.row_nbytes == DIM * 8
        assert store.nbytes == acm.graph.num_nodes * DIM * 8

    def test_rows_survive_the_disk_roundtrip(self, trained, acm, store_path):
        store = AggregateStore.open(store_path)
        nodes = probe_nodes(acm.graph, 6)
        embeddings, reads = trained.materialize_store_rows(nodes, acm.graph, 7)
        stored_embeddings, stored_reads = store.blocks_for(nodes)
        np.testing.assert_array_equal(stored_embeddings, embeddings)
        np.testing.assert_array_equal(stored_reads, reads)
        np.testing.assert_array_equal(reads[:, 0], nodes)  # a sample reads its target
        np.testing.assert_array_equal(store.reads_of(nodes), reads)
        assert store.reads_of(nodes).dtype == np.int32
        assert (store.versions_of(nodes) == 0).all()  # builder stamp

        # ... and through slice_payload -> from_payload, refreshed rows
        # included: node 0's row is replaced by node 1's at stamp 3.  The
        # file behind the copy-on-write mapping never sees the write.
        first, second, third = (int(node) for node in nodes[:3])
        store.refresh(first, 3, embeddings[1], reads[1])
        sliced = AggregateStore.from_payload(
            store.slice_payload([first, second, third])
        )
        got_embeddings, got_reads = sliced.blocks_for([first, second, third])
        np.testing.assert_array_equal(got_embeddings, embeddings[[1, 1, 2]])
        np.testing.assert_array_equal(got_reads, reads[[1, 1, 2]])
        assert list(sliced.versions_of([first, second])) == [3, 0]
        assert (sliced.overlay_size, store.overlay_size) == (1, 1)
        reopened = AggregateStore.open(store_path)
        np.testing.assert_array_equal(reopened.block_for(first)[0], embeddings[0])
        assert reopened.overlay_size == 0

    def test_vectorized_lookups_match_scalar(self, store_path, acm):
        store = AggregateStore.open(store_path)
        nodes = probe_nodes(acm.graph, 8)
        versions = store.versions_of(nodes)
        embeddings, reads = store.blocks_for(nodes)
        assert embeddings.shape == (8, DIM)
        for position, node in enumerate(nodes):
            assert versions[position] == store.version_of(int(node))
            embedding, read_set = store.block_for(int(node))
            np.testing.assert_array_equal(embeddings[position], embedding)
            np.testing.assert_array_equal(reads[position], read_set)

    def test_open_refuses_a_directory_without_meta(self, tmp_path):
        """A store is one file: any directory is refused, naming the
        command that writes one."""
        with pytest.raises(ValueError, match="is a directory.*store-build --out FILE"):
            AggregateStore.open(tmp_path)

    def test_build_and_create_refuse_a_directory_before_any_work(
        self, trained, acm, store_path, tmp_path, monkeypatch
    ):
        """A store built over a directory (``store-build``'s default
        ``--out store`` beside an old one) is refused before the first row
        is materialized, with ``open``'s message; the directory keeps its
        contents and no staging file is left beside it."""
        target = tmp_path / "store"
        target.mkdir()
        (target / "meta.json").write_text("{}")
        calls = []
        real = WidenClassifier.materialize_store_rows

        def spy(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(WidenClassifier, "materialize_store_rows", spy)
        refusal = "is a directory.*store-build --out FILE"
        with pytest.raises(ValueError, match=refusal):
            build_store(trained, acm.graph, target, seed=7)
        assert calls == []
        current = AggregateStore.open(store_path)
        rows = np.arange(current.num_rows)
        with pytest.raises(ValueError, match=refusal):
            AggregateStore.create(
                target, meta=current.meta, embeddings=current.blocks_for(rows)[0],
                versions=current.versions_of(rows), reads=current.reads_of(rows),
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
        assert [p.name for p in target.iterdir()] == ["meta.json"]
        assert (target / "meta.json").read_text() == "{}"

    def test_open_refuses_newer_format(self, store_path, tmp_path):
        newer = republished(
            store_path, tmp_path / "newer", format_version=STORE_FORMAT_VERSION + 1
        )
        with pytest.raises(ValueError, match="newer"):
            AggregateStore.open(newer)

    def test_a_v4_store_directory_is_refused_with_the_rebuild_command(
        self, checkpoint, store_path, tmp_path
    ):
        """A v4 store was a directory of ``.npy`` tables and JSON metadata."""
        old = tmp_path / "v4"
        old.mkdir()
        current = AggregateStore.open(store_path)
        for name, table in (
            ("embeddings", current.blocks_for(np.arange(current.num_rows))[0]),
            ("versions", current.versions_of(np.arange(current.num_rows))),
            ("reads", current.reads_of(np.arange(current.num_rows))),
        ):
            np.save(old / f"{name}.npy", table)
        (old / "meta.json").write_text(json.dumps(dict(current.meta, format_version=4)))
        with pytest.raises(ValueError, match="v4.*store-build --out FILE"):
            AggregateStore.open(old)
        with pytest.raises(ValueError, match="is a directory"):
            ClusterRouter(
                str(checkpoint), fresh_graph(), 2, seed=7,
                store_path=str(old),
            )

    def test_format_v2_is_refused(self, checkpoint, store_path, tmp_path):
        """A store whose metadata names format v2 is refused by format —
        at open, and at attach — naming the format and the rebuild
        command."""
        old = republished(store_path, tmp_path / "v2", format_version=2)
        with pytest.raises(ValueError, match=r"format v2; this code reads v5.*store-build"):
            AggregateStore.open(old)

        graph = fresh_graph()
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        smuggled = AggregateStore.open(store_path)
        smuggled.meta["format_version"] = 2
        reason = smuggled.compatible_with(classifier, 7)
        assert "format v2" in reason and "store-build" in reason
        with pytest.raises(ValueError, match="format v2"):
            InferenceServer(classifier, graph, seed=7, store=smuggled)

    def test_format_v3_is_refused_on_every_entry_point(
        self, checkpoint, store_path, tmp_path, monkeypatch
    ):
        """A v3 store was a directory holding pack matrices (``rows.npy`` +
        ``lengths.npy``): refused, with the rebuild command, by ``open``,
        by the router before it spawns a worker, by ``from_payload`` and at
        attach."""
        current = AggregateStore.open(store_path)
        old = tmp_path / "v3"
        old.mkdir()
        np.save(old / "rows.npy", np.zeros((current.num_rows, 19, DIM)))
        np.save(old / "lengths.npy", np.ones((current.num_rows, 3), np.int64))
        (old / "meta.json").write_text(json.dumps(dict(current.meta, format_version=3)))
        with pytest.raises(ValueError, match="is a directory.*store-build"):
            AggregateStore.open(old)

        def no_spawn(*args, **kwargs):
            raise AssertionError("a worker was spawned for a refused store")

        monkeypatch.setattr(Fleet, "bring_up", no_spawn)
        with pytest.raises(ValueError, match="is a directory.*store-build"):
            ClusterRouter(
                str(checkpoint), fresh_graph(), 2, transport="socket",
                seed=7, store_path=str(old),
            )

        refusal = r"format v3; this code reads v5.*store-build"
        payload = current.slice_payload([0, 1, 2])
        payload["meta"]["format_version"] = 3
        with pytest.raises(ValueError, match=refusal):
            AggregateStore.from_payload(payload)

        graph = fresh_graph()
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        current.meta["format_version"] = 3
        assert "format v3" in current.compatible_with(classifier, 7)
        with pytest.raises(ValueError, match="format v3"):
            InferenceServer(classifier, graph, seed=7, store=current)

    def test_half_forward_names_raise(self, trained):
        """The three names ``benchmarks/perf`` still wraps resolve, and say
        why they do nothing."""
        for stub in (
            trained.embed_from_store_blocks,
            trained.model.materialize_rows,
            trained.model.forward_from_blocks,
        ):
            with pytest.raises(RuntimeError, match="finished embeddings since format v4"):
                stub(np.zeros((1, 19, DIM)), np.ones((1, 3), np.int64))

    def test_refresh_needs_a_read_set(self, store_path):
        store = AggregateStore.open(store_path)
        with pytest.raises(ValueError, match="no read set"):
            store.refresh(0, 1, np.zeros(DIM), None)
        assert store.version_of(0) == 0  # nothing was written

    def test_compatible_with_probes_the_store_hooks(self, trained, store_path):
        """The store's hooks are the serving contract: an object that only
        looks like a classifier is refused with the contract's reason."""
        store = AggregateStore.open(store_path)
        assert store.compatible_with(trained, 7) is None

        class NoHooks:
            name = "no-hooks"
            config = trained.config
            materialize_store_rows = trained.materialize_store_rows

        reason = store.compatible_with(NoHooks(), 7)
        assert reason == serving_refusal(NoHooks()) and "NoHooks" in reason

    def test_row_bytes_are_the_format_s_on_an_empty_slice(self, store_path):
        """A shard that owns no stored node still exports a 128 B row."""
        store = AggregateStore.open(store_path)
        empty = AggregateStore.from_payload(store.slice_payload([]))
        assert empty.num_rows == 0 and empty.nbytes == 0
        assert empty.row_nbytes == store.row_nbytes == DIM * 8
        assert not empty.has(0) and list(empty.versions_of([0, 5])) == [-1, -1]

    def test_slice_payload_is_rows_times_row_size(self, store_path, acm):
        """The size contract behind the RSS / bring-up numbers: a slice on
        the wire is embedding + read set + stamp per owned id, plus the
        codec's frame header and the metadata — not pack matrices, and
        not the ids the shard does not own."""
        store = AggregateStore.open(store_path)
        owned = np.arange(0, acm.graph.num_nodes, 2)
        width = store.reads_of([0]).shape[1]
        wire = wire_size(store.slice_payload(owned.tolist(), 0, 2))
        assert wire <= owned.size * (DIM * 8 + width * 4 + 16) + 2048
        assert store.nbytes == store.num_rows * DIM * 8

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
            WidenClassifier.load(checkpoint, graph=graph), graph, seed=7, store=store,
            registry=MetricsRegistry(),
        )
        oracle = InferenceServer(
            WidenClassifier.load(checkpoint, graph=oracle_graph), oracle_graph, seed=7
        )
        np.testing.assert_array_equal(late.embed(nodes), oracle.embed(nodes))
        assert store_totals(late) == {
            "lookups": 1, "hit": 0, "stale": nodes.size, "absent": 0
        }
        # Re-materialized rows are trusted again from here on.
        late.cache.invalidate()
        before = store_totals(late)
        np.testing.assert_array_equal(late.embed(nodes), oracle.embed(nodes))
        assert store_delta(late, before) == {
            "lookups": 1, "hit": nodes.size, "stale": 0, "absent": 0
        }

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


class TestRebuildUnderReaders:
    """A store is published whole by a rename, so a rebuild at the same
    path reaches new readers only: an open store keeps the file it
    mapped, its rows and its digest together."""

    @pytest.fixture(scope="class")
    def other(self, acm):
        """Another model of the same geometry: same-shape rows, new values."""
        model = WidenClassifier(seed=1, dim=16, num_wide=6, num_deep=5)
        model.fit(acm.graph, acm.split.train[:40], epochs=1)
        return model

    def test_a_same_shape_rebuild_leaves_an_open_store_unchanged(
        self, trained, other, acm, tmp_path
    ):
        path = tmp_path / "store"
        build_store(trained, acm.graph, path, seed=7)
        store = AggregateStore.open(path)
        rows = store.blocks_for([7])[0].copy()
        digest = store.meta["params_digest"]
        assert digest == trained.params_digest() != other.params_digest()

        build_store(other, acm.graph, path, seed=7)
        np.testing.assert_array_equal(store.blocks_for([7])[0], rows)
        assert store.meta["params_digest"] == digest
        rebuilt = AggregateStore.open(path)
        assert rebuilt.meta["params_digest"] == other.params_digest()
        assert not np.array_equal(rebuilt.blocks_for([7])[0], rows)

    def test_a_server_on_the_old_store_answers_the_same_after_a_rebuild(
        self, trained, other, checkpoint, acm, tmp_path
    ):
        path = tmp_path / "store"
        build_store(trained, acm.graph, path, seed=7)
        server = fresh_server(checkpoint, path)
        oracle = fresh_server(checkpoint)
        nodes = probe_nodes(server.graph, 24)
        first, second = nodes[:12], nodes[12:]
        np.testing.assert_array_equal(server.embed(first), oracle.embed(first))

        build_store(other, acm.graph, path, seed=7)
        before = store_totals(server)
        np.testing.assert_array_equal(server.embed(second), oracle.embed(second))
        assert store_delta(server, before)["hit"] == second.size  # old rows served

    def test_a_store_and_a_checkpoint_are_refused_as_each_other(
        self, checkpoint, store_path
    ):
        with pytest.raises(ProtocolError, match="expected a checkpoint file, got a 'store'"):
            WidenClassifier.load(store_path)
        with pytest.raises(ProtocolError, match="expected a store file, got a 'checkpoint'"):
            AggregateStore.open(checkpoint)


class TestStoreServingEquality:
    @pytest.mark.parametrize("batch", [1, 2, 7, 24])
    def test_store_hits_match_recompute(self, checkpoint, store_path, batch):
        oracle = fresh_server(checkpoint)
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(oracle.graph, batch)
        np.testing.assert_array_equal(
            stored.embed(nodes), oracle.embed(nodes)
        )
        assert store_totals(stored)["hit"] == batch

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
        assert store_totals(stored)["stale"] > 0, (
            "the mutation stream never drove a frontier-stale store row"
        )

    def test_stale_row_refreshes_back_to_hit(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        node = int(probe_nodes(stored.graph, 1)[0])
        author = int(stored.graph.nodes_of_type("author")[0])
        before = store_totals(stored)
        stored.embed([node])
        assert store_delta(stored, before) == {
            "lookups": 1, "hit": 1, "stale": 0, "absent": 0
        }
        stored.add_edges("paper-author", [node], [author])
        before = store_totals(stored)
        stored.embed([node])       # stale -> recompute + write-back
        assert store_delta(stored, before) == {
            "lookups": 1, "hit": 0, "stale": 1, "absent": 0
        }
        stored.cache.invalidate()  # force another miss on the same node
        before = store_totals(stored)
        stored.embed([node])       # the refreshed row is fresh again
        assert store_delta(stored, before) == {
            "lookups": 1, "hit": 1, "stale": 0, "absent": 0
        }
        assert stored.store.overlay_size == 1

    def test_new_node_is_absent_then_materialized(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        oracle = fresh_server(checkpoint)
        dim = stored.graph.features.shape[1]
        features = np.full((1, dim), 0.25)
        new = int(stored.add_nodes("paper", features=features)[0])
        assert new == int(oracle.add_nodes("paper", features=features)[0])
        before = store_totals(stored)
        np.testing.assert_array_equal(
            stored.embed([new]), oracle.embed([new])
        )
        assert store_delta(stored, before)["absent"] == 1

    def test_stored_rows_equal_the_serving_hook(self, trained, store_path, acm):
        """A stored row == the serving miss path's answer, same seed."""
        store = AggregateStore.open(store_path)
        nodes = probe_nodes(acm.graph, 9)
        np.testing.assert_array_equal(
            store.blocks_for(nodes)[0],
            trained.embed_for_serving_batch(nodes, acm.graph, 7)[0],
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

    def put(self, node, embedding, label, *, stamp, reads):
        self.made[int(node)] = (int(stamp), reads.tolist())
        self._put(node, embedding, label, stamp=stamp, reads=reads)

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
                store.version_of(int(node)), store.reads_of([node])[0]
            )
            for node in nodes
        ]


class TestVectorizedInvalidation:
    def test_matches_per_node_loop_reference(self, checkpoint, store_path):
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
                stored.freshness.touched_at,
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
        stored.embed(nodes)  # stale rows are refreshed in place
        assert check_store_verdicts()[nodes].all()
        new = int(stored.add_nodes("paper", features=np.full((1, dim), 0.5))[0])
        stored.embed([new])  # absent -> a refreshed row past the built range
        stored.add_edges("paper-subject", [new, int(nodes[1])], [subject, subject])
        check_store_verdicts()
        stored.embed(np.concatenate([nodes, [new]]))
        stored.add_edges("paper-author", [new], [author])
        check_store_verdicts()

        state = stored.export_serving_state()
        touched = zip(state["touched_nodes"].tolist(), state["touched_at"].tolist())
        assert dict(touched) == reference.touched
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
        sliced.refresh(int(owned[0]), 4, *sliced.block_for(int(owned[1])))
        sliced.refresh(arrival, 2, *sliced.block_for(int(owned[1])))
        probe = np.array([int(owned[0]), int(owned[1]), 0, arrival, arrival + 1, -1])
        got = sliced.versions_of(probe)
        want = [
            -1 if (version := sliced.version_of(int(node))) is None else version
            for node in probe
        ]
        np.testing.assert_array_equal(got, want)
        assert list(got[[0, 2, 3, 4, 5]]) == [4, -1, 2, -1, -1]
        embeddings, _ = sliced.blocks_for(owned[:5])
        for position, node in enumerate(owned[:5]):
            np.testing.assert_array_equal(
                embeddings[position], sliced.block_for(int(node))[0]
            )
        np.testing.assert_array_equal(
            sliced.block_for(arrival)[0], sliced.block_for(int(owned[1]))[0]
        )
        with pytest.raises(KeyError):
            sliced.blocks_for([0])
        with pytest.raises(KeyError):
            sliced.block_for(arrival + 1)

    def test_arrival_grows_touched_array_and_is_servable_at_once(self, checkpoint):
        server = fresh_server(checkpoint)
        oracle = fresh_server(checkpoint)
        before = server.graph.num_nodes
        assert server.freshness.touched_at.shape == (before,)
        features = np.full((2, server.graph.features.shape[1]), 0.25)
        new = server.add_nodes("paper", features=features)
        oracle.add_nodes("paper", features=features)
        assert server.freshness.touched_at.shape == (before + 2,)
        assert server.freshness.touched_at.dtype == np.int64
        state = server.export_serving_state()
        assert state["clock"] == 1
        np.testing.assert_array_equal(state["touched_nodes"], new)
        np.testing.assert_array_equal(state["touched_at"], [1, 1])
        assert state["touched_nodes"].dtype == state["touched_at"].dtype == np.int64
        np.testing.assert_array_equal(server.embed(new), oracle.embed(new))
        # A restored server adopts the sparse stamps back into an array,
        # also after they crossed the wire.
        server.restore_serving_state(wire_round_trip(server.export_serving_state()))
        assert not state_differences(
            server.export_serving_state(), oracle.export_serving_state()
        )


class TestClusterStoreSlices:
    @pytest.mark.parametrize("transport,num_shards", [
        ("inline", 1), ("inline", 4), ("socket", 3), ("socket", 4),
    ])
    def test_fleet_matches_oracle_through_mutations(
        self, checkpoint, store_path, transport, num_shards
    ):
        oracle = fresh_server(checkpoint)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), num_shards, transport=transport,
            seed=7, store_path=store_path,
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
            seed=7, store_path=store_path,
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
                foreign = [
                    int(n) for n in range(router.graph.num_nodes)
                    if n not in owned
                ][:5]
                for node in foreign:
                    assert not shard_store.has(node)
        finally:
            router.close()

    def test_inline_engines_share_no_memory_with_the_coordinator(
        self, checkpoint, store_path
    ):
        """An engine adopts the arrays it is handed, so an inline engine
        must be handed its own: no array of its replica or its store slice
        may alias the coordinator's graph or store."""
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="inline",
            seed=7, store_path=store_path,
        )
        try:
            theirs = [
                value
                for holder in (router.graph, router.store)
                for value in vars(holder).values()
                if isinstance(value, np.ndarray)
            ]
            for worker in router.workers:
                engine = worker.transport.engine
                ours = [
                    value
                    for holder in (engine.spec.graph, engine.server.store)
                    for value in vars(holder).values()
                    if isinstance(value, np.ndarray)
                ]
                assert len(ours) > 8
                for array in ours:
                    assert not any(np.shares_memory(array, other) for other in theirs)
                assert engine.server.store.versions_of(worker.spec.owned).min() == 0
        finally:
            router.close()

    def test_router_refuses_incompatible_store(self, checkpoint, store_path):
        with pytest.raises(ValueError, match="seed"):
            ClusterRouter.from_checkpoint(
                checkpoint, fresh_graph(), 2, transport="inline",
                seed=8, store_path=store_path,
            )

    def test_cluster_exposition_carries_store_series(
        self, checkpoint, store_path
    ):
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="inline",
            seed=7, store_path=store_path,
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


class TestShardTables:
    """A shard's slice is its own tables: row ``k`` is node ``s + k*S``."""

    @staticmethod
    def shard_store(store_path, num_nodes, shard_id=1, num_shards=3):
        full = AggregateStore.open(store_path)
        owned = np.arange(shard_id, num_nodes, num_shards)
        payload = full.slice_payload(owned, shard_id, num_shards)
        assert payload["versions"].shape == (owned.size,)  # 1/S of the ids
        return full, owned, AggregateStore.from_payload(payload)

    def test_a_shard_table_holds_exactly_its_owned_rows(self, store_path, acm):
        full, owned, shard = self.shard_store(store_path, acm.graph.num_nodes)
        assert (shard.shard_id, shard.num_shards) == (1, 3)
        assert shard.num_rows == owned.size
        np.testing.assert_array_equal(shard.versions_of(owned), full.versions_of(owned))
        np.testing.assert_array_equal(shard.reads_of(owned), full.reads_of(owned))
        for ours, theirs in zip(shard.blocks_for(owned), full.blocks_for(owned)):
            np.testing.assert_array_equal(ours, theirs)

    def test_a_foreign_id_reads_as_absent(self, store_path, acm):
        """Ids of the other shards map onto owned rows under ``id // S``;
        none of them may read one."""
        _, owned, shard = self.shard_store(store_path, acm.graph.num_nodes)
        foreign = np.setdiff1d(np.arange(-3, acm.graph.num_nodes + 6), owned)
        assert (shard.versions_of(foreign) == -1).all()
        assert not any(shard.has(int(node)) for node in foreign[:9])
        reads = shard.reads_of(foreign)
        own = np.repeat(foreign[:, None], reads.shape[1], axis=1)
        np.testing.assert_array_equal(reads, own)
        with pytest.raises(KeyError, match=f"node {int(foreign[0])}"):
            shard.blocks_for(foreign[:1])
        mixed = np.array([int(owned[0]), int(foreign[-1])])
        assert list(shard.versions_of(mixed)) == [0, -1]

    def test_refresh_never_writes_a_foreign_id(self, store_path, acm):
        _, owned, shard = self.shard_store(store_path, acm.graph.num_nodes)
        width = shard.reads_of([1]).shape[1]
        before = shard.blocks_for([4])
        rows = np.full((2, DIM), 9.0)
        reads = np.full((2, width), 5, np.int32)
        shard.refresh([3, 5], 8, rows, reads)  # both share node 4's row
        for ours, theirs in zip(shard.blocks_for([4]), before):
            np.testing.assert_array_equal(ours, theirs)
        assert list(shard.versions_of([3, 4, 5])) == [-1, 0, -1]
        shard.refresh(6, 8, rows[0], reads[0])  # one foreign node: a no-op
        assert shard.overlay_size == 0
        shard.refresh([3, 4], 8, rows, reads)
        assert list(shard.versions_of([3, 4])) == [-1, 8]
        np.testing.assert_array_equal(shard.block_for(4)[0], rows[0])
        assert shard.overlay_size == 1
        # An owned arrival past the table grows it; the ids in between
        # stay absent and keep their own ids as read sets.
        arrival = int(owned[-1]) + 3 * 5
        shard.refresh([arrival, arrival + 1], 9, rows, reads)
        stamps = shard.versions_of([arrival, arrival + 1, arrival - 3])
        assert list(stamps) == [9, -1, -1]
        assert shard.reads_of([arrival - 3])[0, 0] == arrival - 3
        assert shard.overlay_size == 2

    def test_the_whole_graph_store_is_shard_0_of_1(self, store_path, acm):
        full = AggregateStore.open(store_path)
        assert (full.shard_id, full.num_shards) == (0, 1)
        everyone = np.arange(acm.graph.num_nodes)
        whole = AggregateStore.from_payload(full.slice_payload(everyone))
        np.testing.assert_array_equal(
            whole.versions_of(everyone), full.versions_of(everyone)
        )
        for ours, theirs in zip(whole.blocks_for(everyone), full.blocks_for(everyone)):
            np.testing.assert_array_equal(ours, theirs)

    def test_a_slice_refuses_ids_of_another_shard(self, store_path):
        full = AggregateStore.open(store_path)
        with pytest.raises(ValueError, match="n % 3 == 1"):
            full.slice_payload([1, 2], 1, 3)


# ----------------------------------------------------------------------
# Observability: counters, gauges, exposition
# ----------------------------------------------------------------------


class TestStoreObservability:
    def test_exposition_has_store_and_cache_series(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(stored.graph, 8)
        stored.embed(nodes)
        stored.embed(nodes)  # warm-cache pass feeds the node-hit histogram
        text = stored.metrics_registry_snapshot().render_prometheus()
        assert 'serve_store_requests_total{outcome="hit"}' in text
        assert "serve_cache_node_hits" in text
        assert "serve_store_rows" in text
        assert "serve_store_overlay_rows" in text

    def test_invalidation_counters_carry_reason_labels(
        self, checkpoint, store_path
    ):
        """An edge write touches its sources (``frontier``); a rewire that
        does not name its changed sources touches every node (``full``) —
        and the warm server still answers what a cold one does."""
        registry = MetricsRegistry()
        stored = fresh_server(checkpoint, store_path, registry=registry)
        nodes = probe_nodes(stored.graph, 6)
        lone = int(nodes[1])

        def edge_write(server):
            author = int(server.graph.nodes_of_type("author")[0])
            server.add_edges("paper-author", [int(nodes[0])], [author])

        def rewire(server):
            # Rewire of unknown extent: every edge at ``lone`` goes.
            graph = server.graph
            src = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
            keep = (src != lone) & (graph.indices != lone)
            graph.replace_edges(
                src[keep], graph.indices[keep], graph.edge_type_of[keep]
            )

        def counted(name, reason):
            counter = registry.get(name, reason=reason)
            return 0 if counter is None else counter.value

        def invalidations():
            return tuple(
                counted("serve_invalidations_total", reason)
                for reason in ("frontier", "full")
            )

        stored.embed(nodes)
        edge_write(stored)
        assert invalidations() == (1, 0)
        edge_kept = len(stored.cache)
        rewire(stored)
        assert stored.graph.degree(lone) == 0
        assert invalidations() == (1, 1)
        frontier = registry.get("serve_invalidation_frontier")
        assert frontier.count == 2 and frontier.max == stored.graph.num_nodes
        assert len(stored.cache) == 0  # the rewire kept none ...
        # ... because it dropped every entry the edge write had kept.
        assert counted("serve_invalidated_entries_total", "full") == edge_kept
        cold = fresh_server(checkpoint)
        edge_write(cold)
        rewire(cold)
        np.testing.assert_array_equal(stored.embed(nodes), cold.embed(nodes))
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
        registry = MetricsRegistry()
        store = build_store(
            trained, acm.graph, tmp_path / "gauged", seed=7,
            registry=registry,
        )
        assert registry.gauge("store_rows").value == store.num_rows
        assert registry.gauge("store_row_bytes").value == store.row_nbytes
        assert registry.gauge("store_bytes_total").value == store.nbytes
        assert registry.gauge("store_build_seconds").value > 0


# ----------------------------------------------------------------------
# Exactness as a property: any interleaving of reads and writes
# ----------------------------------------------------------------------

raw_ids = st.integers(0, 10**6)
# A read of up to 8 targets (fewer than a miss batch holds, so one read is
# one batch); ``newest`` pins a target to the most recent arrival.
read_ops = st.tuples(
    st.just("read"),
    st.sampled_from(["classify", "embed"]),
    st.lists(st.tuples(raw_ids, st.booleans()), min_size=1, max_size=8),
)
edge_ops = st.tuples(
    st.just("edges"),
    st.lists(st.tuples(raw_ids, raw_ids, st.booleans()), min_size=1, max_size=3),
)
arrival_ops = st.tuples(st.just("nodes"), st.integers(1, 2))
interleavings = st.lists(
    st.one_of(read_ops, read_ops, edge_ops, arrival_ops), min_size=2, max_size=10
)


class TestExactnessProperty:
    @settings(max_examples=25, deadline=None)
    @given(ops=interleavings)
    def test_storeless_store_and_fleet_agree_through_any_interleaving(
        self, checkpoint, store_path, ops
    ):
        """A storeless server, a store-backed server and a 2-shard inline
        fleet with store slices, driven through the same reads, edge
        arrivals and node arrivals: ``classify`` agrees exactly, ``embed``
        within ``ANSWER_TOLERANCE``, every read's rung counts sum to its
        node count, and whatever a read recomputed is afterwards stored —
        bit-equal to ``embed_for_serving_batch`` of the same batch, stamped
        with the clock, grown past the built range for an arrival."""
        self.check_agreement(checkpoint, store_path, ops, num_shards=2)

    @settings(max_examples=25, deadline=None)
    @given(ops=interleavings)
    def test_the_same_through_a_three_shard_fleet(self, checkpoint, store_path, ops):
        """Three shards: every write is broadcast to a shard that owns
        neither endpoint, and arrivals rotate over three owners."""
        self.check_agreement(checkpoint, store_path, ops, num_shards=3)

    @staticmethod
    def check_agreement(checkpoint, store_path, ops, num_shards):
        # Four-entry caches evict, so re-reads reach the store tier and
        # refreshed rows get served from it (the ``overlay`` rung).
        oracle = fresh_server(checkpoint)
        stored = fresh_server(checkpoint, store_path, cache_capacity=4)
        store = stored.store
        built = store.num_rows
        with ClusterRouter(
            str(checkpoint), fresh_graph(), num_shards, transport="inline",
            seed=7, store_path=str(store_path), cache_capacity=4,
        ) as router:
            router.enable_dist_tracing()
            targets = (oracle, stored, router)
            papers = oracle.graph.nodes_of_type("paper")
            authors = oracle.graph.nodes_of_type("author")
            feature_dim = oracle.graph.features.shape[1]
            newest = int(papers[-1])
            for op in ops + [("read", "embed", [(0, True), (1, False)])]:
                if op[0] == "nodes":
                    features = np.full((op[1], feature_dim), 0.1 * newest)
                    arrived = [
                        target.add_nodes("paper", features=features)
                        for target in targets
                    ]
                    assert all((ids == arrived[0]).all() for ids in arrived)
                    newest = int(arrived[0][-1])
                    papers = np.concatenate([papers, arrived[0]])
                    continue
                if op[0] == "edges":
                    src = [
                        newest if pin else int(papers[raw % papers.size])
                        for raw, _, pin in op[1]
                    ]
                    dst = [int(authors[raw % authors.size]) for _, raw, _ in op[1]]
                    for target in targets:
                        target.add_edges("paper-author", src, dst)
                    continue
                _, kind, picks = op
                nodes = np.array([
                    newest if pin else raw % oracle.graph.num_nodes
                    for raw, pin in picks
                ])
                want, fleet = (getattr(target, kind)(nodes) for target in (oracle, router))
                # The op's own reply carries the rung that served each node.
                reply = stored.replay(nodes, kind=kind)
                got, rungs = reply["values"], reply["rungs"]
                if kind == "classify":
                    np.testing.assert_array_equal(got, want)
                    np.testing.assert_array_equal(fleet, want)
                else:
                    assert_same_answers(got, want)
                    assert_same_answers(fleet, want)
                assert rungs.size == nodes.size
                assert rungs.max() < len(RUNGS)
                assert sum(router.attributions[-1].rungs.values()) == nodes.size
                recomputed = np.array(list(dict.fromkeys(
                    nodes[rungs == RUNGS.index("recompute")].tolist()
                )), np.int64)
                if recomputed.size:
                    embeddings, reads = stored.classifier.embed_for_serving_batch(
                        recomputed, stored.graph, 7
                    )
                    rows, row_reads = store.blocks_for(recomputed)
                    np.testing.assert_array_equal(rows, embeddings)
                    np.testing.assert_array_equal(row_reads, reads)
                    assert (store.versions_of(recomputed) == stored.freshness.clock).all()
            # The closing read served the newest arrival (if any): rows past
            # the built range exist exactly for the arrivals that were read.
            assert store.num_rows >= built
            assert store.has(newest)
            # A slice cut from the live store carries its refreshed rows.
            everyone = np.arange(stored.graph.num_nodes)
            held = everyone[store.versions_of(everyone) >= 0]
            sliced = AggregateStore.from_payload(store.slice_payload(everyone))
            assert sliced.overlay_size == store.overlay_size
            np.testing.assert_array_equal(
                sliced.versions_of(everyone), store.versions_of(everyone)
            )
            for ours, theirs in zip(sliced.blocks_for(held), store.blocks_for(held)):
                np.testing.assert_array_equal(ours, theirs)
