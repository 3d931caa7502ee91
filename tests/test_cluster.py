"""The ``repro.cluster`` subsystem: planner, workers, scatter-gather router.

The load-bearing claim throughout is **indistinguishability**: a
:class:`ClusterRouter` over k halo-replicated shards answers bit-for-bit
what one whole-graph :class:`InferenceServer` with the same seed answers —
for any shard count, in the caller's request order, boundary-crossing
nodes included, and still after streaming mutations.  Every equality
assertion below is exact (``assert_array_equal``), not statistical; the
serving path is deterministic under ``(seed, node)`` rng keying
and batch-size independent by construction, so any drift is a real bug.
"""

import numpy as np
import pytest

from repro.cluster import ClusterPlan, ClusterRouter, ShardPlanner
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.serve import InferenceServer, make_trace


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
    path = tmp_path_factory.mktemp("cluster") / "widen.npz"
    trained.save(path)
    return path


@pytest.fixture(scope="module")
def shallow_checkpoint(acm, tmp_path_factory):
    """A reach-2 model whose shard closures stay genuinely local."""
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=2)
    model.fit(acm.graph, acm.split.train[:40], epochs=1)
    path = tmp_path_factory.mktemp("cluster-shallow") / "widen.npz"
    model.save(path)
    return path


def fresh_graph():
    return make_acm(seed=0, scale=0.5).graph


def fresh_single_server(checkpoint, **kwargs):
    graph = fresh_graph()
    classifier = WidenClassifier.load(checkpoint, graph=graph)
    return InferenceServer(classifier, graph, seed=7, **kwargs)


def fresh_router(checkpoint, num_shards, transport="inline", **kwargs):
    return ClusterRouter.from_checkpoint(
        checkpoint, fresh_graph(), num_shards, transport=transport, seed=7,
        **kwargs
    )


def boundary_probe(router, per_shard=2):
    """Owned nodes whose reach-neighborhood crosses their shard boundary."""
    picked = []
    for worker in router.workers:
        spec = worker.spec
        crossers = spec.owned[spec.touches_halo[spec.owned]]
        picked.extend(int(n) for n in crossers[:per_shard])
    return np.asarray(picked, dtype=np.int64)


# ----------------------------------------------------------------------
# Planner invariants
# ----------------------------------------------------------------------


class TestShardPlanner:
    @pytest.fixture(scope="class")
    def plan(self, acm) -> ClusterPlan:
        return ShardPlanner(fresh_graph(), reach=3, num_shards=4, seed=0).plan()

    def test_ownership_partitions_the_graph(self, plan):
        combined = np.concatenate([spec.owned for spec in plan.shards])
        assert combined.size == plan.global_graph.num_nodes
        assert np.unique(combined).size == combined.size
        for spec in plan.shards:
            assert (plan.owner_of[spec.owned] == spec.shard_id).all()

    def test_halo_contains_owned_and_closure(self, plan):
        for spec in plan.shards:
            assert np.isin(spec.owned, spec.halo).all()
            assert np.isin(spec.closure_sources, spec.halo).all()
            assert np.isin(spec.owned, spec.closure_sources).all()

    def test_shard_graphs_keep_global_id_space(self, plan):
        for spec in plan.shards:
            assert spec.graph.num_nodes == plan.global_graph.num_nodes
            assert spec.graph.version == plan.global_graph.version

    def test_closure_adjacency_lists_survive_verbatim(self, plan):
        """Per-source adjacency inside the closure is identical — contents
        *and* order — which is what makes seeded sampling bit-identical."""
        graph = plan.global_graph
        for spec in plan.shards:
            for node in spec.closure_sources[:25]:
                got_n, got_t = spec.graph.neighbors(int(node))
                want_n, want_t = graph.neighbors(int(node))
                np.testing.assert_array_equal(got_n, want_n)
                np.testing.assert_array_equal(got_t, want_t)

    def test_features_zeroed_exactly_outside_halo(self, plan):
        graph = plan.global_graph
        for spec in plan.shards:
            in_halo = np.zeros(graph.num_nodes, dtype=bool)
            in_halo[spec.halo] = True
            np.testing.assert_array_equal(
                spec.graph.features[in_halo], graph.features[in_halo]
            )
            assert (spec.graph.features[~in_halo] == 0).all()

    def test_touches_halo_is_subset_of_owned(self, plan):
        for spec in plan.shards:
            owned_mask = np.zeros(plan.global_graph.num_nodes, dtype=bool)
            owned_mask[spec.owned] = True
            assert not (spec.touches_halo & ~owned_mask).any()

    def test_single_shard_has_no_boundary(self, acm):
        plan = ShardPlanner(fresh_graph(), reach=3, num_shards=1).plan()
        (spec,) = plan.shards
        assert spec.num_owned == plan.global_graph.num_nodes
        assert not spec.touches_halo.any()
        assert spec.graph.num_edges == plan.global_graph.num_edges

    def test_replication_grows_with_shards(self, acm):
        single = ShardPlanner(fresh_graph(), reach=3, num_shards=1).plan()
        quad = ShardPlanner(fresh_graph(), reach=3, num_shards=4, seed=0).plan()
        assert single.replication_factor() == pytest.approx(1.0)
        assert quad.replication_factor() > 1.0

    def test_invalid_parameters_rejected(self, acm):
        with pytest.raises(ValueError):
            ShardPlanner(fresh_graph(), reach=0, num_shards=2)
        with pytest.raises(ValueError):
            ShardPlanner(fresh_graph(), reach=3, num_shards=0)

    def test_owner_bounds_checked(self, plan):
        with pytest.raises(IndexError):
            plan.owner(plan.global_graph.num_nodes)
        with pytest.raises(IndexError):
            plan.owner(-1)


# ----------------------------------------------------------------------
# Scatter-gather equivalence — the headline contract
# ----------------------------------------------------------------------


class TestClusterEquivalence:
    @pytest.fixture(scope="class")
    def reference(self, checkpoint, acm):
        """One whole-graph server's answers (seed 7) for the shared probe."""
        server = fresh_single_server(checkpoint)
        probe = np.random.default_rng(2).choice(
            server.graph.num_nodes, size=16, replace=False
        )
        return probe, server.embed(probe), server.classify(probe)

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_embeddings_bit_identical(self, checkpoint, reference, num_shards):
        probe, want_embeddings, _ = reference
        with fresh_router(checkpoint, num_shards) as router:
            np.testing.assert_array_equal(router.embed(probe), want_embeddings)

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_classify_matches(self, checkpoint, reference, num_shards):
        probe, _, want_predictions = reference
        with fresh_router(checkpoint, num_shards) as router:
            np.testing.assert_array_equal(
                router.classify(probe), want_predictions
            )

    def test_boundary_crossing_nodes_exact(self, checkpoint):
        """Nodes whose reach-neighborhood leaves the shard are the hard
        case — their answers depend on halo-replicated features."""
        single = fresh_single_server(checkpoint)
        with fresh_router(checkpoint, 4) as router:
            probe = boundary_probe(router)
            assert probe.size > 0, "partition produced no boundary nodes"
            np.testing.assert_array_equal(
                router.embed(probe), single.embed(probe)
            )
            assert sum(w.halo_requests for w in router.workers) == probe.size

    def test_request_order_preserved(self, checkpoint, reference):
        probe, want_embeddings, _ = reference
        order = np.random.default_rng(5).permutation(probe.size)
        with fresh_router(checkpoint, 4) as router:
            np.testing.assert_array_equal(
                router.embed(probe[order]), want_embeddings[order]
            )

    def test_single_request_equals_batched_answer(self, checkpoint, reference):
        """A miss batch of one must carry the same bits as the same node
        served inside a larger batch (the serving path pads single-row
        matmuls past the BLAS gemv/gemm dispatch divergence)."""
        probe, want_embeddings, _ = reference
        with fresh_router(checkpoint, 4) as router:
            lone = router.embed(probe[:1])
            np.testing.assert_array_equal(lone, want_embeddings[:1])

    def test_rejects_classifier_without_declared_reach(
        self, checkpoint, monkeypatch
    ):
        """A checkpoint whose class declares no sampling reach has no
        provably sufficient halo: refused before anything is partitioned."""
        from repro.serve.registry import CHECKPOINT_CLASSES

        class Opaque:
            @classmethod
            def load(cls, path, graph=None):
                return cls()

        monkeypatch.setitem(CHECKPOINT_CLASSES, WidenClassifier.name, Opaque)
        with pytest.raises(ValueError, match="sampling reach"):
            fresh_router(checkpoint, 2)

    def test_closed_router_refuses_requests(self, checkpoint):
        router = fresh_router(checkpoint, 2)
        router.close()
        with pytest.raises(RuntimeError, match="closed"):
            router.embed([0])


# ----------------------------------------------------------------------
# Streaming mutations: fan-out, selective invalidation, equivalence
# ----------------------------------------------------------------------


def stream_mutations(target):
    """One node arrival plus boundary-prone edges, on a server or router."""
    dim = target.graph.features.shape[1]
    new = target.add_nodes("paper", features=np.full((1, dim), 0.25))
    node = int(new[0])
    target.add_edges("paper-author", [node, node], [1, 3])
    return node


class TestMutationFanOut:
    def test_post_mutation_matches_fresh_single_server(self, checkpoint):
        """After the same mutation stream, a warm cluster equals a cold
        whole-graph rebuild — caches dropped exactly what they had to."""
        single = fresh_single_server(checkpoint)
        with fresh_router(checkpoint, 4) as router:
            probe = np.random.default_rng(3).choice(
                single.graph.num_nodes, size=12, replace=False
            )
            router.embed(probe)  # warm the shard caches pre-mutation
            node_single = stream_mutations(single)
            node_cluster = stream_mutations(router)
            assert node_cluster == node_single
            after = np.append(probe, node_cluster)
            np.testing.assert_array_equal(
                router.embed(after), single.embed(after)
            )

    def test_only_affected_shards_invalidate(self, shallow_checkpoint):
        """An edge landing inside one shard's closure must not cost any
        other shard a single cache entry.

        Uses the shallow (reach-2) model: the deep model's closures cover
        nearly the whole graph at this scale, so *every* shard would be
        legitimately affected and selectivity would be unobservable.
        """
        with fresh_router(shallow_checkpoint, 4) as router:
            specs = [w.spec for w in router.workers]
            closures = [set(s.closure_sources.tolist()) for s in specs]
            papers = router.graph.nodes_of_type("paper")
            owned0 = papers[np.isin(papers, specs[0].owned)]
            # A shard-0-local edge outside at least one other closure.
            pair, expect_untouched = None, []
            for p in owned0:
                for q in owned0:
                    if p == q:
                        continue
                    outside = [
                        k for k in range(1, 4)
                        if int(p) not in closures[k] and int(q) not in closures[k]
                    ]
                    if outside:
                        pair, expect_untouched = (int(p), int(q)), outside
                        break
                if pair:
                    break
            assert pair is not None, "no shard-local edge candidate found"
            # Warm every shard's cache, including the endpoints themselves.
            probe = np.concatenate(
                [spec.owned[:3] for spec in specs] + [np.array(pair)]
            )
            router.embed(probe)
            # The inline transport exposes its engine, so the test can look
            # straight at each shard's cache across the protocol boundary.
            engines = [w.transport.engine for w in router.workers]
            sizes_before = [len(e.server.cache) for e in engines]
            assert all(size > 0 for size in sizes_before)
            router.add_edges("paper-subject", [pair[0]], [pair[1]])
            dropped = [
                sum(e.server.cache.node_invalidations.values())
                for e in engines
            ]
            assert dropped[0] > 0  # the owning shard invalidated something
            for k in expect_untouched:
                # No event fired, no entry dropped: the cache is untouched.
                assert dropped[k] == 0, (
                    f"shard {k} invalidated {dropped[k]} entries for an "
                    "edge outside its closure"
                )
                assert len(engines[k].server.cache) == sizes_before[k]

    def test_new_node_id_space_stays_aligned(self, checkpoint):
        with fresh_router(checkpoint, 4) as router:
            dim = router.graph.features.shape[1]
            new = router.add_nodes("paper", features=np.full((1, dim), 0.5))
            node = int(new[0])
            owner = router.plan.owner(node)
            for worker in router.workers:
                shard_graph = worker.spec.graph
                assert shard_graph.num_nodes == router.graph.num_nodes
                if worker.spec.shard_id == owner:
                    np.testing.assert_array_equal(
                        shard_graph.features[node], np.full(dim, 0.5)
                    )
                    assert node in worker.spec.owned
                else:
                    assert (shard_graph.features[node] == 0).all()

    def test_new_node_lands_on_least_loaded_shard(self, checkpoint):
        with fresh_router(checkpoint, 4) as router:
            sizes = [w.spec.num_owned for w in router.workers]
            expected = int(np.argmin(sizes))
            dim = router.graph.features.shape[1]
            node = int(
                router.add_nodes("paper", features=np.zeros((1, dim)))[0]
            )
            assert router.plan.owner(node) == expected


# ----------------------------------------------------------------------
# Replay, telemetry, Prometheus aggregation
# ----------------------------------------------------------------------


class TestClusterTelemetry:
    def test_replay_summary_covers_all_requests(self, checkpoint, acm):
        trace = make_trace(acm.split.test[:30], 48, rate=5000.0, rng=1)
        with fresh_router(checkpoint, 2) as router:
            summary = router.replay(trace)
        assert summary["requests"] == 48
        assert summary["num_shards"] == 2
        assert summary["throughput_rps"] > 0
        assert summary["latency_p95_s"] >= summary["latency_p50_s"]
        assert sum(s["requests"] for s in summary["shards"]) == 48
        assert summary["halo_requests"] == sum(
            s["halo_requests"] for s in summary["shards"]
        )

    def test_prometheus_exposition_is_shard_labeled(self, checkpoint):
        with fresh_router(checkpoint, 2) as router:
            router.embed(np.arange(8))
            text = router.render_prometheus()
        assert 'cluster_requests_total{shard="0"}' in text
        assert 'cluster_requests_total{shard="1"}' in text
        for shard in (0, 1):
            assert f'shard="{shard}"' in text
        assert "serve_requests_total" in text
        assert "serve_latency_seconds" in text

    def test_flush_prometheus_writes_file(self, checkpoint, tmp_path):
        out = tmp_path / "cluster.prom"
        with fresh_router(
            checkpoint, 2, prometheus_path=str(out), prometheus_interval=0.0
        ) as router:
            router.embed(np.arange(4))
            assert router.flush_prometheus() > 0
        text = out.read_text()
        assert 'shard="1"' in text

    def test_summary_counts_match_routing(self, checkpoint):
        with fresh_router(checkpoint, 4) as router:
            probe = np.arange(12)
            router.embed(probe)
            summary = router.summary()
            assert summary["requests"] == probe.size
            routed = sum(s["requests_routed"] for s in summary["shards"])
            assert routed == probe.size


# ----------------------------------------------------------------------
# Worker mechanics
# ----------------------------------------------------------------------


class TestShardWorker:
    @pytest.mark.parametrize("name", ["thread", "mp", "fiber"])
    def test_invalid_transport_rejected(self, checkpoint, name):
        with pytest.raises(ValueError) as excinfo:
            fresh_router(checkpoint, 1, transport=name)
        message = str(excinfo.value)
        assert f"unknown transport {name!r}" in message
        assert "'inline'" in message and "'socket'" in message

    def test_bad_node_fails_only_its_future(self, checkpoint):
        with fresh_router(checkpoint, 1) as router:
            worker = router.workers[0]
            good = worker.submit_serve(0, "embed")
            bad = worker.submit_serve(router.graph.num_nodes + 100, "embed")
            (item,) = good.result()["items"]
            assert item["ok"] and item["value"] is not None
            (item,) = bad.result()["items"]
            assert not item["ok"] and item["error"]

    def test_pull_orders_against_requests(self, checkpoint):
        """A telemetry pull enqueued after a serve envelope observes that
        envelope's effects — the FIFO barrier the protocol guarantees."""
        with fresh_router(checkpoint, 1, transport="socket") as router:
            worker = router.workers[0]
            pending = worker.submit_serve(np.arange(4), "embed")
            # Issued strictly after the serve envelope; FIFO means the
            # engine has already populated the cache when this runs.
            telemetry = worker.pull_telemetry().result()
            assert telemetry["cache_size"] >= 4
            assert all(item["ok"] for item in pending.result()["items"])
