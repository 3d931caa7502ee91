"""The ``repro.cluster`` subsystem: planner, workers, scatter-gather router.

The load-bearing claim throughout is **indistinguishability**: a
:class:`ClusterRouter` over k shards — full replicas that each own a slice
of the ids — answers bit-for-bit what one whole-graph
:class:`InferenceServer` with the same seed answers — for any shard count,
in the caller's request order, nodes with neighbors on other shards
included, and still after streaming mutations.  Every equality
assertion below is exact (``assert_array_equal``), not statistical; the
serving path is deterministic under ``(seed, node)`` rng keying
and batch-size independent by construction, so any drift is a real bug.
"""

import numpy as np
import pytest

from repro.cluster import (
    AddNodesCommand,
    ClusterPlan,
    ClusterRouter,
    ShardError,
    ShardSpec,
)
from repro.cluster.planner import check_node_range
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
    """Owned nodes with an out-edge into another shard's owned set: their
    very first sampling hop leaves what their shard owns."""
    graph, num_shards = router.graph, router.plan.num_shards
    cut = graph._src % num_shards != graph.indices % num_shards
    picked = []
    for worker in router.workers:
        crossers = np.intersect1d(worker.spec.owned, graph._src[cut])
        picked.extend(int(n) for n in crossers[:per_shard])
    return np.asarray(picked, dtype=np.int64)


# ----------------------------------------------------------------------
# Planner invariants
# ----------------------------------------------------------------------


class TestShardPlanner:
    @pytest.fixture(scope="class")
    def plan(self, acm) -> ClusterPlan:
        return ClusterPlan(fresh_graph(), num_shards=4)

    def test_ownership_partitions_the_graph(self, plan):
        combined = np.concatenate([spec.owned for spec in plan.shards])
        assert combined.size == plan.global_graph.num_nodes
        assert np.unique(combined).size == combined.size
        for spec in plan.shards:
            assert (spec.owned % 4 == spec.shard_id).all()
            assert spec.num_owned == spec.owned.size

    @pytest.fixture(scope="class")
    def replicas(self, plan):
        """What each engine rebuilds behind its transport."""
        return [ShardSpec.from_payload(spec.to_payload()) for spec in plan.shards]

    def test_shard_graphs_keep_global_id_space(self, plan, replicas):
        for spec, replica in zip(plan.shards, replicas):
            assert spec.graph is plan.global_graph  # one graph on this side
            assert replica.graph is not plan.global_graph
            assert replica.graph.num_nodes == plan.global_graph.num_nodes
            assert replica.graph.version == plan.global_graph.version
            np.testing.assert_array_equal(replica.owned, spec.owned)
            np.testing.assert_array_equal(
                replica.graph.features, plan.global_graph.features
            )
            assert not np.shares_memory(
                replica.graph.features, plan.global_graph.features
            )

    def test_closure_adjacency_lists_survive_verbatim(self, plan, replicas):
        """Every adjacency list on a replica is identical to the
        coordinator's — contents *and* order — which is what makes seeded
        sampling bit-identical.  (The transitive closure of any shard's
        owned set is the whole graph, so that is what a replica holds.)"""
        graph = plan.global_graph
        for replica in replicas:
            for name in ("indptr", "indices", "edge_type_of", "_src"):
                np.testing.assert_array_equal(
                    getattr(replica.graph, name), getattr(graph, name)
                )
            for node in replica.owned[:25]:
                got_n, got_t = replica.graph.neighbors(int(node))
                want_n, want_t = graph.neighbors(int(node))
                np.testing.assert_array_equal(got_n, want_n)
                np.testing.assert_array_equal(got_t, want_t)

    def test_single_shard_has_no_boundary(self, acm):
        plan = ClusterPlan(fresh_graph(), num_shards=1)
        (spec,) = plan.shards
        assert spec.num_owned == plan.global_graph.num_nodes
        np.testing.assert_array_equal(
            spec.owned, np.arange(plan.global_graph.num_nodes)
        )

    def test_invalid_parameters_rejected(self, acm):
        with pytest.raises(ValueError):
            ClusterPlan(fresh_graph(), num_shards=0)
        with pytest.raises(ValueError):
            ClusterPlan(fresh_graph(), num_shards=10**6)

    def test_owner_bounds_checked(self, plan):
        """``-1 % S`` and ``num_nodes % S`` are shards: the range check
        that precedes the rule refuses both ids, naming them."""
        num_nodes = plan.global_graph.num_nodes
        for bad in (num_nodes, -1):
            with pytest.raises(IndexError, match=f"node {bad} out of range"):
                check_node_range(np.array([0, bad]), num_nodes)

    def test_apply_refuses_a_diverged_id_space_and_unknown_commands(self, plan):
        """The two loud paths of ``ShardSpec.apply``: a replica whose id
        space no longer lines up with the coordinator's (it would append
        ids other than the ones the arrival got globally), and an object
        that is not a mutation command."""
        replica = ShardSpec.from_payload(plan.shards[1].to_payload())
        n, dim = replica.graph.num_nodes, replica.graph.features.shape[1]
        arrival = AddNodesCommand(
            type_name="paper", features=np.zeros((1, dim)), labels=None,
            expected_ids=np.array([n + 1]),
        )
        with pytest.raises(RuntimeError, match="id space diverged"):
            replica.apply(arrival)
        replica.apply(arrival)  # n was taken by the refused try: now the truth
        arrival.expected_ids = np.array([n + 2])
        replica.apply(arrival)
        assert replica.graph.num_nodes == n + 3
        # Shard 1 of 4 owns exactly the arrivals the rule gives it.
        assert [m for m in (n, n + 1, n + 2) if m in replica.owned] == [
            m for m in (n, n + 1, n + 2) if m % 4 == 1
        ]
        with pytest.raises(TypeError, match="unknown mutation command dict"):
            replica.apply({"src": [0], "dst": [1]})


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
        """Nodes with neighbors owned by other shards are the hard case —
        their answers depend on lists and features their shard does not
        own, which only a faithful replica supplies."""
        single = fresh_single_server(checkpoint)
        with fresh_router(checkpoint, 4) as router:
            probe = boundary_probe(router)
            assert probe.size > 0, "no node has an edge into another shard"
            np.testing.assert_array_equal(
                router.embed(probe), single.embed(probe)
            )
            assert sum(w.requests_routed for w in router.workers) == probe.size

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

    def test_single_classify_equals_batched_answer(self, checkpoint, reference):
        """The classify twin: a lone miss is labelled by a one-row head
        call, which must agree with the label the node got in a batch."""
        probe, _, want_predictions = reference
        with fresh_router(checkpoint, 4) as router:
            lone = router.classify(probe[:1])
            np.testing.assert_array_equal(lone, want_predictions[:1])

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
    @pytest.mark.parametrize("transport", ["inline", "socket"])
    def test_coordinator_holds_one_graph(self, checkpoint, transport):
        """Every coordinator-side spec points at the router's own graph and
        a shard payload is references into it — no mirror graphs, no copy
        of the feature matrix — before and after a write."""
        with fresh_router(checkpoint, 2, transport=transport) as router:
            dim = router.graph.features.shape[1]

            def check():
                for spec in router.plan.shards:
                    assert spec.graph is router.graph
                    payload = spec.to_payload()
                    assert payload["features"].shape == router.graph.features.shape
                    assert np.shares_memory(payload["features"], router.graph.features)
                    assert payload["dst"] is router.graph.indices
                    assert payload["version"] == router.graph.version

            check()
            held = router.plan.shards[0].to_payload()
            rows = held["features"].shape[0]
            new = router.add_nodes("paper", features=np.full((1, dim), 0.25))
            router.add_edges("paper-author", [int(new[0])], [1])
            check()
            # A payload cut earlier is still the snapshot it was.
            assert held["features"].shape[0] == rows == held["node_types"].size
            assert held["dst"].size < router.graph.indices.size

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

    def test_new_node_id_space_stays_aligned(self, checkpoint):
        with fresh_router(checkpoint, 4) as router:
            dim = router.graph.features.shape[1]
            new = router.add_nodes("paper", features=np.full((1, dim), 0.5))
            node = int(new[0])
            owner = node % 4
            for worker in router.workers:
                # The inline transport exposes its engine: look at the
                # replica behind the boundary, not the coordinator's graph.
                replica = worker.transport.engine.spec
                assert replica.graph is not router.graph
                assert replica.graph.num_nodes == router.graph.num_nodes
                np.testing.assert_array_equal(
                    replica.graph.features[node], np.full(dim, 0.5)
                )
                assert (node in replica.owned) == (worker.spec.shard_id == owner)
                np.testing.assert_array_equal(replica.owned, worker.spec.owned)

    def test_arrivals_spread_over_shards_by_id(self, checkpoint):
        """One batch of four arrivals lands one on each of four shards,
        and a read of them routes each to shard ``n % 4``."""
        with fresh_router(checkpoint, 4) as router:
            sizes = [w.spec.num_owned for w in router.workers]
            dim = router.graph.features.shape[1]
            new = router.add_nodes("paper", features=np.zeros((4, dim)))
            assert sorted(new % 4) == [0, 1, 2, 3]
            assert [w.spec.num_owned for w in router.workers] == [
                size + 1 for size in sizes
            ]
            router.embed(new[::-1])
            assert [w.requests_routed for w in router.workers] == [1, 1, 1, 1]


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
        assert sum(s["requests_routed"] for s in summary["shards"]) == 48
        assert sum(s["owned"] for s in summary["shards"]) == acm.graph.num_nodes

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
        with fresh_router(checkpoint, 2) as router:
            router.embed(np.arange(4))
            assert router.merged_registry().write_prometheus(out) > 0
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
            assert good.result()["values"].shape[0] == 1
            with pytest.raises(ShardError) as excinfo:
                bad.result()
            assert excinfo.value.remote_type == "IndexError"

    def test_out_of_range_op_is_refused_before_anything_is_sent(self, checkpoint):
        """``-1 % S`` would route ``-1`` to the last shard:
        the router range-checks first, names the id, and neither counts
        nor sends; an engine handed such an op directly refuses it whole,
        as a counted error reply."""
        with fresh_router(checkpoint, 2) as router:
            num_nodes = router.graph.num_nodes
            for bad in (-1, num_nodes):
                for ask in (router.classify, router.embed):
                    with pytest.raises(IndexError) as excinfo:
                        ask([0, bad, 1])
                    assert f"node {bad} out of range [0, {num_nodes})" in str(
                        excinfo.value
                    )
            assert "cluster_requests_total" not in router.registry.render_prometheus()
            assert [worker.requests_routed for worker in router.workers] == [0, 0]
            summary = router.summary()
            assert summary["requests"] == 0
            worker = router.workers[0]
            owned = int(worker.spec.owned[0])
            with pytest.raises(ShardError) as excinfo:
                worker.submit_serve([owned, -1], "embed").result()
            assert excinfo.value.remote_type == "IndexError"
            text = router.render_prometheus()
            assert 'shard_errors_total{kind="serve",shard="0"} 1' in text
            assert router.summary()["requests"] == 0  # nothing was half-served

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
            assert pending.result()["values"].shape[0] == 4
