"""The ``repro.serve`` subsystem: registry, cache, server, traces.

Everything here is deterministic under fixed seeds: the server computes
cache misses with an rng keyed on ``(server seed, node id)``, so two
servers over equal graphs return byte-identical answers regardless of
request order, batching boundaries, cache history or mutation history — which is what lets
the mutation tests assert exact equality against a cold server instead of a
statistical similarity.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.cluster.fleet import Fleet
from repro.core import WidenClassifier, WidenModel, serving_refusal
from repro.datasets import make_acm
from repro.graph import GraphBuilder
from repro.nn import Linear, Module
from repro.obs.metrics import nearest_rank_percentile
from repro.obs import MetricsRegistry, SLOTarget
from repro.serve import (
    RUNGS,
    EmbeddingCache,
    InferenceServer,
    ModelRegistry,
    Telemetry,
    make_trace,
)
from repro.serve.telemetry import COLUMNS
from repro.store import build_store


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def trained(acm):
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
    model.fit(acm.graph, acm.split.train[:40], epochs=2)
    return model


def fresh_acm_server(checkpoint_path, *, seed=7, **server_kwargs):
    """A server over a freshly generated (identical) ACM graph."""
    graph = make_acm(seed=0, scale=0.5).graph
    classifier = WidenClassifier.load(checkpoint_path, graph=graph)
    return InferenceServer(classifier, graph, seed=seed, **server_kwargs)


@pytest.fixture
def head_calls(monkeypatch):
    """The logits of every classifier-head call, in call order."""
    calls = []
    logits = WidenModel.logits

    def counted(self, embeddings):
        out = logits(self, embeddings)
        calls.append(out.data.copy())
        return out

    monkeypatch.setattr(WidenModel, "logits", counted)
    return calls


# ----------------------------------------------------------------------
# Model registry / checkpoint round-trip
# ----------------------------------------------------------------------


class TestRegistry:
    def test_roundtrip_restores_weights_config_and_seed(self, trained, acm, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        path = registry.save("widen-acm", trained)
        assert path.exists()
        assert registry.list() == ["widen-acm"]
        assert "widen-acm" in registry

        loaded = registry.load("widen-acm")
        assert loaded.config == trained.config
        assert loaded._seed == 0
        for name, value in trained.model.state_dict().items():
            np.testing.assert_array_equal(loaded.model.state_dict()[name], value)

    def test_loaded_model_serves_without_fit(self, trained, acm, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.save("widen-acm", trained)
        loaded = registry.load("widen-acm", graph=acm.graph)
        predictions = loaded.predict(acm.split.test[:20])
        assert predictions.shape == (20,)
        assert set(predictions.tolist()) <= set(range(acm.graph.num_classes))

    def test_load_is_deterministic(self, trained, acm, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        registry.save("widen-acm", trained)
        first = registry.load("widen-acm", graph=acm.graph).predict(acm.split.test[:30])
        second = registry.load("widen-acm", graph=acm.graph).predict(acm.split.test[:30])
        np.testing.assert_array_equal(first, second)

    def test_missing_name_lists_registered(self, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        with pytest.raises(FileNotFoundError, match="no checkpoint named"):
            registry.load("ghost")

    def test_schema_mismatch_rejected_at_bind(self, trained, tmp_path):
        from repro.datasets import make_dblp

        registry = ModelRegistry(tmp_path / "models")
        registry.save("widen-acm", trained)
        dblp = make_dblp(seed=0, scale=0.5)
        with pytest.raises(ValueError, match="schema mismatch"):
            registry.load("widen-acm", graph=dblp.graph)

    def test_save_requires_built_model(self, tmp_path):
        with pytest.raises(RuntimeError, match="nothing to save"):
            WidenClassifier(seed=0).save(tmp_path / "empty.ckpt")

    def test_module_load_names_mismatched_keys(self):
        class Small(Module):
            def __init__(self):
                super().__init__()
                self.alpha = Linear(3, 2, rng=0)

        class Renamed(Module):
            def __init__(self):
                super().__init__()
                self.beta = Linear(3, 2, rng=0)

        with pytest.raises(KeyError) as excinfo:
            Renamed().load_state_dict(Small().state_dict())
        message = str(excinfo.value)
        assert "beta" in message and "alpha" in message
        assert "missing" in message and "unexpected" in message


# ----------------------------------------------------------------------
# Embedding cache
# ----------------------------------------------------------------------


class TestEmbeddingCache:
    def test_lru_evicts_least_recently_used(self):
        cache = EmbeddingCache(capacity=2)
        cache.put(1, np.ones(4), 0)
        cache.put(2, np.full(4, 2.0), 0)
        assert cache.get(1) is not None  # touch 1 -> 2 is now LRU
        cache.put(3, np.full(4, 3.0), 0)
        assert cache.get(2) is None
        assert cache.get(1) is not None
        assert cache.get(3) is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_again_replaces_in_place(self):
        """One entry per node: a second put overwrites the answer, stamp
        and read set in the same slot and refreshes the LRU position."""
        cache = EmbeddingCache(capacity=2)
        cache.put(1, np.ones(4), 0, stamp=0, reads=np.array([1, 5]))
        cache.put(2, np.ones(4), 0)
        cache.put(1, np.full(4, 9.0), 2, stamp=3, reads=np.array([1, 6]))
        assert len(cache) == 2 and cache.evictions == 0
        embedding, label = cache.get(1)
        np.testing.assert_array_equal(embedding, np.full(4, 9.0))
        assert label == 2
        touched_at = np.zeros(8, dtype=np.int64)
        touched_at[5] = 2  # undercuts only the entry that was replaced
        assert cache.stale_nodes(touched_at).size == 0
        cache.put(3, np.ones(4), 0)  # evicts 2: the re-put moved 1 to the front
        assert 1 in cache and 2 not in cache

    def test_invalidate_drops_everything(self):
        cache = EmbeddingCache(capacity=8)
        for node in (1, 2, 3):
            cache.put(node, np.ones(4), 0)
        assert cache.invalidate() == 3
        assert len(cache) == 0 and cache.invalidations == 3
        assert cache.get(1) is None
        cache.put(4, np.ones(4), 0)  # the freed slots are reusable
        assert 4 in cache

    def test_invalidate_specific_nodes(self):
        cache = EmbeddingCache(capacity=8)
        for node in (1, 2, 3):
            cache.put(node, np.ones(4), 0)
        assert cache.invalidate_nodes([1, 3, 7]) == 2
        assert 2 in cache and 1 not in cache and 3 not in cache
        assert cache.node_invalidations == {1: 1, 3: 1}

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            EmbeddingCache(capacity=0)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


class TestTelemetry:
    def test_nearest_rank_percentiles(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        assert nearest_rank_percentile(values, 50) == 50.0
        assert nearest_rank_percentile(values, 95) == 95.0
        assert nearest_rank_percentile(values, 99) == 99.0
        assert nearest_rank_percentile(values, 100) == 100.0
        assert nearest_rank_percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            nearest_rank_percentile(values, 101)

    @staticmethod
    def answered(
        telemetry, node, arrival, completion, *, hit=False, rung=None,
        kind="classify",
    ):
        """One request through the recording API — open its row, fill
        it; returns its id."""
        rung = rung or ("cache" if hit else "recompute")
        request_id = telemetry.open(node, kind, arrival)
        telemetry.finish(request_id, completion, rung=rung)
        return request_id

    def test_feeds_shared_registry(self):
        registry = MetricsRegistry()
        telemetry = Telemetry(registry)
        first = telemetry.open(0, "classify", 0.0)
        queued = telemetry.open(1, "classify", 0.0)
        self.answered(telemetry, 2, 0.0, 0.5)
        telemetry.finish(first, 0.25, rung="cache")
        telemetry.record_batch(2)
        # Rows reach the registry at sync(), in submit order and each once:
        # nothing behind a request that is still queued is observed early.
        telemetry.sync()
        telemetry.sync()
        assert registry.get("serve_requests_total", cache="hit").value == 1
        assert registry.get("serve_requests_total", cache="miss").value == 0
        telemetry.finish(queued, 0.5, rung="store")
        telemetry.sync()
        assert registry.get("serve_requests_total", cache="hit").value == 1
        assert registry.get("serve_requests_total", cache="miss").value == 2
        assert registry.get("serve_rung_total", rung="store").value == 1
        assert registry.get("serve_rung_total", rung="recompute").value == 1
        latency = registry.get("serve_latency_seconds")
        assert latency.count == 3
        assert latency.max == pytest.approx(0.5)
        assert registry.get("serve_batch_size").count == 1
        # A restart empties the table, not the cumulative series, and
        # syncs what it drops.
        self.answered(telemetry, 3, 1.0, 1.5, hit=True)
        telemetry.release(4)
        assert len(telemetry) == 0
        assert registry.get("serve_latency_seconds").count == 4

    def test_restart_keeps_ids_counting_and_drops_released_rows(self):
        """The table restarts only once every answer is picked up: a
        request still queued keeps its row and id, ids keep counting up
        across a restart, and a released id no longer resolves."""
        telemetry = Telemetry(MetricsRegistry())
        done = self.answered(telemetry, 0, 0.0, 0.5, hit=True)
        queued = telemetry.open(7, "embed", 1.0)
        telemetry.release(1)  # ``done`` picked up; ``queued`` still in flight
        assert len(telemetry) == 2
        (row,) = telemetry.rows_of([queued])
        assert telemetry.node[row] == 7 and np.isnan(telemetry.completion[row])
        telemetry.finish(queued, 3.0, rung="recompute")
        telemetry.release(1)
        assert len(telemetry) == 0
        later = self.answered(telemetry, 8, 2.0, 2.5, hit=True)
        assert later == queued + 1
        (row,) = telemetry.rows_of([later])
        assert row == 0 and telemetry.node[0] == 8
        for released in (done, queued):
            with pytest.raises(KeyError):
                telemetry.rows_of([released])
        with pytest.raises(KeyError):
            telemetry.rows_of([later + 1])  # never issued

    def test_table_grows_past_its_first_allocation(self):
        registry = MetricsRegistry()
        telemetry = Telemetry(registry)
        for i in range(200):
            self.answered(telemetry, i, float(i), i + 0.5, hit=i % 2 == 0)
        np.testing.assert_array_equal(telemetry.node[:200], np.arange(200))
        assert telemetry.node.size == 256
        telemetry.sync()
        assert registry.get("serve_latency_seconds").count == 200
        assert registry.get("serve_requests_total", cache="hit").value == 100


class TestLongLivedServer:
    """A served request leaves no row behind: a server's request table holds
    the requests in flight, so it does not grow with the server's age."""

    OPS = 1_000

    @staticmethod
    def table_bytes(telemetry):
        return sum(getattr(telemetry, name).nbytes for name in COLUMNS)

    @pytest.fixture
    def ops(self, acm):
        rng = np.random.default_rng(0)
        pool = acm.split.test[:64]
        return [rng.choice(pool, size=16) for _ in range(self.OPS)]

    def test_in_process_server_holds_no_answered_rows(self, trained, tmp_path, ops):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path, registry=MetricsRegistry())
        telemetry = server.telemetry
        server.classify(ops[0])
        capacity = self.table_bytes(telemetry)
        for nodes in ops[1:]:
            server.classify(nodes)
        assert len(telemetry) == 0
        assert self.table_bytes(telemetry) == capacity
        assert telemetry.registry.get("serve_latency_seconds").count == 16 * self.OPS
        reply = server.replay(ops[0][:1])
        assert RUNGS[reply["rungs"][0]] == "cache"
        # Ids keep counting through every restart; a released id is gone.
        with pytest.raises(KeyError):
            telemetry.rows_of([16 * self.OPS])
        assert server.submit(int(ops[0][0])) == 16 * self.OPS + 1

    def test_each_shard_server_holds_no_answered_rows(self, trained, acm, tmp_path, ops):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        graph = make_acm(seed=0, scale=0.5).graph
        with ClusterRouter.from_checkpoint(path, graph, 2, transport="inline", seed=7) as router:
            tables = [worker.transport.engine.server.telemetry for worker in router.workers]
            router.classify(ops[0])
            capacity = [self.table_bytes(table) for table in tables]
            for nodes in ops[1:]:
                router.classify(nodes)
            assert [len(table) for table in tables] == [0, 0]
            assert [self.table_bytes(table) for table in tables] == capacity
            merged = router.merged_registry()
        routed = np.bincount(np.concatenate(ops) % 2, minlength=2)
        for shard, count in enumerate(routed.tolist()):
            requests = sum(
                merged.get("serve_requests_total", cache=hit, shard=str(shard)).value
                for hit in ("hit", "miss")
            )
            assert requests == count
            assert merged.get(
                "serve_latency_seconds", shard=str(shard)
            ).count == count


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------


class TestLoadGenerator:
    def test_trace_is_deterministic_and_well_formed(self):
        pool = np.arange(100, 150)
        first = make_trace(pool, 200, rng=9)
        np.testing.assert_array_equal(first, make_trace(pool, 200, rng=9))
        assert first.shape == (200,) and first.dtype == np.int64
        assert ((100 <= first) & (first < 150)).all()

    def test_trace_nodes_are_pinned(self):
        """The node sequence is the one the Poisson/Zipf trace drew before
        its arrival times went: the Zipf picks came first."""
        trace = make_trace(np.arange(40), 120, rng=3)
        assert trace[:12].tolist() == [0, 0, 14, 4, 0, 2, 2, 0, 10, 0, 1, 3]
        digest = hashlib.sha256(trace.astype(np.int64).tobytes()).hexdigest()
        assert digest[:16] == "2bfd607dce3f97d3"

    def test_zipf_skews_popularity_toward_the_head(self):
        trace = make_trace(np.arange(50), 1000, zipf_exponent=1.3, rng=0)
        counts = np.bincount(trace, minlength=50)
        assert counts[:5].sum() > counts[25:].sum()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_trace([], 10)
        with pytest.raises(ValueError):
            make_trace([1], 0)

    def test_replay_sends_the_trace_as_group_node_ops(
        self, trained, acm, tmp_path
    ):
        """What ``serve-cluster --shards 1`` does: the trace as 8-node ops
        through a one-shard router, one attribution record per op whose
        rungs sum to its nodes, and the lone server's answers."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        trace = make_trace(acm.split.test[:30], 60, rng=1)
        graph = make_acm(seed=0, scale=0.5).graph
        with ClusterRouter.from_checkpoint(path, graph, 1, seed=7) as router:
            router.enable_slo(SLOTarget())
            answers = np.concatenate([
                router.embed(trace[start:start + 8])
                for start in range(0, trace.size, 8)
            ])
            records = router.attribution_records()
        assert [record["nodes"] for record in records] == [8] * 7 + [4]
        assert all(sum(r["rungs"].values()) == r["nodes"] for r in records)
        server = fresh_acm_server(path, registry=MetricsRegistry())
        np.testing.assert_array_equal(answers, server.embed(trace))


# ----------------------------------------------------------------------
# The serving contract: a project-mode WIDEN classifier, nothing else
# ----------------------------------------------------------------------


CONTRACT_ENTRY_POINTS = (
    "InferenceServer",
    "InferenceServer.from_checkpoint",
    "ClusterRouter.from_checkpoint",
    "build_store",
    "AggregateStore.compatible_with",
    "embed_for_serving_batch",
)


class TestServingContract:
    """Serving takes a ``WidenClassifier`` in ``"project"`` embedding mode
    (``serving_refusal``); every entry point refuses anything else before
    it binds, spawns or samples, and all of them say the same thing."""

    @pytest.fixture(scope="class")
    def replace_mode(self, acm, tmp_path_factory):
        model = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=2, embedding_mode="replace"
        )
        model.fit(acm.graph, acm.split.train[:40], epochs=0)
        path = tmp_path_factory.mktemp("replace") / "replace.ckpt"
        model.save(path)
        return model, path

    @pytest.mark.parametrize("entry", CONTRACT_ENTRY_POINTS)
    def test_replace_mode_is_refused(
        self, entry, replace_mode, trained, tmp_path, monkeypatch
    ):
        model, path = replace_mode
        graph = make_acm(seed=0, scale=0.5).graph
        reason = serving_refusal(model)
        assert "embedding_mode='project'" in reason

        def no_bring_up(*args, **kwargs):
            raise AssertionError("workers spawned before the contract check")

        monkeypatch.setattr(Fleet, "bring_up", no_bring_up)
        calls = {
            "InferenceServer": lambda: InferenceServer(model, graph, seed=7),
            "InferenceServer.from_checkpoint": lambda: InferenceServer.from_checkpoint(
                path, graph, seed=7
            ),
            "ClusterRouter.from_checkpoint": lambda: ClusterRouter.from_checkpoint(
                path, graph, 2, seed=7
            ),
            "build_store": lambda: build_store(model, graph, tmp_path / "s", seed=7),
            "embed_for_serving_batch": lambda: model.embed_for_serving_batch(
                np.arange(4), graph, 7
            ),
        }
        if entry == "AggregateStore.compatible_with":
            store = build_store(trained, graph, tmp_path / "store", seed=7)
            assert store.compatible_with(model, 7) == reason
        else:
            with pytest.raises(ValueError) as refused:
                calls[entry]()
            assert reason in str(refused.value)
        assert graph.version == 0 and not graph._mutation_hooks

    def test_server_refuses_a_non_widen_object(self, trained, acm):
        """Looking like WIDEN is not enough: the contract is the class."""

        class Impostor:
            name = "impostor"
            graph = acm.graph
            config = trained.config
            embed_for_serving_batch = trained.embed_for_serving_batch
            predict_from_embeddings = trained.predict_from_embeddings

        reason = serving_refusal(Impostor())
        assert "WidenClassifier" in reason and "Impostor" in reason
        with pytest.raises(ValueError) as refused:
            InferenceServer(Impostor(), acm.graph, seed=7)
        assert str(refused.value) == reason
        assert serving_refusal(trained) is None


# ----------------------------------------------------------------------
# Inference server
# ----------------------------------------------------------------------


class TestInferenceServer:
    def test_serves_checkpoint_and_matches_across_servers(self, trained, acm, tmp_path):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        nodes = acm.split.test[:12]
        a = fresh_acm_server(path).classify(nodes)
        b = fresh_acm_server(path).classify(nodes)
        np.testing.assert_array_equal(a, b)

    def test_batching_is_invisible_in_results(self, trained, acm, tmp_path):
        """Same answers whether requests coalesce into one batch or many."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        nodes = acm.split.test[:10]
        batched = fresh_acm_server(path, max_batch_size=16).classify(nodes)
        unbatched = fresh_acm_server(path, max_batch_size=1).classify(nodes)
        np.testing.assert_array_equal(batched, unbatched)

    def test_cache_hit_path_returns_identical_values(self, trained, acm, tmp_path):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path)
        nodes = acm.split.test[:8]
        cold_embeddings = server.embed(nodes)
        warm_embeddings = server.embed(nodes)
        np.testing.assert_array_equal(cold_embeddings, warm_embeddings)
        assert server.cache.hits >= len(nodes)

    def test_answers_do_not_depend_on_batching_or_op_boundaries(
        self, trained, acm, tmp_path
    ):
        """The same 96 nodes served as one op in chunks of 16, as one op in
        chunks of 1, and as one op per node give the same bits: an answer
        is a function of the parameters, the graph and the seed."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        nodes = acm.split.test[:96]
        assert nodes.size == 96

        def digests(server, per_node):
            ops = [[node] for node in nodes] if per_node else [nodes]
            return [
                hashlib.sha256(
                    np.concatenate([server.replay(op, kind=kind)["values"] for op in ops])
                    .tobytes()
                ).hexdigest()
                for kind in ("embed", "classify")
            ]

        one_op = digests(fresh_acm_server(path, max_batch_size=16), False)
        assert digests(fresh_acm_server(path, max_batch_size=1), False) == one_op
        assert digests(fresh_acm_server(path, max_batch_size=16), True) == one_op

    def test_an_op_of_twice_the_batch_plus_one_misses_runs_three_batches(
        self, trained, acm, tmp_path
    ):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path, max_batch_size=4, registry=MetricsRegistry())
        reply = server.replay(acm.split.test[:9], kind="embed")
        assert {RUNGS[code] for code in reply["rungs"]} == {"recompute"}
        compute_batches = server.telemetry.registry.get("serve_compute_batch_size")
        assert compute_batches.count == 3
        assert compute_batches.sum == 9
        # The reply is columns plus the op's own miss work: the end of its
        # submit loop to its last answer, so an all-cache op reads 0.
        assert set(reply) == {"values", "rungs", "compute"}
        assert reply["compute"] > 0
        warm = server.replay(acm.split.test[:9], kind="embed")
        assert {RUNGS[code] for code in warm["rungs"]} == {"cache"}
        assert warm["compute"] == 0.0

    def test_max_batch_size_below_one_is_refused(self, trained, acm, tmp_path):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        for size in (0, -1):
            with pytest.raises(ValueError, match="max_batch_size must be >= 1"):
                fresh_acm_server(path, max_batch_size=size)

    def test_a_queued_miss_is_counted_once_and_computed_once(
        self, trained, acm, tmp_path
    ):
        """``submit`` probes the cache and the flush probes again (a node
        an earlier batch computed must not be recomputed); the request is
        one miss, not two."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path)
        nodes = acm.split.test[:10]
        server.classify(nodes)
        assert (server.cache.misses, server.cache.hits) == (10, 0)
        assert "misses=10" in repr(server.cache)
        server.classify(nodes)
        assert (server.cache.misses, server.cache.hits) == (10, 10)

        # One node queued behind two flushes: computed by the first,
        # found resident (a counted hit, no recompute) by the second.
        server = fresh_acm_server(
            path, max_batch_size=4, registry=MetricsRegistry()
        )
        computed = []
        compute = server._compute_embeddings
        server._compute_embeddings = lambda nodes: (
            computed.extend(nodes), compute(nodes)
        )[1]
        first, twice = int(nodes[0]), int(nodes[1])
        ids = [server.submit(node, kind="embed") for node in (first, twice, twice)]
        server.max_batch_size = 2  # drain in two chunks: [first, twice], [twice]
        server.drain()
        assert computed == [first, twice]
        assert (server.cache.misses, server.cache.hits) == (3, 1)
        table = server.telemetry
        rungs = [RUNGS[code] for code in table.rung[table.rows_of(ids)]]
        assert rungs == ["recompute", "recompute", "cache"]
        assert server.telemetry.registry.get("serve_batch_size").count == 2

    def test_rejects_out_of_range_and_bad_kind(self, trained, acm, tmp_path):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path)
        with pytest.raises(IndexError):
            server.submit(acm.graph.num_nodes + 5)
        with pytest.raises(ValueError, match="unknown request kind"):
            server.submit(0, kind="frobnicate")


class TestHeadCalls:
    """A cache entry is the whole answer: a hit runs no head, and a batch
    runs one head call over the rows it computed, whatever the kinds."""

    def test_warm_classify_runs_no_head(self, trained, acm, tmp_path, head_calls):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path)
        nodes = acm.split.test[:12]
        cold = server.classify(nodes)
        head_calls.clear()
        warm = server.replay(nodes, kind="classify")
        assert head_calls == []
        assert {RUNGS[code] for code in warm["rungs"]} == {"cache"}
        np.testing.assert_array_equal(warm["values"], cold)

    @pytest.mark.parametrize("kind", ["classify", "embed"])
    def test_one_head_call_per_flushed_batch(
        self, trained, acm, tmp_path, head_calls, kind
    ):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path, max_batch_size=4)
        nodes = [int(node) for node in acm.split.test[:10]]
        server.classify(nodes[:3])  # resident: answered at submit time
        head_calls.clear()
        compute_batches = server.telemetry.registry.get("serve_compute_batch_size")
        before = compute_batches.count
        server.replay(nodes, kind=kind)
        computed = compute_batches.count - before
        assert computed == 2  # the 7 misses flush as 4 + 3
        assert len(head_calls) == computed

    def test_cache_smaller_than_the_batch(self, trained, acm, tmp_path):
        """A batch answers from its own rows, not by reading the cache back
        (which has evicted all but one of them)."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        nodes = acm.split.test[:4]
        tiny = fresh_acm_server(
            path, cache_capacity=1, max_batch_size=4, registry=MetricsRegistry()
        )
        labels = tiny.classify(nodes)
        assert tiny.telemetry.registry.get("serve_compute_batch_size").count == 1
        np.testing.assert_array_equal(labels, fresh_acm_server(path).classify(nodes))

    def test_a_label_does_not_depend_on_its_batch(self, trained, acm, head_calls):
        """A lone row is padded to a whole gemm block: its logits carry the
        same bits as the same row inside a batch of 64 (a pair does not,
        with ACM's three classes)."""
        nodes = np.arange(64)
        embeddings, _ = trained.embed_for_serving_batch(nodes, acm.graph, 7)
        head_calls.clear()
        batched = trained.predict_from_embeddings(embeddings)
        alone = [
            trained.predict_from_embeddings(embeddings[i : i + 1])[0]
            for i in range(nodes.size)
        ]
        np.testing.assert_array_equal(alone, batched)
        batch_logits, *lone_logits = head_calls
        np.testing.assert_array_equal(
            np.stack([logits[0] for logits in lone_logits]), batch_logits
        )


class TestMutationInvalidation:
    """Streaming arrivals must invalidate caches — and nothing stale may
    ever be served across a ``graph_version`` bump."""

    def _mutate(self, server, acm):
        """One streamed paper arrival wired to the first two test papers."""
        graph = server.graph
        papers = graph.nodes_of_type("paper")
        new = server.add_nodes(
            "paper", features=graph.features[papers[0]].reshape(1, -1)
        )
        server.add_edges(
            graph.edge_type_names[0],
            np.array([new[0], new[0]]),
            np.asarray(acm.split.test[:2], dtype=np.int64),
        )
        return new[0]

    def test_version_bump_empties_cache(self, trained, acm, tmp_path):
        """A write drops exactly the entries whose read set meets its
        sources; an unrelated resident entry survives the version bump
        *and* is still the right answer."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path)
        nodes = [int(node) for node in acm.split.test[:6]]
        server.embed(nodes)
        assert len(server.cache) == 6
        _, reads = server.classifier.embed_for_serving_batch(
            np.asarray(nodes), server.graph, 7
        )
        version_before = server.graph.version
        new = self._mutate(server, acm)
        assert server.graph.version > version_before
        sources = {int(new), nodes[0], nodes[1]}  # symmetric: both endpoints
        dependents = {
            node for node, read_set in zip(nodes, reads)
            if sources & set(read_set.tolist())
        }
        survivors = [node for node in nodes if node not in dependents]
        assert {nodes[0], nodes[1]} <= dependents
        assert survivors, "every probe read a changed list; nothing to keep"
        assert set(server.cache._entries) == set(survivors)
        assert server.cache.node_invalidations == Counter(dependents)

        cold = fresh_acm_server(path)
        self._mutate(cold, acm)
        hits_before = server.cache.hits
        np.testing.assert_array_equal(
            server.embed(survivors), cold.embed(survivors)
        )
        assert server.cache.hits == hits_before + len(survivors)

    def test_stale_reads_impossible_after_bump(self, trained, acm, tmp_path):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path)
        node = int(acm.split.test[0])
        server.embed([node])
        hits_before = server.cache.hits
        self._mutate(server, acm)
        server.embed([node])  # same node, new version -> must recompute
        assert server.cache.hits == hits_before
        assert server.cache.misses >= 2

    def test_mutated_server_equals_cold_server(self, trained, acm, tmp_path):
        """Serving through mutation == a cold server on the mutated graph.

        Both servers see byte-identical graphs at the same version, so the
        deterministic serving path must produce identical predictions —
        proving the first server retained nothing stale."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        nodes = np.concatenate([acm.split.test[:10]])

        warm = fresh_acm_server(path)
        warm.classify(nodes)          # populate the cache pre-mutation
        new_id = self._mutate(warm, acm)
        warm_predictions = warm.classify(np.append(nodes, new_id))

        cold = fresh_acm_server(path)  # identical graph, never served
        self._mutate(cold, acm)
        cold_predictions = cold.classify(np.append(nodes, new_id))

        np.testing.assert_array_equal(warm_predictions, cold_predictions)

    def test_a_stale_label_goes_with_its_embedding(self, trained, acm, tmp_path):
        """A write that stales a resident node drops the whole answer: the
        next classify recomputes it and equals a cold server's label."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        node = int(acm.split.test[0])  # _mutate wires an edge into it
        warm = fresh_acm_server(path)
        warm.classify([node])
        assert node in warm.cache
        self._mutate(warm, acm)
        assert node not in warm.cache
        reply = warm.replay([node], kind="classify")
        assert RUNGS[reply["rungs"][0]] == "recompute"

        cold = fresh_acm_server(path)
        self._mutate(cold, acm)
        np.testing.assert_array_equal(reply["values"], cold.classify([node]))

    def test_new_node_is_immediately_servable(self, trained, acm, tmp_path):
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path)
        new_id = self._mutate(server, acm)
        prediction = server.classify([new_id])
        assert prediction.shape == (1,)
        assert 0 <= prediction[0] < acm.graph.num_classes

    def test_embeddings_reflect_new_edges(self, trained, acm, tmp_path):
        """The recomputed embedding actually depends on the mutated graph:
        wiring a hub of new edges into a node changes its neighborhood and
        therefore (generically) its embedding."""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        server = fresh_acm_server(path)
        node = int(acm.split.test[0])
        before = server.embed([node])[0].copy()
        graph = server.graph
        authors = graph.nodes_of_type("author")[:8]
        server.add_edges(
            graph.edge_type_names[0],
            np.full(authors.size, node, dtype=np.int64),
            authors.astype(np.int64),
        )
        after = server.embed([node])[0]
        assert not np.array_equal(before, after)


class TestReplayComparison:
    def test_warm_cache_beats_cold_single_requests(
        self, trained, acm, tmp_path, head_calls
    ):
        """The serving claims in counted work.  The per-node reference
        (``embed_inductive`` and the head, one node at a time, no cache)
        runs one head per request.  A warm pass of the same trace, sent as
        8-node ops, answers every node from the cache with no compute
        batch and no head call.  A write to the trace's hottest node lowers
        the next pass's cache share.  (Wall time is the benchmark's.)"""
        path = tmp_path / "widen.ckpt"
        trained.save(path)
        graph = make_acm(seed=0, scale=0.5).graph
        classifier = WidenClassifier.load(path, graph=graph)
        server = InferenceServer(
            classifier, graph, max_batch_size=8, seed=7, registry=MetricsRegistry()
        )
        trace = make_trace(acm.split.test[:40], 120, rng=3)

        def cache_share():
            rungs = np.concatenate([
                server.replay(trace[start:start + 8])["rungs"]
                for start in range(0, trace.size, 8)
            ])
            return np.mean(rungs == RUNGS.index("cache"))

        for node in trace.tolist():
            classifier.predict_from_embeddings(
                classifier.trainer.embed_inductive(graph, np.array([node]), rng=7)
            )
        assert len(head_calls) == trace.size == 120
        cache_share()                         # warms the cache
        head_calls.clear()
        compute_batches = server.telemetry.registry.histogram(
            "serve_compute_batch_size"
        )
        computed = compute_batches.count
        assert cache_share() == 1.0           # an exact replay, no write
        assert compute_batches.count == computed and head_calls == []

        hottest = int(np.bincount(trace).argmax())
        author = int(graph.nodes_of_type("author")[0])
        server.add_edges("paper-author", [hottest], [author])
        assert cache_share() < 1.0
        assert compute_batches.count > computed and head_calls
