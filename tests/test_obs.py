"""Unit tests for the observability layer (repro.obs).

Covers the registry's label semantics, histogram quantiles against numpy
as the reference implementation, tracer span nesting and export
round-trips, and the op profiler's record/enable/disable contract —
including the guard that a *disabled* profiler leaves the tensor engine
structurally untouched (wrappers removed, hook cleared), which is what
keeps the overhead near zero.
"""

import json
import time

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OpProfiler,
    Tracer,
    get_registry,
    nearest_rank_percentile,
    set_registry,
    set_tracer,
    span,
)
from repro.obs.metrics import DEFAULT_HELP
from repro.obs.tracing import _NULL_SPAN
from repro.tensor import Tensor, functional as F, ops, tensor as tensor_module


class TestCounterGauge:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        gauge.inc(-1.5)
        gauge.inc(0.5)
        assert gauge.value == 3.0

    def test_snapshots_carry_kind_and_labels(self):
        counter = Counter("c", {"path": "wide"})
        counter.inc(7)
        assert counter.snapshot() == {
            "kind": "counter", "name": "c",
            "labels": {"path": "wide"}, "value": 7.0,
        }


class TestHistogram:
    def test_quantile_matches_numpy(self):
        """Nearest rank is numpy's ``inverted_cdf`` quantile method."""
        rng = np.random.default_rng(0)
        values = rng.exponential(size=257)
        histogram = Histogram("h")
        histogram.observe_many(values)
        for p in (0, 10, 50, 90, 95, 99, 100):
            assert histogram.percentile(p) == float(
                np.quantile(values, p / 100, method="inverted_cdf")
            )

    def test_percentile_indexes_the_ordered_list(self, monkeypatch):
        """A percentile of a histogram that is already in order is one index
        into its list: nothing copies and sorts the list again."""
        from repro.obs import metrics

        histogram = Histogram("h")
        histogram.observe_many(np.random.default_rng(1).exponential(size=101))
        ordered = list(histogram._ordered())

        def no_sort(*args, **kwargs):
            raise AssertionError("percentile sorted an ordered histogram again")

        monkeypatch.setattr(metrics, "sorted", no_sort, raising=False)
        for p in (0, 50, 95, 99, 100):
            assert histogram.percentile(p) == float(
                np.quantile(ordered, p / 100, method="inverted_cdf")
            )

    def test_percentile_is_an_observed_value(self):
        values = [0.3, 0.1, 0.2, 0.4]
        histogram = Histogram("h")
        histogram.observe_many(values)
        for p in (1, 25, 50, 75, 99, 100):
            assert histogram.percentile(p) in values

    def test_nearest_rank_reference_cases(self):
        # Classic nearest-rank worked example: ranks ceil(p*n/100).
        values = [15, 20, 35, 40, 50]
        assert nearest_rank_percentile(values, 30) == 20
        assert nearest_rank_percentile(values, 40) == 20
        assert nearest_rank_percentile(values, 50) == 35
        assert nearest_rank_percentile(values, 100) == 50
        assert nearest_rank_percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            nearest_rank_percentile(values, 101)

    def test_summary_fields(self):
        histogram = Histogram("h")
        histogram.observe_many([3.0, 1.0, 2.0])
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["mean"] == pytest.approx(2.0)

    def test_observe_after_quantile_resorts(self):
        histogram = Histogram("h")
        histogram.observe_many([2.0, 3.0])
        assert histogram.percentile(100) == 3.0
        histogram.observe(1.0)  # lands after the lazy sort
        assert histogram.min == 1.0
        assert histogram.percentile(50) == 2.0

    @pytest.mark.parametrize("observed", [[], [1.0, 2.0]], ids=["empty", "non-empty"])
    def test_out_of_range_ranks_raise(self, observed):
        """The rank is checked before the observations: an empty histogram
        refuses a bad rank as loudly as a full one."""
        histogram = Histogram("h")
        histogram.observe_many(observed)
        for p in (-1, 150):
            with pytest.raises(ValueError, match=r"percentile must be in \[0, 100\]"):
                histogram.percentile(p)

    def test_empty_histogram_is_all_zeros(self):
        histogram = Histogram("h")
        assert histogram.min == histogram.max == histogram.mean == 0.0
        assert histogram.percentile(50) == 0.0

    def test_exposition_and_snapshot_share_one_convention(self):
        """``/metrics`` and the JSONL snapshot report the same nearest-rank
        quantiles: p50 of 1, 2, 3, 4 is 2 in both, never an interpolated
        2.5 no request paid."""
        registry = MetricsRegistry()
        registry.histogram("latency_seconds").observe_many([1.0, 2.0, 3.0, 4.0])
        text = registry.render_prometheus()
        assert 'latency_seconds{quantile="0.5"} 2\n' in text
        assert 'latency_seconds{quantile="0.99"} 4\n' in text
        (snapshot,) = registry.snapshot()
        assert snapshot["p50"] == 2.0 and snapshot["p99"] == 4.0


class TestRegistry:
    def test_same_name_and_labels_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("m", path="wide") is registry.counter(
            "m", path="wide"
        )
        assert registry.counter("m", path="wide") is not registry.counter(
            "m", path="deep"
        )

    def test_label_order_is_canonicalized(self):
        registry = MetricsRegistry()
        a = registry.counter("m", a=1, b=2)
        b = registry.counter("m", b=2, a=1)
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.histogram("m")

    def test_get_never_creates(self):
        registry = MetricsRegistry()
        assert registry.get("absent") is None
        registry.gauge("present")
        assert registry.get("present") is not None
        assert len(registry.series()) == 1

    def test_emit_and_values(self):
        registry = MetricsRegistry()
        registry.emit("loss", 1.5, step=0)
        registry.emit("loss", 1.0, step=1)
        registry.emit("messages", 10, step=0, path="wide")
        assert registry.values("loss") == [1.5, 1.0]
        assert registry.values("messages", path="wide") == [10.0]
        assert registry.values("messages") == []  # unlabeled series is distinct

    def test_dump_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.emit("loss", 0.5, step=0)
        registry.counter("total", path="wide").inc(3)
        registry.histogram("lat").observe_many([0.1, 0.2])
        path = tmp_path / "metrics.jsonl"
        count = registry.dump_jsonl(path)
        records = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert len(records) == count == 3
        kinds = {record["kind"] for record in records}
        assert kinds == {"event", "counter", "histogram"}
        histogram = next(r for r in records if r["kind"] == "histogram")
        assert histogram["count"] == 2

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("m").inc()
        registry.emit("e", 1)
        registry.reset()
        assert registry.series() == []
        assert registry.events == []
        # After reset the name is free to be re-registered as another kind.
        registry.histogram("m")

    def test_default_registry_swap(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestTracer:
    def test_nesting_records_depth_and_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner", k=3):
                pass
            with tracer.span("sibling"):
                pass
        names = [record.name for record in tracer.spans]
        assert names == ["outer", "inner", "sibling"]
        outer, inner, sibling = tracer.spans
        assert (outer.depth, outer.parent) == (0, -1)
        assert (inner.depth, inner.parent) == (1, 0)
        assert (sibling.depth, sibling.parent) == (1, 0)
        assert inner.args == {"k": 3}
        # Children fall inside the parent's half-open interval.
        assert outer.start <= inner.start
        assert inner.start + inner.duration <= outer.start + outer.duration + 1e-9

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is _NULL_SPAN
        with tracer.span("x"):
            pass
        assert tracer.spans == []

    def test_chrome_trace_shape(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", size=4):
            pass
        payload = tracer.to_chrome_trace()
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["dur"] >= 0
        assert event["args"] == {"size": 4}
        # Must survive JSON serialization (what chrome://tracing loads).
        json.loads(json.dumps(payload))

    def test_write_chrome_trace(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.json"
        assert tracer.write_chrome_trace(path) == 1
        assert len(json.loads(path.read_text())["traceEvents"]) == 1

    def test_module_level_span_routes_to_current_tracer(self):
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            with span("library.work"):
                pass
        finally:
            set_tracer(previous)
        assert [record.name for record in tracer.spans] == ["library.work"]
        assert set_tracer(previous) is previous  # the default is back in place
        # With the (disabled) default restored, span() is free again.
        assert span("noop") is _NULL_SPAN


def small_training_step():
    """A few-op forward/backward exercising matmul + softmax + reductions."""
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(8, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    out = F.softmax(ops.matmul(a, b))
    loss = ops.sum(ops.mul(out, out))
    loss.backward()
    return loss


class TestOpProfiler:
    def test_records_calls_flops_and_times(self):
        with OpProfiler() as profiler:
            small_training_step()
        stats = profiler.stats
        assert stats["matmul"].calls == 1
        # 2 * m * n * k for an (8,6) @ (6,4) product.
        assert stats["matmul"].flops == 2 * 8 * 4 * 6
        assert stats["matmul"].forward_s > 0
        assert stats["matmul"].backward_calls >= 1
        assert stats["matmul"].backward_s > 0
        assert "softmax" in stats and stats["softmax"].calls == 1
        assert profiler.total_calls >= 4
        assert profiler.total_seconds > 0

    def test_fused_attention_rows_carry_forward_time_and_flops(self):
        """The padded blocks run inside ``query_attend`` / ``self_attend``:
        unregistered, their forward time would vanish from every share."""
        rng = np.random.default_rng(0)
        segments, length, d = 3, 4, 8
        packs = Tensor(rng.normal(size=(segments, length, d)), requires_grad=True)
        weights = [Tensor(rng.normal(size=(d, d)), requires_grad=True) for _ in range(6)]
        with OpProfiler() as profiler:
            refined, _ = F.self_attend(packs, *weights[:3])
            attended, _ = F.query_attend(packs, refined, packs, *weights[3:])
            ops.sum(attended).backward()
        query, block = profiler.stats["query_attend"], profiler.stats["self_attend"]
        for stat in (query, block):
            assert stat.calls == 1 and stat.backward_calls == 1
            assert stat.forward_s > 0 and stat.backward_s > 0
        softmax = 5
        assert query.flops == (
            6 * segments * d * d + 4 * segments * length * d
            + softmax * segments * length
        )
        assert block.flops == (
            2 * segments * length * d * 3 * d + 4 * segments * length**2 * d
            + softmax * segments * length**2
        )

    def test_nested_calls_are_self_time(self):
        # softmax calls exp/sum/div internally; the wrapper stack must
        # subtract child time, so the parts can never exceed the whole.
        with OpProfiler() as profiler:
            for _ in range(5):
                small_training_step()
        began = time.perf_counter()
        with OpProfiler() as check:
            for _ in range(5):
                small_training_step()
        elapsed = time.perf_counter() - began
        forward_total = sum(s.forward_s for s in check.stats.values())
        assert forward_total <= elapsed
        assert profiler.stats["softmax"].forward_s > 0

    def test_disable_restores_engine_structurally(self):
        profiler = OpProfiler()
        profiler.enable()
        assert hasattr(ops.matmul, "__wrapped__")
        assert hasattr(F.softmax, "__wrapped__")
        assert tensor_module.get_profiler() is profiler
        profiler.disable()
        assert not hasattr(ops.matmul, "__wrapped__")
        assert not hasattr(F.softmax, "__wrapped__")
        assert tensor_module.get_profiler() is None
        # Idempotent both ways.
        profiler.disable()
        small_training_step()
        calls_after_disable = profiler.total_calls
        small_training_step()
        assert profiler.total_calls == calls_after_disable

    def test_disabled_overhead_is_small(self):
        """The disabled path is stock speed because it *is* the stock code.

        No wall clock: two min-of-5 millisecond timings taken one after the
        other under a 2x bound failed on a VM whose speed drifts by tens of
        percent for seconds at a time.  The guarantee is structural and
        checked over every op, not two: after enable/disable each function
        the engine exposes is the very object it was before (no wrapper
        left to pay for), and no ``from_op`` hook is installed.
        """
        def engine_functions():
            return {
                (module.__name__, name): value
                for module in (ops, F)
                for name, value in vars(module).items()
                if callable(value)
            }

        stock = engine_functions()
        profiler = OpProfiler()
        profiler.enable()
        wrapped = engine_functions()
        assert any(wrapped[key] is not stock[key] for key in stock)
        profiler.disable()
        after = engine_functions()
        assert after.keys() == stock.keys()
        assert all(after[key] is stock[key] for key in stock)
        assert tensor_module.get_profiler() is None

    def test_summary_sorted_and_export(self):
        registry = MetricsRegistry()
        with OpProfiler() as profiler:
            small_training_step()
        rows = profiler.summary()
        totals = [row["total_s"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        profiler.export(registry)
        assert registry.get("op_calls", op="matmul").value == 1
        assert registry.get("op_flops", op="matmul").value == 2 * 8 * 4 * 6
        table = profiler.table(limit=3)
        assert "matmul" in table and "total" in table

    def test_data_movement_ops_report_zero_flops(self):
        with OpProfiler() as profiler:
            a = Tensor(np.ones((4, 3)), requires_grad=True)
            ops.sum(ops.transpose(a)).backward()
        assert profiler.stats["transpose"].flops == 0.0


class TestPrometheusExposition:
    def test_counter_and_gauge_samples(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", route="embed").inc(3)
        registry.counter("requests_total", route="classify").inc()
        registry.gauge("queue_depth").set(7)
        text = registry.render_prometheus()
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{route="embed"} 3' in text
        assert 'requests_total{route="classify"} 1' in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 7" in text
        assert text.endswith("\n")

    def test_histogram_renders_summary_convention(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds")
        for value in (0.1, 0.2, 0.3, 0.4):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{quantile="0.5"}' in text
        assert 'latency_seconds{quantile="0.95"}' in text
        assert 'latency_seconds{quantile="0.99"}' in text
        assert "latency_seconds_sum 1" in text
        assert "latency_seconds_count 4" in text

    def test_names_and_labels_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("serve/latency-ms", **{"shard": "0"}).inc()
        text = registry.render_prometheus()
        assert "serve_latency_ms" in text
        assert "serve/latency-ms" not in text

    def test_label_values_escaped_per_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter(
            "paths_total", path='C:\\tmp\\"new"\nline'
        ).inc()
        text = registry.render_prometheus()
        # Backslash, double-quote, and newline must all be escaped — and
        # the raw newline must never reach the output (it would split the
        # sample across two exposition lines).
        assert 'path="C:\\\\tmp\\\\\\"new\\"\\nline"' in text
        assert '\nline"' not in text

    def test_label_keys_with_leading_digit_prefixed(self):
        registry = MetricsRegistry()
        registry.counter("m_total", **{"2xx": "yes"}).inc()
        text = registry.render_prometheus()
        assert '_2xx="yes"' in text
        assert '{2xx=' not in text

    def test_help_line_precedes_type(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_HELP, "requests_total", "How many requests we served.")
        registry = MetricsRegistry()
        registry.counter("requests_total").inc()
        text = registry.render_prometheus()
        help_line = "# HELP requests_total How many requests we served."
        assert help_line in text
        assert text.index("# HELP requests_total") < text.index(
            "# TYPE requests_total"
        )

    def test_help_text_escapes_backslash_and_newline(self, monkeypatch):
        monkeypatch.setitem(DEFAULT_HELP, "m_total", "first\nsecond \\ third")
        registry = MetricsRegistry()
        registry.counter("m_total").inc()
        text = registry.render_prometheus()
        assert "# HELP m_total first\\nsecond \\\\ third" in text

    def test_default_help_for_known_series(self):
        registry = MetricsRegistry()
        registry.counter("serve_rung_total", rung="cache").inc()
        text = registry.render_prometheus()
        assert "# HELP serve_rung_total" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_type_line_emitted_once_per_name(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", shard="0").inc()
        registry.counter("hits_total", shard="1").inc()
        text = registry.render_prometheus()
        assert text.count("# TYPE hits_total counter") == 1

    def test_write_prometheus_atomic_and_counts_samples(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b").set(2)
        out = tmp_path / "metrics.prom"
        written = registry.write_prometheus(out)
        assert written == 2  # sample lines, not TYPE comments
        text = out.read_text()
        assert registry.render_prometheus() == text
        # No temp-file droppings left behind (atomic replace convention).
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".prom-")]
        assert leftovers == []


class TestRegistryPayloads:
    """Snapshot/merge serialization — what shard engines ship to routers."""

    def test_counters_add_and_gauges_set_on_merge(self):
        remote = MetricsRegistry()
        remote.counter("requests_total").inc(3)
        remote.gauge("queue_depth").set(4)
        merged = MetricsRegistry()
        merged.counter("requests_total").inc(2)
        merged.merge_payload(remote.to_payload())
        text = merged.render_prometheus()
        assert "requests_total 5" in text
        assert "queue_depth 4" in text

    def test_extra_labels_tag_every_merged_series(self):
        remote = MetricsRegistry()
        remote.counter("requests_total", route="embed").inc(2)
        merged = MetricsRegistry()
        merged.merge_payload(remote.to_payload(), extra_labels={"shard": "3"})
        text = merged.render_prometheus()
        assert 'requests_total{route="embed",shard="3"} 2' in text

    def test_merged_histogram_quantiles_match_shared_registry(self):
        """Payloads keep raw observations, so merging two shards' histograms
        yields the same quantiles one shared registry would have seen."""
        shared = MetricsRegistry()
        parts = [MetricsRegistry(), MetricsRegistry()]
        # Binary fractions: float addition is exact, so even the rendered
        # _sum lines must match bit-for-bit.
        for i in range(64):
            value = i / 64.0
            parts[i % 2].histogram("latency_seconds").observe(value)
            shared.histogram("latency_seconds").observe(value)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge_payload(part.to_payload())
        assert merged.render_prometheus() == shared.render_prometheus()

    def test_payload_round_trips_through_the_wire_codec(self):
        from tests.helpers import wire_round_trip

        registry = MetricsRegistry()
        registry.counter("hits_total", shard="0").inc(7)
        registry.histogram("latency_seconds").observe(0.25)
        payload = wire_round_trip(registry.to_payload())
        merged = MetricsRegistry()
        merged.merge_payload(payload)
        assert 'hits_total{shard="0"} 7' in merged.render_prometheus()


class TestMetricsHTTPServer:
    def test_scrape_returns_fresh_exposition(self):
        from urllib.request import urlopen

        from repro.obs import MetricsHTTPServer, PROMETHEUS_CONTENT_TYPE

        registry = MetricsRegistry()
        registry.counter("hits_total").inc(5)
        with MetricsHTTPServer(registry.render_prometheus) as server:
            assert server.port > 0  # ephemeral bind succeeded
            with urlopen(server.url, timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                assert "hits_total 5" in response.read().decode()
            # Rendered per scrape: a later increment is visible with no flush.
            registry.counter("hits_total").inc()
            with urlopen(server.url, timeout=10) as response:
                assert "hits_total 6" in response.read().decode()

    def test_unknown_path_is_404(self):
        from urllib.error import HTTPError
        from urllib.request import urlopen

        from repro.obs import MetricsHTTPServer

        with MetricsHTTPServer(lambda: "") as server:
            base = server.url.rsplit("/metrics", 1)[0]
            with pytest.raises(HTTPError) as excinfo:
                urlopen(base + "/not-metrics", timeout=10)
            assert excinfo.value.code == 404

    def test_broken_renderer_returns_500_and_survives(self):
        from urllib.error import HTTPError
        from urllib.request import urlopen

        from repro.obs import MetricsHTTPServer

        calls = {"n": 0}

        def render():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("registry on fire")
            return "ok_total 1\n"

        with MetricsHTTPServer(render) as server:
            with pytest.raises(HTTPError) as excinfo:
                urlopen(server.url, timeout=10)
            assert excinfo.value.code == 500
            with urlopen(server.url, timeout=10) as response:
                assert "ok_total 1" in response.read().decode()

    def test_cluster_router_render_is_servable(self):
        """The router's merged shard-labeled exposition plugs straight in
        (this is what serve-cluster --metrics-port wires up)."""
        from urllib.request import urlopen

        from repro.obs import MetricsHTTPServer

        registry = MetricsRegistry()
        shard = MetricsRegistry()
        shard.counter("serve_requests_total").inc(4)
        registry.merge_payload(shard.to_payload(), extra_labels={"shard": "0"})
        with MetricsHTTPServer(registry.render_prometheus) as server:
            with urlopen(server.url, timeout=10) as response:
                body = response.read().decode()
        assert 'serve_requests_total{shard="0"} 4' in body

    def test_extra_json_routes_serve_fresh_objects(self):
        from urllib.error import HTTPError
        from urllib.request import urlopen

        from repro.obs import MetricsHTTPServer

        state = {"burn_rate": 0.5}

        def broken():
            raise RuntimeError("no report yet")

        with MetricsHTTPServer(
            lambda: "", routes={"/slo": lambda: state, "/broken": broken}
        ) as server:
            base = server.url.rsplit("/metrics", 1)[0]
            with urlopen(base + "/slo", timeout=10) as response:
                assert response.headers["Content-Type"].startswith(
                    "application/json"
                )
                assert json.loads(response.read()) == {"burn_rate": 0.5}
            state["burn_rate"] = 2.0  # rendered per request, like /metrics
            with urlopen(base + "/slo", timeout=10) as response:
                assert json.loads(response.read())["burn_rate"] == 2.0
            with pytest.raises(HTTPError) as excinfo:
                urlopen(base + "/broken", timeout=10)
            assert excinfo.value.code == 500


class TestCrossTransportHistogramMerge:
    """Satellite contract: shard metrics payloads gathered over *real*
    transports, merged at the router side, must reproduce — bit for bit —
    the exposition a single registry fed the same observations would
    render.  The payloads cross the genuine wire codec on ``inline``
    and ``socket``, so this pins the lossless-histogram guarantee end to end,
    not just between two in-process registries."""

    @pytest.mark.parametrize("transport", ["inline", "socket"])
    def test_merged_equals_replayed_single_registry(self, transport, tmp_path):
        from repro.cluster import ClusterRouter
        from repro.core import WidenClassifier
        from repro.datasets import make_acm

        acm = make_acm(seed=0, scale=0.5)
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=2)
        model.fit(acm.graph, acm.split.train[:40], epochs=1)
        checkpoint = tmp_path / "widen.ckpt"
        model.save(checkpoint)
        router = ClusterRouter.from_checkpoint(
            checkpoint,
            make_acm(seed=0, scale=0.5).graph,
            2,
            transport=transport,
            seed=7,
        )
        try:
            probe = np.asarray(acm.split.test[:16])
            router.embed(probe)
            router.embed(probe[:8])  # warm repeats: histograms gain spread
            payloads = [
                worker.pull_metrics().result(30.0)["registry"]
                for worker in router.workers
            ]
        finally:
            router.close()
        merged = MetricsRegistry()
        shared = MetricsRegistry()
        for shard, payload in enumerate(payloads):
            extra = {"shard": str(shard)}
            merged.merge_payload(payload, extra_labels=extra)
            # Feed the identical observations through the instrument API.
            for entry in payload["series"]:
                labels = {**entry["labels"], **extra}
                if entry["kind"] == "counter":
                    shared.counter(entry["name"], **labels).inc(entry["value"])
                elif entry["kind"] == "gauge":
                    shared.gauge(entry["name"], **labels).set(entry["value"])
                else:
                    histogram = shared.histogram(entry["name"], **labels)
                    for value in entry["values"]:
                        histogram.observe(value)
        assert any(
            entry["kind"] == "histogram" and entry["values"]
            for payload in payloads
            for entry in payload["series"]
        ), "workload produced no histogram observations to compare"
        assert merged.render_prometheus() == shared.render_prometheus()
