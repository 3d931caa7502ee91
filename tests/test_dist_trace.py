"""Distributed tracing, attribution, and SLO monitoring (``repro.obs.dist``/``.slo``).

Three layers.  Unit: trace-context wire format, the NTP-style clock
handshake, Chrome-trace stitching, SLO window math, and the bounded
slow-request log — all on fabricated data.  Integration: a real
:class:`ClusterRouter` with tracing and SLO monitoring enabled must produce
bit-identical embeddings to an untraced router (observability must never
change answers), rung counts that sum to the node count on every request,
and a stitched trace whose shard lanes come from real worker pids under the
``mp`` transport.  Error path: a failing engine's reply still carries its
span buffer, and the failure lands in ``shard_errors_total`` and the
attribution stream.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import ClusterRouter, Envelope, ShardError
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.obs.dist import (
    DistTracer,
    ShardClock,
    _wire_to_records,
    clock_handshake,
    make_trace_ctx,
    spans_to_wire,
)
from repro.obs.slo import (
    RUNGS,
    AttributionRecord,
    SLOMonitor,
    SLOTarget,
    SlowRequestLog,
)
from repro.obs.tracing import Tracer


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def checkpoint(acm, tmp_path_factory):
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=2)
    model.fit(acm.graph, acm.split.train[:40], epochs=1)
    path = tmp_path_factory.mktemp("dist-trace") / "widen.npz"
    model.save(path)
    return path


def fresh_graph():
    return make_acm(seed=0, scale=0.5).graph


def fresh_router(checkpoint, num_shards, transport="inline", **kwargs):
    return ClusterRouter.from_checkpoint(
        checkpoint, fresh_graph(), num_shards, transport=transport, seed=7, **kwargs
    )


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


class TestTraceWire:
    def test_make_trace_ctx_fields(self):
        before = time.perf_counter()
        ctx = make_trace_ctx("t42", parent="root")
        after = time.perf_counter()
        assert ctx["trace_id"] == "t42"
        assert ctx["parent"] == "root"
        assert before <= ctx["send_ts"] <= after

    def test_spans_to_wire_absolute_starts(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", trace_id="t1"):
            with tracer.span("inner"):
                pass
        wire = spans_to_wire(tracer)
        assert [w["name"] for w in wire] == ["outer", "inner"]
        for w, record in zip(wire, tracer.spans):
            assert w["start"] == pytest.approx(tracer.epoch + record.start)
            assert w["duration"] == record.duration
        records = _wire_to_records(wire)
        assert [r.depth for r in records] == [0, 1]
        assert records[1].parent == 0
        assert records[0].args["trace_id"] == "t1"


# ----------------------------------------------------------------------
# Clock handshake
# ----------------------------------------------------------------------


class TestClockHandshake:
    def test_recovers_simulated_offset(self):
        simulated = 5.0  # "shard" clock runs five seconds ahead

        def probe():
            return {"mono": time.perf_counter() + simulated, "pid": 4242}

        clock = clock_handshake(probe, shard_id=3, samples=5)
        assert clock.shard_id == 3
        assert clock.pid == 4242
        assert clock.rtt >= 0.0
        # The estimate is bounded by the winning probe's round trip.
        assert abs(clock.offset - simulated) <= clock.rtt

    def test_lowest_rtt_sample_wins(self, monkeypatch):
        """Three probes with scripted round trips of 10, 1 and 5 ms: the
        handshake reads the clock before and after each, so the script is
        the six values it will see, and each probe reports a shard clock 7 s
        ahead of its own midpoint plus a per-probe error only the winner
        keeps small."""
        from repro.obs import dist

        reads = iter([0.0, 0.010, 1.0, 1.001, 2.0, 2.005])
        monkeypatch.setattr(
            dist, "time", SimpleNamespace(perf_counter=lambda: next(reads))
        )
        replies = iter(
            [{"mono": 7.005 + 0.004, "pid": 1},
             {"mono": 8.0005 + 0.0002, "pid": 1},
             {"mono": 9.0025 + 0.002, "pid": 1}]
        )
        clock = clock_handshake(lambda: next(replies), samples=3)
        assert clock.rtt == pytest.approx(0.001)
        assert clock.offset == pytest.approx(7.0002)
        assert next(reads, None) is None  # every scripted read was consumed

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            clock_handshake(lambda: {"mono": 0.0}, samples=0)


# ----------------------------------------------------------------------
# Stitching
# ----------------------------------------------------------------------


class TestDistTracer:
    def _shard_payload(self, shard, pid, start, *, send_ts, duration=0.001):
        return {
            "shard": shard,
            "pid": pid,
            "spans": [
                {
                    "name": "shard.serve",
                    "start": start,
                    "duration": duration,
                    "depth": 0,
                    "parent": -1,
                    "args": {"trace_id": "t000001", "send_ts": send_ts},
                }
            ],
        }

    def test_add_reply_trace_tolerates_none(self):
        dist = DistTracer()
        dist.add_reply_trace(None)
        assert not dist.tracer.spans and not dist.shard_spans

    def test_trace_ids_are_sequential(self):
        dist = DistTracer()
        assert [dist.new_trace_id() for _ in range(3)] == [
            "t000001",
            "t000002",
            "t000003",
        ]

    def test_stitched_lanes_and_queue_bridge(self):
        dist = DistTracer()
        with dist.tracer.span("router.serve", trace_id="t000001"):
            pass
        epoch = dist.tracer.epoch
        offset = 100.0  # shard clock is 100 s ahead of the router's
        dist.register_clock(ShardClock(shard_id=0, offset=offset, rtt=1e-6, pid=777))
        # Shard root span begins 2 ms of queue+wire after the router sent it.
        send_ts = epoch + 0.010
        shard_start = send_ts + 0.002 + offset
        dist.add_reply_trace(
            self._shard_payload(0, 777, shard_start, send_ts=send_ts)
        )
        payload = dist.to_chrome_trace()
        events = payload["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} >= {"process_name", "thread_name"}
        shard_events = {e["name"]: e for e in spans if e["pid"] == 777}
        assert shard_events["shard.serve"]["tid"] == 1
        # Offset-mapped onto the router timeline: 12 ms after the epoch.
        assert shard_events["shard.serve"]["ts"] == pytest.approx(0.012 * 1e6)
        bridge = shard_events["queue+wire"]
        assert bridge["ts"] == pytest.approx(0.010 * 1e6)
        assert bridge["dur"] == pytest.approx(0.002 * 1e6)
        router_events = [e for e in spans if e["pid"] != 777]
        assert {e["tid"] for e in router_events} == {0}

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        dist = DistTracer()
        with dist.tracer.span("router.serve"):
            pass
        path = tmp_path / "trace.json"
        count = dist.write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        assert loaded["displayTimeUnit"] == "ms"


# ----------------------------------------------------------------------
# SLO window math
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestSLOMonitor:
    def test_target_validation(self):
        with pytest.raises(ValueError):
            SLOTarget(objective=1.0)
        with pytest.raises(ValueError):
            SLOTarget(latency_threshold=0.0)
        with pytest.raises(ValueError):
            SLOTarget(window=-1.0)

    def test_empty_window_is_compliant(self):
        report = SLOMonitor().report()
        assert report["window_count"] == 0
        assert report["compliance"] == 1.0
        assert report["error_budget_remaining"] == 1.0
        assert report["burn_rate"] == 0.0

    def test_scoring_and_burn_rate(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            SLOTarget(latency_threshold=0.010, objective=0.90, window=60.0),
            clock=clock,
        )
        for latency in [0.001] * 8:  # 8 good
            monitor.observe(latency)
        monitor.observe(0.050)  # slow success: bad
        monitor.observe(0.001, ok=False)  # fast failure: bad
        report = monitor.report()
        assert report["window_count"] == 10
        assert report["good"] == 8
        assert report["bad"] == 2
        assert report["compliance"] == pytest.approx(0.8)
        # 20% bad against a 10% allowance: burning twice the budget rate.
        assert report["burn_rate"] == pytest.approx(2.0)
        assert report["error_budget_remaining"] == pytest.approx(-1.0)

    def test_window_eviction(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            SLOTarget(latency_threshold=0.010, objective=0.90, window=60.0),
            clock=clock,
        )
        monitor.observe(1.0)  # bad, but about to age out
        clock.now += 120.0
        monitor.observe(0.001)
        report = monitor.report()
        assert report["window_count"] == 1
        assert report["compliance"] == 1.0
        assert report["total_observed"] == 2

    def test_percentiles_nearest_rank(self):
        clock = FakeClock()
        monitor = SLOMonitor(clock=clock)
        for value in range(1, 101):
            monitor.observe(value / 1000.0)
        report = monitor.report()
        assert report["p50_s"] == pytest.approx(0.050)
        assert report["p95_s"] == pytest.approx(0.095)
        assert report["p99_s"] == pytest.approx(0.099)

    @pytest.mark.parametrize(
        "count, p50, p95", [(5, 3.0, 5.0), (13, 7.0, 13.0)]
    )
    def test_percentiles_agree_with_the_shared_nearest_rank(self, count, p50, p95):
        """``round(q * n)`` rounds half to even and read p50 of 1..5 as 2.0
        and p50 / p95 of 1..13 as 6.0 / 12.0; the report now ranks the way
        ``Telemetry.summary`` and ``ClusterRouter.summary`` do."""
        from repro.obs.metrics import nearest_rank_percentile

        monitor = SLOMonitor(clock=FakeClock())
        values = [float(v) for v in range(count, 0, -1)]
        for value in values:
            monitor.observe(value)
        report = monitor.report()
        assert (report["p50_s"], report["p95_s"]) == (p50, p95)
        for name, p in (("p50_s", 50), ("p95_s", 95), ("p99_s", 99)):
            assert report[name] == nearest_rank_percentile(values, p)


class TestSlowRequestLog:
    def _record(self, trace_id, latency):
        return AttributionRecord(
            trace_id=trace_id,
            nodes=4,
            shards=2,
            latency=latency,
            queue_wait=latency / 4,
            compute=latency / 2,
            rungs={"cache": 1, "recompute": 3},
        )

    def test_keeps_worst_k_slowest_first(self):
        log = SlowRequestLog(capacity=3)
        for i, latency in enumerate([0.005, 0.001, 0.009, 0.003, 0.007]):
            log.observe(self._record(f"t{i}", latency))
        assert len(log) == 3
        assert [r.trace_id for r in log.worst()] == ["t2", "t4", "t0"]

    def test_ties_do_not_crash(self):
        log = SlowRequestLog(capacity=2)
        for i in range(5):
            log.observe(self._record(f"t{i}", 0.005))
        assert len(log) == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SlowRequestLog(capacity=0)


class TestAttributionRecord:
    def test_rung_total_and_record_shape(self):
        record = AttributionRecord(
            trace_id="t1",
            nodes=3,
            shards=1,
            latency=0.002,
            queue_wait=0.001,
            compute=0.001,
            rungs={"store": 2, "recompute": 1},
        )
        assert sum(record.rungs.values()) == 3
        dumped = record.to_record()
        assert "error" not in dumped
        assert dumped["latency_s"] == 0.002
        assert (dumped["trace_id"], dumped["rungs"], dumped["ok"]) == (
            "t1", {"store": 2, "recompute": 1}, True
        )
        failed = AttributionRecord(
            trace_id="t2", nodes=1, shards=1, latency=0.1,
            queue_wait=0.0, compute=0.0, ok=False, error="ShardError",
        )
        assert failed.to_record()["error"] == "ShardError"


# ----------------------------------------------------------------------
# Router integration
# ----------------------------------------------------------------------


class TestRouterObserved:
    def test_tracing_does_not_change_answers(self, acm, checkpoint):
        """Observed and unobserved ops run one ``_scatter_gather`` body:
        same arrays out, cold and warm, and one attribution per op."""
        probe = np.asarray(acm.split.test[:12])
        ops = [("embed", probe), ("classify", probe[::-1]), ("classify", probe[:5])]
        plain = fresh_router(checkpoint, 2)
        try:
            expected = [getattr(plain, kind)(nodes) for kind, nodes in ops]
            assert plain.attributions == []
        finally:
            plain.close()
        traced = fresh_router(
            checkpoint, 2, dist_tracing=True, slo_target=SLOTarget()
        )
        try:
            for (kind, nodes), want in zip(ops, expected):
                got = getattr(traced, kind)(nodes)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert [r.nodes for r in traced.attributions] == [12, 12, 5]
            for record in traced.attributions:
                assert record.ok and sum(record.rungs.values()) == record.nodes
                assert record.shards == 2
            assert traced.attributions[-1].rungs == {"cache": 5}
        finally:
            traced.close()

    def test_rung_counts_sum_to_node_count(self, acm, checkpoint):
        probe = np.asarray(acm.split.test[:16])
        router = fresh_router(
            checkpoint, 2, dist_tracing=True, slo_target=SLOTarget()
        )
        try:
            for chunk in np.array_split(probe, 4):
                router.embed(chunk)
            router.embed(probe[:4])  # warm repeat: should hit the cache rung
            records = router.attribution_records()
            assert len(records) == 5
            for record in records:
                assert sum(record["rungs"].values()) == record["nodes"]
                assert set(record["rungs"]) <= set(RUNGS)
                assert record["ok"] is True
            assert records[-1]["rungs"].get("cache", 0) == 4
        finally:
            router.close()

    def test_stitched_trace_and_slo_report(self, acm, checkpoint, tmp_path):
        probe = np.asarray(acm.split.test[:12])
        router = fresh_router(
            checkpoint, 2, dist_tracing=True, slo_target=SLOTarget()
        )
        try:
            router.embed(probe)
            assert router.dist.tracer.spans
            assert set(router.dist.shard_spans) == {0, 1}
            path = tmp_path / "trace.json"
            count = router.write_dist_trace(path)
            events = json.loads(path.read_text())["traceEvents"]
            assert len(events) == count
            lanes = {(e["pid"], e["tid"]) for e in events if e["ph"] == "X"}
            assert len(lanes) >= 3  # router + two shard lanes
            report = router.slo_report()
            assert report["window_count"] == 1
            assert 0.0 <= report["compliance"] <= 1.0
            assert report["slow_requests"]
        finally:
            router.close()

    def test_slo_gauges_in_merged_registry(self, acm, checkpoint):
        probe = np.asarray(acm.split.test[:8])
        router = fresh_router(checkpoint, 2, slo_target=SLOTarget())
        try:
            router.embed(probe)
            text = router.render_prometheus()
            assert "\nslo_burn_rate" in text
            assert 'slo_latency_seconds{quantile="p95"}' in text
            assert "\nslo_window_requests 1" in text
        finally:
            router.close()

    def test_untraced_replies_carry_no_spans(self, acm, checkpoint):
        router = fresh_router(checkpoint, 2)
        try:
            node = int(acm.split.test[0])
            shard = node % 2
            reply = router.workers[shard].submit_serve([node], "embed")
            assert reply.wait(5.0).trace is None
        finally:
            router.close()

    @pytest.mark.parametrize("transport", ["inline", "socket"])
    def test_cross_transport_lanes(self, acm, checkpoint, transport, tmp_path):
        probe = np.asarray(acm.split.test[:8])
        router = fresh_router(
            checkpoint, 2, transport=transport, dist_tracing=True
        )
        try:
            assert set(router.dist.shard_clocks) == {0, 1}
            for clock in router.dist.shard_clocks.values():
                assert clock.rtt >= 0.0
            router.embed(probe)
            path = tmp_path / f"trace_{transport}.json"
            router.write_dist_trace(path)
            events = json.loads(path.read_text())["traceEvents"]
            pids = {e["pid"] for e in events if e["ph"] == "X"}
            if transport == "socket":
                assert len(pids) >= 3  # router + one real pid per worker
            else:
                assert len(pids) == 1  # same process, distinct tid lanes
                tids = {e["tid"] for e in events if e["ph"] == "X"}
                assert {0, 1, 2} <= tids
        finally:
            router.close()


# ----------------------------------------------------------------------
# Error-path observability
# ----------------------------------------------------------------------


class TestErrorPathObservability:
    def test_error_reply_still_ships_spans(self, checkpoint):
        router = fresh_router(checkpoint, 2, dist_tracing=True)
        try:
            transport = router.workers[0].transport
            reply = transport.send(
                Envelope(kind="bogus", trace_ctx=make_trace_ctx("terr"))
            )
            raw = reply.wait(5.0)
            assert raw.ok is False
            assert raw.error["type"] == "ValueError"
            assert raw.trace is not None
            names = [span["name"] for span in raw.trace["spans"]]
            assert "shard.bogus" in names
            # The failure is also a metric on the engine's registry.
            engine = transport.engine
            counter = engine.server.telemetry.registry.counter(
                "shard_errors_total", kind="bogus"
            )
            assert counter.value == 1.0
        finally:
            router.close()

    def test_failed_request_burns_slo_budget(self, acm, checkpoint):
        router = fresh_router(
            checkpoint, 2, dist_tracing=True, slo_target=SLOTarget()
        )
        try:
            with pytest.raises((ShardError, Exception)):
                router.embed(np.asarray([10 ** 9]))  # no such node
            records = router.attribution_records()
            assert records
            assert records[-1]["ok"] is False
            assert "error" in records[-1]
            report = router.slo_report()
            assert report["bad"] >= 1
        finally:
            router.close()
