"""The socket lane: framing, liveness, and kill -9 fault tolerance.

Four layers of coverage, cheapest first.  Framing is tested over plain
``socketpair`` — dribbled partial reads, oversized payload rejection on
both sides, EOF inside a frame vs. between frames.  The transport protocol
is tested against stub TCP servers — out-of-order replies matched by
sequence number, a mid-stream reset becoming a typed error ``Reply``
rather than a hang, a hung-but-connected server tripping the heartbeat
detector.  Finally the integration layer runs real loopback fleets:
1/2/4-shard socket routers must answer an interleaved mutation/serve
stream bit-identically to a whole-graph server, every shard must hold the
freshness state the coordinator holds, and a SIGKILL'd worker must come
back — typed :class:`WorkerDown` (never a generic timeout), respawn from
checkpoint, the current shard payload and the coordinator's freshness
state — warm, with every post-recovery answer exact.
"""

import socket
import struct
import threading
import time
import warnings

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.cluster.fleet import Fleet
from repro.cluster.net import (
    DEFAULT_HEARTBEAT_INTERVAL,
    ConnectionClosed,
    FrameTooLargeError,
    ShardWorkerServer,
    SocketTransport,
    WorkerDown,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)
from repro.codec import decode, encode
from repro.cluster.transport import (
    READY_SEQ,
    TRANSPORT_KINDS,
    WIRE_KINDS,
    Envelope,
    Reply,
    ShardTimeoutError,
)
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.serve import InferenceServer
from repro.serve.cache import fresh_mask, state_differences
from repro.store import build_store
from tests.helpers import wire_size


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def checkpoint(acm, tmp_path_factory):
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=2)
    model.fit(acm.graph, acm.split.train[:40], epochs=1)
    path = tmp_path_factory.mktemp("net") / "widen.ckpt"
    model.save(path)
    return path


def fresh_graph():
    return make_acm(seed=0, scale=0.5).graph


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_round_trip_and_partial_reads(self):
        """A frame dribbled one byte at a time still reassembles exactly."""
        import struct

        left, right = socket.socketpair()
        try:
            payload = bytes(range(256)) * 37
            # Send the frame in 1-byte dribbles from a thread so the
            # reader's partial-read loop is actually exercised.
            wire = struct.pack("!Q", len(payload)) + payload

            def dribble():
                for i in range(len(wire)):
                    left.sendall(wire[i:i + 1])

            writer = threading.Thread(target=dribble)
            writer.start()
            assert recv_frame(right) == payload
            writer.join()
        finally:
            left.close()
            right.close()

    def test_oversized_payload_rejected_on_both_sides(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(FrameTooLargeError) as excinfo:
                send_frame(left, b"x" * 100, max_frame_bytes=64)
            assert excinfo.value.size == 100 and excinfo.value.limit == 64
            # Receiver-side: the cap is checked before any allocation.
            send_frame(left, b"y" * 100, max_frame_bytes=1000)
            with pytest.raises(FrameTooLargeError):
                recv_frame(right, max_frame_bytes=64)
        finally:
            left.close()
            right.close()

    def test_clean_eof_vs_mid_frame_eof(self):
        left, right = socket.socketpair()
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)  # EOF at a frame boundary: clean goodbye
        right.close()

        left, right = socket.socketpair()
        import struct

        left.sendall(struct.pack("!Q", 50) + b"only-part")
        left.close()
        with pytest.raises(ConnectionResetError):
            recv_frame(right)  # EOF inside a frame: torn connection
        right.close()

    def test_message_round_trip(self):
        left, right = socket.socketpair()
        try:
            env = Envelope(kind="serve", payload={"nodes": np.arange(4)}, seq=3)
            send_message(left, env)
            back = recv_message(right)
            assert back.kind == "serve" and back.seq == 3
            np.testing.assert_array_equal(back.payload["nodes"], np.arange(4))
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# Transport protocol against stub TCP servers
# ----------------------------------------------------------------------


class StubServer:
    """A scriptable far side: answers the spawn handshake, then runs
    ``script(conn, envelopes_iter)`` on its own thread."""

    def __init__(self, script):
        self.script = script
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.address = self.listener.getsockname()[:2]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        conn, _ = self.listener.accept()
        try:
            spawn = recv_message(conn)
            assert spawn.kind == "spawn"
            send_message(conn, Reply(seq=READY_SEQ, ok=True, payload={"pid": 0}))
            self.script(conn)
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self):
        self.listener.close()
        self.thread.join(timeout=10)


def make_transport(address, **kwargs):
    kwargs.setdefault("heartbeat_interval", 0.0)  # most tests: no heartbeats
    return SocketTransport(0, address, {"stub": True}, **kwargs)


class TestSocketTransportProtocol:
    def test_interleaved_replies_match_by_seq(self):
        """Replies delivered in reverse order still pair with their seqs."""

        def script(conn):
            envelopes = [recv_message(conn) for _ in range(5)]
            for env in reversed(envelopes):
                send_message(
                    conn, Reply(seq=env.seq, ok=True, payload=dict(env.payload))
                )
            # Hold the connection open until the client hangs up.
            try:
                recv_message(conn)
            except (ConnectionError, OSError):
                pass

        stub = StubServer(script)
        transport = make_transport(stub.address).start()
        try:
            transport.wait_ready(10.0)
            pendings = [
                transport.send(Envelope(kind="serve", payload={"i": i}))
                for i in range(5)
            ]
            for i, pending in enumerate(pendings):
                assert pending.result(10.0)["i"] == i
        finally:
            transport._stopping.set()
            transport._close_socket()
            stub.close()

    def test_second_start_is_refused(self):
        stub = StubServer(recv_message)  # holds the line until hang-up
        transport = make_transport(stub.address).start()
        try:
            transport.wait_ready(10.0)
            with pytest.raises(RuntimeError, match="transport already started"):
                transport.start()
        finally:
            transport._stopping.set()
            transport._close_socket()
            stub.close()

    def test_mid_stream_reset_is_error_reply_not_hang(self):
        """A cut wire fails outstanding *and* later requests with a typed
        WorkerDown, immediately — a gather never blocks on a dead shard."""

        def script(conn):
            recv_message(conn)  # swallow one envelope, then die abruptly
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),
            )
            conn.close()

        downs = []
        stub = StubServer(script)
        transport = make_transport(
            stub.address, on_down=lambda s, r, d: downs.append((s, r))
        ).start()
        try:
            transport.wait_ready(10.0)
            pending = transport.send(Envelope(kind="serve", payload={"i": 0}))
            with pytest.raises(WorkerDown) as excinfo:
                pending.result(10.0)
            assert excinfo.value.reason in ("connection_reset", "send_failed")
            assert transport.is_down
            # Later sends fail fast with the same typed error.
            with pytest.raises(WorkerDown):
                transport.send(Envelope(kind="serve", payload={"i": 1})).result(1.0)
            assert downs and downs[0][0] == 0
        finally:
            transport._stopping.set()
            transport._close_socket()
            stub.close()

    def test_supervisor_hears_of_down_before_any_waiter_wakes(self):
        """``on_down`` runs before a pending is failed: a caller woken by its
        WorkerDown reply goes straight to the supervisor's recovery, which
        must already know the shard is down.  Observed from inside the
        callback itself, so no sleep and no race."""
        release = threading.Event()

        def script(conn):
            recv_message(conn)
            release.wait(10.0)  # die only once the pending is registered
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),
            )
            conn.close()

        waiter_woken_at_notify = []
        holder = {}
        stub = StubServer(script)
        transport = make_transport(
            stub.address,
            on_down=lambda s, r, d: waiter_woken_at_notify.append(
                holder["pending"]._event.is_set()
            ),
        ).start()
        try:
            transport.wait_ready(10.0)
            holder["pending"] = transport.send(Envelope(kind="serve", payload={}))
            release.set()
            with pytest.raises(WorkerDown):
                holder["pending"].result(10.0)
            assert waiter_woken_at_notify == [False]
        finally:
            transport._stopping.set()
            transport._close_socket()
            stub.close()

    def test_send_on_down_transport_waits_for_the_notification(self):
        """A ``send()`` that finds the transport already down must not
        answer ``WorkerDown`` while ``on_down`` is still running: its caller
        goes straight to recovery.  ``on_down`` is held open on an event,
        and the concurrent sender may only come back after it is released."""
        in_callback = threading.Event()
        release_callback = threading.Event()
        kill = threading.Event()
        order = []

        def script(conn):
            kill.wait(10.0)
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),
            )
            conn.close()

        def on_down(shard, reason, detail):
            in_callback.set()
            assert release_callback.wait(10.0)
            order.append("notified")

        def late_sender():
            reply = transport.send(Envelope(kind="serve", payload={})).wait(10.0)
            order.append(reply.error["type"])

        stub = StubServer(script)
        transport = make_transport(stub.address, on_down=on_down).start()
        try:
            transport.wait_ready(10.0)
            kill.set()
            assert in_callback.wait(10.0)
            assert transport.is_down  # so the sender takes the down branch
            sender = threading.Thread(target=late_sender, daemon=True)
            sender.start()
            # With the ordering fix this join can only time out, however slow
            # the host: nothing sets the event the sender waits on until
            # on_down is released below.
            sender.join(0.2)
            assert sender.is_alive() and order == []
            release_callback.set()
            sender.join(10.0)
            assert not sender.is_alive()
            assert order == ["notified", "WorkerDown"]
        finally:
            release_callback.set()
            transport._stopping.set()
            transport._close_socket()
            stub.close()

    def test_slow_reply_times_out(self):
        """A live shard that has not answered yet is a timeout, not a
        WorkerDown; a patient gather afterwards still sees the reply."""
        answer = threading.Event()

        def script(conn):
            env = recv_message(conn)
            answer.wait(10.0)
            send_message(conn, Reply(seq=env.seq, ok=True, payload={"late": 1}))
            try:
                recv_message(conn)  # hold the connection until hang-up
            except (ConnectionError, OSError):
                pass

        stub = StubServer(script)
        transport = make_transport(stub.address).start()
        try:
            transport.wait_ready(10.0)
            pending = transport.send(Envelope(kind="serve", payload={}))
            with pytest.raises(ShardTimeoutError):
                pending.result(0.01)
            answer.set()
            assert pending.result(10.0)["late"] == 1
        finally:
            answer.set()
            transport._stopping.set()
            transport._close_socket()
            stub.close()

    def test_hung_server_trips_heartbeat_detector(self):
        """A connected-but-silent far side is down, not slow: unanswered
        heartbeats produce WorkerDown(heartbeat_missed) in bounded time."""

        hang_up = threading.Event()

        def script(conn):
            hang_up.wait(30)  # never reads, never replies

        downs = []
        heard = threading.Event()

        def on_down(shard, reason, detail):
            downs.append(reason)
            heard.set()

        stub = StubServer(script)
        transport = make_transport(
            stub.address,
            heartbeat_interval=0.05,
            heartbeat_misses=2,
            on_down=on_down,
        ).start()
        try:
            transport.wait_ready(10.0)
            assert heard.wait(10.0)
            assert transport.is_down
            assert transport.down_exception.reason == "heartbeat_missed"
            assert downs == ["heartbeat_missed"]
        finally:
            hang_up.set()
            transport._stopping.set()
            transport._close_socket()
            stub.close()

    def test_stop_does_not_wait_out_a_heartbeat(self):
        """stop() wakes the heartbeat loop, at the default 0.5 s cadence,
        instead of joining it through the rest of a heartbeat interval."""

        def script(conn):
            while True:  # answer heartbeats, then the shutdown, then hang up
                envelope = recv_message(conn)
                send_message(conn, Reply(seq=envelope.seq, ok=True, payload={}))
                if envelope.kind == "shutdown":
                    return

        stub = StubServer(script)
        transport = SocketTransport(0, stub.address, {"stub": True}).start()
        try:
            transport.wait_ready(10.0)
            assert transport.heartbeat_interval == DEFAULT_HEARTBEAT_INTERVAL == 0.5
            time.sleep(0.05)  # the heartbeat loop is inside its first wait
            started = time.perf_counter()
            transport.stop()
            elapsed = time.perf_counter() - started
        finally:
            stub.close()
        # A bound on one wait, not a race of two timings: a missed wakeup
        # sleeps out the 0.5 s heartbeat interval.
        assert elapsed < 0.2, f"stop() took {elapsed:.3f} s"
        assert not transport._heart.is_alive()

    def test_spawn_failure_surfaces_at_wait_ready(self):
        """An engine that cannot build reports through the READY reply."""

        def run(listener):
            conn, _ = listener.accept()
            recv_message(conn)
            send_message(
                conn,
                Reply(
                    seq=READY_SEQ,
                    ok=False,
                    error={"type": "ValueError", "message": "bad checkpoint",
                           "traceback": ""},
                ),
            )
            conn.close()

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        thread = threading.Thread(target=run, args=(listener,), daemon=True)
        thread.start()
        transport = make_transport(listener.getsockname()[:2]).start()
        try:
            with pytest.raises(Exception, match="bad checkpoint"):
                transport.wait_ready(10.0)
        finally:
            transport._stopping.set()
            transport._close_socket()
            listener.close()
            thread.join(timeout=10)

    def test_connect_failure_is_typed(self):
        """Nothing listening: WorkerDown(connect_failed), not ECONNREFUSED."""
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()[:2]
        probe.close()  # port now (very likely) unbound
        transport = make_transport(dead, connect_timeout=0.3)
        with pytest.raises(WorkerDown) as excinfo:
            transport.start()
        assert excinfo.value.reason == "connect_failed"


# ----------------------------------------------------------------------
# Eager transport validation
# ----------------------------------------------------------------------


class TestHostileFrames:
    def test_a_garbage_frame_ends_only_its_session(self):
        """A raw peer's undecodable frame (or an oversize length prefix)
        ends that session; the worker goes back to ``accept`` and decodes
        the next peer's spawn as usual."""
        server = ShardWorkerServer(announce=False)
        address = server.start_background()
        try:
            garbage = [
                lambda conn: send_frame(conn, b"not a frame at all"),
                lambda conn: send_frame(conn, encode(Envelope(kind="bogus"))),
                lambda conn: conn.sendall(struct.pack("!Q", 1 << 62)),
            ]
            for send_garbage in garbage:
                with socket.create_connection(address, timeout=10.0) as conn:
                    send_garbage(conn)
                    with pytest.raises((ConnectionClosed, ConnectionResetError)):
                        recv_frame(conn)  # the worker hung up, no reply
            with socket.create_connection(address, timeout=10.0) as conn:
                send_message(
                    conn,
                    Envelope(kind="spawn", payload={"engine_args": {"engine": "nope"}}),
                )
                reply = recv_message(conn, Reply)
            assert reply.seq == READY_SEQ and not reply.ok
            assert "unknown engine family 'nope'" in reply.error["message"]
        finally:
            server.close()

    def test_a_garbage_reply_marks_the_worker_down(self):
        def script(conn):
            recv_message(conn)
            send_frame(conn, b"\x07\x00\x00\x00garbage")
            recv_message(conn)  # hold the line until the transport hangs up

        downs = []
        stub = StubServer(script)
        transport = make_transport(
            stub.address, on_down=lambda s, r, d: downs.append(r)
        ).start()
        try:
            transport.wait_ready(10.0)
            pending = transport.send(Envelope(kind="serve", payload={"i": 0}))
            with pytest.raises(WorkerDown) as excinfo:
                pending.result(10.0)
            assert excinfo.value.reason == "protocol_error"
            assert downs == ["protocol_error"]
        finally:
            transport._stopping.set()
            transport._close_socket()
            stub.close()


class TestSpawnFrame:
    def test_an_engine_shares_no_memory_with_its_spawn_frame(
        self, checkpoint, store_path
    ):
        """A worker drops the spawn frame (shard payload, store slice and
        checkpoint bytes) once the engine is built: the engine must have
        copied every array it keeps."""
        from repro.cluster.engine import build_engine_from_args
        from repro.cluster.planner import ClusterPlan
        from repro.store import AggregateStore

        spec = ClusterPlan(fresh_graph(), 2).shards[1]
        store = AggregateStore.open(store_path)
        args = {
            "engine": "serve",
            "spec_payload": spec.to_payload(),
            "checkpoint": None,
            "checkpoint_bytes": checkpoint.read_bytes(),
            "config": {"seed": 7, "store": store.slice_payload(spec.owned.tolist())},
            "serving_state": None,
        }
        frame = encode(Envelope(kind="spawn", payload={"engine_args": args}))
        spawn = decode(frame, Envelope, WIRE_KINDS)
        engine = build_engine_from_args(spawn.payload["engine_args"])
        wire = np.frombuffer(frame, np.uint8)
        kept = []
        for holder in (engine.spec.graph, engine.server.store):
            kept += [v for v in vars(holder).values() if isinstance(v, np.ndarray)]
        assert engine.server.graph is engine.spec.graph
        assert len(kept) > 8 and engine.server.store.num_rows > 0
        for array in kept:
            assert not np.shares_memory(array, wire)
        engine.handle(Envelope(kind="shutdown"))


    def test_a_large_spawn_frame_is_adopted_not_copied(self, checkpoint, store_path):
        """Read off a socket, a spawn frame lands in arrays of its own,
        and the engine keeps those very arrays: one copy of the shard per
        worker, and no frame buffer beside it."""
        from repro.cluster.engine import build_engine_from_args
        from repro.cluster.net import GATHER_MIN_BYTES
        from repro.cluster.planner import ClusterPlan
        from repro.store import AggregateStore

        spec = ClusterPlan(fresh_graph(), 2).shards[1]
        store = AggregateStore.open(store_path)
        args = {
            "engine": "serve",
            "spec_payload": spec.to_payload(),
            "checkpoint": None,
            "checkpoint_bytes": checkpoint.read_bytes(),
            "config": {
                "seed": 7,
                "store": store.slice_payload(spec.owned, 1, 2),
            },
            "serving_state": None,
        }
        spawn = Envelope(kind="spawn", payload={"engine_args": args})
        assert len(encode(spawn)) >= GATHER_MIN_BYTES
        left, right = socket.socketpair()
        writer = threading.Thread(target=send_message, args=(left, spawn))
        try:
            writer.start()
            received = recv_message(right, Envelope, WIRE_KINDS)
        finally:
            writer.join(timeout=10)
            left.close()
            right.close()
        got = received.payload["engine_args"]
        engine = build_engine_from_args(got)
        graph, shard_store = engine.spec.graph, engine.server.store
        sent = got["spec_payload"]
        assert graph.indices is sent["dst"] and graph._src is sent["src"]
        assert graph.features is sent["features"] and graph.labels is sent["labels"]
        assert shard_store._embeddings is got["config"]["store"]["embeddings"]
        assert shard_store._versions.size == spec.num_owned
        np.testing.assert_array_equal(graph.indices, spec.graph.indices)
        np.testing.assert_array_equal(
            shard_store.blocks_for(spec.owned)[0], store.blocks_for(spec.owned)[0]
        )
        engine.handle(Envelope(kind="shutdown"))


class TestWorkerMemoryGauges:
    def test_every_worker_reports_its_own_resident_and_peak_memory(
        self, checkpoint
    ):
        """A spawned socket fleet: each worker process reads VmRSS and
        VmHWM from its own ``/proc/self/status`` into its metrics."""
        import os

        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc on this platform")
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7
        )
        try:
            router.embed(np.arange(8))
            merged = router.merged_registry()
            text = merged.render_prometheus()
        finally:
            router.close()
        gauges = {
            (series.name, series.labels.get("shard")): series.value
            for series in merged.series()
            if series.name.startswith("process_")
        }
        for shard in ("0", "1"):
            resident = gauges[("process_resident_bytes", shard)]
            peak = gauges[("process_peak_resident_bytes", shard)]
            assert peak >= resident > 0
            assert f'process_peak_resident_bytes{{shard="{shard}"}}' in text


class TestTransportValidation:
    def test_unknown_transport_lists_the_menu(self, checkpoint):
        with pytest.raises(ValueError) as excinfo:
            ClusterRouter.from_checkpoint(
                checkpoint, fresh_graph(), 2, transport="tcp"
            )
        message = str(excinfo.value)
        for name in TRANSPORT_KINDS:
            assert name in message
        assert "tcp" in message

    def test_workers_require_socket_transport(self, checkpoint):
        with pytest.raises(ValueError, match="socket"):
            ClusterRouter.from_checkpoint(
                checkpoint, fresh_graph(), 2, transport="inline",
                workers=["127.0.0.1:1", "127.0.0.1:2"],
            )

    def test_mutation_log_capacity_is_not_an_option(self, checkpoint):
        with pytest.raises(TypeError, match="mutation_log_capacity"):
            ClusterRouter(
                str(checkpoint), fresh_graph(), 2, mutation_log_capacity=2
            )


# ----------------------------------------------------------------------
# Integration: loopback fleets
# ----------------------------------------------------------------------


def run_stream(target):
    """Deterministic interleaving of mutations and serves (the exactness
    contract shared with test_transport.py)."""
    dim = target.graph.features.shape[1]
    probe = np.random.default_rng(11).choice(200, size=8, replace=False)
    outputs = [target.embed(probe)]
    first = target.add_nodes("paper", features=np.full((2, dim), 0.3))
    target.add_edges("paper-author", [int(first[0]), int(first[1])], [1, 3])
    outputs.append(target.embed(np.append(probe, first)))
    target.add_edges("paper-subject", [int(first[0]), 5], [7, 9])
    second = target.add_nodes("paper", features=np.full((1, dim), -0.2))
    target.add_edges("paper-author", [int(second[0])], [4])
    outputs.append(target.embed(np.append(probe, second)))
    outputs.append(target.classify(probe))
    return outputs


@pytest.fixture(scope="module")
def stream_reference(checkpoint):
    graph = fresh_graph()
    server = InferenceServer(
        WidenClassifier.load(checkpoint, graph=graph), graph, seed=7
    )
    return run_stream(server)


def loopback_fleet(checkpoint, num_shards, graph=None, **kwargs):
    """A socket router over in-process background worker servers."""
    servers = [
        ShardWorkerServer(announce=False) for _ in range(num_shards)
    ]
    addresses = ["%s:%d" % server.start_background() for server in servers]
    router = ClusterRouter.from_checkpoint(
        checkpoint, fresh_graph() if graph is None else graph, num_shards,
        transport="socket", workers=addresses, seed=7, **kwargs
    )
    return router, servers


@pytest.fixture(scope="module")
def store_path(checkpoint, tmp_path_factory):
    """A store built from the graph every fleet here starts from."""
    graph = fresh_graph()
    path = tmp_path_factory.mktemp("net-store") / "store"
    build_store(WidenClassifier.load(checkpoint, graph=graph), graph, path, seed=7)
    return str(path)


def store_server(checkpoint, store_path):
    """The whole-graph oracle of a store-backed fleet."""
    from repro.store import AggregateStore

    graph = fresh_graph()
    return InferenceServer(
        WidenClassifier.load(checkpoint, graph=graph), graph, seed=7,
        store=AggregateStore.open(store_path),
    )


def expected_rungs(router, store_path, nodes):
    """The rungs a shard holding the coordinator's freshness state and its
    base store slice serves ``nodes`` on, with an empty cache."""
    from repro.store import AggregateStore

    store = AggregateStore.open(store_path)
    fresh = fresh_mask(
        router.supervisor.freshness.touched_at,
        store.reads_of(nodes),
        store.versions_of(nodes),
    )
    counts = {"store": int(fresh.sum()), "recompute": int((~fresh).sum())}
    return {rung: count for rung, count in counts.items() if count}


class TestSocketFleetExactness:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_interleaved_stream_bit_identical(
        self, checkpoint, stream_reference, num_shards
    ):
        router, servers = loopback_fleet(checkpoint, num_shards)
        try:
            got = run_stream(router)
        finally:
            router.close()
            for server in servers:
                server.close()
        assert len(got) == len(stream_reference)
        for ours, want in zip(got, stream_reference):
            np.testing.assert_array_equal(ours, want)

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_every_shard_holds_the_coordinators_freshness_state(
        self, checkpoint, store_path, num_shards
    ):
        """Write clock, touched stamps and graph version agree on every
        shard and on the coordinator after each write — arrivals owned by
        every shard, edge batches, an empty batch — which is what lets
        recovery rebuild a shard from the coordinator's present."""
        router, servers = loopback_fleet(
            checkpoint, num_shards, store_path=store_path
        )
        try:
            dim = router.graph.features.shape[1]
            authors = router.graph.nodes_of_type("author")

            def assert_agree():
                want = router.supervisor.serving_state()
                for worker in router.workers:
                    got = worker.pull_serving_state().result(60.0)
                    assert not state_differences(got["serving_state"], want)

            owners = set()
            for step in range(num_shards):
                # Consecutive ids: S single arrivals land one on each shard.
                new = int(router.add_nodes(
                    "paper", features=np.full((1, dim), 0.1 * step)
                )[0])
                owners.add(new % num_shards)
                router.add_edges("paper-author", [new], [int(authors[step])])
                assert_agree()
            assert owners == set(range(num_shards))
            router.add_edges("paper-author", [], [])  # empty: no tick
            router.add_edges(
                "paper-subject", [int(new), 3], [int(authors[-1]), 5]
            )
            assert_agree()
            state = router.supervisor.serving_state()
            assert state["graph_version"] == router.graph.version
            assert state["clock"] == router.graph.version > 0
        finally:
            router.close()
            for server in servers:
                server.close()

    def test_fleet_metrics_exposed(self, checkpoint):
        from repro.obs import SLOTarget

        router, servers = loopback_fleet(checkpoint, 2)
        try:
            router.enable_slo(SLOTarget(latency_threshold=1.0))
            run_stream(router)
            text = router.render_prometheus()
            assert "fleet_workers_connected 2" in text
            assert 'fleet_worker_connected{shard="0"} 1' in text
            report = router.slo_report()
            assert report["fleet"] == {
                "worker_down_events": [], "recoveries": []
            }
        finally:
            router.close()
            for server in servers:
                server.close()

    def test_logged_edge_write_is_a_delta_not_a_shard_snapshot(
        self, checkpoint, monkeypatch
    ):
        """The command a write broadcasts to every shard is a delta: a
        2-edge write on a 5k-node graph must ship a few hundred bytes, not
        a graph's edge arrays and feature matrix (megabytes)."""
        from repro.cluster.worker import ShardWorker

        sent = []
        real_mutate = ShardWorker.mutate

        def recording(worker, command):
            sent.append(command)
            return real_mutate(worker, command)

        monkeypatch.setattr(ShardWorker, "mutate", recording)
        graph = make_acm(seed=0, scale=5.0).graph  # same schema, 10x the nodes
        assert graph.num_nodes >= 5000
        router, servers = loopback_fleet(checkpoint, 2, graph=graph)
        try:
            papers = graph.nodes_of_type("paper")[:2]
            authors = graph.nodes_of_type("author")[-2:]
            router.add_edges("paper-author", papers, authors)
            assert len(sent) == 2  # one envelope per shard, same command
            command = sent[-1]
            assert wire_size({"command": command.to_payload()}) < 8 * 1024
            assert command.src.size == 4  # the batch, both directions
        finally:
            router.close()
            for server in servers:
                server.close()


# ----------------------------------------------------------------------
# Integration: kill -9 and recover
# ----------------------------------------------------------------------


class TestKillRecover:
    def test_sigkill_recovers_bit_identical(self, checkpoint):
        """The tentpole contract: SIGKILL a worker mid-stream; the fleet
        detects a typed WorkerDown, respawns from checkpoint + the
        coordinator's present, and every later answer is exact."""
        graph = fresh_graph()
        single = InferenceServer(
            WidenClassifier.load(checkpoint, graph=graph), graph, seed=7
        )
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7
        )
        try:
            dim = router.graph.features.shape[1]
            probe = np.random.default_rng(11).choice(200, size=8, replace=False)
            np.testing.assert_array_equal(
                router.embed(probe), single.embed(probe)
            )
            for target in (router, single):
                first = target.add_nodes("paper", features=np.full((2, dim), 0.3))
                target.add_edges(
                    "paper-author", [int(first[0]), int(first[1])], [1, 3]
                )

            router.fleet.registry.kill(0)
            nodes = np.append(probe, first)
            np.testing.assert_array_equal(
                router.embed(nodes), single.embed(nodes)
            )

            summary = router.supervisor.summary()
            events = summary["worker_down_events"]
            assert events and events[0]["shard"] == 0
            assert events[0]["reason"] in ("connection_reset", "send_failed")
            (recovery,) = summary["recoveries"]
            assert recovery["shard"] == 0
            assert recovery["target_version"] == router.graph.version
            assert router.workers[0].respawns == 1

            # Mutations after recovery stay exact (the replica caught up).
            for target in (router, single):
                second = target.add_nodes(
                    "paper", features=np.full((1, dim), -0.2)
                )
            nodes = np.append(probe, second)
            np.testing.assert_array_equal(
                router.embed(nodes), single.embed(nodes)
            )

            text = router.render_prometheus()
            assert 'fleet_worker_down_total' in text
            assert 'fleet_reconnects_total{shard="0"} 1' in text
            assert 'shard_errors_total' in text
        finally:
            router.close()

    def test_delta_command_replay_converges_bit_identical(self, checkpoint):
        """Kill -> respawn after a *delta* stream: the shard is rebuilt from
        the coordinator's current graph, which must hold everything the
        broadcast commands carried — including an arrival another shard
        owns, whose features reached the killed shard only inside the
        arrival's command, and the edges later attached to it."""
        graph = fresh_graph()
        single = InferenceServer(
            WidenClassifier.load(checkpoint, graph=graph), graph, seed=7
        )
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7
        )
        try:
            dim = router.graph.features.shape[1]
            authors = router.graph.nodes_of_type("author")
            subjects = router.graph.nodes_of_type("subject")
            probe = np.random.default_rng(11).choice(200, size=8, replace=False)
            np.testing.assert_array_equal(router.embed(probe), single.embed(probe))

            features = np.full((1, dim), 0.3)
            new = int(router.add_nodes("paper", features=features)[0])
            assert new == int(single.add_nodes("paper", features=features)[0])
            victim = 1 - new % 2  # the shard that does not own it
            theirs = authors[authors % 2 == victim]
            for target in (router, single):
                target.add_edges("paper-author", [new], [int(theirs[0])])
                target.add_edges(
                    "paper-subject", [new, int(probe[0])], [int(s) for s in subjects[:2]]
                )
                target.add_edges("paper-author", [int(probe[1])], [int(theirs[1])])

            router.fleet.registry.kill(victim)
            nodes = np.concatenate([probe, [new], theirs[:4]])
            np.testing.assert_array_equal(router.embed(nodes), single.embed(nodes))
            np.testing.assert_array_equal(
                router.classify(nodes), single.classify(nodes)
            )
            (recovery,) = router.supervisor.summary()["recoveries"]
            assert recovery["shard"] == victim
            assert recovery["target_version"] == 4  # arrival + 3 edge writes

            # The recovered engine keeps tracking the graph under new deltas.
            for target in (router, single):
                target.add_edges("paper-author", [new], [int(theirs[2])])
            np.testing.assert_array_equal(router.embed(nodes), single.embed(nodes))
        finally:
            router.close()

    def test_recovered_shard_is_warm_and_exact(self, checkpoint, store_path):
        """A store-backed shard killed after writes that undercut some of
        its rows comes back from the coordinator's freshness state: its
        first op after the respawn serves every row nothing touched from
        the ``store`` rung and recomputes exactly the touched ones — warm,
        and equal to the single server."""
        single = store_server(checkpoint, store_path)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7,
            store_path=store_path,
        )
        try:
            router.enable_slo()  # attribution records carry rung counts
            dim = router.graph.features.shape[1]
            probe = np.random.default_rng(11).choice(200, size=8, replace=False)
            np.testing.assert_array_equal(router.embed(probe), single.embed(probe))
            for target in (router, single):
                first = target.add_nodes("paper", features=np.full((2, dim), 0.3))
                target.add_edges("paper-author", [int(first[0])], [1])
                target.add_edges("paper-subject", [int(first[1]), int(probe[0])], [7, 9])
                # The last write before the kill rewrites probe[1]'s list.
                target.add_edges("paper-author", [int(probe[1])], [int(first[0])])

            victim = int(probe[1]) % 2
            owned = router.plan.shards[victim].owned
            nodes = np.unique(np.concatenate([owned[:40], probe[probe % 2 == victim]]))
            router.fleet.registry.kill(victim)
            want = expected_rungs(router, store_path, nodes)
            assert want["store"] > 0 and want["recompute"] > 0
            np.testing.assert_array_equal(router.embed(nodes), single.embed(nodes))
            assert router.attributions[-1].rungs == want
            (recovery,) = router.supervisor.summary()["recoveries"]
            assert recovery["shard"] == victim and recovery["target_version"] == 4
            np.testing.assert_array_equal(
                router.classify(nodes), single.classify(nodes)
            )

            for target in (router, single):
                target.add_edges("paper-author", [int(first[1])], [3])
            np.testing.assert_array_equal(router.embed(nodes), single.embed(nodes))
        finally:
            router.close()

    def test_kill_during_mutation_applies_exactly_once(self, checkpoint):
        """A worker killed before a mutation fan-out: the coordinator's
        graph took the write before the send, so the respawned shard is
        rebuilt past it exactly once — no double-apply, no loss."""
        graph = fresh_graph()
        single = InferenceServer(
            WidenClassifier.load(checkpoint, graph=graph), graph, seed=7
        )
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7
        )
        try:
            dim = router.graph.features.shape[1]
            probe = np.random.default_rng(3).choice(150, size=6, replace=False)
            router.embed(probe), single.embed(probe)

            router.fleet.registry.kill(1)
            for target in (router, single):
                added = target.add_nodes(
                    "paper", features=np.full((2, dim), 0.7)
                )
            nodes = np.append(probe, added)
            np.testing.assert_array_equal(
                router.embed(nodes), single.embed(nodes)
            )
            (recovery,) = router.supervisor.summary()["recoveries"]
            assert recovery["shard"] == 1 and recovery["target_version"] == 1
            state = router.workers[1].pull_serving_state().result(60.0)
            assert not state_differences(
                state["serving_state"], router.supervisor.serving_state()
            )
        finally:
            router.close()

    def test_recovery_after_a_long_stream_is_warm(self, checkpoint, store_path):
        """300 writes — more than any bounded history of them would keep —
        then a kill: recovery needs none of them, only the coordinator's
        present, so it is exact, warm and silent."""
        single = store_server(checkpoint, store_path)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7,
            store_path=store_path,
        )
        try:
            router.enable_slo()
            dim = router.graph.features.shape[1]
            authors = router.graph.nodes_of_type("author")
            rng = np.random.default_rng(5)
            for step in range(150):
                picks = [int(a) for a in rng.choice(authors, size=2)]
                for target in (router, single):
                    (new,) = target.add_nodes(
                        "paper", features=np.full((1, dim), 0.01 * step)
                    )
                    target.add_edges("paper-author", [int(new)] * 2, picks)
            assert router.graph.version == 300

            victim = 0
            nodes = router.plan.shards[victim].owned[::7]
            router.fleet.registry.kill(victim)
            want = expected_rungs(router, store_path, nodes)
            assert want["store"] > 0 and want["recompute"] > 0
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                served = router.embed(nodes)
            np.testing.assert_array_equal(served, single.embed(nodes))
            assert router.attributions[-1].rungs == want
            (recovery,) = router.supervisor.summary()["recoveries"]
            assert recovery["target_version"] == 300
        finally:
            router.close()

    def test_diverged_respawn_is_refused(self, checkpoint, monkeypatch):
        """``_verify`` compares the whole exported state: a respawn handed
        a serving state one tick off is refused, naming the shard, before
        it serves anything."""
        real_respawn = Fleet.respawn

        def corrupting(fleet, shard_id, args):
            state = dict(args["serving_state"])
            state["clock"] += 1
            return real_respawn(fleet, shard_id, dict(args, serving_state=state))

        monkeypatch.setattr(Fleet, "respawn", corrupting)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7
        )
        try:
            dim = router.graph.features.shape[1]
            router.add_nodes("paper", features=np.full((1, dim), 0.3))
            router.fleet.registry.kill(1)
            nodes = router.plan.shards[1].owned[:4]
            with pytest.raises(RuntimeError, match="shard 1 recovery diverged.*clock"):
                router.embed(nodes)
            assert router.supervisor.summary()["recoveries"] == []
        finally:
            router.close()

    def test_kill_refuses_a_worker_the_fleet_did_not_spawn(self, checkpoint):
        """A static fleet's workers have no process here: a kill would
        inject nothing, and a kill-recover check would pass vacuously."""
        router, servers = loopback_fleet(checkpoint, 2)
        try:
            with pytest.raises(ValueError, match="shard 1"):
                router.fleet.registry.kill(1)
            assert not router.workers[1].transport.is_down
        finally:
            router.close()
            for server in servers:
                server.close()
