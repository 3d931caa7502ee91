"""The socket lane: framing, liveness, and kill -9 fault tolerance.

Four layers of coverage, cheapest first.  Framing is tested over plain
``socketpair`` — dribbled partial reads, oversized payload rejection on
both sides, EOF inside a frame vs. between frames.  The transport protocol
is tested against stub TCP servers — out-of-order replies matched by
sequence number, a mid-stream reset becoming a typed error ``Reply``
rather than a hang, a hung-but-connected server tripping the heartbeat
detector.  The :class:`MutationLog` is tested as a data structure —
bounding, per-shard horizons, loud refusal past them.  Finally the
integration layer runs real loopback fleets: 1/2/4-shard socket routers
must answer an interleaved mutation/serve stream bit-identically to a
whole-graph server, and a SIGKILL'd worker must come back — typed
:class:`WorkerDown` (never a generic timeout), respawn from checkpoint,
mutation-log replay to the current graph version — with every
post-recovery answer exact.
"""

import pickle
import socket
import threading

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.cluster.fleet import MutationLog, MutationLogHorizonError
from repro.cluster.net import (
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
from repro.cluster.transport import (
    READY_SEQ,
    TRANSPORT_KINDS,
    Envelope,
    Reply,
    ShardTimeoutError,
)
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.serve import InferenceServer


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def checkpoint(acm, tmp_path_factory):
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=2)
    model.fit(acm.graph, acm.split.train[:40], epochs=1)
    path = tmp_path_factory.mktemp("net") / "widen.npz"
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
            transport._stopping = True
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
            transport._stopping = True
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
            transport._stopping = True
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
            transport._stopping = True
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
            transport._stopping = True
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
            transport._stopping = True
            transport._close_socket()
            stub.close()

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
            transport._stopping = True
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
# MutationLog
# ----------------------------------------------------------------------


class TestMutationLog:
    def test_bounded_with_per_shard_horizon(self):
        """One horizon for the whole log (every shard replays every
        command); what is per shard is the baseline it is compared to."""
        log = MutationLog(capacity=2)
        assert log.horizon == -1 and log.next_eviction() is None
        log.append(1, "add_nodes", "c1")
        log.append(2, "add_edges", "c2")
        assert log.next_eviction().version == 1
        log.append(3, "add_nodes", "c3")  # evicts v1
        assert len(log) == 2
        # A baseline at v0 predates the horizon (v1 was evicted).
        with pytest.raises(MutationLogHorizonError) as excinfo:
            log.commands_since(0)
        assert excinfo.value.horizon == 1 and excinfo.value.baseline_version == 0
        # A baseline at the horizon itself is fine: nothing missing.
        assert [(e.version, e.command) for e in log.commands_since(1)] == [
            (2, "c2"), (3, "c3"),
        ]

    def test_commands_since_filters_by_shard_and_version(self):
        """Entries hold one command for all shards; the filter is the
        baseline version alone."""
        log = MutationLog(capacity=10)
        log.append(1, "add_nodes", "a")
        log.append(2, "add_edges", "b")
        log.append(3, "add_edges", "c")
        assert [e.command for e in log.commands_since(0)] == ["a", "b", "c"]
        assert [e.kind for e in log.commands_since(1)] == ["add_edges"] * 2
        assert [e.command for e in log.commands_since(2)] == ["c"]
        assert log.commands_since(3) == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            MutationLog(capacity=0)


# ----------------------------------------------------------------------
# Eager transport validation
# ----------------------------------------------------------------------


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

    def test_fleet_metrics_exposed(self, checkpoint):
        from repro.obs import SLOTarget

        router, servers = loopback_fleet(
            checkpoint, 2, slo_target=SLOTarget(latency_threshold=1.0)
        )
        try:
            run_stream(router)
            text = router.render_prometheus()
            assert "fleet_workers_connected 2" in text
            assert 'fleet_worker_connected{shard="0"} 1' in text
            report = router.slo_report()
            assert report["fleet"]["worker_down_events"] == []
            assert report["fleet"]["mutation_log"]["entries"] == 5
        finally:
            router.close()
            for server in servers:
                server.close()

    def test_logged_edge_write_is_a_delta_not_a_shard_snapshot(self, checkpoint):
        """The 256-entry MutationLog retains every broadcast command: a
        2-edge write on a 5k-node graph must log a few hundred bytes, not
        a graph's edge arrays and feature matrix (megabytes)."""
        graph = make_acm(seed=0, scale=5.0).graph  # same schema, 10x the nodes
        assert graph.num_nodes >= 5000
        router, servers = loopback_fleet(checkpoint, 2, graph=graph)
        try:
            papers = graph.nodes_of_type("paper")[:2]
            authors = graph.nodes_of_type("author")[-2:]
            router.add_edges("paper-author", papers, authors)
            entry = router.supervisor.log.entries[-1]
            assert entry.kind == "add_edges"
            assert len(pickle.dumps(entry)) < 8 * 1024
            assert entry.command.src.size == 4  # the batch, both directions
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
        detects a typed WorkerDown, respawns from checkpoint + plan,
        replays the mutation log, and every later answer is exact."""
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
            recoveries = summary["recoveries"]
            assert [r["mode"] for r in recoveries] == ["replay"]
            assert recoveries[0]["replayed_commands"] == 2
            assert recoveries[0]["target_version"] == router.graph.version
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
        """Kill -> respawn -> replay of a *delta* stream: the baseline is
        the spawn-time shard, so recovery must rebuild the current replica
        from the broadcast commands alone — including an arrival another
        shard owns, whose features reach the killed shard only inside the
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
            victim = 1 - router.plan.owner(new)  # the shard that does not own it
            theirs = authors[router.plan.owner_of[authors] == victim]
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
            assert recovery["mode"] == "replay" and recovery["shard"] == victim
            assert recovery["replayed_commands"] == 4  # arrival + 3 edge writes

            # The recovered engine keeps tracking the graph under new deltas.
            for target in (router, single):
                target.add_edges("paper-author", [new], [int(theirs[2])])
            np.testing.assert_array_equal(router.embed(nodes), single.embed(nodes))
        finally:
            router.close()

    def test_recovery_from_a_refreshed_baseline_is_exact(self, checkpoint, tmp_path):
        """A log of two under a stream of five writes: the healthy shards
        are re-baselined mid-stream, *before* the write that would strand
        them lands on the coordinator's graph, so a later kill recovers by
        replay from the refreshed baseline — one command — and not by
        replan.  The fleet serves from store slices, which is what
        makes the ordering observable: a baseline cut after the graph took
        a write pairs a payload that contains it with a serving state that
        never saw it, and the respawned shard would serve the store rows
        that write undercut."""
        from repro.store import build_store

        graph = fresh_graph()
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        store_path = tmp_path / "store"
        build_store(classifier, graph, store_path, seed=7)
        single = InferenceServer(classifier, graph, seed=7)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7,
            mutation_log_capacity=2, store_path=str(store_path),
        )
        try:
            dim = router.graph.features.shape[1]
            probe = np.random.default_rng(11).choice(200, size=8, replace=False)
            np.testing.assert_array_equal(router.embed(probe), single.embed(probe))
            for target in (router, single):
                first = target.add_nodes("paper", features=np.full((2, dim), 0.3))
                target.add_edges("paper-author", [int(first[0])], [1])
                target.add_edges("paper-subject", [int(first[1]), int(probe[0])], [7, 9])
                second = target.add_nodes("paper", features=np.full((1, dim), -0.2))
                # The write a refresh precedes; it rewrites probe[1]'s list.
                target.add_edges("paper-author", [int(second[0])], [int(probe[1])])
            assert router.graph.version == 5 and len(router.supervisor.log) == 2

            victim = router.plan.owner(int(probe[1]))
            router.fleet.registry.kill(victim)
            nodes = np.concatenate([probe, first, second])
            np.testing.assert_array_equal(router.embed(nodes), single.embed(nodes))
            np.testing.assert_array_equal(
                router.classify(nodes), single.classify(nodes)
            )
            (recovery,) = router.supervisor.summary()["recoveries"]
            assert recovery["mode"] == "replay" and recovery["shard"] == victim
            assert recovery["baseline_version"] == 4  # refreshed, not spawn-time
            assert recovery["replayed_commands"] == 1
            assert recovery["target_version"] == 5

            for target in (router, single):
                target.add_edges("paper-author", [int(first[1])], [3])
            np.testing.assert_array_equal(router.embed(nodes), single.embed(nodes))
        finally:
            router.close()

    def test_kill_during_mutation_applies_exactly_once(self, checkpoint):
        """A worker killed before a mutation fan-out: the command is in the
        log before the send, so recovery replays it exactly once — no
        double-apply, no loss."""
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
            modes = [
                r["mode"] for r in router.supervisor.summary()["recoveries"]
            ]
            assert modes == ["replay"]
        finally:
            router.close()

    def test_log_horizon_forces_loud_replan(self, checkpoint):
        """A worker behind the bounded log's horizon is never served stale:
        recovery refuses exact replay, warns, and rebuilds from the current
        plan — counted as a rebuild, flagged as mode=replan."""
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7,
            mutation_log_capacity=1,
        )
        try:
            dim = router.graph.features.shape[1]
            probe = np.random.default_rng(5).choice(150, size=6, replace=False)
            router.embed(probe)
            router.add_nodes("paper", features=np.full((2, dim), 0.3))
            router.fleet.registry.kill(0)
            with pytest.warns(RuntimeWarning, match="horizon"):
                second = router.add_nodes(
                    "paper", features=np.full((1, dim), -0.2)
                )
            summary = router.supervisor.summary()
            assert "replan" in [r["mode"] for r in summary["recoveries"]]
            text = router.render_prometheus()
            assert 'fleet_rebuilds_total' in text
            # Post-replan the shard serves the *current* graph,
            # deterministically.
            nodes = np.append(probe, second)
            first_pass = router.embed(nodes)
            np.testing.assert_array_equal(first_pass, router.embed(nodes))
            assert np.isfinite(np.asarray(first_pass)).all()
        finally:
            router.close()

    def test_log_horizon_replan_is_exact(self, checkpoint, tmp_path):
        """Past the horizon nothing can be replayed — and nothing needs to
        be: answers are seeded by ``(seed, node)``, a function of the
        current graph, so a shard rebuilt from the current plan equals a
        single server bit for bit.  It only comes back *cold*: its base
        store slice predates the writes it missed, so none of it is
        served."""
        from repro.store import build_store

        graph = fresh_graph()
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        store_path = tmp_path / "store"
        build_store(classifier, graph, store_path, seed=7)
        single = InferenceServer(classifier, graph, seed=7)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="socket", seed=7,
            mutation_log_capacity=1, store_path=str(store_path),
        )
        try:
            dim = router.graph.features.shape[1]
            probe = np.random.default_rng(5).choice(150, size=10, replace=False)
            np.testing.assert_array_equal(router.embed(probe), single.embed(probe))
            for target in (router, single):  # two writes through a log of one
                new = target.add_nodes("paper", features=np.full((1, dim), 0.3))
                target.add_edges("paper-author", [int(new[0])], [1])
            router.fleet.registry.kill(0)
            single.add_edges("paper-subject", [int(probe[0]), int(probe[1])], [7, 9])
            nodes = np.concatenate([probe, new, router.plan.shards[0].owned[:12]])
            with pytest.warns(RuntimeWarning, match="comes back cold"):
                # The third write evicts the second, which shard 0's
                # baseline never covered: recovery must replan.
                router.add_edges(
                    "paper-subject", [int(probe[0]), int(probe[1])], [7, 9]
                )
                served = router.embed(nodes)
            recoveries = router.supervisor.summary()["recoveries"]
            assert [r["mode"] for r in recoveries] == ["replan"]
            np.testing.assert_array_equal(served, single.embed(nodes))
            np.testing.assert_array_equal(
                router.classify(nodes), single.classify(nodes)
            )
            # Cold: the replanned shard answered from no base store row.
            state = router.workers[0].pull_serving_state().result(60.0)
            touched = state["serving_state"]["touched"]
            assert set(router.plan.shards[0].owned.tolist()) <= set(touched)
            # ... and it keeps tracking the graph afterwards.
            for target in (router, single):
                target.add_edges("paper-author", [int(probe[2])], [3])
            np.testing.assert_array_equal(router.embed(nodes), single.embed(nodes))
        finally:
            router.close()
