"""The transport boundary: envelopes, replies, and cross-transport exactness.

Two layers of coverage.  The protocol layer is tested with stub engines —
FIFO delivery, out-of-order gathers, error envelopes, startup failure
(the socket transport's own protocol tests, timeouts included, are in
``test_net.py``).  The integration layer is the satellite contract: an
interleaved stream of mutations and embeds must produce bit-identical
answers through the ``inline`` and ``socket`` transports, and both must
match a whole-graph :class:`InferenceServer` replaying the same stream.  Because
every mutation lands on the coordinator's graph and reaches each engine as
one serializable command, exactness here proves the coordinator's graph and
the engine-side replicas never drift.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterRouter,
    Envelope,
    InlineTransport,
    Reply,
    ShardError,
)
from repro.codec import ProtocolError, decode, encode
from repro.cluster.transport import error_info
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.serve import InferenceServer

TRANSPORTS = ("inline", "socket")


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def checkpoint(acm, tmp_path_factory):
    """A two-step-walk model: cheap enough to rebuild per socket worker process."""
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=2)
    model.fit(acm.graph, acm.split.train[:40], epochs=1)
    path = tmp_path_factory.mktemp("transport") / "widen.ckpt"
    model.save(path)
    return path


def fresh_graph():
    return make_acm(seed=0, scale=0.5).graph


def fresh_single_server(checkpoint):
    graph = fresh_graph()
    classifier = WidenClassifier.load(checkpoint, graph=graph)
    return InferenceServer(classifier, graph, seed=7)


def fresh_router(checkpoint, num_shards, transport):
    return ClusterRouter.from_checkpoint(
        checkpoint, fresh_graph(), num_shards, transport=transport, seed=7
    )


# ----------------------------------------------------------------------
# Protocol layer: stub engines, no model involved
# ----------------------------------------------------------------------


class EchoEngine:
    """Replies with its envelope's payload; records the arrival order."""

    def __init__(self) -> None:
        self.seen = []

    def handle(self, envelope: Envelope) -> Reply:
        self.seen.append((envelope.kind, envelope.seq))
        if envelope.kind == "boom":
            raise KeyError("engine exploded")
        return Reply(seq=envelope.seq, ok=True, payload=dict(envelope.payload))


class TestProtocol:
    def test_envelope_and_reply_codec_round_trip(self):
        env = Envelope(kind="serve", payload={"nodes": np.arange(3)}, seq=9)
        back = decode(encode(env), Envelope)
        assert back.kind == "serve" and back.seq == 9
        np.testing.assert_array_equal(back.payload["nodes"], np.arange(3))
        reply = Reply(seq=9, ok=False, error=error_info(ValueError("bad")))
        back = decode(encode(reply), Reply)
        assert back.error["type"] == "ValueError"
        assert "bad" in back.error["message"]
        assert "Traceback" in back.error["traceback"] or back.error["traceback"]

    def test_fifo_order_and_out_of_order_gather(self):
        transport = InlineTransport(0, EchoEngine)
        transport.start()
        try:
            transport.wait_ready(10.0)
            pendings = [
                transport.send(Envelope(kind="serve", payload={"i": i}))
                for i in range(6)
            ]
            # Gather in reverse — replies must still pair with their seqs.
            for i in reversed(range(6)):
                assert pendings[i].result(10.0)["i"] == i
            assert [seq for _, seq in transport.engine.seen] == list(range(1, 7))
        finally:
            transport.stop()

    def test_error_becomes_shard_error_with_remote_type(self):
        transport = InlineTransport(3, EchoEngine)
        transport.start()
        try:
            transport.wait_ready(10.0)
            pending = transport.send(Envelope(kind="boom"))
            with pytest.raises(ShardError) as excinfo:
                pending.result(10.0)
            assert excinfo.value.shard_id == 3
            assert "KeyError" in str(excinfo.value)
            # The stream survives the error: the next envelope still works.
            assert transport.send(
                Envelope(kind="serve", payload={"i": 1})
            ).result(10.0)["i"] == 1
        finally:
            transport.stop()

    def test_failing_engine_factory_surfaces_at_start(self):
        def factory():
            raise RuntimeError("no such shard")

        transport = InlineTransport(0, factory)
        with pytest.raises(RuntimeError, match="no such shard"):
            transport.start()
        with pytest.raises(RuntimeError, match="not started"):
            transport.send(Envelope(kind="serve"))
        transport.stop()

    def test_inline_round_trips_the_wire_format(self):
        """Inline is a *replay* of the wire protocol: anything the codec
        refuses must fail on inline exactly as it would on a socket."""
        transport = InlineTransport(0, EchoEngine)
        transport.start()
        transport.wait_ready()
        with pytest.raises(ProtocolError, match="function cannot cross the wire"):
            transport.send(
                Envelope(kind="serve", payload={"fn": lambda: None})
            )
        transport.stop()


# ----------------------------------------------------------------------
# Integration layer: interleaved mutation/embed streams, all transports
# ----------------------------------------------------------------------


def run_stream(target):
    """A deterministic interleaving of mutations and serves.

    Adds nodes and boundary-prone edges *between* embed calls so each
    serve observes a different graph version; collected outputs must be
    bit-identical however the stream is executed.
    """
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
    return run_stream(fresh_single_server(checkpoint))


class TestCrossTransportExactness:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_interleaved_stream_bit_identical(
        self, checkpoint, stream_reference, transport
    ):
        """The satellite contract: mutations and embeds interleaved through
        every transport answer exactly what one whole-graph server does."""
        with fresh_router(checkpoint, 2, transport) as router:
            got = run_stream(router)
        assert len(got) == len(stream_reference)
        for ours, want in zip(got, stream_reference):
            np.testing.assert_array_equal(ours, want)

    def test_socket_agrees_with_inline_post_mutation(self, checkpoint):
        """Two routers consume the same stream; their final answers must
        agree bit-for-bit with each other."""
        finals = {}
        for transport in TRANSPORTS:
            with fresh_router(checkpoint, 2, transport) as router:
                run_stream(router)
                probe = np.arange(16)
                finals[transport] = router.embed(probe)
        np.testing.assert_array_equal(finals["socket"], finals["inline"])

    def test_socket_four_shards_boundary_nodes_exact(self, checkpoint):
        single = fresh_single_server(checkpoint)
        with fresh_router(checkpoint, 4, "socket") as router:
            # Owned nodes with an out-edge into another shard's owned set.
            graph = router.graph
            cut = graph._src % 4 != graph.indices % 4
            picked = []
            for worker in router.workers:
                crossers = np.intersect1d(worker.spec.owned, graph._src[cut])
                picked.extend(int(n) for n in crossers[:2])
            probe = np.asarray(picked, dtype=np.int64)
            assert probe.size > 0, "no node has an edge into another shard"
            np.testing.assert_array_equal(
                router.embed(probe), single.embed(probe)
            )

    def test_serving_state_pull_crosses_every_transport(self, checkpoint):
        for transport in TRANSPORTS:
            with fresh_router(checkpoint, 2, transport) as router:
                run_stream(router)
                for worker in router.workers:
                    state = worker.pull_serving_state().result(60.0)[
                        "serving_state"
                    ]
                    # Every write is broadcast: each replica sits at the
                    # coordinator's version, one write-clock tick per write.
                    assert state["graph_version"] == router.graph.version > 0
                    assert state["clock"] == state["graph_version"]

    def test_socket_error_envelope_keeps_worker_alive(self, checkpoint):
        with fresh_router(checkpoint, 1, "socket") as router:
            worker = router.workers[0]
            bad = worker.submit_serve(router.graph.num_nodes + 50, "embed")
            with pytest.raises(ShardError):
                bad.result(60.0)
            # The process survived; a good request still round-trips.
            (value,) = worker.submit_serve(0, "embed").result(60.0)["values"]
            assert value.ndim == 1

    def test_socket_replay_matches_inline_summary_counts(self, checkpoint, acm):
        """The same ops count the same per-shard requests — routed on the
        router, served and by rung on each shard — on both transports."""
        from repro.serve import make_trace

        nodes = make_trace(acm.split.test[:20], 24, rng=2)
        counted = ("cluster_requests_total", "serve_requests_total", "serve_rung_total")
        counts = {}
        for transport in TRANSPORTS:
            with fresh_router(checkpoint, 2, transport) as router:
                for start in range(0, nodes.size, 6):
                    router.embed(nodes[start:start + 6])
                counts[transport] = sorted(
                    (series.name, sorted(series.labels.items()), series.value)
                    for series in router.merged_registry().series()
                    if series.name in counted
                )
        assert counts["socket"] == counts["inline"]
        assert sum(
            value for name, _, value in counts["inline"]
            if name == "serve_requests_total"
        ) == nodes.size
