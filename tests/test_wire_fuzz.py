"""Hostile frames and files: the codec refuses them, all with one error.

Every malformed frame — truncated at any byte, a garbage or oversize
length, a header that is not UTF-8 or not JSON, an unknown envelope kind,
an object / void / big-endian dtype, a negative or overflowing shape,
buffers that do not fill the frame exactly, nesting past ``MAX_DEPTH`` —
must raise :class:`ProtocolError` and nothing else, must not hang and must
not allocate past the frame it was handed (or, for a length prefix, past
the frame cap).  Frames of at least ``GATHER_MIN_BYTES``, which a socket reads buffer by
buffer into fresh arrays, are attacked over a socketpair the same way:
each ends in ``ProtocolError`` or, when the peer cut the frame,
``ConnectionResetError``, without allocating past the frame's size.
The files the package writes — a checkpoint and a store, each one record
frame — are attacked the same way: cut at every byte, or a byte flipped.
The properties are derandomized and sized for tier-1;
``--hypothesis-profile=wire-fuzz`` (``tests/conftest.py``) runs each with
5,000 examples.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codec import (
    MAX_DEPTH,
    Envelope,
    ProtocolError,
    Record,
    Reply,
    decode,
    encode,
    transfer,
)
from repro.cluster.net import (
    GATHER_MIN_BYTES,
    FrameTooLargeError,
    recv_frame,
    recv_message,
)
from repro.cluster.transport import WIRE_KINDS
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.store import build_store

fuzz = settings(derandomize=True, deadline=None)

WHITELIST = [
    np.bool_, np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64, np.float32, np.float64,
]
REFUSED_DTYPES = [
    "|O", "|V8", ">f8", ">i4", ">u2", "<U3", "|S4", "<c16", "<M8[ns]", "<f2",
    "f8", "int64", "", "<i8 ",
]

arrays = st.sampled_from(WHITELIST).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False), st.text(max_size=8), st.binary(max_size=16),
)
keys = st.text(max_size=6).filter(lambda key: key != "$buf")
trees = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(keys, children, max_size=4)
    ),
    max_leaves=6,
)
envelopes = st.builds(
    Envelope,
    kind=st.sampled_from(sorted(WIRE_KINDS)),
    payload=st.dictionaries(keys, trees, max_size=4),
    seq=st.integers(-1, 2**40),
    trace_ctx=st.none() | st.dictionaries(keys, scalars, max_size=3),
)
replies = st.builds(
    Reply,
    seq=st.integers(-1, 2**40),
    ok=st.booleans(),
    payload=trees,
    error=st.none() | st.dictionaries(keys, st.text(max_size=8), max_size=3),
    trace=st.none() | st.dictionaries(keys, trees, max_size=2),
)
messages = st.one_of(envelopes, replies)

# The frames the corruption properties start from: what the system sends
# (a serve leg and its answer, a write command, a spawn, an error reply, a
# traced reply) plus the codec's corners (0-d, empty and bool arrays,
# bytes, nesting).  Drawing from a fixed corpus keeps each example cheap,
# so the examples go to the corruption itself.
CORPUS = [
    Envelope(
        kind="serve",
        payload={"nodes": np.arange(5), "kind": "classify"},
        seq=3,
    ),
    Reply(
        seq=3,
        ok=True,
        payload={
            "values": np.eye(5, 4),
            "rungs": np.zeros(5, np.uint8),
            "compute": 1e-6,
        },
    ),
    Envelope(
        kind="mutate",
        payload={
            "command": {
                "command": "refresh",
                "src": np.array([1, 2]),
                "dst": np.array([2, 1]),
                "edge_types": np.zeros(2, np.int64),
            }
        },
    ),
    Envelope(
        kind="spawn",
        payload={
            "engine_args": {
                "engine": "serve",
                "spec_payload": {
                    "owned": np.arange(7, dtype=np.int32),
                    "features": np.ones((3, 2), np.float32),
                },
                "checkpoint": None,
                "checkpoint_bytes": bytes(range(40)),
                "config": {"seed": 7, "max_batch_size": 16},
                "serving_state": None,
            }
        },
    ),
    Reply(seq=-1, ok=False, error={"type": "ValueError", "message": "bad", "traceback": ""}),
    Reply(
        seq=9,
        ok=True,
        payload={"x": [[[np.array(2.5)]], np.zeros((0, 3)), np.array([True, False])]},
        trace={"shard": 0, "pid": 1, "spans": [{"name": "s", "start": 1.5, "args": {}}]},
    ),
    Envelope(
        kind="train_microbatch",
        payload={
            "start": 32,
            "update": [[np.ones(3), None, np.ones((2, 2))], 0.5],
        },
    ),
    Reply(
        seq=4,
        ok=True,
        payload={
            "serving_state": {
                "clock": 2,
                "touched_nodes": np.array([1, 5]),
                "touched_at": np.array([1, 2]),
            }
        },
    ),
]
corpus = st.sampled_from(CORPUS)


def refused(frame, expect=Envelope, kinds=WIRE_KINDS) -> ProtocolError:
    """The error ``decode`` raises on ``frame``; the frame allocates no
    more than its own size while being refused."""
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError) as excinfo:
            decode(frame, expect, kinds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(frame) + 256 * 1024, peak
    return excinfo.value


def handmade(header, body: bytes = b"") -> bytearray:
    """A frame around an arbitrary header object and buffer bytes."""
    text = json.dumps(header).encode()
    head = struct.pack("<I", len(text)) + text
    return bytearray(head + bytes(-len(head) % 8) + body)


def serve(payload=None, kind="serve", buffers=()):
    """A well-formed envelope header: ``payload`` and ``buffers``."""
    return ["envelope", [kind, payload or {}, 1, None], list(buffers)]


def assert_same(got, want) -> None:
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for left, right in zip(got, want):
            assert_same(left, right)
    else:
        assert type(got) is type(want) and got == want


class TestRoundTrip:
    @fuzz
    @given(message=messages)
    def test_every_plain_message_round_trips(self, message):
        expect = type(message)
        back = decode(encode(message), expect, WIRE_KINDS)
        assert type(back) is expect
        for name in vars(message):
            assert_same(getattr(back, name), getattr(message, name))

    def test_arrays_are_writable_views_of_a_fresh_frame(self):
        sent = np.arange(6.0).reshape(2, 3)
        frame = encode(Envelope(kind="serve", payload={"x": sent}))
        got = decode(frame, Envelope).payload["x"]
        assert got.flags.writeable and got.flags.aligned
        assert np.shares_memory(got, np.frombuffer(frame, np.uint8))
        assert not np.shares_memory(got, sent)


class TestEncodeRefuses:
    @pytest.mark.parametrize(
        "value",
        [
            lambda: None,
            (1, 2),
            {1: "int key"},
            {"$buf": 0},
            np.array([object()]),
            np.zeros(2, "V8"),
            np.zeros(2, ">f8"),
            np.zeros(2, "<U3"),
            Envelope(kind="serve"),
            {1.5, 2.5},
        ],
        ids=repr,
    )
    def test_what_the_codec_does_not_know(self, value):
        with pytest.raises(ProtocolError):
            encode(Envelope(kind="serve", payload={"value": value}))

    def test_nesting_past_the_cap(self):
        deep = []  # a reply's payload sits at depth 1: MAX_DEPTH - 1 lists fit
        for _ in range(MAX_DEPTH - 2):
            deep = [deep]
        assert decode(encode(Reply(seq=1, ok=True, payload=deep)), Reply).payload == deep
        with pytest.raises(ProtocolError, match="nested deeper"):
            encode(Reply(seq=1, ok=True, payload=[deep]))


class TestDecodeRefuses:
    @fuzz
    @given(message=corpus, data=st.data())
    def test_truncation_at_any_byte(self, message, data):
        frame = encode(message)
        cut = data.draw(st.integers(0, len(frame) - 1))
        refused(frame[:cut], type(message))

    def test_truncation_at_every_byte(self):
        payload = {"nodes": np.arange(5), "blob": b"abc", "kind": "classify"}
        frame = encode(Envelope(kind="serve", payload=payload, seq=4))
        for cut in range(len(frame)):
            refused(frame[:cut])

    @fuzz
    @given(message=corpus, length=st.integers(0, 2**32 - 1))
    def test_a_garbage_header_length(self, message, length):
        frame = encode(message)
        assume(length != struct.unpack_from("<I", frame)[0])
        frame[:4] = struct.pack("<I", length)
        refused(frame, type(message))

    @fuzz
    @given(header=st.binary(max_size=64))
    def test_a_header_that_is_not_a_message(self, header):
        refused(bytearray(struct.pack("<I", len(header)) + header))

    @fuzz
    @given(text=st.text(max_size=32))
    def test_a_header_that_is_not_json(self, text):
        raw = text.encode()
        try:
            json.loads(raw)
            assume(False)
        except ValueError:
            pass
        refused(bytearray(struct.pack("<I", len(raw)) + raw))

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b'{"type": "\xc3"}', b"\x80"])
    def test_a_header_that_is_not_utf8(self, raw):
        assert "undecodable" in str(refused(bytearray(struct.pack("<I", len(raw)) + raw)))

    @fuzz
    @given(kind=st.text(max_size=16).filter(lambda kind: kind not in WIRE_KINDS))
    def test_an_unknown_kind(self, kind):
        error = refused(encode(Envelope(kind=kind, payload={"nodes": np.arange(3)})))
        assert "unknown envelope kind" in str(error)

    @pytest.mark.parametrize("code", REFUSED_DTYPES)
    def test_a_dtype_off_the_whitelist(self, code):
        header = serve({"x": {"$buf": 0}}, buffers=[[code, [1]]])
        error = refused(handmade(header, bytes(16)))
        assert "whitelist" in str(error)

    @fuzz
    @given(
        shape=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4).filter(
            lambda shape: min(shape) < 0 or np.prod([float(d) for d in shape]) > 64
        ),
    )
    def test_negative_or_overflowing_shapes(self, shape):
        header = serve({"x": {"$buf": 0}}, buffers=[["<f8", shape]])
        refused(handmade(header, bytes(64 * 8)))

    @fuzz
    @given(message=corpus, extra=st.integers(-64, 64).filter(bool))
    def test_buffers_that_do_not_fill_the_frame(self, message, extra):
        frame = encode(message)
        if extra > 0:
            frame += bytes(extra)
        else:
            assume(-extra < len(frame))
            del frame[extra:]
        refused(frame, type(message))

    @fuzz
    @given(depth=st.integers(MAX_DEPTH - 1, 20_000))
    def test_deep_nesting(self, depth):
        text = '["envelope",["serve",{"x":' + "[" * depth + "]" * depth + "},1,null],[]]"
        refused(bytearray(struct.pack("<I", len(text)) + text.encode()))

    @pytest.mark.parametrize(
        "header",
        [
            [],
            {"type": "envelope", "fields": ["serve", {}, 1, None], "buffers": []},
            ["envelope", ["serve", {}, 1, None]],
            ["reply", [1, True, None, None, None], []],
            ["Envelope", ["serve", {}, 1, None], []],
            ["envelope", ["serve", [], 1, None], []],
            ["envelope", ["serve", {}, "1", None], []],
            ["envelope", ["serve", {}, True, None], []],
            ["envelope", ["serve", {}, 1.0, None], []],
            ["envelope", ["serve", {}, 1, 5], []],
            ["envelope", ["serve", {}, 1], []],
            ["envelope", [7, {}, 1, None], []],
            ["envelope", "serve", []],
            ["envelope", ["serve", {}, 1, None], {}],
            ["envelope", ["serve", {}, 1, None], [["<f8"]]],
            serve({"x": {"$buf": 0}}),
            serve({"x": {"$buf": -1}}),
            serve({"x": {"$buf": "0"}}),
            serve({"x": {"$buf": 0, "y": 1}}),
        ],
        ids=repr,
    )
    def test_a_header_of_the_wrong_shape(self, header):
        refused(handmade(header))

    def test_a_reply_frame_where_an_envelope_is_expected(self):
        refused(encode(Reply(seq=1, ok=True)), Envelope)
        refused(encode(Envelope(kind="serve")), Reply, None)

    def test_buffer_references_must_be_one_to_one(self):
        header = serve({"x": {"$buf": 0}, "y": {"$buf": 0}}, buffers=[["<i8", [1]]])
        refused(handmade(header, bytes(8)))
        header = serve({"x": {"$buf": 0}}, buffers=[["<i8", [1]], ["<i8", [1]]])
        refused(handmade(header, bytes(16)))
        header = serve({"x": {"$buf": 0}}, buffers=[["<i8", [1]]])
        assert decode(handmade(header, bytes(8)), Envelope).payload["x"].tolist() == [0]

    @fuzz
    @given(message=corpus, data=st.data())
    def test_a_flipped_byte_decodes_or_is_refused(self, message, data):
        """Corruption anywhere gives a message or ProtocolError — never
        another exception (a flip inside an array's bytes is still a
        well-formed frame)."""
        frame = encode(message)
        at = data.draw(st.integers(0, len(frame) - 1))
        frame[at] ^= data.draw(st.integers(1, 255))
        try:
            decode(frame, type(message), WIRE_KINDS)
        except ProtocolError:
            pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """``{kind: frame}`` of the files the package writes: a checkpoint and
    a store, written by their real writers from a tiny model."""
    root = tmp_path_factory.mktemp("files")
    acm = make_acm(seed=0, scale=0.2)
    model = WidenClassifier(seed=0, dim=4, num_wide=2, num_deep=2, num_deep_walks=1)
    model.fit(acm.graph, acm.split.train[:4], epochs=1)
    model.save(root / "checkpoint")
    build_store(model, acm.graph, root / "store", seed=0)
    return {kind: bytearray((root / kind).read_bytes()) for kind in ("checkpoint", "store")}


class TestFiles:
    def test_a_file_round_trips(self, files):
        for kind, frame in files.items():
            assert decode(frame, Record, (kind,)).kind == kind

    def test_a_file_truncated_at_every_byte_is_refused(self, files):
        for kind, frame in files.items():
            for cut in range(len(frame)):
                with pytest.raises(ProtocolError):
                    decode(frame[:cut], Record, (kind,))

    @fuzz
    @given(data=st.data())
    def test_a_flipped_byte_in_a_file_decodes_or_is_refused(self, files, data):
        kind = data.draw(st.sampled_from(sorted(files)))
        frame = bytearray(files[kind])
        at = data.draw(st.integers(0, len(frame) - 1))
        frame[at] ^= data.draw(st.integers(1, 255))
        try:
            decode(frame, Record, (kind,))
        except ProtocolError:
            pass

    def test_a_file_of_another_kind_is_refused(self, files):
        error = refused(files["store"], Record, ("checkpoint",))
        assert "expected a checkpoint file, got a 'store' file" in str(error)
        refused(files["checkpoint"], Envelope)


class TestLengthPrefix:
    @fuzz
    @given(size=st.integers(1 << 20, 2**64 - 1))
    def test_an_oversize_prefix_is_refused_before_allocating(self, size):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!Q", size) + b"x" * 32)
            tracemalloc.start()
            try:
                with pytest.raises(FrameTooLargeError) as excinfo:
                    recv_frame(right, max_frame_bytes=(1 << 20) - 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert isinstance(excinfo.value, ProtocolError)
            assert peak < 64 * 1024
        finally:
            left.close()
            right.close()

    @fuzz
    @given(message=corpus, data=st.data())
    def test_a_short_prefix_frames_a_truncated_message(self, message, data):
        """A prefix shorter than the frame hands the reader a cut frame,
        which the codec refuses."""
        frame = encode(message)
        size = data.draw(st.integers(0, len(frame) - 1))
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!Q", size) + bytes(frame[:size]))
            with pytest.raises(ProtocolError):
                recv_message(right, type(message), WIRE_KINDS)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# Large frames: read off a socket buffer by buffer
# ----------------------------------------------------------------------

BALLAST = np.arange(GATHER_MIN_BYTES // 8 + 3, dtype=np.int64)


def enlarged(message):
    """``message`` with a leaf that lifts its frame past ``GATHER_MIN_BYTES``."""
    if type(message) is Envelope:
        return Envelope(
            kind=message.kind, payload=dict(message.payload, ballast=BALLAST),
            seq=message.seq, trace_ctx=message.trace_ctx,
        )
    return Reply(
        seq=message.seq, ok=message.ok,
        payload={"inner": message.payload, "ballast": BALLAST},
        error=message.error, trace=message.trace,
    )


large_corpus = st.sampled_from([enlarged(message) for message in CORPUS])


def over_socket(wire: bytes, expect, traced: bool = False):
    """Write ``wire`` (length prefix included) into a socketpair from a
    thread, hang up, and read one message off the other end.  With
    ``traced``, returns ``(outcome, peak bytes allocated while reading)``,
    the outcome being the message or the exception the read raised."""
    left, right = socket.socketpair()

    def write():
        try:
            left.sendall(wire)
        except OSError:
            pass  # the reader refused the frame and hung up first
        finally:
            left.close()

    writer = threading.Thread(target=write)
    writer.start()
    try:
        if not traced:
            return recv_message(right, expect, WIRE_KINDS)
        tracemalloc.start()
        try:
            try:
                outcome = recv_message(right, expect, WIRE_KINDS)
            except Exception as exc:  # noqa: BLE001 - the outcome is the verdict
                outcome = exc
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return outcome, peak
    finally:
        right.close()
        writer.join(timeout=10)


def leaves(value):
    """Every array in a decoded tree."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item)


class TestLargeFrames:
    @fuzz
    @given(message=large_corpus)
    def test_a_large_frame_lands_in_arrays_of_its_own(self, message):
        """Each buffer of a large frame is read straight into its own
        array: nothing is a view of a frame buffer or of another leaf, so
        a receiver may keep any of them."""
        frame = encode(message)
        assert len(frame) >= GATHER_MIN_BYTES
        back = over_socket(struct.pack("!Q", len(frame)) + bytes(frame), type(message))
        for name in vars(message):
            assert_same(getattr(back, name), getattr(message, name))
        arrays = list(leaves([back.payload, getattr(back, "trace", None)]))
        assert arrays
        for index, array in enumerate(arrays):
            assert array.base is None and array.flags.writeable
            for other in arrays[index + 1:]:
                assert not np.shares_memory(array, other)

    @fuzz
    @given(message=large_corpus, data=st.data())
    def test_a_frame_cut_anywhere_resets(self, message, data):
        """The peer hangs up inside the frame — in the header or mid-buffer."""
        frame = encode(message)
        cut = data.draw(st.integers(0, len(frame) - 1))
        wire = struct.pack("!Q", len(frame)) + bytes(frame[:cut])
        outcome, peak = over_socket(wire, type(message), traced=True)
        assert isinstance(outcome, (ConnectionResetError, ProtocolError)), outcome
        assert peak <= len(frame) + 256 * 1024, peak

    @fuzz
    @given(message=large_corpus, data=st.data())
    def test_descriptors_longer_than_the_prefix(self, message, data):
        """A prefix shorter than the buffers its header describes is refused
        before a buffer is allocated."""
        frame = encode(message)
        size = data.draw(st.integers(GATHER_MIN_BYTES, len(frame) - 1))
        outcome, peak = over_socket(
            struct.pack("!Q", size) + bytes(frame), type(message), traced=True
        )
        assert isinstance(outcome, ProtocolError), outcome
        assert peak <= 256 * 1024, peak

    @fuzz
    @given(
        shape=st.lists(st.integers(0, 2**40), min_size=1, max_size=4).filter(
            lambda shape: np.prod([float(d) for d in shape]) > GATHER_MIN_BYTES
        ),
    )
    def test_a_huge_shape_inside_a_large_frame(self, shape):
        frame = handmade(
            serve({"x": {"$buf": 0}}, buffers=[["<f8", shape]]),
            bytes(GATHER_MIN_BYTES),
        )
        outcome, peak = over_socket(
            struct.pack("!Q", len(frame)) + bytes(frame), Envelope, traced=True
        )
        assert isinstance(outcome, ProtocolError), outcome
        assert peak <= 256 * 1024, peak

    @fuzz
    @given(message=large_corpus, data=st.data())
    def test_a_flipped_byte_decodes_or_is_refused(self, message, data):
        frame = encode(message)
        at = data.draw(st.integers(0, len(frame) - 1))
        frame[at] ^= data.draw(st.integers(1, 255))
        outcome, peak = over_socket(
            struct.pack("!Q", len(frame)) + bytes(frame), type(message), traced=True
        )
        assert isinstance(outcome, (type(message), ProtocolError)), outcome
        assert peak <= 2 * len(frame) + 256 * 1024, peak

    @fuzz
    @given(message=messages)
    def test_transfer_is_a_deep_copy_through_the_codec(self, message):
        back = transfer(message)
        for name in vars(message):
            assert_same(getattr(back, name), getattr(message, name))
        sent = list(leaves([message.payload]))
        for array in leaves([back.payload]):
            assert array.base is None
            assert not any(np.shares_memory(array, theirs) for theirs in sent)
