"""The wire: TCP framing, ``SocketTransport``, ``ShardWorkerServer``.

The same :class:`~repro.codec.Envelope` /
:class:`~repro.codec.Reply` frames the ``inline`` transport
replays in-process (:mod:`repro.codec`), framed over TCP so shard
engines live in their own processes, on this machine or another.  One
worker process per shard runs ``python -m repro shard-worker --listen
host:port``; the router connects a :class:`SocketTransport` per shard,
ships the engine's spawn arguments (shard payload + checkpoint *bytes* +
config — nothing assumes a shared filesystem) in a ``spawn`` envelope, and
from then on the wire carries only envelopes and replies.  Who spawns the workers, and what
happens when one dies, is :mod:`repro.cluster.fleet`'s business.

**Framing.**  One frame = an 8-byte big-endian length prefix + that many
codec bytes.  A frame under :data:`GATHER_MIN_BYTES` is written with one
``sendall``; a larger one (a spawn: shard payload, store slice and
checkpoint) by scatter-gather ``sendmsg`` straight from the arrays, never
copied into one buffer.  The read mirrors it: the prefix is read in one
loop and a frame above a fixed cap is rejected *before* anything is
allocated (a corrupt or hostile length prefix must not OOM the router);
a small frame is then filled into one buffer with ``recv_into``, a large
one read header first and then buffer by buffer into arrays of its own
(:func:`~repro.codec.read_message`), so a worker holds its spawn
payload once — as the arrays its engine adopts — never as a frame plus a
copy.  A clean close between frames raises :class:`ConnectionClosed`, a
cut inside one ``ConnectionResetError``.

**Hostile input.**  Nothing read off a socket is executed: a frame is
decoded against the message schema, and a worker accepts only the
envelope kinds in ``WIRE_KINDS``.  A frame a worker cannot decode ends
that session (the worker goes back to ``accept``); a reply the router
cannot decode marks the transport down with reason ``protocol_error``.

**Liveness.**  Heartbeats ride the existing ``clock`` envelope kind, sent
by the transport every ``heartbeat_interval`` and answered by the worker's
*receive* thread — out of band with the engine FIFO, so a shard deep in a
long compute still proves its process is alive.  A dead or hung worker
surfaces as a typed :class:`WorkerDown` (reason: ``connection_reset``,
``heartbeat_missed``, ``send_failed`` or ``protocol_error``) — never a
generic timeout — and every in-flight request on that transport fails
with an error reply instead of hanging its gather.  ``on_down`` is told
first: no caller sees a ``WorkerDown`` from this transport before that
callback has returned.
"""

from __future__ import annotations

import os
import queue
import socket
import struct
import threading
import time
from functools import partial
from typing import Callable, Collection, Dict, Optional, Tuple

from repro.codec import Message, decode, encode_parts, read_message
from repro.cluster.transport import (
    READY_SEQ,
    WIRE_KINDS,
    Envelope,
    PendingReply,
    ProtocolError,
    Reply,
    ShardError,
    ShardTimeoutError,
    Transport,
    WorkerDown,
    _safe_handle,
    error_info,
    reply_parts,
)

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameTooLargeError",
    "ConnectionClosed",
    "WorkerDown",
    "send_frame",
    "recv_frame",
    "send_message",
    "recv_message",
    "SocketTransport",
    "ShardWorkerServer",
]

#: 8-byte unsigned big-endian length prefix.
_HEADER = struct.Struct("!Q")

#: Default per-frame size cap (1 GiB).  A frame claiming more than this is
#: rejected before any allocation — protocol corruption must not OOM us.
DEFAULT_MAX_FRAME_BYTES = 1 << 30

#: Frames this large or larger go out by scatter-gather (``sendmsg``) and
#: are read buffer by buffer; smaller ones are joined and written in one
#: ``sendall`` and read in one ``recv_into``.  Read-path frames are a few
#: hundred bytes.
GATHER_MIN_BYTES = 1 << 16


def _iov_max() -> int:
    """Most buffers one ``sendmsg`` call may take (POSIX guarantees 16)."""
    try:
        return max(16, os.sysconf("SC_IOV_MAX"))
    except (AttributeError, ValueError, OSError):
        return 16


_IOV_MAX = _iov_max()

DEFAULT_HEARTBEAT_INTERVAL = 0.5
DEFAULT_HEARTBEAT_MISSES = 4


class FrameTooLargeError(ProtocolError):
    """A frame's length prefix exceeds the configured cap."""

    def __init__(self, size: int, limit: int) -> None:
        self.size = int(size)
        self.limit = int(limit)
        super().__init__(
            f"frame of {size} bytes exceeds max_frame_bytes={limit}"
        )


class ConnectionClosed(ConnectionError):
    """The peer closed the connection cleanly at a frame boundary."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def send_frame(
    sock: socket.socket,
    data: bytes,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Write one length-prefixed frame; the cap applies to sends too, so a
    payload the far side would reject fails loudly at the sender."""
    _send_parts(sock, [data], len(data), max_frame_bytes)


def _send_parts(
    sock: socket.socket,
    parts: list,
    size: int,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Write one frame whose ``size`` bytes are ``parts``, in order.

    A small frame is joined and written with one ``sendall``, one syscall;
    a large one goes out by scatter-gather straight from the parts (array
    memory included), so the frame is never copied into one buffer.
    """
    if size > max_frame_bytes:
        raise FrameTooLargeError(size, max_frame_bytes)
    prefix = _HEADER.pack(size)
    if size < GATHER_MIN_BYTES:
        sock.sendall(b"".join([prefix, *parts]))
        return
    views = [memoryview(prefix)]
    for part in parts:
        view = memoryview(part).cast("B")
        if view.nbytes:
            views.append(view)
    first = 0
    while first < len(views):
        sent = sock.sendmsg(views[first:first + _IOV_MAX])
        while first < len(views) and sent >= len(views[first]):
            sent -= len(views[first])
            first += 1
        if sent:
            views[first] = views[first][sent:]


def _recv_into(sock: socket.socket, view: memoryview) -> int:
    """Fill ``view``, looping over partial reads; returns how many bytes
    it holds, short only if the peer closed."""
    got = 0
    while got < len(view):
        count = sock.recv_into(view[got:])
        if not count:
            break
        got += count
    return got


def _recv_prefix(sock: socket.socket, max_frame_bytes: int) -> int:
    """The next frame's size, read off its length prefix and checked
    against the cap before anything is allocated for the body."""
    prefix = bytearray(_HEADER.size)
    got = _recv_into(sock, memoryview(prefix))
    if got == 0:
        raise ConnectionClosed("peer closed the connection")
    if got < _HEADER.size:
        raise ConnectionResetError(
            f"connection lost inside a length prefix ({got} of "
            f"{_HEADER.size} bytes received)"
        )
    (size,) = _HEADER.unpack(prefix)
    if size > max_frame_bytes:
        raise FrameTooLargeError(size, max_frame_bytes)
    return size


def _fill(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from inside a frame; a peer that closes first cut it."""
    got = _recv_into(sock, view)
    if got < len(view):
        raise ConnectionResetError(
            f"connection lost mid-frame ({got} of {len(view)} bytes received)"
        )


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytearray:
    """Read one frame into a fresh buffer.  EOF *between* frames raises
    :class:`ConnectionClosed` (a clean goodbye); EOF *inside* one raises
    ``ConnectionResetError``.  The length prefix is checked against the
    cap before the body is allocated."""
    frame = bytearray(_recv_prefix(sock, max_frame_bytes))
    _fill(sock, memoryview(frame))
    return frame


def _frame(message: Message) -> Tuple[list, int]:
    """``message`` encoded, refused here if it is over the frame cap."""
    parts, size = encode_parts(message)
    if size > DEFAULT_MAX_FRAME_BYTES:
        raise FrameTooLargeError(size, DEFAULT_MAX_FRAME_BYTES)
    return parts, size


def send_message(sock: socket.socket, message: Message) -> None:
    """Encode ``message`` and write it as one frame."""
    _send_parts(sock, *_frame(message))


def recv_message(
    sock: socket.socket,
    expect: type = Envelope,
    kinds: Optional[Collection[str]] = None,
) -> Message:
    """Read one frame and decode the ``expect`` message from it (a worker
    reads envelopes, a transport replies); a frame that does not decode
    raises :class:`~repro.codec.ProtocolError`.

    The read mirrors the send: a frame under :data:`GATHER_MIN_BYTES` is
    one ``recv_into`` and one :func:`~repro.codec.decode`; a
    larger one is read by :func:`~repro.codec.read_message`,
    buffer by buffer into arrays of their own, so no frame buffer is held
    beside them."""
    size = _recv_prefix(sock, DEFAULT_MAX_FRAME_BYTES)
    if size < GATHER_MIN_BYTES:
        frame = bytearray(size)
        _fill(sock, memoryview(frame))
        return decode(frame, expect, kinds)
    return read_message(partial(_fill, sock), size, expect, kinds)


# ----------------------------------------------------------------------
# Client side: SocketTransport
# ----------------------------------------------------------------------


class SocketTransport(Transport):
    """One shard engine behind a TCP connection.

    ``engine_args`` crosses the wire in the initial ``spawn`` envelope
    (shard payload + checkpoint bytes + config — see
    :func:`repro.cluster.engine.build_engine_from_args`), so the worker
    process needs nothing but the ``repro`` package: no shared filesystem,
    no pre-staged checkpoint.  Replies are matched to pendings by sequence
    number, so concurrent requests interleave freely on one connection.
    """

    def __init__(
        self,
        shard_id: int,
        address: Tuple[str, int],
        engine_args: Dict[str, object],
        *,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_misses: int = DEFAULT_HEARTBEAT_MISSES,
        connect_timeout: float = 10.0,
        on_down: Optional[Callable[[int, str, str], None]] = None,
        on_heartbeat: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        super().__init__(shard_id)
        self.address = (str(address[0]), int(address[1]))
        self._engine_args = engine_args
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        self._connect_timeout = float(connect_timeout)
        self._on_down = on_down
        self._on_heartbeat = on_heartbeat
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: Dict[int, PendingReply] = {}
        self._hb_sent: Dict[int, float] = {}  # seq -> perf_counter at send
        self._last_rx = 0.0
        self._down: Optional[WorkerDown] = None
        self._down_notified = threading.Event()  # on_down has returned
        # Set by stop() and by _mark_down; the heartbeat loop waits on it,
        # so neither waits out a heartbeat interval.
        self._stopping = threading.Event()
        self._ready = PendingReply(self, READY_SEQ, "ready")
        self._receiver: Optional[threading.Thread] = None
        self._heart: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SocketTransport":
        if self._sock is not None:
            raise RuntimeError(f"shard {self.shard_id} transport already started")
        deadline = time.perf_counter() + self._connect_timeout
        while True:
            try:
                self._sock = socket.create_connection(
                    self.address, timeout=self._connect_timeout
                )
                break
            except OSError as exc:
                if time.perf_counter() >= deadline:
                    raise WorkerDown(
                        self.shard_id,
                        "connect_failed",
                        f"{self.address[0]}:{self.address[1]}: {exc}",
                    ) from exc
                time.sleep(0.05)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._last_rx = time.perf_counter()
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"shard-{self.shard_id}-rx",
            daemon=True,
        )
        self._receiver.start()
        self._send_raw(
            Envelope(kind="spawn", payload={"engine_args": self._engine_args})
        )
        if self.heartbeat_interval > 0:
            self._heart = threading.Thread(
                target=self._heartbeat_loop,
                name=f"shard-{self.shard_id}-hb",
                daemon=True,
            )
            self._heart.start()
        return self

    def wait_ready(self, timeout: Optional[float] = None) -> None:
        self._ready.result(timeout)

    def stop(self, timeout: float = 10.0) -> None:
        self._stopping.set()
        if self._sock is None:
            return
        if self._down is None and self._ready.delivered:
            try:
                pending = self.send(Envelope(kind="shutdown"))
                pending.wait(timeout)
            except (WorkerDown, ShardError, ShardTimeoutError, OSError):
                pass
        self._close_socket()
        if self._receiver is not None:
            self._receiver.join(timeout)
        if self._heart is not None:
            self._heart.join(timeout)

    # -- send path -----------------------------------------------------

    def send(self, envelope: Envelope) -> PendingReply:
        if self._sock is None:
            raise RuntimeError(f"shard {self.shard_id} transport not started")
        with self._send_lock:
            envelope.seq = self._next_seq()
            pending = PendingReply(self, envelope.seq, envelope.kind)
            down = self._down
            if down is None:
                # A payload the codec refuses raises here, before anything
                # is registered or written.
                frame = _frame(envelope)
                with self._state_lock:
                    self._pending[envelope.seq] = pending
                try:
                    _send_parts(self._sock, *frame)
                except OSError as exc:
                    self._mark_down("send_failed", str(exc))
        # A down transport answers every request with a WorkerDown error
        # reply — gathers see a typed failure, never a hang — but only once
        # on_down has returned: the caller goes straight to recovery, and
        # the supervisor must already have heard.
        if down is not None:
            self._down_notified.wait()
            pending.deliver(self._down_reply(envelope.seq, down))
        return pending

    def _send_raw(self, envelope: Envelope) -> None:
        """Send without registering a pending (spawn handshake only)."""
        with self._send_lock:
            envelope.seq = READY_SEQ
            try:
                send_message(self._sock, envelope)
            except OSError as exc:
                self._mark_down("send_failed", str(exc))

    # -- receive + liveness --------------------------------------------

    def _receive_loop(self) -> None:
        while True:
            try:
                reply = recv_message(self._sock, Reply)
            except ProtocolError as exc:
                # Nothing after an undecodable reply can be trusted either.
                self._mark_down("protocol_error", str(exc))
                return
            except (ConnectionError, OSError) as exc:
                if not self._stopping.is_set():
                    self._mark_down("connection_reset", str(exc))
                return
            self._last_rx = time.perf_counter()
            if reply.seq == READY_SEQ:
                self._ready.deliver(reply)
                continue
            with self._state_lock:
                sent_at = self._hb_sent.pop(reply.seq, None)
                pending = self._pending.pop(reply.seq, None)
            if sent_at is not None:
                if self._on_heartbeat is not None:
                    self._on_heartbeat(
                        self.shard_id, time.perf_counter() - sent_at
                    )
                continue
            if pending is not None:
                pending.deliver(reply)

    def _heartbeat_loop(self) -> None:
        # No heartbeats before the spawn handshake completes: engine
        # construction (checkpoint load + graph rebuild) is legitimate
        # silence, not a hang.
        self._ready.wait()
        while not self._stopping.wait(self.heartbeat_interval):
            with self._state_lock:
                outstanding = bool(self._hb_sent)
            silence = time.perf_counter() - self._last_rx
            if outstanding and silence > self.heartbeat_interval * self.heartbeat_misses:
                self._mark_down(
                    "heartbeat_missed",
                    f"no frames for {silence:.2f}s "
                    f"({self.heartbeat_misses} heartbeats unanswered)",
                )
                return
            with self._send_lock:
                if self._stopping.is_set():
                    return
                seq = self._next_seq()
                with self._state_lock:
                    self._hb_sent[seq] = time.perf_counter()
                try:
                    send_message(
                        self._sock,
                        Envelope(kind="clock", payload={"heartbeat": True}, seq=seq),
                    )
                except OSError as exc:
                    self._mark_down("send_failed", str(exc))
                    return

    # -- failure -------------------------------------------------------

    @property
    def is_down(self) -> bool:
        return self._down is not None

    @property
    def down_exception(self) -> Optional[WorkerDown]:
        return self._down

    def _down_reply(self, seq: int, down: WorkerDown) -> Reply:
        return Reply(
            seq=seq,
            ok=False,
            error={
                "type": "WorkerDown",
                "reason": down.reason,
                "message": down.detail or str(down),
                "traceback": "",
            },
        )

    def _mark_down(self, reason: str, detail: str = "") -> None:
        with self._state_lock:
            if self._down is not None:
                return
            stop_requested = self._stopping.is_set()
            self._stopping.set()
            down = WorkerDown(self.shard_id, reason, detail)
            self._down = down
            pendings = list(self._pending.values())
            self._pending.clear()
            self._hb_sent.clear()
        self._close_socket()
        # Notify, then release: a caller woken by its WorkerDown reply goes
        # straight to the supervisor, which must already have heard.
        try:
            if self._on_down is not None and not stop_requested:
                self._on_down(self.shard_id, reason, detail)
        finally:
            for pending in pendings:
                pending.deliver(self._down_reply(pending._seq, down))
            if not self._ready.delivered:
                self._ready.deliver(self._down_reply(READY_SEQ, down))
            self._down_notified.set()

    def _close_socket(self) -> None:
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Server side: the shard-worker process
# ----------------------------------------------------------------------


class ShardWorkerServer:
    """Accept loop of ``python -m repro shard-worker --listen host:port``.

    One router connection = one *session*: a ``spawn`` envelope (engine
    arguments), a ready reply, then the envelope stream.  Two threads per
    session keep liveness honest: the receive thread answers ``clock``
    envelopes (heartbeats and clock-handshake probes) immediately, while
    every other envelope goes through a FIFO queue to the engine thread —
    the mutation-barrier ordering contract is untouched, but a worker deep
    in a long serve still answers heartbeats, so only a genuinely dead or
    hung *process* trips the detector.

    A dropped connection ends the session (and discards the engine — the
    router respawn path ships fresh state) and returns to ``accept``; a
    ``shutdown`` envelope ends the process.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        announce: bool = True,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.announce = announce
        self._listener: Optional[socket.socket] = None
        self._bound = threading.Event()

    def bind(self) -> Tuple[str, int]:
        """Bind the listener (port 0 picks a free port) and report it."""
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(8)
            self._listener = listener
            self.host, self.port = listener.getsockname()[:2]
            self._bound.set()
            if self.announce:
                # The spawner parses this line to learn the bound port.
                print(f"LISTENING {self.host} {self.port}", flush=True)
        return self.host, self.port

    def serve_forever(self) -> int:
        self.bind()
        try:
            while True:
                listener = self._listener
                if listener is None:
                    return 0  # closed between two sessions
                conn, _ = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    reason = self._serve_session(conn)
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
                if reason == "shutdown":
                    return 0
        finally:
            self.close()

    def close(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    # -- one session ---------------------------------------------------

    def _serve_session(self, conn: socket.socket) -> str:
        from repro.cluster.engine import build_engine_from_args

        send_lock = threading.Lock()

        def reply_out(reply: Reply) -> None:
            frame = reply_parts(reply, DEFAULT_MAX_FRAME_BYTES)
            with send_lock:
                try:
                    _send_parts(conn, *frame)
                except OSError:
                    pass  # the router is gone; the session is ending anyway

        try:
            spawn = recv_message(conn, Envelope, WIRE_KINDS)
        except (ConnectionError, OSError, ProtocolError):
            return "reset"
        if spawn.kind != "spawn":
            reply_out(
                Reply(
                    seq=READY_SEQ,
                    ok=False,
                    error=error_info(
                        ValueError("session must open with a spawn envelope")
                    ),
                )
            )
            return "reset"
        try:
            engine = build_engine_from_args(spawn.payload["engine_args"])
        except BaseException as exc:
            reply_out(Reply(seq=READY_SEQ, ok=False, error=error_info(exc)))
            return "reset"
        # The engine adopted the arrays it keeps; drop the rest of the
        # spawn message (the checkpoint bytes) before the session starts.
        del spawn
        reply_out(Reply(seq=READY_SEQ, ok=True, payload={"pid": os.getpid()}))

        inbox: "queue.Queue" = queue.Queue()
        outcome = {"reason": "reset"}

        def engine_loop() -> None:
            while True:
                envelope = inbox.get()
                if envelope is None:
                    return
                reply_out(_safe_handle(engine, envelope))
                if envelope.kind == "shutdown":
                    outcome["reason"] = "shutdown"
                    return

        worker = threading.Thread(target=engine_loop, daemon=True)
        worker.start()
        try:
            while True:
                try:
                    envelope = recv_message(conn, Envelope, WIRE_KINDS)
                except (ConnectionError, OSError, ProtocolError):
                    # A frame that does not decode ends the session: the
                    # stream past it cannot be trusted to be aligned.
                    break
                if envelope.kind == "clock":
                    # Out-of-band liveness: answered here, not behind the
                    # engine FIFO, so long computes don't read as hangs.
                    reply_out(_safe_handle(engine, envelope))
                    continue
                inbox.put(envelope)
                if envelope.kind == "shutdown":
                    break
        finally:
            inbox.put(None)
            worker.join(timeout=60.0)
        return outcome["reason"]

    # -- in-process convenience (tests) --------------------------------

    def start_background(self) -> Tuple[str, int]:
        """Run the accept loop on a daemon thread; returns the address.

        For tests that want a loopback fleet without subprocess startup
        cost.  The thread dies with the process; ``close()`` stops new
        sessions.
        """
        self.bind()
        thread = threading.Thread(
            target=self._serve_quietly, name="shard-worker", daemon=True
        )
        thread.start()
        return self.host, self.port

    def _serve_quietly(self) -> None:
        try:
            self.serve_forever()
        except OSError:
            pass  # listener closed under us
