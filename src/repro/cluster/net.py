"""TCP socket transport + fleet fault tolerance (``repro.cluster.net``).

The last transport tier: the same :class:`~repro.cluster.transport.Envelope`
/ :class:`~repro.cluster.transport.Reply` pickle protocol the ``inline``/
``thread``/``mp`` transports speak, framed over TCP so shard engines can
live on other machines.  One worker process per shard runs
``python -m repro shard-worker --listen host:port``; the router connects a
:class:`SocketTransport` per shard, ships the engine's spawn arguments
(shard payload + checkpoint *bytes* + config — nothing assumes a shared
filesystem) in a ``spawn`` envelope, and from then on the wire carries only
envelopes and replies.

**Framing.**  One frame = an 8-byte big-endian length prefix + that many
pickle bytes.  :func:`recv_frame` loops over partial reads (TCP has no
message boundaries), rejects frames above a configurable cap *before*
allocating (a corrupt or hostile length prefix must not OOM the router),
and distinguishes a clean close between frames (:class:`ConnectionClosed`)
from a mid-frame cut (``ConnectionResetError``).

**Liveness.**  Heartbeats ride the existing ``clock`` envelope kind, sent
by the transport every ``heartbeat_interval`` and answered by the worker's
*receive* thread — out of band with the engine FIFO, so a shard deep in a
long compute still proves its process is alive.  A dead or hung worker
surfaces as a typed :class:`WorkerDown` (reason: ``connection_reset``,
``heartbeat_missed``, or ``send_failed``) — never a generic timeout — and
every in-flight request on that transport fails with an error reply
instead of hanging its gather.

**Recovery.**  The :class:`FleetSupervisor` owns what the router needs to
bring a dead shard back *bit-identically*: a per-shard baseline (shard
payload + exported serving state + the global graph version it reflects)
and the router's bounded :class:`MutationLog`.  ``recover()`` respawns the
worker (or reconnects to a static address), rebuilds the engine from the
baseline, replays the logged mutation commands past the baseline version,
verifies the engine's graph version against the router-side mirror, and
only then readmits the shard to scatter-gather.  Serving answers are
seeded by ``(seed, node)`` — a function of the current graph — so once the
replayed command stream has rebuilt the shard graph, a recovered fleet's
answers match a never-killed single server bit for bit.  The serving state
in the baseline (write clock + touched stamps) is what tells the respawned
engine which rows of its base store slice the writes before the baseline
had already undercut.

**The log horizon.**  The log is bounded.  Before an entry carrying a
shard's command is evicted, the supervisor refreshes that shard's baseline
from the *live* worker (one cheap ``serving_state`` pull), so replay stays
possible indefinitely for healthy shards.  A shard that is already down
when the horizon passes its baseline cannot be caught up exactly; recovery
then refuses to serve stale state and instead rebuilds the shard from the
checkpoint + the *current* mirror plan ("replan"), loudly: a warning, a
``fleet_rebuilds_total`` counter, and ``mode="replan"`` on the recovery
record.  Replanned answers are exact — the current graph *is* the answer
— but the shard comes back cold: its base store slice predates writes it
has no record of, so every row of it is stale until re-materialized.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.transport import (
    READY_SEQ,
    Envelope,
    PendingReply,
    Reply,
    ShardError,
    ShardTimeoutError,
    Transport,
    error_info,
)

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameTooLargeError",
    "ConnectionClosed",
    "WorkerDown",
    "WorkerDownEvent",
    "send_frame",
    "recv_frame",
    "send_message",
    "recv_message",
    "SocketTransport",
    "ShardWorkerServer",
    "WorkerHandle",
    "LocalWorkerSpawner",
    "ShardRegistry",
    "MutationLog",
    "MutationLogHorizonError",
    "RecoveryRecord",
    "FleetSupervisor",
]

#: 8-byte unsigned big-endian length prefix.
_HEADER = struct.Struct("!Q")

#: Default per-frame size cap (1 GiB).  A frame claiming more than this is
#: rejected before any allocation — protocol corruption must not OOM us.
DEFAULT_MAX_FRAME_BYTES = 1 << 30

DEFAULT_HEARTBEAT_INTERVAL = 0.5
DEFAULT_HEARTBEAT_MISSES = 4


class FrameTooLargeError(ValueError):
    """A frame's length prefix exceeds the configured cap."""

    def __init__(self, size: int, limit: int) -> None:
        self.size = int(size)
        self.limit = int(limit)
        super().__init__(
            f"frame of {size} bytes exceeds max_frame_bytes={limit}"
        )


class ConnectionClosed(ConnectionError):
    """The peer closed the connection cleanly at a frame boundary."""


class WorkerDown(RuntimeError):
    """A shard worker is unreachable: dead process, cut wire, or hung.

    This is the *typed* failure the supervisor reacts to — it carries the
    shard and a reason (``connection_reset`` / ``heartbeat_missed`` /
    ``send_failed``), never masquerading as a generic timeout.
    """

    def __init__(self, shard_id: int, reason: str, detail: str = "") -> None:
        self.shard_id = int(shard_id)
        self.reason = str(reason)
        self.detail = str(detail)
        message = f"shard {shard_id} worker down ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    @classmethod
    def from_error(cls, shard_id: int, error: Dict[str, str]) -> "WorkerDown":
        return cls(
            shard_id,
            error.get("reason", "unknown"),
            error.get("message", ""),
        )


@dataclass
class WorkerDownEvent:
    """One observed worker failure (for `slo_report()` and dashboards)."""

    shard_id: int
    reason: str
    detail: str
    mono: float  # perf_counter at detection (recovery math)
    wall: float  # time.time at detection (humans)

    def to_record(self) -> Dict[str, object]:
        return {
            "shard": self.shard_id,
            "reason": self.reason,
            "detail": self.detail,
            "wall_time": self.wall,
        }


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
    if len(data) > max_frame_bytes:
        raise FrameTooLargeError(len(data), max_frame_bytes)
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes, looping over partial reads."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionResetError(
                f"connection lost mid-frame ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """Read one frame.  EOF *between* frames raises :class:`ConnectionClosed`
    (a clean goodbye); EOF *inside* one raises ``ConnectionResetError``."""
    first = sock.recv(1)
    if not first:
        raise ConnectionClosed("peer closed the connection")
    header = first + _recv_exact(sock, _HEADER.size - 1)
    (size,) = _HEADER.unpack(header)
    if size > max_frame_bytes:
        raise FrameTooLargeError(size, max_frame_bytes)
    return _recv_exact(sock, size)


def send_message(
    sock: socket.socket,
    message: object,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    send_frame(sock, pickle.dumps(message), max_frame_bytes)


def recv_message(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> object:
    return pickle.loads(recv_frame(sock, max_frame_bytes))


# ----------------------------------------------------------------------
# Client side: SocketTransport
# ----------------------------------------------------------------------


class _SocketPendingReply(PendingReply):
    """Future delivered by the transport's receiver thread.

    A transport that goes down fails every pending with a ``WorkerDown``
    error reply, so waiting callers get an error *reply*, not a hang; and
    a timeout on a down transport raises :class:`WorkerDown`, never a
    generic :class:`ShardTimeoutError`.
    """

    def __init__(self, transport: "SocketTransport", seq: int, kind: str) -> None:
        super().__init__(transport.shard_id, kind)
        self._transport = transport
        self._seq = seq
        self._event = threading.Event()
        self._reply: Optional[Reply] = None

    def deliver(self, reply: Reply) -> None:
        self._reply = reply
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> Reply:
        if not self._event.wait(timeout):
            down = self._transport.down_exception
            if down is not None:
                raise down
            raise ShardTimeoutError(self.shard_id, timeout or 0.0, self.kind)
        return self._reply

    def result(self, timeout: Optional[float] = None) -> object:
        reply = self.wait(timeout)
        if not reply.ok:
            error = reply.error or {}
            if error.get("type") == "WorkerDown":
                raise WorkerDown.from_error(self.shard_id, error)
            raise ShardError(self.shard_id, error)
        return reply.payload


class SocketTransport(Transport):
    """One shard engine behind a TCP connection.

    ``engine_args`` crosses the wire in the initial ``spawn`` envelope
    (shard payload + checkpoint bytes + config — see
    :meth:`repro.cluster.engine.ShardEngine.from_args`), so the worker
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
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_misses: int = DEFAULT_HEARTBEAT_MISSES,
        connect_timeout: float = 10.0,
        on_down: Optional[Callable[[int, str, str], None]] = None,
        on_heartbeat: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        super().__init__(shard_id)
        self.address = (str(address[0]), int(address[1]))
        self._engine_args = engine_args
        self.max_frame_bytes = int(max_frame_bytes)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        self._connect_timeout = float(connect_timeout)
        self._on_down = on_down
        self._on_heartbeat = on_heartbeat
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: Dict[int, _SocketPendingReply] = {}
        self._hb_sent: Dict[int, float] = {}  # seq -> perf_counter at send
        self._last_rx = 0.0
        self._down: Optional[WorkerDown] = None
        self._stopping = False
        self._ready_event = threading.Event()
        self._ready_reply: Optional[Reply] = None
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
        if not self._ready_event.wait(timeout):
            if self._down is not None:
                raise self._down
            raise ShardTimeoutError(self.shard_id, timeout or 0.0, "ready")
        reply = self._ready_reply
        if reply is None or not reply.ok:
            error = (reply.error if reply is not None else None) or {}
            if error.get("type") == "WorkerDown":
                raise WorkerDown.from_error(self.shard_id, error)
            raise ShardError(self.shard_id, error)

    def stop(self, timeout: float = 10.0) -> None:
        self._stopping = True
        if self._sock is None:
            return
        if self._down is None and self._ready_event.is_set():
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
            pending = _SocketPendingReply(self, envelope.seq, envelope.kind)
            down = self._down
            if down is None:
                with self._state_lock:
                    self._pending[envelope.seq] = pending
                try:
                    send_message(self._sock, envelope, self.max_frame_bytes)
                except OSError as exc:
                    self._mark_down("send_failed", str(exc))
        # A down transport answers every request with a WorkerDown error
        # reply immediately — gathers see a typed failure, never a hang.
        if down is not None:
            pending.deliver(self._down_reply(envelope.seq, down))
        return pending

    def _send_raw(self, envelope: Envelope) -> None:
        """Send without registering a pending (spawn handshake only)."""
        with self._send_lock:
            envelope.seq = READY_SEQ
            try:
                send_message(self._sock, envelope, self.max_frame_bytes)
            except OSError as exc:
                self._mark_down("send_failed", str(exc))

    # -- receive + liveness --------------------------------------------

    def _receive_loop(self) -> None:
        while True:
            try:
                reply = recv_message(self._sock, self.max_frame_bytes)
            except (ConnectionClosed, ConnectionError, OSError, EOFError) as exc:
                if not self._stopping:
                    self._mark_down("connection_reset", str(exc))
                return
            self._last_rx = time.perf_counter()
            if reply.seq == READY_SEQ:
                self._ready_reply = reply
                self._ready_event.set()
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
        self._ready_event.wait()
        while not self._stopping and self._down is None:
            time.sleep(self.heartbeat_interval)
            if self._stopping or self._down is not None:
                return
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
                if self._down is not None or self._stopping:
                    return
                seq = self._next_seq()
                with self._state_lock:
                    self._hb_sent[seq] = time.perf_counter()
                try:
                    send_message(
                        self._sock,
                        Envelope(kind="clock", payload={"heartbeat": True}, seq=seq),
                        self.max_frame_bytes,
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
            down = WorkerDown(self.shard_id, reason, detail)
            self._down = down
            pendings = list(self._pending.values())
            self._pending.clear()
            self._hb_sent.clear()
        self._close_socket()
        # Notify, then release: a caller woken by its WorkerDown reply goes
        # straight to the supervisor, which must already have heard.
        try:
            if self._on_down is not None and not self._stopping:
                self._on_down(self.shard_id, reason, detail)
        finally:
            for pending in pendings:
                pending.deliver(self._down_reply(pending._seq, down))
            if not self._ready_event.is_set():
                self._ready_reply = self._down_reply(READY_SEQ, down)
                self._ready_event.set()

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
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        announce: bool = True,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.max_frame_bytes = int(max_frame_bytes)
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
                conn, _ = self._listener.accept()
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
        from repro.cluster.transport import _safe_handle

        send_lock = threading.Lock()

        def reply_out(reply: Reply) -> None:
            with send_lock:
                try:
                    send_message(conn, reply, self.max_frame_bytes)
                except OSError:
                    pass  # the router is gone; the session is ending anyway

        try:
            spawn = recv_message(conn, self.max_frame_bytes)
        except (ConnectionError, OSError, EOFError):
            return "reset"
        if not isinstance(spawn, Envelope) or spawn.kind != "spawn":
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
                    envelope = recv_message(conn, self.max_frame_bytes)
                except (ConnectionError, OSError, EOFError):
                    break
                if not isinstance(envelope, Envelope):
                    continue
                if envelope.kind == "clock":
                    # Out-of-band liveness: answered here, not behind the
                    # engine FIFO, so long computes don't read as hangs.
                    reply_out(
                        Reply(
                            seq=envelope.seq,
                            ok=True,
                            payload={
                                "mono": time.perf_counter(),
                                "wall": time.time(),
                                "pid": os.getpid(),
                            },
                        )
                    )
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


# ----------------------------------------------------------------------
# Fleet membership: handles, spawner, registry
# ----------------------------------------------------------------------


@dataclass
class WorkerHandle:
    """Where one shard's worker lives, plus its process when we own it."""

    shard_id: int
    host: str
    port: int
    process: Optional[subprocess.Popen] = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid


class LocalWorkerSpawner:
    """Launches loopback shard-worker subprocesses (benchmarks, CI, tests).

    The child binds port 0 and announces ``LISTENING host port`` on stdout;
    we parse that, so no port coordination is needed.  ``PYTHONPATH`` is
    prepended with this package's parent directory so the child resolves
    ``repro`` the same way the parent did.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        python: Optional[str] = None,
        startup_timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.python = python or sys.executable
        self.startup_timeout = float(startup_timeout)

    def spawn(self, shard_id: int) -> WorkerHandle:
        import repro

        env = dict(os.environ)
        package_parent = str(os.path.dirname(os.path.dirname(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_parent + (os.pathsep + existing if existing else "")
        )
        process = subprocess.Popen(
            [
                self.python,
                "-m",
                "repro",
                "shard-worker",
                "--listen",
                f"{self.host}:0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        deadline = time.perf_counter() + self.startup_timeout
        while True:
            line = process.stdout.readline()
            if not line:
                raise WorkerDown(
                    shard_id,
                    "spawn_failed",
                    f"worker exited during startup (rc={process.poll()})",
                )
            if line.startswith("LISTENING "):
                _, host, port = line.split()
                return WorkerHandle(shard_id, host, int(port), process)
            if time.perf_counter() > deadline:
                process.kill()
                raise WorkerDown(
                    shard_id, "spawn_failed", "no LISTENING line before timeout"
                )


class ShardRegistry:
    """shard id → :class:`WorkerHandle`, plus respawn policy.

    With a spawner, ``respawn`` relaunches a fresh subprocess (killing any
    corpse first).  With static addresses (remote machines we don't manage),
    ``respawn`` returns the same address — an external supervisor restarts
    the process there, and we reconnect with a fresh spawn envelope.
    """

    def __init__(self, spawner: Optional[LocalWorkerSpawner] = None) -> None:
        self.spawner = spawner
        self._handles: Dict[int, WorkerHandle] = {}

    @classmethod
    def from_addresses(cls, addresses: List[str]) -> "ShardRegistry":
        """Static fleet: one ``host:port`` string per shard, in shard order."""
        registry = cls(spawner=None)
        for shard_id, address in enumerate(addresses):
            host, _, port = str(address).rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(
                    f"worker address {address!r} is not host:port"
                )
            registry.register(WorkerHandle(shard_id, host, int(port)))
        return registry

    def register(self, handle: WorkerHandle) -> WorkerHandle:
        self._handles[handle.shard_id] = handle
        return handle

    def handle(self, shard_id: int) -> WorkerHandle:
        return self._handles[shard_id]

    def address(self, shard_id: int) -> Tuple[str, int]:
        return self._handles[shard_id].address

    def shard_ids(self) -> List[int]:
        return sorted(self._handles)

    def spawn(self, shard_id: int) -> WorkerHandle:
        if self.spawner is None:
            raise RuntimeError(
                "registry has no spawner; register static addresses instead"
            )
        return self.register(self.spawner.spawn(shard_id))

    def respawn(self, shard_id: int) -> WorkerHandle:
        handle = self._handles[shard_id]
        if self.spawner is None:
            return handle  # static fleet: reconnect to the same address
        self._reap(handle)
        return self.register(self.spawner.spawn(shard_id))

    def kill(self, shard_id: int) -> None:
        """SIGKILL the shard's process (fault injection in tests/benches)."""
        handle = self._handles[shard_id]
        if handle.process is not None:
            handle.process.kill()
            handle.process.wait(timeout=30)

    def close(self) -> None:
        for handle in self._handles.values():
            self._reap(handle)

    @staticmethod
    def _reap(handle: WorkerHandle) -> None:
        process = handle.process
        if process is None:
            return
        if process.poll() is None:
            process.kill()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        if process.stdout is not None:
            process.stdout.close()


# ----------------------------------------------------------------------
# MutationLog
# ----------------------------------------------------------------------


@dataclass
class LogEntry:
    """One global mutation: its post-mutation graph version and the
    per-shard commands it fanned out (shards absent from ``commands``
    were provably unaffected)."""

    version: int
    kind: str
    commands: Dict[int, object]


class MutationLogHorizonError(RuntimeError):
    """A shard's baseline predates commands the bounded log has evicted."""

    def __init__(self, shard_id: int, baseline_version: int, horizon: int) -> None:
        self.shard_id = int(shard_id)
        self.baseline_version = int(baseline_version)
        self.horizon = int(horizon)
        super().__init__(
            f"shard {shard_id} baseline at graph version {baseline_version} "
            f"is behind the mutation log horizon (evicted through version "
            f"{horizon}); exact catch-up is impossible"
        )


class MutationLog:
    """Bounded record of fanned-out mutation commands, for catch-up replay.

    The commands are deltas (an arrival's rows, the edges and feature rows
    an ``add_edges`` left a shard missing), so an entry weighs what the
    write did, not what the shard holds, and replaying them in order onto
    a baseline rebuilds the shard exactly.  Entries are keyed by the
    *global* graph version after the mutation
    (one mutation = one version bump, so versions are consecutive).  When
    capacity evicts an entry, the per-shard horizon advances: a shard whose
    baseline predates its horizon can no longer be replayed exactly —
    :meth:`commands_since` refuses loudly instead of silently under-replaying.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: List[LogEntry] = []
        self._horizon: Dict[int, int] = {}  # shard -> last evicted version

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[LogEntry]:
        return list(self._entries)

    def next_eviction(self) -> Optional[LogEntry]:
        """The entry the next append will evict, if the log is full."""
        if len(self._entries) >= self.capacity:
            return self._entries[0]
        return None

    def append(self, version: int, kind: str, commands: Dict[int, object]) -> None:
        self._entries.append(LogEntry(int(version), str(kind), dict(commands)))
        while len(self._entries) > self.capacity:
            evicted = self._entries.pop(0)
            for shard_id in evicted.commands:
                self._horizon[shard_id] = max(
                    self._horizon.get(shard_id, -1), evicted.version
                )

    def horizon(self, shard_id: int) -> int:
        """Highest evicted version carrying a command for ``shard_id``
        (-1 when nothing relevant was ever evicted)."""
        return self._horizon.get(int(shard_id), -1)

    def commands_since(
        self, shard_id: int, baseline_version: int
    ) -> List[Tuple[int, str, object]]:
        """The shard's commands from entries past ``baseline_version``.

        Raises :class:`MutationLogHorizonError` if an *evicted* entry past
        the baseline carried a command for this shard — replaying the
        survivors would silently skip mutations.
        """
        shard_id = int(shard_id)
        baseline_version = int(baseline_version)
        horizon = self.horizon(shard_id)
        if horizon > baseline_version:
            raise MutationLogHorizonError(shard_id, baseline_version, horizon)
        return [
            (entry.version, entry.kind, entry.commands[shard_id])
            for entry in self._entries
            if entry.version > baseline_version and shard_id in entry.commands
        ]


# ----------------------------------------------------------------------
# FleetSupervisor
# ----------------------------------------------------------------------


@dataclass
class RecoveryRecord:
    """One completed recovery, with the detect/respawn/replay breakdown."""

    shard_id: int
    reason: str
    mode: str  # "replay" (exact catch-up) or "replan" (horizon rebuild)
    detect_s: float
    respawn_s: float
    replay_s: float
    total_s: float
    replayed_commands: int
    baseline_version: int
    target_version: int

    def to_record(self) -> Dict[str, object]:
        return {
            "shard": self.shard_id,
            "reason": self.reason,
            "mode": self.mode,
            "detect_s": self.detect_s,
            "respawn_s": self.respawn_s,
            "replay_s": self.replay_s,
            "total_s": self.total_s,
            "replayed_commands": self.replayed_commands,
            "baseline_version": self.baseline_version,
            "target_version": self.target_version,
        }


class _ShardBaseline:
    """The rebuild point for one shard: payload + serving state + version."""

    __slots__ = ("payload", "serving_state", "version")

    def __init__(
        self,
        payload: Dict[str, object],
        serving_state: Optional[Dict[str, object]],
        version: int,
    ) -> None:
        self.payload = payload
        self.serving_state = serving_state
        self.version = int(version)


class FleetSupervisor:
    """Failure detection + exact recovery for a socket fleet.

    Owns, per shard: the rebuild baseline (payload + serving state +
    global version), and the fleet metrics (connection gauges, down/
    reconnect/rebuild counters, heartbeat-age histogram) written into the
    router's registry so fleet health rides the same ``/metrics``
    exposition as latency.  The router calls :meth:`before_mutation` /
    :meth:`record_mutation` around every fan-out and :meth:`recover` when
    a gather surfaces :class:`WorkerDown`.
    """

    def __init__(
        self,
        router,
        registry: ShardRegistry,
        log: MutationLog,
        *,
        checkpoint_bytes: bytes,
        shard_configs: Dict[int, Dict[str, object]],
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_misses: int = DEFAULT_HEARTBEAT_MISSES,
        start_timeout: float = 120.0,
    ) -> None:
        self.router = router
        self.registry = registry
        self.log = log
        self.checkpoint_bytes = checkpoint_bytes
        self.shard_configs = shard_configs
        self.max_frame_bytes = int(max_frame_bytes)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        self.start_timeout = float(start_timeout)
        self.events: List[WorkerDownEvent] = []
        self.recoveries: List[RecoveryRecord] = []
        self._baselines: Dict[int, _ShardBaseline] = {}
        self._locks: Dict[int, threading.Lock] = {}
        self._metrics = router.registry

    # -- baselines -----------------------------------------------------

    def set_baseline(
        self,
        shard_id: int,
        payload: Dict[str, object],
        serving_state: Optional[Dict[str, object]],
        version: int,
    ) -> None:
        self._baselines[int(shard_id)] = _ShardBaseline(
            payload, serving_state, version
        )
        self._locks.setdefault(int(shard_id), threading.Lock())

    def baseline_version(self, shard_id: int) -> int:
        return self._baselines[int(shard_id)].version

    # -- detection plumbing (SocketTransport callbacks) ----------------

    def note_worker_down(self, shard_id: int, reason: str, detail: str) -> None:
        self.events.append(
            WorkerDownEvent(
                shard_id=int(shard_id),
                reason=reason,
                detail=detail,
                mono=time.perf_counter(),
                wall=time.time(),
            )
        )
        self._metrics.counter(
            "fleet_worker_down_total", shard=str(shard_id), reason=reason
        ).inc()
        self._metrics.gauge(
            "fleet_worker_connected", shard=str(shard_id)
        ).set(0)

    def observe_heartbeat(self, shard_id: int, age: float) -> None:
        self._metrics.histogram(
            "fleet_heartbeat_age_seconds", shard=str(shard_id)
        ).observe(age)

    def transport_callbacks(self) -> Dict[str, Callable]:
        return {
            "on_down": self.note_worker_down,
            "on_heartbeat": self.observe_heartbeat,
        }

    # -- mutation bookkeeping ------------------------------------------

    def before_mutation(self) -> None:
        """Re-baseline shards the next log eviction would strand.

        Called after the global graph mutated but *before* the plan builds
        commands (so the mirror specs and the live workers agree on the
        pre-mutation state).  One cheap ``serving_state`` pull per
        endangered shard keeps exact replay possible for healthy workers
        no matter how long the stream runs; a shard that is down right now
        is skipped — its recovery will hit the horizon and take the loud
        replan path instead.
        """
        entry = self.log.next_eviction()
        if entry is None:
            return
        for shard_id in entry.commands:
            baseline = self._baselines.get(shard_id)
            if baseline is None or baseline.version >= entry.version:
                continue
            try:
                # The global graph already mutated (version bumped) but the
                # command has not fanned out: workers and mirrors both sit
                # at version - 1, which is what the snapshot reflects.
                self.refresh_baseline(
                    shard_id, version=self.router.graph.version - 1
                )
            except (WorkerDown, ShardError, ShardTimeoutError):
                continue  # down worker: replan path owns this case

    def refresh_baseline(
        self, shard_id: int, *, version: Optional[int] = None
    ) -> None:
        """Snapshot a live shard as the new rebuild point.

        ``version`` is the global graph version the worker's state covers
        (defaults to the current version — correct only when no mutation
        is mid-flight; :meth:`before_mutation` passes ``version - 1``).
        The mirror spec and the worker have replayed the identical command
        stream, so payload, serving state and version line up exactly.
        """
        worker = self.router.workers[shard_id]
        state = worker.pull_serving_state().result(self.router.request_timeout)
        self.set_baseline(
            shard_id,
            worker.spec.to_payload(),
            state["serving_state"],
            self.router.graph.version if version is None else version,
        )

    def record_mutation(self, kind: str, commands: Dict[int, object]) -> None:
        self.log.append(self.router.graph.version, kind, commands)

    # -- recovery ------------------------------------------------------

    def recover(self, shard_id: int, reason: str = "unknown") -> Optional[RecoveryRecord]:
        """Respawn, rebuild, catch up, verify, readmit.  Returns ``None``
        when another caller already recovered the shard."""
        shard_id = int(shard_id)
        lock = self._locks.setdefault(shard_id, threading.Lock())
        with lock:
            worker = self.router.workers[shard_id]
            transport = worker.transport
            if not getattr(transport, "is_down", False):
                return None  # concurrent recovery already swapped it
            start = time.perf_counter()
            detect_s = self._detect_seconds(shard_id, start)
            handle = self.registry.respawn(shard_id)
            baseline = self._baselines[shard_id]
            mode = "replay"
            try:
                catchup = self.log.commands_since(shard_id, baseline.version)
            except MutationLogHorizonError as exc:
                mode = "replan"
                warnings.warn(
                    f"{exc}; rebuilding shard {shard_id} from checkpoint + "
                    "current plan (answers stay exact, but the shard comes "
                    "back cold: its base store slice predates the missed "
                    "writes, so all of it is stale)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._metrics.counter(
                    "fleet_rebuilds_total",
                    shard=str(shard_id),
                    reason="log_horizon",
                ).inc()
                baseline = _ShardBaseline(
                    worker.spec.to_payload(), None, self.router.graph.version
                )
                self._baselines[shard_id] = baseline
                catchup = []
            engine_args = {
                "spec_payload": baseline.payload,
                "checkpoint": None,
                "checkpoint_bytes": self.checkpoint_bytes,
                "config": self.shard_configs[shard_id],
                "serving_state": baseline.serving_state,
            }
            new_transport = SocketTransport(
                shard_id,
                handle.address,
                engine_args,
                max_frame_bytes=self.max_frame_bytes,
                heartbeat_interval=self.heartbeat_interval,
                heartbeat_misses=self.heartbeat_misses,
                **self.transport_callbacks(),
            ).start()
            new_transport.wait_ready(self.start_timeout)
            respawned = time.perf_counter()
            for _, _, command in catchup:
                new_transport.send(
                    Envelope(kind="mutate", payload={"command": command})
                ).result(self.router.request_timeout)
            self._verify(shard_id, new_transport)
            replayed = time.perf_counter()
            worker.swap_transport(new_transport)
            transport.stop(timeout=1.0)
            self._metrics.counter(
                "fleet_reconnects_total", shard=str(shard_id)
            ).inc()
            self._metrics.gauge(
                "fleet_worker_connected", shard=str(shard_id)
            ).set(1)
            record = RecoveryRecord(
                shard_id=shard_id,
                reason=reason,
                mode=mode,
                detect_s=detect_s,
                respawn_s=respawned - start,
                replay_s=replayed - respawned,
                total_s=replayed - start + detect_s,
                replayed_commands=len(catchup),
                baseline_version=baseline.version,
                target_version=int(self.router.graph.version),
            )
            self.recoveries.append(record)
            return record

    def _detect_seconds(self, shard_id: int, now: float) -> float:
        for event in reversed(self.events):
            if event.shard_id == shard_id:
                return max(0.0, now - event.mono)
        return 0.0

    def _verify(self, shard_id: int, transport: SocketTransport) -> None:
        """A recovered engine must agree with the router-side mirror on the
        shard graph version before it serves anything."""
        state = transport.send(Envelope(kind="serving_state")).result(
            self.router.request_timeout
        )["serving_state"]
        mirror_version = int(self.router.plan.shards[shard_id].graph.version)
        got = int(state["graph_version"])
        if got != mirror_version:
            raise RuntimeError(
                f"shard {shard_id} recovery diverged: engine graph version "
                f"{got} != mirror version {mirror_version}"
            )

    def summary(self) -> Dict[str, object]:
        return {
            "worker_down_events": [event.to_record() for event in self.events],
            "recoveries": [record.to_record() for record in self.recoveries],
            "mutation_log": {
                "capacity": self.log.capacity,
                "entries": len(self.log),
            },
        }
