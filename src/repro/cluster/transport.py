"""The message boundary between the router and its shard engines.

Every coordinator↔shard interaction is a typed :class:`Envelope` (serve
batch, mutation command, metrics pull, serving-state export, clock probe,
shutdown, training phase) answered by a
:class:`Reply`, both carried by one frame codec (:mod:`repro.codec`:
a JSON header plus raw array buffers, checked against a declared schema on
decode, never executed).  Nothing else crosses the boundary — no
callables, no shared servers, no live graph references, no object the
codec does not know — which is what makes the two transports
interchangeable:

- :class:`InlineTransport` (``"inline"``) — the engine runs on the
  caller's thread, but every envelope and reply is still encoded into a
  frame and decoded from it, so inline execution runs the wire protocol,
  not a shortcut around it.  Used by equivalence tests and the traced
  benchmark pass.
- :class:`repro.cluster.net.SocketTransport` (``"socket"``) — one worker
  process per shard behind a TCP connection, on this host or another:
  real isolation, heartbeats, typed ``WorkerDown`` and exact recovery.

:class:`repro.cluster.fleet.Fleet` is the one place either is constructed.

The ordering contract is identical on both: one shard = one FIFO envelope
stream, processed one envelope at a time.  A mutation envelope is
therefore a *barrier* — every serve envelope sent before it is answered
from pre-mutation state, everything after sees post-mutation state — and
an interleaved request/mutation stream produces bit-identical results on
either transport.

Failures travel as data, not exceptions: a shard that raises answers with
an error reply (remote type, message, traceback), which
:meth:`PendingReply.unwrap` — the one place a reply becomes an exception —
re-raises as :class:`ShardError` on the gathering side.  A shard that
*stops answering* surfaces as :class:`ShardTimeoutError` (deadline) or
:class:`WorkerDown` (dead, cut off or hung worker) instead of hanging the
router.
"""

from __future__ import annotations

import threading
import traceback
from typing import Callable, Dict, Optional, Tuple

from repro.codec import (
    Envelope,
    ProtocolError,
    Reply,
    decode,
    encode,
    encode_parts,
)

__all__ = [
    "Envelope",
    "Reply",
    "ProtocolError",
    "PendingReply",
    "Transport",
    "InlineTransport",
    "ShardError",
    "ShardTimeoutError",
    "WorkerDown",
    "TRANSPORT_KINDS",
    "check_transport",
]

TRANSPORT_KINDS = ("inline", "socket")


def check_transport(name: str) -> str:
    """Eager transport-name validation: a typo'd ``transport=`` fails at
    construction, naming the valid values, not deep inside a spawn path."""
    if name not in TRANSPORT_KINDS:
        raise ValueError(
            f"unknown transport {name!r}; expected one of {TRANSPORT_KINDS}"
        )
    return name


#: Every envelope kind: each is sent by :class:`repro.cluster.worker.ShardWorker`
#: (``shutdown`` by the transports) and answered by the one dispatch,
#: :meth:`repro.cluster.engine.ShardEngine.handle`, through the ``_handle_*``
#: methods of :class:`~repro.cluster.engine.ShardEngine` (``serve`` family)
#: and :class:`~repro.cluster.engine.TrainEngine` (``train`` family — the
#: three phase commands of :class:`repro.core.train_loop.TrainLoop`, one
#: ``train_microbatch`` per global step, and the checkpoint pull).
ENVELOPE_KINDS = (
    "serve",
    "mutate",
    "metrics",
    "serving_state",
    "clock",
    "shutdown",
    "train_epoch_begin",
    "train_microbatch",
    "train_epoch_end",
    "train_checkpoint",
)

#: The kinds a shard worker accepts off the wire: every envelope kind plus
#: the ``spawn`` handshake that opens a session.  The inline transport does
#: not check them: its engine answers an unknown kind with an error reply.
WIRE_KINDS = frozenset(ENVELOPE_KINDS) | {"spawn"}

#: Sequence number of the spawn-handshake reply an engine process sends
#: once its server is fully rebuilt (or fails to build).
READY_SEQ = -1


def error_info(exc: BaseException) -> Dict[str, str]:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


class ShardError(RuntimeError):
    """A shard engine answered an envelope with an error reply."""

    def __init__(self, shard_id: int, error: Dict[str, str]) -> None:
        self.shard_id = shard_id
        self.remote_type = error.get("type", "Exception")
        self.remote_message = error.get("message", "")
        self.remote_traceback = error.get("traceback", "")
        super().__init__(
            f"shard {shard_id} failed: {self.remote_type}: {self.remote_message}"
        )


class WorkerDown(RuntimeError):
    """A shard worker is unreachable: dead process, cut wire, or hung.

    This is the *typed* failure the supervisor reacts to — it carries the
    shard and a reason (``connection_reset`` / ``heartbeat_missed`` /
    ``send_failed`` / ``protocol_error``), never masquerading as a generic
    timeout.
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


class ShardTimeoutError(TimeoutError):
    """A shard did not answer an envelope within the gather deadline."""

    def __init__(self, shard_id: int, timeout: float, kind: str) -> None:
        self.shard_id = shard_id
        super().__init__(
            f"shard {shard_id} did not answer {kind!r} within {timeout:.3f}s"
        )


class PendingReply:
    """Handle for one in-flight envelope; :meth:`result` gathers it.

    The async scatter-gather contract: ``send`` never blocks on the
    *answer*, and the router gathers whole groups of pending replies after
    issuing them all.  The transport :meth:`deliver`\\ s the reply — the
    inline one before ``send`` returns, the socket one from its receive
    thread.  A transport that goes down delivers a ``WorkerDown`` error
    reply to every pending, and a wait that times out on a down transport
    raises :class:`WorkerDown`, never :class:`ShardTimeoutError`.
    """

    def __init__(self, transport: "Transport", seq: int, kind: str) -> None:
        self.shard_id = transport.shard_id
        self.kind = kind
        self._transport = transport
        self._seq = seq
        self._event = threading.Event()
        self._reply: Optional[Reply] = None

    @property
    def delivered(self) -> bool:
        return self._event.is_set()

    def deliver(self, reply: Reply) -> "PendingReply":
        self._reply = reply
        self._event.set()
        return self

    def wait(self, timeout: Optional[float] = None) -> Reply:
        """Block for the raw :class:`Reply` (ok or error)."""
        if not self._event.wait(timeout):
            if self._transport.is_down:
                raise self._transport.down_exception
            raise ShardTimeoutError(self.shard_id, timeout or 0.0, self.kind)
        return self._reply

    def result(self, timeout: Optional[float] = None) -> object:
        """The reply payload; raises what :meth:`unwrap` does on an error."""
        return self.unwrap(self.wait(timeout))

    def unwrap(self, reply: Reply) -> object:
        """``reply``'s payload, or its error as the exception it names:
        :class:`WorkerDown` for an unreachable worker, :class:`ShardError`
        for anything the engine raised."""
        if reply.ok:
            return reply.payload
        error = reply.error or {}
        if error.get("type") == "WorkerDown":
            raise WorkerDown.from_error(self.shard_id, error)
        raise ShardError(self.shard_id, error)


class Transport:
    """One shard's message channel.  Lifecycle: start → send* → stop."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self._seq = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def start(self) -> "Transport":
        """Launch the channel (build the engine / connect and ship the
        spawn envelope).  Non-blocking where possible so a fleet can
        overlap spawns; pair with :meth:`wait_ready`."""
        return self

    def wait_ready(self, timeout: Optional[float] = None) -> None:
        """Block until the engine behind the channel is fully built."""

    def send(self, envelope: Envelope) -> PendingReply:
        raise NotImplementedError

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the engine down; drains outstanding envelopes first."""

    @property
    def is_down(self) -> bool:
        """Whether the engine behind the channel is unreachable (only a
        socket worker can be)."""
        return False


def _safe_handle(engine, envelope: Envelope) -> Reply:
    """Dispatch one envelope; an engine that *raises* (instead of returning
    an error reply itself) must not kill the transport loop."""
    try:
        return engine.handle(envelope)
    except BaseException as exc:
        return Reply(seq=envelope.seq, ok=False, error=error_info(exc))


def reply_parts(reply: Reply, limit: Optional[int] = None) -> Tuple[list, int]:
    """``reply``'s frame (:func:`~repro.codec.encode_parts`).  A
    payload the codec refuses, or a frame over ``limit`` bytes, is the
    engine's failure: it is answered as an error reply like any exception
    the engine raises, so the envelope's gather ends."""
    try:
        parts, size = encode_parts(reply)
        if limit is not None and size > limit:
            raise ProtocolError(
                f"a {size}-byte reply exceeds the {limit}-byte frame cap"
            )
        return parts, size
    except ProtocolError as exc:
        return encode_parts(Reply(seq=reply.seq, ok=False, error=error_info(exc)))


class InlineTransport(Transport):
    """Engine on the caller's thread, protocol on the real wire codec.

    Every envelope and reply is encoded into a fresh frame and decoded
    from it before and after dispatch, so the engine never aliases the
    caller's arrays (nor the caller the engine's) and inline results are
    exactly what the socket transport would produce — minus the scheduler.
    """

    def __init__(self, shard_id: int, engine_factory: Callable[[], object]) -> None:
        super().__init__(shard_id)
        self._engine_factory = engine_factory
        self._engine = None

    def start(self) -> "InlineTransport":
        if self._engine is None:
            self._engine = self._engine_factory()
        return self

    @property
    def engine(self):
        """The local engine (inline transport only; used by tests)."""
        return self._engine

    def send(self, envelope: Envelope) -> PendingReply:
        if self._engine is None:
            raise RuntimeError(f"shard {self.shard_id} transport not started")
        envelope.seq = self._next_seq()
        wire = decode(encode(envelope), Envelope)
        parts, _ = reply_parts(_safe_handle(self._engine, wire))
        reply = decode(bytearray().join(parts), Reply)
        return PendingReply(self, envelope.seq, envelope.kind).deliver(reply)

    def stop(self, timeout: float = 10.0) -> None:
        if self._engine is not None:
            self._engine.handle(Envelope(kind="shutdown", seq=self._next_seq()))
            self._engine = None
