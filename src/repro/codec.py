"""The one container: :class:`Envelope`, :class:`Reply` and :class:`Record`
frames, on the wire and on disk.

Both transports move the same bytes: the ``inline`` transport encodes every
message and decodes it from a fresh buffer, the ``socket`` transport frames
the same bytes over TCP (:mod:`repro.cluster.net`).  Every file the
package writes — a classifier checkpoint, a store, a training shard and its
manifest — is one :class:`Record` frame, written by :func:`publish` and
read by :func:`read_record`.  A frame is

- a 4-byte little-endian header length,
- a UTF-8 JSON header ``[type, fields, buffers]``: the message type
  (``"envelope"`` / ``"reply"`` / ``"record"``), its dataclass fields in
  declaration order with every array replaced by ``{"$buf": i}``, and one
  ``[dtype, shape]`` descriptor per raw buffer (dtype ``"bytes"`` for a
  ``bytes`` leaf),
- zero padding to an 8-byte boundary, then each buffer's raw bytes, each
  padded to the next 8-byte boundary.

A payload is a tree of ``None`` / ``bool`` / ``int`` / ``float`` / ``str`` /
``bytes`` leaves, C-ordered arrays of a whitelisted numeric dtype in native
byte order, lists, and dicts with ``str`` keys; numpy scalars travel as
Python scalars and a non-contiguous array as its contiguous copy.  Anything
else — a callable, an object or void dtype, an int-keyed dict, a tuple, a
dataclass — is refused at encode with :class:`ProtocolError`, so a
message either crosses both transports the same way or neither.

Decoding interprets nothing: it checks the header length, the JSON, the
message type and field types, the dtype whitelist, the shapes, that the
buffers exactly fill the rest of the frame and that the tree is at most
:data:`MAX_DEPTH` deep, and raises :class:`ProtocolError` on any failure.
There are two readers.  :func:`decode` takes a whole frame and returns
its arrays as ``np.frombuffer`` views of it (writable when the frame is a
``bytearray`` or a copy-on-write mapping): the small frames of the read
path, where one buffer is one allocation, and every file.
:func:`read_message` reads a frame piece by piece — header
first, every descriptor checked against the frame size, then each buffer
straight into its own fresh array — so a large frame (a shard's spawn
payload) costs its receiver one copy of the arrays and no frame buffer,
and the receiver may keep any array it gets.  :func:`transfer` is that
reader in process: how an inline engine gets arrays of its own.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import mmap
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Tuple, Type, Union

import numpy as np

__all__ = [
    "Envelope",
    "Reply",
    "Record",
    "ProtocolError",
    "MAX_DEPTH",
    "encode",
    "encode_parts",
    "decode",
    "read_message",
    "transfer",
    "publish",
    "read_record",
]


@dataclass
class Envelope:
    """One typed message from the router to a shard engine.

    ``trace_ctx`` is the distributed-tracing context (trace id, parent
    span, router send timestamp — see :func:`repro.obs.dist.make_trace_ctx`).
    ``None`` means untraced and is the default: the engine's check for it
    is a single attribute read, keeping the disabled path the hot path.
    """

    kind: str
    payload: dict = field(default_factory=dict)
    seq: int = -1  # assigned by the transport at send time
    trace_ctx: Optional[dict] = None


@dataclass
class Reply:
    """The engine's answer to one envelope.

    ``ok=False`` carries ``error = {"type", "message", "traceback"}`` —
    failures are data on the wire, raised only at :meth:`PendingReply.result`.
    ``trace`` piggybacks the shard's span buffer for a traced envelope
    (``{"shard", "pid", "spans"}``); it rides error replies too, so a
    raising engine's trace data still reaches the router.
    """

    seq: int
    ok: bool
    payload: object = None
    error: Optional[Dict[str, str]] = None
    trace: Optional[dict] = None


@dataclass
class Record:
    """One file's content.  ``kind`` names what the file is
    (``"checkpoint"``, ``"store"``, ``"manifest"``), so a reader refuses
    a file of another kind before it looks at the payload."""

    kind: str
    payload: dict


Message = Union[Envelope, Reply, Record]


class ProtocolError(ValueError):
    """A message the codec cannot encode, or a frame it cannot decode."""


#: Deepest container nesting a frame may carry, counted from the field list.
MAX_DEPTH = 32

_TYPES: Dict[str, type] = {"envelope": Envelope, "reply": Reply, "record": Record}
_TAG = "$buf"
_BYTES = "bytes"
_HEADER_LEN = struct.Struct("<I")
_ALIGN = 8
_PAD = bytes(_ALIGN)
_DTYPES = {
    np.dtype(name).str: np.dtype(name)
    for name in (
        "bool", "int8", "int16", "int32", "int64",
        "uint8", "uint16", "uint32", "uint64", "float32", "float64",
    )
}
_SCALARS = frozenset((str, int, float, bool, type(None)))
_encode_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_scan_json = json.JSONDecoder().scan_once


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------


def _plain(value, buffers: list, depth: int):
    """``value`` as a JSON tree; each array or ``bytes`` leaf becomes a
    reference to its entry in ``buffers``, ``([dtype, shape], data, nbytes)``."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if isinstance(value, np.generic):
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    if depth >= MAX_DEPTH:
        raise ProtocolError(f"payload nested deeper than {MAX_DEPTH}")
    depth += 1
    if kind is dict:
        if _TAG in value:
            raise ProtocolError(f"a payload dict may not use the key {_TAG!r}")
        out = {}
        for key, item in value.items():
            if type(key) is not str:
                raise ProtocolError(f"dict key {key!r} is not a str")
            out[key] = item if type(item) in _SCALARS else _plain(item, buffers, depth)
        return out
    if kind is list:
        return [
            item if type(item) in _SCALARS else _plain(item, buffers, depth)
            for item in value
        ]
    if isinstance(value, np.ndarray):
        code = value.dtype.str
        if code not in _DTYPES:
            raise ProtocolError(f"dtype {value.dtype!r} cannot cross the wire")
        if not value.flags.c_contiguous:
            value = np.ascontiguousarray(value)
        buffers.append(([code, list(value.shape)], value, value.nbytes))
        return {_TAG: len(buffers) - 1}
    if kind is bytes or kind is bytearray:
        buffers.append(([_BYTES, [len(value)]], value, len(value)))
        return {_TAG: len(buffers) - 1}
    raise ProtocolError(f"{kind.__name__} cannot cross the wire")


def _fields(message: Message) -> Tuple[str, list]:
    if type(message) is Envelope:
        return "envelope", [
            message.kind, message.payload, message.seq, message.trace_ctx,
        ]
    if type(message) is Reply:
        return "reply", [
            message.seq, message.ok, message.payload, message.error, message.trace,
        ]
    if type(message) is Record:
        return "record", [message.kind, message.payload]
    raise ProtocolError(f"{type(message).__name__} is not a wire message")


def encode_parts(message: Message) -> Tuple[list, int]:
    """One frame as a list of buffers (header, padding, array memory —
    nothing copied) and its total size: what a scatter-gather send takes."""
    buffers: list = []
    tag, fields = _fields(message)
    tree = _plain(fields, buffers, 0)
    _check_fields(tag, tree, None)
    descriptors = [descriptor for descriptor, _, _ in buffers]
    header = _encode_json([tag, tree, descriptors]).encode()
    size = _HEADER_LEN.size + len(header)
    parts: list = [_HEADER_LEN.pack(len(header)), header, _PAD[: -size % _ALIGN]]
    size += -size % _ALIGN
    for _, data, nbytes in buffers:
        if nbytes:
            pad = -nbytes % _ALIGN
            parts.append(data)
            parts.append(_PAD[:pad])
            size += nbytes + pad
    return parts, size


def encode(message: Message) -> bytearray:
    """One frame in one fresh, writable buffer."""
    parts, _ = encode_parts(message)
    return bytearray().join(parts)


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------


def _check_fields(tag: str, fields, kinds: Optional[Collection[str]]) -> None:
    """The field types of ``tag``'s dataclass, on a JSON tree."""
    if type(fields) is not list:
        raise ProtocolError("message fields are not a list")
    if tag == "envelope":
        if len(fields) != 4:
            raise ProtocolError(f"an envelope has 4 fields, got {len(fields)}")
        kind, payload, seq, trace_ctx = fields
        if type(kind) is not str:
            raise ProtocolError("envelope kind is not a str")
        if kinds is not None and kind not in kinds:
            raise ProtocolError(f"unknown envelope kind {kind!r}")
        if type(payload) is not dict:
            raise ProtocolError("envelope payload is not a dict")
        if type(seq) is not int:
            raise ProtocolError("envelope seq is not an int")
        if trace_ctx is not None and type(trace_ctx) is not dict:
            raise ProtocolError("envelope trace_ctx is not a dict")
        return
    if tag == "record":
        if len(fields) != 2:
            raise ProtocolError(f"a record has 2 fields, got {len(fields)}")
        kind, payload = fields
        if type(kind) is not str:
            raise ProtocolError("record kind is not a str")
        if kinds is not None and kind not in kinds:
            raise ProtocolError(
                f"expected a {' / '.join(sorted(kinds))} file, got a {kind!r} file"
            )
        if type(payload) is not dict:
            raise ProtocolError("record payload is not a dict")
        return
    if len(fields) != 5:
        raise ProtocolError(f"a reply has 5 fields, got {len(fields)}")
    seq, ok, _, error, trace = fields
    if type(seq) is not int:
        raise ProtocolError("reply seq is not an int")
    if type(ok) is not bool:
        raise ProtocolError("reply ok is not a bool")
    if error is not None and type(error) is not dict:
        raise ProtocolError("reply error is not a dict")
    if trace is not None and type(trace) is not dict:
        raise ProtocolError("reply trace is not a dict")


def _layout(descriptors, offset: int, total: int) -> list:
    """Where each buffer ``descriptors`` names lies in a ``total``-byte
    frame whose buffers start at ``offset``: ``(dtype, shape, count,
    start)`` per buffer (dtype ``None`` for a ``bytes`` leaf).  The buffers
    must fill the frame exactly; everything is checked against ``total``
    before a reader allocates anything."""
    if type(descriptors) is not list:
        raise ProtocolError("buffer descriptors are not a list")
    layout = []
    for descriptor in descriptors:
        if type(descriptor) is not list or len(descriptor) != 2:
            raise ProtocolError(f"malformed buffer descriptor {descriptor!r}")
        code, shape = descriptor
        if type(shape) is not list or len(shape) > MAX_DEPTH:
            raise ProtocolError(f"malformed buffer shape {shape!r}")
        for dim in shape:
            if type(dim) is not int or dim < 0:
                raise ProtocolError(f"malformed buffer shape {shape!r}")
        if code == _BYTES:
            if len(shape) != 1:
                raise ProtocolError("a bytes buffer has one dimension")
            dtype, itemsize = None, 1
        else:
            dtype = _DTYPES.get(code) if type(code) is str else None
            if dtype is None:
                raise ProtocolError(f"dtype {code!r} is not on the wire's whitelist")
            itemsize = dtype.itemsize
        count = math.prod(shape)
        end = offset + count * itemsize
        if end > total:
            raise ProtocolError(
                f"buffer of {count * itemsize} bytes overruns the frame "
                f"({total - offset} bytes left)"
            )
        layout.append((dtype, shape, count, offset))
        offset = end + (-end % _ALIGN)
    if offset != total:
        raise ProtocolError(
            f"buffers end at byte {offset} of a {total}-byte frame"
        )
    return layout


def _restore(value, leaves: list, used: list, depth: int):
    """Swap every ``{"$buf": i}`` in a parsed tree for leaf ``i``, in place."""
    if depth >= MAX_DEPTH:
        raise ProtocolError(f"payload nested deeper than {MAX_DEPTH}")
    if type(value) is dict:
        if _TAG in value:
            index = value[_TAG]
            if (
                len(value) != 1
                or type(index) is not int
                or not 0 <= index < len(leaves)
                or used[index]
            ):
                raise ProtocolError(f"bad buffer reference {value!r}")
            used[index] = True
            return leaves[index]
        items = value.items()
    else:
        items = enumerate(value)
    for key, item in items:
        if type(item) is dict or type(item) is list:
            value[key] = _restore(item, leaves, used, depth + 1)
    return value


def _header(text: str, expect: Type[Message]) -> Tuple[str, list, list]:
    """``(tag, fields, descriptors)`` of a frame's JSON header, which must
    name an ``expect`` message."""
    try:
        header, end = _scan_json(text, 0)
    except StopIteration:
        raise ProtocolError("the header is not JSON") from None
    if end != len(text):
        raise ProtocolError("trailing bytes after the JSON header")
    if type(header) is not list or len(header) != 3:
        raise ProtocolError("the header is not [type, fields, buffers]")
    tag, fields, descriptors = header
    if type(tag) is not str or _TYPES.get(tag) is not expect:
        raise ProtocolError(f"expected a {expect.__name__} frame, got {tag!r}")
    if type(fields) is not list:
        raise ProtocolError("message fields are not a list")
    return tag, fields, descriptors


def _message(
    tag: str,
    fields: list,
    leaves: list,
    expect: Type[Message],
    kinds: Optional[Collection[str]],
) -> Message:
    """The ``expect`` message whose parsed fields refer to ``leaves``."""
    used = [False] * len(leaves)
    _restore(fields, leaves, used, 0)
    if not all(used):
        raise ProtocolError("a buffer no field refers to")
    _check_fields(tag, fields, kinds)
    return expect(*fields)


def _refusing(reader):
    """``reader`` with every way a frame can fail to decode raised as
    :class:`ProtocolError`."""

    @functools.wraps(reader)
    def guarded(*args, **kwargs):
        try:
            return reader(*args, **kwargs)
        except ProtocolError:
            raise
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            # JSON or UTF-8 that does not parse, nesting past the parser's
            # recursion limit, a shape numpy refuses.
            raise ProtocolError(f"undecodable frame: {exc}") from exc

    return guarded


@_refusing
def decode(
    data: Union[bytes, bytearray, mmap.mmap],
    expect: Type[Message],
    kinds: Optional[Collection[str]] = None,
) -> Message:
    """The ``expect`` message in ``data``, or :class:`ProtocolError`.

    ``kinds``, when given, is the set of envelope (or record) kinds the
    receiver accepts; a message of any other kind is refused here.
    Arrays are views of ``data``.
    """
    total = len(data)
    if total < _HEADER_LEN.size:
        raise ProtocolError(f"a {total}-byte frame has no header length")
    (length,) = _HEADER_LEN.unpack_from(data)
    start = _HEADER_LEN.size + length
    if start > total:
        raise ProtocolError(
            f"a {length}-byte header overruns a {total}-byte frame"
        )
    tag, fields, descriptors = _header(
        str(data[_HEADER_LEN.size:start], "utf-8"), expect
    )
    leaves = []
    for dtype, shape, count, at in _layout(
        descriptors, start + (-start % _ALIGN), total
    ):
        if dtype is None:
            leaves.append(bytes(memoryview(data)[at:at + count]))
        else:
            array = np.frombuffer(data, dtype, count, at)
            leaves.append(array if len(shape) == 1 else array.reshape(shape))
    return _message(tag, fields, leaves, expect, kinds)


@_refusing
def read_message(
    fill: Callable[[memoryview], None],
    size: int,
    expect: Type[Message],
    kinds: Optional[Collection[str]] = None,
) -> Message:
    """The ``expect`` message in a ``size``-byte frame read piece by piece,
    each buffer straight into its own fresh array; or :class:`ProtocolError`.

    ``fill(view)`` writes the frame's next ``len(view)`` bytes into
    ``view`` (a socket reader raises ``ConnectionResetError`` when the
    frame is cut).  The header is read first and every descriptor checked
    against ``size`` before a buffer is allocated, so a hostile frame
    allocates at most ``size`` bytes.  No array shares memory with a frame
    buffer or with another array: a receiver may keep any of them.
    """

    def skip(count: int) -> None:
        if count:
            fill(memoryview(bytearray(count)))

    if size < _HEADER_LEN.size:
        raise ProtocolError(f"a {size}-byte frame has no header length")
    prefix = bytearray(_HEADER_LEN.size)
    fill(memoryview(prefix))
    (length,) = _HEADER_LEN.unpack(prefix)
    start = _HEADER_LEN.size + length
    if start > size:
        raise ProtocolError(
            f"a {length}-byte header overruns a {size}-byte frame"
        )
    text = bytearray(length)
    fill(memoryview(text))
    tag, fields, descriptors = _header(str(text, "utf-8"), expect)
    layout = _layout(descriptors, start + (-start % _ALIGN), size)
    skip(-start % _ALIGN)
    leaves = []
    for dtype, shape, count, _ in layout:
        if dtype is None:
            data = bytearray(count)
            fill(memoryview(data))
            leaves.append(bytes(data))
            nbytes = count
        else:
            array = np.empty(shape, dtype)
            nbytes = array.nbytes
            if nbytes:
                fill(memoryview(array.reshape(-1).view(np.uint8)))
            leaves.append(array)
        skip(-nbytes % _ALIGN)
    return _message(tag, fields, leaves, expect, kinds)


def transfer(message: Message) -> Message:
    """``message`` after one pass through the codec, read back the way
    :func:`read_message` reads a large frame off a socket: each array a
    fresh one, sharing no memory with ``message`` or with a joined frame.
    How an in-process receiver gets arrays of its own to keep."""
    parts, size = encode_parts(message)
    pending = [memoryview(part).cast("B") for part in parts]
    pending.reverse()

    def fill(view: memoryview) -> None:
        done = 0
        while done < len(view):
            part = pending.pop()
            take = min(len(part), len(view) - done)
            view[done:done + take] = part[:take]
            if take < len(part):
                pending.append(part[take:])
            done += take

    return read_message(fill, size, type(message))


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------


def publish(path, frame: Union[Message, bytes, bytearray]) -> None:
    """Write ``frame`` — a message, or bytes — to ``path`` whole or not at
    all: into a temporary file beside it, then ``os.replace``.  A reader
    sees the old file or the new one, never a mix, and one that mapped the
    old file keeps it.  A failure at any step removes the temporary file;
    a message is encoded before anything is created."""
    parts = [frame] if isinstance(frame, (bytes, bytearray)) else encode_parts(frame)[0]
    directory, name = os.path.split(os.path.abspath(path))
    staging = os.path.join(directory, f".{name}.{os.urandom(6).hex()}")
    # Created with the mode the umask gives, as a plain ``open`` would.
    handle = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(handle, "wb") as out:
            for part in parts:
                out.write(part)
        os.replace(staging, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(staging)
        raise


def read_record(path, kind: str) -> dict:
    """The payload of the ``kind`` :class:`Record` in the file at ``path``,
    or :class:`ProtocolError` (a file of another kind included).  The file
    is mapped copy-on-write and decoded in place: arrays are writable views
    whose written pages become private, and the mapping keeps the file's
    inode, so a later :func:`publish` to ``path`` does not reach them."""
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size == 0:
            raise ProtocolError(f"{str(path)!r} is empty")
        data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_COPY)
    try:
        return decode(data, Record, (kind,)).payload
    except ProtocolError as error:
        raise ProtocolError(f"{str(path)!r}: {error}") from error
