"""Span recorder for the ``--trace 1`` pass.

The recorder wraps the boundary functions named in ``layers.py`` for the
duration of one traced pass and removes the wrappers afterwards; nothing
in ``src/`` knows it exists.  A span is ``[layer, start, end, parent]``;
spans stay in memory until the pass ends.  Everything runs on one thread
(the traced fleet is ``inline``), so one stack gives the parent links.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import socket
import statistics
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import layers

_now = time.perf_counter
OPERATION_ROOTS = (layers.READ, layers.WRITE, layers.EPOCH)


def resolve(dotted: str) -> Optional[Tuple[object, str, object]]:
    """``(owner, attribute, value)`` for a dotted name, or None.

    The longest importable prefix is the module; the rest is an attribute
    chain.  The value is read from the owner's ``__dict__`` so that a
    function is seen as written, not as a bound method or a descriptor.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], vars(owner)[parts[-1]]
        except (AttributeError, KeyError, TypeError):
            return None
    return None


class Recorder:
    """Installs span/tally wrappers, keeps spans, and undoes itself.

    Spans live in four parallel lists (layer, start, end, parent index)
    rather than one object each: a hundred thousand small containers would
    make the cyclic garbage collector part of what is being measured.
    Tallies and kept calls are taken only under the workload's own
    operation roots, so warm-up and the oracle do not count.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tallies: Dict[str, float] = defaultdict(float)
        self.kept: List[tuple] = []
        self.unresolved: List[str] = []
        self.resolved_layers: set = set()
        self._stack: List[int] = [-1]
        self._counting = False
        self._installed: List[Tuple[object, str, object]] = []

    @contextmanager
    def root(self, name: str):
        """A span opened by the workload loop itself (``bench.*``)."""
        index = self._open(name)
        self._counting = name in OPERATION_ROOTS
        try:
            yield
        finally:
            self._counting = False
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_now())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = _now()
        self._stack.pop()

    def install(self) -> None:
        plan: Dict[str, dict] = defaultdict(dict)
        for layer, targets in layers.SPANS.items():
            for dotted in targets:
                plan[dotted]["layer"] = layer
        for dotted, tally in layers.TALLIES.items():
            plan[dotted]["tally"] = tally
        plan[layers.KEEP]["keep"] = True
        for dotted, probe in plan.items():
            found = resolve(dotted)
            if found is None or not isinstance(found[2], types.FunctionType):
                self.unresolved.append(dotted)
                continue
            owner, attribute, function = found
            setattr(owner, attribute, self._wrap(function, **probe))
            self._installed.append((owner, attribute, function))
            if "layer" in probe:
                self.resolved_layers.add(probe["layer"])

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, function = self._installed.pop()
            setattr(owner, attribute, function)

    def _wrap(
        self,
        function: Callable,
        layer: Optional[str] = None,
        tally: Optional[Callable] = None,
        keep: bool = False,
    ) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, tallies, kept = self._stack, self.tallies, self.kept

        def span_only(*args, **kwargs):
            # _open/_close inlined: this runs ~100 times per traced read.
            index = len(names)
            names.append(layer)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(_now())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = _now()
                stack.pop()

        def counted(*args, **kwargs):
            index = self._open(layer) if layer is not None else -1
            try:
                result = function(*args, **kwargs)
            finally:
                if index >= 0:
                    self._close(index)
            if self._counting:
                if tally is not None:
                    for key, amount in tally(args, kwargs, result).items():
                        tallies[key] += amount
                if keep:
                    kept.append((args, result))
            return result

        wrapper = span_only if tally is None and not keep else counted
        wrapper.__wrapped__ = function
        return wrapper

    def spans(self):
        return zip(self.names, self.starts, self.ends, self.parents)

    def count(self, layer: str) -> int:
        return self.names.count(layer)

    def write_chrome_trace(self, path) -> None:
        """Chrome ``trace_event`` JSON (load in chrome://tracing or Perfetto)."""
        pid = os.getpid()
        origin = self.starts[0] if self.starts else 0.0
        events = [
            {
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans())
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class Absent(Exception):
    """A metric needs a layer none of whose span targets resolved."""


class TraceView:
    """Self times, call counts and tallies of one traced pass.

    ``n`` holds the operation counts the per-call metrics divide by and
    ``aux`` the numbers measured directly by the pass (set-up phases, wire
    sizes, the profiled epoch).
    """

    def __init__(self, recorder: Recorder, n: Dict[str, int], aux: dict) -> None:
        self.n, self.aux = n, aux
        self.tallies = dict(recorder.tallies)
        self._resolved = recorder.resolved_layers
        self._self: Dict[tuple, float] = defaultdict(float)
        self._calls: Dict[tuple, int] = defaultdict(int)
        self._root_total = 0.0
        self._charged: set = set()
        covered = [0.0] * len(recorder.names)
        roots: List[Optional[str]] = [None] * len(recorder.names)
        for index, (name, start, end, parent) in enumerate(recorder.spans()):
            if parent >= 0:
                covered[parent] += end - start
                roots[index] = roots[parent]
            elif name in OPERATION_ROOTS:
                roots[index] = name
                self._root_total += end - start
        for index, (name, start, end, _) in enumerate(recorder.spans()):
            for key in ((name, roots[index]), (name, None)):
                self._self[key] += end - start - covered[index]
                self._calls[key] += 1

    def self_ms(self, layer: str, root: Optional[str] = None) -> float:
        if layer not in self._resolved:
            raise Absent(layer)
        if root is not None:
            self._charged.add((layer, root))
        return 1e3 * self._self[(layer, root)]

    def calls(self, layer: str, root: Optional[str] = None) -> int:
        if layer not in self._resolved:
            raise Absent(layer)
        return self._calls[(layer, root)]

    def tally(self, key: str) -> float:
        return self.tallies.get(key, 0.0)

    def residual_share(self) -> float:
        """Share of the root spans that no metric computed so far charged."""
        charged = sum(self._self[key] for key in self._charged)
        return 1.0 - charged / self._root_total

    def layer_metrics(self, workload: str) -> Dict[str, Optional[float]]:
        """Every metric of ``layers.METRICS``; None where absent.

        Evaluated in table order: ``trace.residual_share`` comes after
        every metric that charges a layer's self time.
        """
        values: Dict[str, Optional[float]] = {}
        for metric in layers.METRICS:
            value = None
            if workload in metric.workloads:
                try:
                    value = metric.compute(self)
                except (Absent, ZeroDivisionError):
                    value = None
            values[metric.name] = None if value is None else float(value)
        return values


def wire_bytes(kept: List[tuple]) -> Tuple[List[bytes], List[bytes], int]:
    """Pickled serve Envelope and Reply frames the traced pass exchanged."""
    sent, received = [], []
    for args, reply in kept:
        envelope = args[1]
        if getattr(envelope, "kind", None) == "serve":
            sent.append(pickle.dumps(envelope))
            received.append(pickle.dumps(reply))
    total = sum(map(len, sent)) + sum(map(len, received))
    return sent, received, total


def frame_rtt_us(sent: List[bytes], received: List[bytes], trips: int = 400) -> Optional[float]:
    """Median loopback round trip of workload-sized frames, in microseconds.

    An echo thread answers each request frame with the matching reply
    frame through the repo's public framing functions, so the number moves
    when the framing (header, copies, syscalls per frame) changes.
    """
    send, recv = resolve(layers.NET_SEND), resolve(layers.NET_RECV)
    if send is None or recv is None or not sent:
        return None
    send_frame, recv_frame = send[2], recv[2]
    pairs = list(zip(sent, received))[:trips]

    def echo(listener: socket.socket) -> None:
        conn, _ = listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _, reply in pairs:
                recv_frame(conn)
                send_frame(conn, reply)

    with socket.create_server(("127.0.0.1", 0)) as listener:
        thread = threading.Thread(target=echo, args=(listener,), daemon=True)
        thread.start()
        with socket.create_connection(listener.getsockname()) as client:
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            trips_us = []
            for request, _ in pairs:
                start = _now()
                send_frame(client, request)
                recv_frame(client)
                trips_us.append((_now() - start) * 1e6)
        thread.join(timeout=10)
    return statistics.median(trips_us)
