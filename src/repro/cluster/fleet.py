"""One ``Fleet`` under serving and training (``repro.cluster.fleet``).

A fleet is what :class:`~repro.cluster.router.ClusterRouter` and
:class:`~repro.cluster.train.DistributedTrainer` both stand on: a shard
plan and one set of engine arguments per shard go in, one started, ready
:class:`~repro.cluster.transport.Transport` per shard comes out, and the
same object later respawns a dead shard and tears the whole thing down.
:class:`Fleet` is the only place a transport is constructed and the only
place the engine-arguments schema is written down; every engine, on either
transport, is built from those arguments by
:func:`~repro.cluster.engine.build_engine_from_args`.

Membership of a ``socket`` fleet lives here too: :class:`LocalWorkerSpawner`
launches loopback ``shard-worker`` subprocesses, :class:`ShardRegistry`
maps shard ids to the addresses they (or pre-started remote workers)
listen on.

**Recovery rebuilds from the coordinator's present.**  Every shard is a
full replica of the coordinator's one graph, and every shard takes every
write, so the coordinator already holds what a dead shard held: the graph
(its shard spec's payload is references into it) and the freshness state —
write clock and touched stamps — which the :class:`FleetSupervisor` keeps
with the same :class:`~repro.serve.cache.WriteClock` rule a shard server
runs, hooked on the coordinator's graph.  ``recover()`` has the fleet
respawn the worker (or reconnect to a static address) from the current
shard payload and that state, checks that the engine's exported state
equals the coordinator's, and only then readmits the shard to
scatter-gather.  Serving answers are seeded by ``(seed, node)`` — a
function of the current graph — so a recovered fleet's answers match a
never-killed single server bit for bit, and the restored stamps say which
rows of its base store slice earlier writes undercut, so the shard comes
back warm.  The coordinator's graph and state take a write before it is
broadcast, so a worker that dies at its barrier is rebuilt past that write:
exactly once, with nothing to re-send.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.codec import Envelope, transfer
from repro.cluster.engine import build_engine_from_args
from repro.cluster.net import SocketTransport, WorkerDown
from repro.cluster.transport import InlineTransport, Transport, check_transport
from repro.cluster.worker import ShardWorker
from repro.serve.cache import WriteClock, state_differences

__all__ = [
    "Fleet",
    "parse_address",
    "WorkerHandle",
    "LocalWorkerSpawner",
    "ShardRegistry",
    "WorkerDownEvent",
    "RecoveryRecord",
    "FleetSupervisor",
]

def _inline_engine(args: Dict[str, object]):
    """An inline shard's engine, built from ``args`` after one pass through
    the codec: an engine adopts the arrays it is handed, so it must get
    arrays of its own — what a socket worker reads off its spawn frame —
    never the coordinator's live graph or store."""
    spawn = transfer(Envelope(kind="spawn", payload={"engine_args": args}))
    return build_engine_from_args(spawn.payload["engine_args"])


# ----------------------------------------------------------------------
# Fleet membership: handles, spawner, registry
# ----------------------------------------------------------------------


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` as ``(host, port)``: ``--listen`` and ``--workers``
    both take this form.  The host must be non-empty and the port a decimal
    in 0-65535 (0 asks the listener for a free port); anything else raises
    ``ValueError`` naming the address."""
    host, _, port = str(address).strip().rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ValueError(
            f"address {address!r} is not host:port with a port in 0-65535"
        )
    return host, int(port)


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
    ``repro`` the same way the parent did.  :meth:`spawn_all` starts every
    child before it reads any child's line, so N workers with a core each
    come up in about one start-up.  A child's stderr goes to an unlinked
    temporary file, so one that dies during start-up names its error in
    the ``WorkerDown``.
    """

    #: Bytes of a failed child's stderr kept in the ``WorkerDown`` detail.
    STDERR_TAIL = 2000

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

    def spawn_all(self, shard_ids: Sequence[int]) -> List[WorkerHandle]:
        """Start one worker per shard id, then wait for each to listen.

        If any child fails to start, every child started here is reaped and
        that child's :class:`WorkerDown` (``spawn_failed``) is raised."""
        import repro

        env = dict(os.environ)
        package_parent = str(os.path.dirname(os.path.dirname(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_parent + (os.pathsep + existing if existing else "")
        )
        started: List[Tuple[int, subprocess.Popen, BinaryIO]] = []
        try:
            for shard_id in shard_ids:
                stderr = tempfile.TemporaryFile()
                try:
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
                        stderr=stderr,
                        env=env,
                    )
                except BaseException:
                    stderr.close()
                    raise
                started.append((shard_id, process, stderr))
            deadline = time.monotonic() + self.startup_timeout
            return [
                self._await_listening(shard_id, process, stderr, deadline)
                for shard_id, process, stderr in started
            ]
        except BaseException:
            for _, process, _ in started:
                _reap_process(process)
            raise
        finally:
            # A listening child keeps writing to its (unlinked) file; we
            # only read it while the child starts.
            for _, _, stderr in started:
                stderr.close()

    def _await_listening(
        self,
        shard_id: int,
        process: subprocess.Popen,
        stderr: BinaryIO,
        deadline: float,
    ) -> WorkerHandle:
        # Read the pipe only when select() says a read cannot block, so the
        # deadline holds against a child that neither prints nor exits.
        fd, pending = process.stdout.fileno(), b""
        while True:
            *lines, pending = pending.split(b"\n")
            for line in lines:
                if line.startswith(b"LISTENING "):
                    _, host, port = line.decode().split()
                    return WorkerHandle(shard_id, host, int(port), process)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                detail = f"no LISTENING line within {self.startup_timeout:g} s"
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                detail = f"worker exited during startup (rc={process.wait()})"
                break
            pending += chunk
        _reap_process(process)
        stderr.seek(max(0, stderr.seek(0, os.SEEK_END) - self.STDERR_TAIL))
        tail = stderr.read().decode(errors="replace").strip()
        if tail:
            detail += f"; stderr: {tail}"
        raise WorkerDown(shard_id, "spawn_failed", detail)


def _reap_process(process: subprocess.Popen) -> None:
    """Kill (if still running) and wait for a child; close its stdout."""
    if process.poll() is None:
        process.kill()
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass
    if process.stdout is not None:
        process.stdout.close()


class ShardRegistry:
    """shard id → :class:`WorkerHandle`, plus (re)launch policy.

    With a spawner, :meth:`launch` starts a fresh subprocess (reaping any
    corpse first).  With static addresses (remote machines we don't
    manage), it returns the same address every time — an external
    supervisor restarts the process there, and we reconnect with a fresh
    spawn envelope.
    """

    def __init__(self, spawner: Optional[LocalWorkerSpawner] = None) -> None:
        self.spawner = spawner
        self._handles: Dict[int, WorkerHandle] = {}

    @classmethod
    def from_addresses(cls, addresses: Sequence[str]) -> "ShardRegistry":
        """Static fleet: one ``host:port`` string per shard, in shard order."""
        registry = cls(spawner=None)
        for shard_id, address in enumerate(addresses):
            registry._handles[shard_id] = WorkerHandle(
                shard_id, *parse_address(address)
            )
        return registry

    def shard_ids(self) -> List[int]:
        return sorted(self._handles)

    def launch(self, shard_ids: Sequence[int]) -> List[WorkerHandle]:
        """Where to connect for each of ``shard_ids`` now: first spawn and
        respawn are the same step.  A spawner starts every process before
        it waits on any."""
        if self.spawner is None:  # static: same address every time
            return [self._handles[shard_id] for shard_id in shard_ids]
        for shard_id in shard_ids:
            corpse = self._handles.get(shard_id)
            if corpse is not None:
                self._reap(corpse)
        handles = self.spawner.spawn_all(shard_ids)
        for handle in handles:
            self._handles[handle.shard_id] = handle
        return handles

    def address(self, shard_id: int) -> Tuple[str, int]:
        return self._handles[shard_id].address

    def kill(self, shard_id: int) -> None:
        """SIGKILL the shard's process (fault injection in tests/benches).

        Only a worker this fleet spawned has a process here: killing one
        at a static address would inject nothing, so it is refused."""
        handle = self._handles[shard_id]
        if handle.process is None:
            raise ValueError(
                f"shard {shard_id} runs at a static address "
                f"{handle.host}:{handle.port} this fleet did not spawn; "
                "there is no process to kill"
            )
        handle.process.kill()
        handle.process.wait(timeout=30)

    def close(self) -> None:
        for handle in self._handles.values():
            self._reap(handle)

    @staticmethod
    def _reap(handle: WorkerHandle) -> None:
        if handle.process is not None:
            _reap_process(handle.process)


# ----------------------------------------------------------------------
# Fleet
# ----------------------------------------------------------------------


class Fleet:
    """Plan + per-shard engine args → transports → ready engines → respawn
    → close, for serving and training alike.

    ``transport`` is ``"inline"`` (engines on the caller's thread) or
    ``"socket"`` (one worker process per shard: spawned on loopback, or
    pre-started at the ``workers`` addresses).  ``on_down`` /
    ``on_heartbeat`` are the socket transports' liveness callbacks; a
    :class:`FleetSupervisor` installs itself there before bring-up.  The
    frame bound and heartbeat cadence are the wire's own defaults
    (:mod:`repro.cluster.net`).
    """

    #: Seconds to wait for one engine to report ready (build + load).
    START_TIMEOUT = 120.0

    def __init__(
        self, transport: str, *, workers: Optional[Sequence[str]] = None
    ) -> None:
        self.kind = check_transport(transport)
        if workers is not None and transport != "socket":
            raise ValueError(
                f"workers= (remote shard addresses) only applies to the "
                f"socket transport, not {transport!r}"
            )
        self.registry: Optional[ShardRegistry] = None
        if transport == "socket":
            self.registry = (
                ShardRegistry(LocalWorkerSpawner())
                if workers is None
                else ShardRegistry.from_addresses(workers)
            )
        self.on_down: Optional[Callable[[int, str, str], None]] = None
        self.on_heartbeat: Optional[Callable[[int, float], None]] = None
        self.engine_args: List[Dict[str, object]] = []
        self.transports: List[Transport] = []

    def bring_up(
        self,
        engine: str,
        specs: Sequence,
        checkpoints: Iterable,
        configs: Iterable[Dict[str, object]],
    ) -> List[Transport]:
        """One ready ``engine`` (``"serve"`` / ``"train"``) per shard spec.

        Writes the engine-arguments schema (kept in :attr:`engine_args`, the
        rebuild point a supervisor starts from).  Inline engines load the
        checkpoint by path; socket workers share no filesystem, so theirs
        ship the checkpoint's bytes.  A spawned socket fleet starts every
        worker process before it waits on any ``LISTENING`` line, so N
        workers with a core each come up in about one start-up.  Every
        channel is opened before any is waited on, so a socket fleet loads
        its checkpoints concurrently; once this returns the checkpoint
        files are no longer needed.  A shard's checkpoint and config are
        taken from their iterables right before its channel opens, so on a
        socket fleet a generator's work for shard k overlaps the workers of
        shards before it loading their engines.  A failed bring-up tears
        down what it started.
        """
        remote = self.registry is not None
        if remote and self.registry.spawner is None:
            addresses = len(self.registry.shard_ids())
            if addresses != len(specs):
                raise ValueError(
                    f"workers= names {addresses} addresses for "
                    f"{len(specs)} shards"
                )
        blobs: Dict[str, bytes] = {}
        try:
            if remote:
                self.registry.launch([spec.shard_id for spec in specs])
            for spec, checkpoint, config in zip(specs, checkpoints, configs):
                path = str(checkpoint)
                if remote and path not in blobs:
                    blobs[path] = Path(path).read_bytes()
                args = {
                    "engine": engine,
                    "spec_payload": spec.to_payload(),
                    "checkpoint": None if remote else path,
                    "checkpoint_bytes": blobs.get(path),
                    "config": config,
                    "serving_state": None,
                }
                self.engine_args.append(args)
                self.transports.append(self.open(spec.shard_id, args))
            for transport in self.transports:
                transport.wait_ready(self.START_TIMEOUT)
        except BaseException:
            self.close()
            raise
        return list(self.transports)

    def open(self, shard_id: int, args: Dict[str, object]) -> Transport:
        """Start one shard's channel: the only place a transport is
        constructed, at bring-up and at respawn alike.  A socket channel
        connects to the worker the registry launched last for the shard."""
        if self.registry is None:
            transport: Transport = InlineTransport(
                shard_id, partial(_inline_engine, args)
            )
        else:
            transport = SocketTransport(
                shard_id,
                self.registry.address(shard_id),
                args,
                on_down=self.on_down,
                on_heartbeat=self.on_heartbeat,
            )
        return transport.start()

    def respawn(self, shard_id: int, args: Dict[str, object]) -> Transport:
        """Replace a shard's (down) channel with a fresh, ready one whose
        engine is built from ``args``.  The caller readmits it."""
        self.transports[shard_id].stop(timeout=1.0)
        if self.registry is not None:
            self.registry.launch([shard_id])
        transport = self.transports[shard_id] = self.open(shard_id, args)
        transport.wait_ready(self.START_TIMEOUT)
        return transport

    def close(self) -> None:
        """Stop every channel (drains outstanding envelopes first), then
        reap the worker processes this fleet spawned.  A closed fleet keeps
        no channel and no callback: nothing it held is left in a reference
        cycle for the garbage collector."""
        try:
            for transport in self.transports:
                transport.stop()
        finally:
            if self.registry is not None:
                self.registry.close()
            self.transports = []
            self.on_down = self.on_heartbeat = None


# ----------------------------------------------------------------------
# FleetSupervisor
# ----------------------------------------------------------------------


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


@dataclass
class RecoveryRecord:
    """One completed recovery, with the detect/respawn breakdown."""

    shard_id: int
    reason: str
    detect_s: float
    respawn_s: float  # respawn + verify
    total_s: float
    target_version: int

    def to_record(self) -> Dict[str, object]:
        return {
            "shard": self.shard_id,
            "reason": self.reason,
            "detect_s": self.detect_s,
            "respawn_s": self.respawn_s,
            "total_s": self.total_s,
            "target_version": self.target_version,
        }


class FleetSupervisor:
    """Failure detection + exact recovery for a socket fleet.

    Owns the coordinator's freshness state (:attr:`freshness`, the
    :class:`~repro.serve.cache.WriteClock` every shard server holds too)
    and the fleet metrics (connection gauges, down/reconnect counters,
    heartbeat-age histogram) written into the router's registry, so fleet
    health rides the same ``/metrics`` exposition as latency.  The router
    calls :meth:`start` once the fleet is up, :meth:`recover` when a gather
    surfaces :class:`WorkerDown` and :meth:`close` when it closes.
    """

    def __init__(self, router, fleet: Fleet) -> None:
        self.router = weakref.proxy(router)  # the router owns its supervisor
        self.fleet = fleet
        fleet.on_down = self.note_worker_down
        fleet.on_heartbeat = self.observe_heartbeat
        self.events: List[WorkerDownEvent] = []
        self.recoveries: List[RecoveryRecord] = []
        self._locks: Dict[int, threading.Lock] = {}
        self._metrics = router.registry
        # What every shard server starts from: nothing touched, unless its
        # store slice was built at another graph version.
        self.freshness = WriteClock(router.graph.num_nodes)
        if router.store is not None:
            self.freshness.attach_store(router.store, router.graph)
        self._hook = None

    def start(self) -> None:
        """The fleet is up: every shard is connected, and from here on
        each write the coordinator's graph takes advances :attr:`freshness`
        before it is broadcast."""
        self._hook = self.router.graph.add_mutation_hook(self.freshness.observe)
        for shard_id in range(len(self.router.workers)):
            self._metrics.gauge(
                "fleet_worker_connected", shard=str(shard_id)
            ).set(1)

    def close(self) -> None:
        if self._hook is not None:
            self.router.graph.remove_mutation_hook(self._hook)
            self._hook = None

    def serving_state(self) -> Dict[str, object]:
        """The coordinator's freshness state, as every shard exports it."""
        return self.freshness.export(self.router.graph)

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

    # -- recovery ------------------------------------------------------

    def recover(self, shard_id: int, reason: str = "unknown") -> Optional[RecoveryRecord]:
        """Respawn from the coordinator's present, verify, readmit.
        Returns ``None`` when another caller already recovered the shard."""
        shard_id = int(shard_id)
        with self._locks.setdefault(shard_id, threading.Lock()):
            worker = self.router.workers[shard_id]
            if not worker.transport.is_down:
                return None  # concurrent recovery already swapped it
            start = time.perf_counter()
            detect_s = self._detect_seconds(shard_id, start)
            state = self.serving_state()
            transport = self.fleet.respawn(
                shard_id,
                dict(
                    self.fleet.engine_args[shard_id],
                    spec_payload=worker.spec.to_payload(),
                    serving_state=state,
                ),
            )
            self._verify(ShardWorker(worker.spec, transport), state)
            respawned = time.perf_counter()
            worker.swap_transport(transport)
            self._metrics.counter(
                "fleet_reconnects_total", shard=str(shard_id)
            ).inc()
            self._metrics.gauge(
                "fleet_worker_connected", shard=str(shard_id)
            ).set(1)
            record = RecoveryRecord(
                shard_id=shard_id,
                reason=reason,
                detect_s=detect_s,
                respawn_s=respawned - start,
                total_s=respawned - start + detect_s,
                target_version=int(state["graph_version"]),
            )
            self.recoveries.append(record)
            return record

    def _detect_seconds(self, shard_id: int, now: float) -> float:
        for event in reversed(self.events):
            if event.shard_id == shard_id:
                return max(0.0, now - event.mono)
        return 0.0

    def _verify(self, candidate: ShardWorker, want: Dict[str, object]) -> None:
        """A recovered engine must hold the coordinator's whole serving
        state — graph version, write clock, touched stamps — before it
        serves anything."""
        pending = candidate.pull_serving_state()
        got = pending.result(self.router.REQUEST_TIMEOUT)["serving_state"]
        differs = state_differences(got, want)
        if differs:
            raise RuntimeError(
                f"shard {candidate.spec.shard_id} recovery diverged: the "
                f"respawned engine's {', '.join(differs)} differ from the "
                "coordinator's"
            )

    def summary(self) -> Dict[str, object]:
        return {
            "worker_down_events": [event.to_record() for event in self.events],
            "recoveries": [record.to_record() for record in self.recoveries],
        }
