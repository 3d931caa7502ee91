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

**Recovery.**  The :class:`FleetSupervisor` owns what a router needs to
bring a dead shard back *bit-identically*: a per-shard baseline (the engine
arguments to rebuild from — shard payload, exported serving state — plus
the graph version they reflect) and the router's bounded
:class:`MutationLog`.  ``recover()`` has the fleet respawn the worker (or
reconnect to a static address) from the baseline, replays the logged
commands past the baseline version, verifies the engine's graph version
against the coordinator's graph, and only then readmits the shard to
scatter-gather.  Serving answers are seeded by ``(seed, node)`` — a
function of the current graph — so once the replayed command stream has
rebuilt the replica, a recovered fleet's answers match a never-killed
single server bit for bit.  The serving state in the baseline (write clock
+ touched stamps) is what tells the respawned engine which rows of its
base store slice the writes before the baseline had already undercut.

**The log horizon.**  The log is bounded.  Before an entry is evicted, the
supervisor refreshes every baseline it would strand from the *live* worker
(one cheap ``serving_state`` pull; the payload is references into the
coordinator's graph), so replay stays possible indefinitely for healthy
shards.  A shard that is already down when the horizon passes its baseline
cannot be caught up exactly; recovery then refuses to serve stale state and
instead rebuilds the shard from the checkpoint + the *current* graph
("replan"), loudly: a warning, a ``fleet_rebuilds_total`` counter, and
``mode="replan"`` on the recovery record.  Replanned answers are exact —
the current graph *is* the answer — but the shard comes back cold: its
base store slice predates writes it has no record of, so every row of it
is stale until re-materialized.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.engine import build_engine_from_args
from repro.cluster.net import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_MISSES,
    DEFAULT_MAX_FRAME_BYTES,
    SocketTransport,
    WorkerDown,
)
from repro.cluster.transport import (
    Envelope,
    InlineTransport,
    ShardError,
    ShardTimeoutError,
    Transport,
    check_transport,
)

__all__ = [
    "Fleet",
    "WorkerHandle",
    "LocalWorkerSpawner",
    "ShardRegistry",
    "MutationLog",
    "MutationLogHorizonError",
    "WorkerDownEvent",
    "RecoveryRecord",
    "FleetSupervisor",
]

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
        )
        # Read the pipe only when select() says a read cannot block, so the
        # deadline holds against a child that neither prints nor exits.
        deadline = time.monotonic() + self.startup_timeout
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
        process.kill()  # a no-op once the child has been reaped
        process.wait()
        process.stdout.close()
        raise WorkerDown(shard_id, "spawn_failed", detail)


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
            host, _, port = str(address).rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(
                    f"worker address {address!r} is not host:port"
                )
            registry._handles[shard_id] = WorkerHandle(shard_id, host, int(port))
        return registry

    def shard_ids(self) -> List[int]:
        return sorted(self._handles)

    def launch(self, shard_id: int) -> WorkerHandle:
        """Where to connect for ``shard_id`` now: first spawn and respawn
        are the same step."""
        if self.spawner is None:
            return self._handles[shard_id]  # static: same address every time
        corpse = self._handles.get(shard_id)
        if corpse is not None:
            self._reap(corpse)
        handle = self._handles[shard_id] = self.spawner.spawn(shard_id)
        return handle

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
    """One write: its post-mutation graph version and the command that was
    broadcast to every shard."""

    version: int
    kind: str
    command: object


class MutationLogHorizonError(RuntimeError):
    """A baseline predates commands the bounded log has evicted."""

    def __init__(self, baseline_version: int, horizon: int) -> None:
        self.baseline_version = int(baseline_version)
        self.horizon = int(horizon)
        super().__init__(
            f"baseline at graph version {baseline_version} is behind the "
            f"mutation log horizon (evicted through version {horizon}); "
            "exact catch-up is impossible"
        )


class MutationLog:
    """Bounded record of broadcast mutation commands, for catch-up replay.

    A command is what the write did (an arrival's rows, the appended
    edges), not what a shard holds, and every shard replays every command,
    so replaying the entries past a baseline, in order, rebuilds any shard
    exactly.  Entries are keyed by the graph version after the mutation
    (one mutation = one version bump, so versions are consecutive).  When
    capacity evicts an entry the horizon advances: a baseline older than
    the horizon can no longer be replayed exactly —
    :meth:`commands_since` refuses loudly instead of silently
    under-replaying.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: List[LogEntry] = []
        self.horizon = -1  # last evicted version; -1 when none was

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

    def append(self, version: int, kind: str, command: object) -> None:
        self._entries.append(LogEntry(int(version), str(kind), command))
        while len(self._entries) > self.capacity:
            self.horizon = self._entries.pop(0).version

    def commands_since(self, baseline_version: int) -> List[LogEntry]:
        """The entries past ``baseline_version``, oldest first.

        Raises :class:`MutationLogHorizonError` if an entry past the
        baseline was evicted — replaying the survivors would silently skip
        mutations.
        """
        baseline_version = int(baseline_version)
        if self.horizon > baseline_version:
            raise MutationLogHorizonError(baseline_version, self.horizon)
        return [
            entry for entry in self._entries if entry.version > baseline_version
        ]


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
    :class:`FleetSupervisor` installs itself there before bring-up.
    """

    def __init__(
        self,
        transport: str,
        *,
        workers: Optional[Sequence[str]] = None,
        start_timeout: float = 120.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_misses: int = DEFAULT_HEARTBEAT_MISSES,
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
        self.start_timeout = float(start_timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
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
        ship the checkpoint's bytes.  Every channel is opened before any is
        waited on, so a socket fleet loads its checkpoints concurrently;
        once this returns the checkpoint files are no longer needed.  A
        shard's checkpoint and config are taken from their iterables right
        before its channel opens, so a generator's work for shard k+1
        overlaps worker k's start-up.  A failed bring-up tears down what it
        started.
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
                transport.wait_ready(self.start_timeout)
        except BaseException:
            self.close()
            raise
        return list(self.transports)

    def open(self, shard_id: int, args: Dict[str, object]) -> Transport:
        """Start one shard's channel: the only place a transport is
        constructed, at bring-up and at respawn alike."""
        if self.registry is None:
            transport: Transport = InlineTransport(
                shard_id, partial(build_engine_from_args, args)
            )
        else:
            transport = SocketTransport(
                shard_id,
                self.registry.launch(shard_id).address,
                args,
                max_frame_bytes=self.max_frame_bytes,
                heartbeat_interval=self.heartbeat_interval,
                heartbeat_misses=self.heartbeat_misses,
                on_down=self.on_down,
                on_heartbeat=self.on_heartbeat,
            )
        return transport.start()

    def respawn(self, shard_id: int, args: Dict[str, object]) -> Transport:
        """Replace a shard's (down) channel with a fresh, ready one whose
        engine is built from ``args``.  The caller readmits it."""
        self.transports[shard_id].stop(timeout=1.0)
        transport = self.transports[shard_id] = self.open(shard_id, args)
        transport.wait_ready(self.start_timeout)
        return transport

    def close(self) -> None:
        """Stop every channel (drains outstanding envelopes first), then
        reap the worker processes this fleet spawned."""
        try:
            for transport in self.transports:
                transport.stop()
        finally:
            if self.registry is not None:
                self.registry.close()


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
    """The rebuild point for one shard: the engine arguments to respawn
    from (shard payload, serving state) + the graph version they reflect."""

    __slots__ = ("args", "version")

    def __init__(self, args: Dict[str, object], version: int) -> None:
        self.args = args
        self.version = int(version)


class FleetSupervisor:
    """Failure detection + exact recovery for a socket fleet.

    Owns, per shard: the rebuild baseline (engine arguments + the global
    version they reflect), and the fleet metrics (connection gauges, down/
    reconnect/rebuild counters, heartbeat-age histogram) written into the
    router's registry so fleet health rides the same ``/metrics``
    exposition as latency.  The router calls :meth:`before_mutation` /
    :meth:`record_mutation` around every fan-out and :meth:`recover` when
    a gather surfaces :class:`WorkerDown`.
    """

    def __init__(self, router, fleet: Fleet, log: MutationLog) -> None:
        self.router = router
        self.fleet = fleet
        self.log = log
        fleet.on_down = self.note_worker_down
        fleet.on_heartbeat = self.observe_heartbeat
        self.events: List[WorkerDownEvent] = []
        self.recoveries: List[RecoveryRecord] = []
        self._baselines: Dict[int, _ShardBaseline] = {}
        self._locks: Dict[int, threading.Lock] = {}
        self._metrics = router.registry

    # -- baselines -----------------------------------------------------

    def set_baseline(
        self, shard_id: int, args: Dict[str, object], version: int
    ) -> None:
        """``args`` is the shard's entry of :attr:`Fleet.engine_args`, or a
        copy of it with a newer ``spec_payload`` / ``serving_state``."""
        self._baselines[int(shard_id)] = _ShardBaseline(args, version)
        self._locks.setdefault(int(shard_id), threading.Lock())

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

    # -- mutation bookkeeping ------------------------------------------

    def before_mutation(self) -> None:
        """Re-baseline shards the next log eviction would strand.

        Called *before* the write lands on the coordinator's graph: the
        shard payload is cut from that graph, the serving state is pulled
        from the live worker, and the two describe the same version only
        while no write is in flight.  (A baseline cut after the graph took
        the write would pair a payload that contains it with a serving
        state that never saw it: the respawned shard would skip that
        write's invalidation.)  One cheap ``serving_state``
        pull per endangered shard keeps exact replay possible for healthy
        workers no matter how long the stream runs; a shard that is down
        right now is skipped — its recovery will hit the horizon and take
        the loud replan path instead.
        """
        entry = self.log.next_eviction()
        if entry is None:
            return
        for shard_id, baseline in list(self._baselines.items()):
            if baseline.version >= entry.version:
                continue
            try:
                self.refresh_baseline(shard_id)
            except (WorkerDown, ShardError, ShardTimeoutError):
                continue  # down worker: replan path owns this case

    def refresh_baseline(self, shard_id: int) -> None:
        """Snapshot a live shard as the new rebuild point, at the current
        graph version — correct only while no write is in flight (see
        :meth:`before_mutation`).  The worker has replayed every command
        the coordinator's graph took, so payload, serving state and
        version line up exactly."""
        worker = self.router.workers[shard_id]
        state = worker.pull_serving_state().result(self.router.request_timeout)
        self.set_baseline(
            shard_id,
            dict(
                self._baselines[shard_id].args,
                spec_payload=worker.spec.to_payload(),
                serving_state=state["serving_state"],
            ),
            self.router.graph.version,
        )

    def record_mutation(self, kind: str, command: object) -> None:
        """Log the command of the write the coordinator's graph just took
        (before it is broadcast, so a worker dying at its barrier is caught
        up by replay rather than by a re-send)."""
        self.log.append(self.router.graph.version, kind, command)

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
            baseline = self._baselines[shard_id]
            mode = "replay"
            try:
                catchup = self.log.commands_since(baseline.version)
            except MutationLogHorizonError as exc:
                mode = "replan"
                warnings.warn(
                    f"shard {shard_id} {exc}; rebuilding it from checkpoint "
                    "+ current plan (answers stay exact, but the shard comes "
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
                self.set_baseline(
                    shard_id,
                    dict(
                        baseline.args,
                        spec_payload=worker.spec.to_payload(),
                        serving_state=None,
                    ),
                    self.router.graph.version,
                )
                baseline = self._baselines[shard_id]
                catchup = []
            new_transport = self.fleet.respawn(shard_id, baseline.args)
            respawned = time.perf_counter()
            for entry in catchup:
                new_transport.send(
                    Envelope(kind="mutate", payload={"command": entry.command})
                ).result(self.router.request_timeout)
            self._verify(shard_id, new_transport)
            replayed = time.perf_counter()
            worker.swap_transport(new_transport)
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

    def _verify(self, shard_id: int, transport: Transport) -> None:
        """A recovered engine must agree with the coordinator's graph on
        the version before it serves anything."""
        state = transport.send(Envelope(kind="serving_state")).result(
            self.router.request_timeout
        )["serving_state"]
        want = int(self.router.graph.version)
        got = int(state["graph_version"])
        if got != want:
            raise RuntimeError(
                f"shard {shard_id} recovery diverged: engine graph version "
                f"{got} != coordinator graph version {want}"
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
