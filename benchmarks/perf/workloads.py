"""The four workloads, their inputs, and the correctness oracle.

This module is the timed pass.  It imports only the stable surface listed
in README.md and times calls into those public functions from outside;
the PRs that delete ``forward_mode=``, ``mode=``, the ``thread``/``mp``
transports or the timing aliases must not have to edit it.

Operation counts are fixed per ``(workload, --seconds)`` rather than cut
off by a clock, so the answers digest and every counter repeat exactly
for a seed.  ``RATES`` sizes them so that the timed region lasts about
``--seconds`` on the reference host (2 cores, one BLAS thread).
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier
from repro.datasets import make_yelp
from repro.serve import InferenceServer, ModelRegistry
from repro.store import build_store

WORKLOADS = ("train_yelp", "serve_recompute", "serve_store", "serve_mutating")

# Yelp schema at 24,570 nodes / about 152k edges / 1,950 train / 4,875 test.
# (ISSUE.md asked for scale 13.0; see README.md, "Sizes", for why not.)
GRAPH_SCALE = 6.5
SMOKE_SCALE = 1.0
# Operations per second of --seconds: epochs for train_yelp, reads otherwise.
RATES = {
    "train_yelp": 1.6,
    "serve_recompute": 240.0,
    "serve_store": 400.0,
    "serve_mutating": 220.0,
}
NUM_SHARDS = 2
NODES_PER_READ = 16
WARMUP_READS = 200
READS_PER_WRITE = 200
SMOKE_DIVISOR = 20
ZIPF_EXPONENT = 1.1
PROBE_NODES = 128
ORACLE_TOLERANCE = 1e-10
MIN_TEST_MICRO_F1 = 0.40

_now = time.perf_counter
NO_ROOT: Callable = lambda name: nullcontext()


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#
# The sandbox is a shared VM whose speed drifts by tens of percent over
# seconds to minutes (README.md, "Host-speed normalisation").  A fixed
# kernel of the same flavour as the workload (fancy-index gather, small
# batched matmul, softmax, Python arithmetic) is timed between
# operations, and every duration is divided by how much slower than
# nominal the kernel ran around it.  Raw durations are reported too.

KERNEL_NOMINAL_S = 1.0e-3   # the kernel on the reference host when nothing else runs
SAMPLE_EVERY_S = 0.040
MAX_BURST = 15
WINDOW_S = 0.100
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_ROWS = _KERNEL_RNG.random((64, 32))
_KERNEL_WEIGHT = _KERNEL_RNG.random((32, 32))
_KERNEL_INDEX = _KERNEL_RNG.integers(0, 64, size=(16, 11))


def _kernel() -> float:
    begin = _now()
    total = 0.0
    for step in range(24):
        scores = _KERNEL_ROWS[_KERNEL_INDEX] @ _KERNEL_WEIGHT
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        scores /= scores.sum(axis=-1, keepdims=True)
        total += float(scores[0, 0, 0]) + step * step
    return _now() - begin


class HostSpeed:
    """Samples of ``kernel time / nominal`` along the run's timeline.

    Sampling takes about a tenth of the time since the last sample, so a
    long operation is bracketed by proportionally more samples; a
    duration is judged by the mean of the samples within ``WINDOW_S`` of
    it, which follows the slow drift and averages out the fast jitter.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.factors: List[float] = []
        self.sample()

    def sample(self) -> None:
        middle = sorted(_kernel() for _ in range(3))[1]
        self.times.append(_now())
        self.factors.append(middle / KERNEL_NOMINAL_S)

    def tick(self) -> None:
        """Between operations: catch up on the time that has passed."""
        due = int((_now() - self.times[-1]) / SAMPLE_EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def factors_for(self, spans) -> np.ndarray:
        """Mean slowdown around each ``(begin, end)`` span."""
        spans = np.asarray(list(spans), dtype=float).reshape(-1, 2)
        times, factors = np.asarray(self.times), np.asarray(self.factors)
        running = np.concatenate([[0.0], np.cumsum(factors)])
        low = np.searchsorted(times, spans[:, 0] - WINDOW_S)
        high = np.searchsorted(times, spans[:, 1] + WINDOW_S)
        windowed = (running[high] - running[low]) / np.maximum(high - low, 1)
        # No sample that close (cannot happen while tick() runs between
        # operations): fall back to interpolating between the neighbours.
        return np.where(high > low, windowed, np.interp(spans.mean(axis=1), times, factors))


@dataclass(frozen=True)
class Sizes:
    scale: float
    ops: int            # epochs (train_yelp) or reads (serve_*)
    warmup: int
    reads_per_write: int


def sizes(workload: str, seconds: float, smoke: bool = False, fraction: float = 1.0) -> Sizes:
    """Fixed operation counts; ``fraction`` is 0.25 for the traced pass."""
    ops = RATES[workload] * seconds * fraction
    warmup, per_write, scale = WARMUP_READS, READS_PER_WRITE, GRAPH_SCALE
    if smoke:
        ops, warmup, per_write = (
            ops / SMOKE_DIVISOR, warmup // SMOKE_DIVISOR, per_write // SMOKE_DIVISOR
        )
        scale = SMOKE_SCALE
    floor = 2 if workload == "train_yelp" else 2 * per_write
    return Sizes(scale, max(floor, round(ops)), warmup, per_write)


@dataclass
class Outcome:
    """What one pass over a workload produced."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    digest: str = ""
    verify_s: float = 0.0
    nodes_answered: int = 0
    # (begin, end) perf_counter pairs; ``close()`` derives the durations:
    # raw wall clock, and normalised by the host slowdown around each.
    ops: List[tuple] = field(default_factory=list)       # epochs or reads
    writes: List[tuple] = field(default_factory=list)
    setup: Dict[str, tuple] = field(default_factory=dict)   # set-up phases
    op_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    phases: Dict[str, float] = field(default_factory=dict)  # seconds
    op_norm_ms: List[float] = field(default_factory=list)
    write_norm_ms: List[float] = field(default_factory=list)
    phases_norm: Dict[str, float] = field(default_factory=dict)
    slowdown_first: float = 1.0   # right after the imports
    slowdown_p50: float = 1.0     # median over the timed operations
    extras: Dict[str, Optional[float]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    notes: List[str] = field(default_factory=list)
    # train_yelp only: the traced pass profiles one more epoch on these.
    classifier: object = None
    dataset: object = None

    def close(self, host: HostSpeed) -> None:
        """Durations, raw and host-normalised, from the recorded spans."""
        host.tick()

        def durations(spans):
            raw = np.array([end - begin for begin, end in spans])
            slow = host.factors_for(spans)
            return raw, raw / slow, slow

        raw, norm, slow = durations(self.ops)
        self.op_ms, self.op_norm_ms = list(1e3 * raw), list(1e3 * norm)
        self.slowdown_first = host.factors[0]
        self.slowdown_p50 = float(np.median(slow)) if slow.size else 1.0
        raw, norm, _ = durations(self.writes)
        self.write_ms, self.write_norm_ms = list(1e3 * raw), list(1e3 * norm)
        raw, norm, _ = durations(self.setup.values())
        self.phases = dict(zip(self.setup, raw.tolist()))
        self.phases_norm = dict(zip(self.setup, norm.tolist()))

    @property
    def timed_s(self) -> float:
        """Raw wall clock spent in the timed operations."""
        return (sum(self.op_ms) + sum(self.write_ms)) / 1e3

    @property
    def timed_norm_s(self) -> float:
        return (sum(self.op_norm_ms) + sum(self.write_norm_ms)) / 1e3


def nearest_rank(values: List[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Inputs (all derived from the seed)
# ----------------------------------------------------------------------


def scan_reads(rng: np.random.Generator, num_nodes: int, reads: int) -> np.ndarray:
    """Distinct targets: a cyclic scan of a shuffled permutation.

    The working set (every node) is far larger than the per-shard caches,
    so an LRU cache never sees a node again before evicting it.
    """
    order = rng.permutation(num_nodes)
    flat = np.arange(reads * NODES_PER_READ) % num_nodes
    return order[flat].reshape(reads, NODES_PER_READ)


def zipf_reads(rng: np.random.Generator, num_nodes: int, reads: int) -> np.ndarray:
    """Zipf(1.1) popularity over a shuffled ranking; targets distinct per read."""
    ranking = rng.permutation(num_nodes)
    weights = 1.0 / np.arange(1, num_nodes + 1) ** ZIPF_EXPONENT
    draws = rng.choice(
        num_nodes, size=(reads, 4 * NODES_PER_READ), p=weights / weights.sum()
    )
    out = np.empty((reads, NODES_PER_READ), dtype=np.int64)
    for row, drawn in enumerate(draws):
        _, first = np.unique(drawn, return_index=True)
        distinct = drawn[np.sort(first)][:NODES_PER_READ]
        if distinct.size < NODES_PER_READ:  # top up with the most popular ranks
            spare = np.setdiff1d(np.arange(2 * NODES_PER_READ), distinct)
            distinct = np.concatenate([distinct, spare])[:NODES_PER_READ]
        out[row] = distinct
    return ranking[out]


def make_writes(rng: np.random.Generator, graph, count: int) -> List[dict]:
    """Three edge batches, then one node arrival attached to three users.

    The second write of every four is the arrival, so that even the
    quarter-length traced pass contains one.
    """
    businesses = graph.nodes_of_type("business")
    users = graph.nodes_of_type("user")
    writes = []
    for index in range(count):
        if index % 4 == 1:
            writes.append({
                "features": rng.normal(size=(1, graph.features.shape[1])),
                "users": rng.choice(users, 3, replace=False),
            })
        else:
            writes.append({
                "businesses": rng.choice(businesses, 2, replace=False),
                "users": rng.choice(users, 2, replace=False),
            })
    return writes


def apply_write(target, write: dict) -> Optional[int]:
    """Apply one write to a router or an oracle server; new node id if any."""
    if "features" in write:
        new = int(target.add_nodes("business", features=write["features"])[0])
        target.add_edges("user-business", [new] * 3, write["users"])
        return new
    target.add_edges("user-business", write["businesses"], write["users"])
    return None


# ----------------------------------------------------------------------
# train_yelp
# ----------------------------------------------------------------------


def run_train(seed: int, size: Sizes, root: Callable = NO_ROOT) -> Outcome:
    out, host = Outcome(), HostSpeed()
    begin = _now()
    dataset = make_yelp(seed, scale=size.scale)
    out.setup["generate_s"] = (begin, _now())
    graph, train, test = dataset.graph, dataset.split.train, dataset.split.test

    classifier = WidenClassifier(seed=seed)
    for _ in range(size.ops):
        host.tick()
        out.attempted += 1
        with root("bench.epoch"):
            begin = _now()
            try:
                classifier.fit(graph, train, 1)
                out.ops.append((begin, _now()))
                out.nodes_answered += int(train.size)
            except Exception as exc:  # counted, reported, never hidden
                out.failed += 1
                out.notes.append(f"fit raised {exc!r}")
    out.close(host)
    out.peak_rss_mb = _rss_mb(resource.RUSAGE_SELF)

    begin = _now()
    out.attempted += 1
    try:
        predicted = classifier.predict(test)
        eval_s = _now() - begin
        f1 = float(np.mean(predicted == graph.labels[test]))
    except Exception as exc:
        out.failed += 1
        out.notes.append(f"predict raised {exc!r}")
        eval_s, f1 = _now() - begin, 0.0
    losses = [float(loss) for loss in classifier.losses]
    out.digest = hashlib.sha256(np.asarray(losses).tobytes()).hexdigest()
    out.extras.update(test_micro_f1=f1, eval_nodes_per_s=test.size / eval_s)
    learned = (
        len(losses) == size.ops
        and all(math.isfinite(loss) for loss in losses)
        and losses[-1] < losses[0]
        and f1 >= MIN_TEST_MICRO_F1
    )
    if not learned:
        out.notes.append(f"training oracle failed: losses={losses} f1={f1:.3f}")
    out.correct = learned and out.failed == 0
    out.verify_s = _now() - begin
    out.classifier, out.dataset = classifier, dataset
    return out


# ----------------------------------------------------------------------
# serve_*
# ----------------------------------------------------------------------


def run_serve(
    workload: str,
    seed: int,
    size: Sizes,
    workdir: Path,
    transport: str = "socket",
    root: Callable = NO_ROOT,
) -> Outcome:
    """Set up a fleet, run the read (and write) stream, check the answers."""
    out, host = Outcome(), HostSpeed()
    use_store = workload != "serve_recompute"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    mark = _now()

    def lap(name: str) -> None:
        nonlocal mark
        out.setup[name] = (mark, _now())
        host.tick()
        mark = _now()

    dataset = make_yelp(seed, scale=size.scale)
    graph = dataset.graph
    lap("generate_s")
    classifier = WidenClassifier(seed=seed)
    classifier.fit(graph, dataset.split.train, 1)
    lap("train_epoch_s")
    checkpoint = ModelRegistry(workdir / "models").save("widen", classifier)
    lap("save_s")
    store_path = None
    if use_store:
        store_path = workdir / "store"
        shutil.rmtree(store_path, ignore_errors=True)
        store = build_store(classifier, graph, store_path, seed=seed)
        lap("store_build_s")
        out.extras["store_rows"] = float(graph.num_nodes)
        out.extras["store_bytes_per_row"] = getattr(store, "row_nbytes", None)
        del store

    make_reads = zipf_reads if use_store else scan_reads
    reads = make_reads(rng, graph.num_nodes, size.warmup + size.ops)
    # Every write is followed by reads, the last one included.
    num_writes = (size.ops - 1) // size.reads_per_write if workload == "serve_mutating" else 0
    writes = make_writes(rng, graph, num_writes)
    probe_uniform = rng.choice(graph.num_nodes, PROBE_NODES, replace=False)
    requested = np.unique(reads[size.warmup:])
    probe_stream = rng.choice(requested, min(PROBE_NODES, requested.size), replace=False)
    lap("inputs_s")

    with root("bench.setup"):
        router = ClusterRouter.from_checkpoint(
            checkpoint, graph, NUM_SHARDS,
            transport=transport, seed=seed, partition_seed=seed,
            store_path=None if store_path is None else str(store_path),
        )
    lap("bringup_s")
    try:
        with root("bench.warmup"):
            for nodes in reads[: size.warmup]:
                router.classify(nodes)
        lap("warmup_s")

        digest = hashlib.sha256()
        added: List[int] = []
        applied: List[dict] = []
        arrival: Optional[int] = None
        for index, nodes in enumerate(reads[size.warmup:]):
            if arrival is not None:  # the inductive arrival is read next
                nodes = np.concatenate([[arrival], nodes[1:]])
                arrival = None
            host.tick()
            out.attempted += 1
            with root("bench.read"):
                begin = _now()
                try:
                    answers = router.classify(nodes)
                    out.ops.append((begin, _now()))
                    digest.update(np.asarray(answers, dtype=np.int64).tobytes())
                    out.nodes_answered += len(answers)
                except Exception as exc:  # counted, reported, never hidden
                    out.failed += 1
                    out.notes.append(f"classify raised {exc!r}")
            if (index + 1) % size.reads_per_write == 0 and len(applied) < len(writes):
                write = writes[len(applied)]
                out.attempted += 1
                with root("bench.write"):
                    begin = _now()
                    try:
                        arrival = apply_write(router, write)
                        out.writes.append((begin, _now()))
                    except Exception as exc:
                        out.failed += 1
                        out.notes.append(f"write raised {exc!r}")
                host.tick()
                applied.append(write)
                if arrival is not None:
                    added.append(arrival)
        out.close(host)
        out.digest = digest.hexdigest()
        coordinator_rss = _rss_mb(resource.RUSAGE_SELF)

        verify_start = _now()
        probe = np.concatenate([probe_stream, probe_uniform, np.asarray(added, np.int64)])
        served = router.embed(probe)
    finally:
        router.close()
    # Children are reaped by close(); only then does RUSAGE_CHILDREN hold
    # the largest worker's peak.  Inline fleets have no children.
    out.peak_rss_mb = coordinator_rss + (
        _rss_mb(resource.RUSAGE_CHILDREN) if transport == "socket" else 0.0
    )

    oracle = InferenceServer(
        WidenClassifier.load(checkpoint), make_yelp(seed, scale=size.scale).graph, seed=seed
    )
    for write in applied:
        apply_write(oracle, write)
    expected = oracle.embed(probe)
    oracle.close()
    delta = float(np.max(np.abs(served - expected)))
    out.extras["oracle_max_abs_delta"] = delta
    out.extras["probe_nodes"] = float(probe.size)
    if not delta <= ORACLE_TOLERANCE:
        out.notes.append(f"oracle mismatch: max |delta| = {delta:.3e}")
        out.failed = out.attempted
    out.correct = out.failed == 0
    out.verify_s = _now() - verify_start
    return out
