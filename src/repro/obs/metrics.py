"""Metric primitives and the process-wide registry.

Three instrument kinds, modeled on the Prometheus data model but kept
in-process (this repo has no scrape endpoint — metrics are dumped to JSONL
at the end of a run):

- :class:`Counter` — monotonically increasing total (messages processed,
  trigger fires, cache hits).
- :class:`Gauge` — a value that can go up and down (queue depth, current
  neighbor-set size).
- :class:`Histogram` — a distribution of observations with exact quantiles
  (latencies, attention entropies, KL divergences).  Observations are kept
  raw; at this repo's scale (≤ millions of points) exactness beats the
  memory savings of bucketed sketches.

A :class:`MetricsRegistry` owns labeled *series* of instruments: asking for
``registry.counter("messages", path="wide")`` twice returns the same object,
while a different label set names a different series.  The registry also
keeps an append-only *event log* (:meth:`MetricsRegistry.emit`) for stepped
time series — per-epoch loss, F1, message volume — which is what makes a
``metrics.jsonl`` dump replayable into plots.

One process-wide default registry exists so training and serving report
through one pipeline; create private registries in tests.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.codec import publish

LabelKey = Tuple[Tuple[str, str], ...]

_PROM_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _prom_name(name: str) -> str:
    """Metric name sanitized to the Prometheus grammar (``/`` -> ``_`` etc.)."""
    if _PROM_NAME_OK.fullmatch(name):
        return name
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not re.match(r"[a-zA-Z_:]", cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(labels: Dict[str, object], extra: Optional[Dict[str, str]] = None) -> str:
    """Rendered ``{k="v",...}`` block, empty string for a label-free series."""
    pairs = [(str(k), str(v)) for k, v in sorted(labels.items(), key=lambda kv: str(kv[0]))]
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    rendered = []
    for key, value in pairs:
        if not _PROM_LABEL_OK.fullmatch(key):
            key = re.sub(r"[^a-zA-Z0-9_]", "_", key)
            if not re.match(r"[a-zA-Z_]", key):
                key = "_" + key  # label names may not start with a digit
        # Exposition-format escaping; backslash first so the others stay literal.
        value = value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        rendered.append(f'{key}="{value}"')
    return "{" + ",".join(rendered) + "}"


def _prom_help(text: str) -> str:
    """HELP-line escaping: only backslash and newline (quotes stay literal)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


# Help text for well-known metric names.  Kept here so every registry —
# router-scope, per-shard, test-private — exposes the same docs.
DEFAULT_HELP: Dict[str, str] = {
    "serve_latency_seconds": "End-to-end serve latency per request.",
    "serve_requests_total": "Serve requests by cache outcome.",
    "serve_batch_size": "Drained chunk sizes (queued misses; a re-checked cache hit counts).",
    "serve_compute_batch_size": "Batch sizes that reached the model.",
    "serve_invalidation_frontier": "Nodes a mutation stamped as touched (changed sources, or every node for a rewire of unknown extent).",
    "serve_cache_node_hits": "Per-node embedding-cache hit counts.",
    "serve_cache_entries": "Live embedding-cache entries.",
    "serve_rung_total": "Nodes served by ladder rung (cache/store/overlay/recompute).",
    "shard_errors_total": "Engine envelopes that became error replies, by kind.",
    "train_shard_step_seconds": "Per-shard step compute (previous update's optimizer step, then forward+backward), per step.",
    "train_grad_reduce_seconds": "Coordinator weighted-reduce + global-norm time, per global step.",
    "train_sync_bytes_total": "Gradient bytes moved per global step (gathered + broadcast).",
    "train_attention_entropy": "Wide/deep attention entropy observed during training, by path.",
    "train_kl_divergence": "KL divergence of attention profiles at downsampling checks.",
    "train_messages_total": "Neighbor messages aggregated during training, by path.",
    "cluster_requests_total": "Scatter-gather requests issued by the router.",
    "fleet_worker_connected": "1 while the shard's socket transport is up, 0 after WorkerDown.",
    "fleet_workers_connected": "Socket workers currently connected, fleet-wide.",
    "fleet_worker_down_total": "WorkerDown events by shard and reason.",
    "fleet_reconnects_total": "Workers respawned and readmitted after WorkerDown.",
    "fleet_heartbeat_age_seconds": "Round-trip age of answered heartbeats, per shard.",
    "slo_window_requests": "Requests inside the rolling SLO window.",
    "slo_error_budget_remaining": "Fraction of the SLO error budget left (1 = untouched).",
    "slo_burn_rate": "Error-budget burn rate (1 = sustainable).",
    "trace_spans_total": "Spans collected by the distributed tracer.",
    "store_rows": "Materialized rows (finished embeddings) in the store.",
    "store_row_bytes": "Bytes per materialized store row (the embedding: dim * 8).",
    "store_bytes_total": "Total bytes of stored embeddings.",
    "store_build_seconds": "Wall-clock time of the last store build.",
    "op_calls": "Tensor-op invocations by op name.",
    "op_flops": "Estimated FLOPs by op name.",
}


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set (sorted by label name)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def nearest_rank_percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]); 0.0 for an empty series.

    Nearest-rank keeps the answer an *observed* value — the convention of
    serving dashboards — instead of an interpolated value no request paid.
    """
    return _ordered_percentile(sorted(values), p)


def _ordered_percentile(ordered: Sequence[float], p: float) -> float:
    """:func:`nearest_rank_percentile` of ``ordered``, already sorted: one
    index, no copy."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(ordered) == 0:
        return 0.0
    rank = max(1, int(-(-p * len(ordered) // 100)))  # ceil without floats
    return ordered[min(rank, len(ordered)) - 1]


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": "counter",
            "name": self.name,
            "labels": self.labels,
            "value": self._value,
        }


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": "gauge",
            "name": self.name,
            "labels": self.labels,
            "value": self._value,
        }


class Histogram:
    """Distribution of observations with exact quantiles.

    One quantile convention, :meth:`percentile`'s nearest rank, in every
    report — ``/metrics``, snapshots, JSONL: every reported latency is one
    a real request paid.
    """

    __slots__ = ("name", "labels", "_values", "_sorted")

    def __init__(self, name: str, labels: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = False

    def observe_many(self, values: Iterable[float]) -> None:
        self._values.extend(map(float, values))
        self._sorted = False

    def _ordered(self) -> List[float]:
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return math.fsum(self._values)

    @property
    def min(self) -> float:
        return self._ordered()[0] if self._values else 0.0

    @property
    def max(self) -> float:
        return self._ordered()[-1] if self._values else 0.0

    @property
    def mean(self) -> float:
        return self.sum / len(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the observations so far."""
        return _ordered_percentile(self._ordered(), p)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        self._values.clear()
        self._sorted = True

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": "histogram",
            "name": self.name,
            "labels": self.labels,
            **self.summary(),
        }


class MetricsRegistry:
    """Labeled instrument series plus an append-only event log.

    Series identity is ``(name, labels)`` with labels canonicalized by name,
    so ``counter("m", a=1, b=2)`` and ``counter("m", b=2, a=1)`` are the same
    series.  Requesting an existing name with a different instrument kind is
    an error — one name means one kind, as in every metrics system.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, LabelKey], object] = {}
        self._kinds: Dict[str, type] = {}
        self.events: List[Dict[str, object]] = []

    # -- instruments ----------------------------------------------------

    def _get_or_create(self, cls: type, name: str, labels: Dict[str, object]):
        key = (name, _label_key(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing_kind.__name__}, not {cls.__name__}"
                )
            instrument = self._series.get(key)
            if instrument is None:
                instrument = cls(name, labels)
                self._series[key] = instrument
                self._kinds[name] = cls
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def series(self) -> List[object]:
        """All registered instruments, in registration order."""
        return list(self._series.values())

    def get(self, name: str, **labels):
        """Existing instrument or ``None`` (never creates)."""
        return self._series.get((name, _label_key(labels)))

    # -- event log (stepped time series) --------------------------------

    def emit(
        self, name: str, value: float, step: Optional[int] = None, **labels
    ) -> None:
        """Append one point of a stepped series (e.g. a per-epoch scalar)."""
        record: Dict[str, object] = {"name": name, "value": float(value)}
        if step is not None:
            record["step"] = int(step)
        if labels:
            record["labels"] = {str(k): str(v) for k, v in labels.items()}
        self.events.append(record)

    def values(self, name: str, **labels) -> List[float]:
        """All emitted values of one stepped series, in emit order."""
        want = {str(k): str(v) for k, v in labels.items()} or None
        return [
            float(e["value"])
            for e in self.events
            if e["name"] == name and e.get("labels") == want
        ]

    # -- message-boundary serialization ---------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Lossless, picklable snapshot of every series and event.

        Unlike :meth:`snapshot` (which reduces histograms to summary
        stats), the payload keeps **raw histogram observations**, so a
        merged registry computes quantiles over the union of shards'
        observations — the same numbers one shared registry would have
        produced.  This is how per-process registries in the cluster's socket
        workers aggregate into one shard-labeled Prometheus exposition.
        """
        with self._lock:
            instruments = list(self._series.values())
            events = [dict(event) for event in self.events]
        series = []
        for instrument in instruments:
            entry: Dict[str, object] = {
                "name": instrument.name,
                "labels": dict(instrument.labels),
            }
            if isinstance(instrument, Counter):
                entry["kind"] = "counter"
                entry["value"] = instrument.value
            elif isinstance(instrument, Gauge):
                entry["kind"] = "gauge"
                entry["value"] = instrument.value
            else:
                entry["kind"] = "histogram"
                entry["values"] = list(instrument._values)
            series.append(entry)
        return {"series": series, "events": events}

    def merge_payload(
        self,
        payload: Dict[str, object],
        extra_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Fold a :meth:`to_payload` snapshot into this registry.

        ``extra_labels`` (e.g. ``{"shard": "2"}``) are appended to every
        merged series and event, which is how identically named series from
        different shards stay distinct in one exposition.  Counters add,
        gauges take the incoming value, histograms extend with the raw
        observations.
        """
        extra = {str(k): str(v) for k, v in (extra_labels or {}).items()}
        for entry in payload["series"]:
            labels = {**entry["labels"], **extra}
            if entry["kind"] == "counter":
                self.counter(entry["name"], **labels).inc(entry["value"])
            elif entry["kind"] == "gauge":
                self.gauge(entry["name"], **labels).set(entry["value"])
            elif entry["kind"] == "histogram":
                self.histogram(entry["name"], **labels).observe_many(
                    entry["values"]
                )
            else:
                raise ValueError(f"unknown series kind {entry['kind']!r}")
        for event in payload["events"]:
            labels = {**event.get("labels", {}), **extra}
            self.emit(
                event["name"], event["value"], step=event.get("step"), **labels
            )

    # -- export ---------------------------------------------------------

    def snapshot(self) -> List[Dict[str, object]]:
        """Current state of every instrument (no events)."""
        return [instrument.snapshot() for instrument in self._series.values()]

    def to_records(self) -> List[Dict[str, object]]:
        """Event log followed by an instrument snapshot — the JSONL payload."""
        records = [{"kind": "event", **event} for event in self.events]
        records.extend(self.snapshot())
        return records

    def render_prometheus(self) -> str:
        """Prometheus text-exposition rendering of every instrument.

        The metrics-scrape surface for long-lived servers: counters and
        gauges render as one sample per labeled series, histograms as the
        summary convention (``{quantile="0.5|0.95|0.99"}`` samples plus
        ``_sum``/``_count``), each name preceded by ``# TYPE``.  Names and
        labels are sanitized to the Prometheus grammar (``serve/latency``
        becomes ``serve_latency``).  The event log is a replay artifact, not
        a scrape target, and is not rendered.

        The output ends with a newline, so it can be written verbatim as a
        textfile-collector file (:meth:`write_prometheus`) or served from a
        ``/metrics`` handler.
        """
        by_name: Dict[str, List[object]] = {}
        with self._lock:
            instruments = list(self._series.values())
        for instrument in instruments:
            by_name.setdefault(instrument.name, []).append(instrument)
        lines: List[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            prom = _prom_name(name)
            kind = type(group[0])
            help_text = DEFAULT_HELP.get(name)
            if help_text:
                lines.append(f"# HELP {prom} {_prom_help(help_text)}")
            if kind is Counter:
                lines.append(f"# TYPE {prom} counter")
                for c in group:
                    lines.append(f"{prom}{_prom_labels(c.labels)} {c.value:g}")
            elif kind is Gauge:
                lines.append(f"# TYPE {prom} gauge")
                for g in group:
                    lines.append(f"{prom}{_prom_labels(g.labels)} {g.value:g}")
            else:  # Histogram -> summary exposition
                lines.append(f"# TYPE {prom} summary")
                for h in group:
                    for q in (0.5, 0.95, 0.99):
                        sample = h.percentile(100 * q)
                        lines.append(
                            f"{prom}{_prom_labels(h.labels, {'quantile': f'{q:g}'})}"
                            f" {sample:g}"
                        )
                    lines.append(f"{prom}_sum{_prom_labels(h.labels)} {h.sum:g}")
                    lines.append(f"{prom}_count{_prom_labels(h.labels)} {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path) -> int:
        """Write :meth:`render_prometheus` to ``path``; returns sample lines.

        The file is published whole (:func:`repro.codec.publish`), the
        textfile collector convention: a scraper never observes a
        half-written file.
        """
        text = self.render_prometheus()
        publish(path, text.encode("utf-8"))
        return sum(1 for line in text.splitlines() if not line.startswith("#"))

    def dump_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the record count."""
        records = self.to_records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return len(records)

    def reset(self) -> None:
        """Drop every series and event (between independent runs)."""
        with self._lock:
            self._series.clear()
            self._kinds.clear()
            self.events.clear()


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (training + serving share it)."""
    return _DEFAULT_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous


#: ``/proc/self/status`` fields :func:`record_process_memory` reports.
_PROC_MEMORY = {
    "VmRSS": "process_resident_bytes",
    "VmHWM": "process_peak_resident_bytes",
}


def record_process_memory(registry: MetricsRegistry) -> None:
    """Set this process's resident memory as two gauges, in bytes:
    ``process_resident_bytes`` (``VmRSS``) and
    ``process_peak_resident_bytes`` (``VmHWM``), read from
    ``/proc/self/status``.

    ``VmHWM`` is the process's own peak: unlike ``ru_maxrss`` it restarts
    at ``exec``, so a worker does not report its parent's peak as its own.
    Where ``/proc`` is missing the gauges are left out, not set to zero.
    """
    try:
        with open("/proc/self/status") as handle:
            lines = handle.readlines()
    except OSError:
        return
    for line in lines:
        field, _, value = line.partition(":")
        name = _PROC_MEMORY.get(field)
        if name is not None:
            registry.gauge(name).set(float(value.split()[0]) * 1024)  # kB
