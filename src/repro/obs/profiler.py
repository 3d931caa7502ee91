"""Op-level autograd profiler for the ``repro.tensor`` engine.

Three measurements per op name, aggregated over a profiled region:

- **calls / FLOPs** — recorded by a hook inside ``Tensor.from_op``, the one
  funnel every forward operation passes through.  FLOPs are analytic
  estimates from operand shapes (``2·m·n·k`` for matmul, per-element costs
  for elementwise/transcendental ops, zero for pure data movement); ``spmm``
  reports a dense lower bound because the sparse operand never enters the
  autograd graph.
- **forward self-time** — the op functions in ``repro.tensor.ops`` and the
  fused composites in ``repro.tensor.functional`` are wrapped at
  :meth:`OpProfiler.enable` time; a stack subtracts child time so nested
  calls (e.g. ``attention`` → ``matmul``) are never double-counted.
- **backward self-time** — ``Tensor.backward`` times each node's backward
  closure when a profiler is installed; closures only touch numpy, so the
  measurement is pure self-time by construction.

Disabled-profiler overhead is one ``is not None`` check per op creation and
one per ``backward()`` call — the wrappers are removed, not short-circuited,
by :meth:`OpProfiler.disable`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

# Functions wrapped for forward timing, keyed by the module attribute name.
# Values map the attribute name to the ``from_op`` op name so time, count and
# FLOP rows land under one key.
_OPS_FUNCTIONS = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div", "neg": "neg",
    "power": "power", "exp": "exp", "log": "log", "sqrt": "sqrt",
    "tanh": "tanh", "sigmoid": "sigmoid", "relu": "relu",
    "leaky_relu": "leaky_relu", "maximum": "maximum",
    "sum": "sum", "mean": "mean", "max": "max",
    "matmul": "matmul", "transpose": "transpose", "reshape": "reshape",
    "concat": "concat", "stack": "stack", "take": "take",
    "embedding_lookup": "embedding_lookup", "slice": "slice", "spmm": "spmm",
    "pad_gather": "pad_gather", "scatter_rows": "scatter_rows",
    "pad_gather_mul": "pad_gather_mul", "dropout_mask": "dropout",
}
_FUNCTIONAL_FUNCTIONS = {
    "softmax": "softmax",
    "log_softmax": "log_softmax",
    "masked_softmax": "masked_softmax",
    "l2_normalize": "l2_normalize",
    "cross_entropy": "cross_entropy",
    "binary_cross_entropy_with_logits": "bce_with_logits",
    "query_attend": "query_attend",
    "self_attend": "self_attend",
}

# Estimated FLOPs per output element (forward pass only); ops missing here
# use the fallback in _estimate_flops.
_PER_ELEMENT_FLOPS = {
    "add": 1, "sub": 1, "mul": 1, "div": 1, "neg": 1, "power": 2, "sqrt": 1,
    "relu": 1, "leaky_relu": 1, "maximum": 1, "dropout": 1,
    "exp": 4, "log": 4, "tanh": 4, "sigmoid": 4,
    "softmax": 5, "log_softmax": 5, "masked_softmax": 5,
    # gather (0 FLOP) fused with mask + edge + dropout multiplies
    "pad_gather_mul": 3,
    "l2_normalize": 4,
}
_DATA_MOVEMENT = frozenset(
    {"transpose", "reshape", "concat", "stack", "take", "embedding_lookup",
     "slice", "pad_gather", "scatter_rows"}
)


@dataclass
class OpStat:
    """Aggregated measurements for one op name."""

    name: str
    calls: int = 0
    flops: float = 0.0
    forward_s: float = 0.0
    backward_calls: int = 0
    backward_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s


def _estimate_flops(name: str, out_data, parents) -> float:
    if name in _DATA_MOVEMENT:
        return 0.0
    if name == "matmul":
        # out = a @ b: 2 multiply-adds per output element per inner index.
        return 2.0 * out_data.size * parents[0].data.shape[-1]
    if name == "spmm":
        # The sparse operand is not a graph parent; dense-output lower bound.
        return 2.0 * out_data.size
    if name == "query_attend":
        # parents[1] is the (S, L, d) key grid.  Three (S, d) @ (d, d) gemms,
        # the score and the pooling contraction over the grid, one softmax
        # (single-head count: a head repeats all but the first gemm).
        segments, length, d = parents[1].data.shape
        return (
            6.0 * segments * d * d
            + 4.0 * segments * length * d
            + _PER_ELEMENT_FLOPS["masked_softmax"] * segments * length
        )
    if name == "self_attend":
        # Q, K, V projections of every row, then scores and weighted sum
        # over the (S, L, L) grid and its softmax.
        segments, length, d = out_data.shape
        return (
            2.0 * segments * length * d * 3 * d
            + 4.0 * segments * length * length * d
            + _PER_ELEMENT_FLOPS["masked_softmax"] * segments * length * length
        )
    if name in ("cross_entropy", "bce_with_logits"):
        return 8.0 * parents[0].data.size
    if name in ("sum", "mean", "max"):
        return float(parents[0].data.size)
    return float(_PER_ELEMENT_FLOPS.get(name, 1) * out_data.size)


class OpProfiler:
    """Collects per-op counts, FLOP estimates and forward/backward times.

    Usable as a context manager::

        with OpProfiler() as prof:
            trainer.fit(nodes, epochs=2)
        print(prof.table())
    """

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}
        self._stack: List[float] = []  # accumulated child time per frame
        self._originals: List[tuple] = []
        self._enabled = False

    # -- hook targets (called from repro.tensor) -------------------------

    def record_op(self, name: Optional[str], out_data, parents) -> None:
        """Count one op creation (the ``Tensor.from_op`` hook)."""
        stat = self._stat(name or "unnamed")
        stat.calls += 1
        stat.flops += _estimate_flops(stat.name, out_data, parents)

    def record_backward(self, name: Optional[str], seconds: float) -> None:
        """Account one backward-closure invocation (``Tensor.backward``)."""
        stat = self._stat(name or "unnamed")
        stat.backward_calls += 1
        stat.backward_s += seconds

    def _stat(self, name: str) -> OpStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = OpStat(name)
        return stat

    # -- forward-time wrapping -------------------------------------------

    def _timed(self, fn, op_name: str):
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child_time = stack.pop()
                self._stat(op_name).forward_s += elapsed - child_time
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", op_name)
        return wrapper

    def enable(self) -> "OpProfiler":
        """Install the ``from_op`` hook and wrap op functions for timing."""
        if self._enabled:
            return self
        from repro.tensor import functional, ops, tensor as tensor_module

        for module, table in (
            (ops, _OPS_FUNCTIONS),
            (functional, _FUNCTIONAL_FUNCTIONS),
        ):
            for attr, op_name in table.items():
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._timed(original, op_name))
        tensor_module.set_profiler(self)
        self._enabled = True
        return self

    def disable(self) -> "OpProfiler":
        """Remove every wrapper and hook (library code back to stock speed)."""
        if not self._enabled:
            return self
        from repro.tensor import tensor as tensor_module

        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        if tensor_module.get_profiler() is self:
            tensor_module.set_profiler(None)
        self._enabled = False
        return self

    def __enter__(self) -> "OpProfiler":
        return self.enable()

    def __exit__(self, *exc_info) -> None:
        self.disable()

    # -- reductions ------------------------------------------------------

    @property
    def total_calls(self) -> int:
        return sum(stat.calls for stat in self.stats.values())

    @property
    def total_flops(self) -> float:
        return sum(stat.flops for stat in self.stats.values())

    @property
    def total_seconds(self) -> float:
        return sum(stat.total_s for stat in self.stats.values())

    def summary(self) -> List[Dict[str, float]]:
        """Per-op records sorted by total (forward + backward) self-time."""
        rows = sorted(self.stats.values(), key=lambda s: s.total_s, reverse=True)
        return [
            {
                "op": stat.name,
                "calls": stat.calls,
                "flops": stat.flops,
                "forward_s": stat.forward_s,
                "backward_s": stat.backward_s,
                "total_s": stat.total_s,
            }
            for stat in rows
        ]

    def export(self, registry) -> None:
        """Mirror the per-op totals into a :class:`MetricsRegistry`."""
        for stat in self.stats.values():
            registry.counter("op_calls", op=stat.name).inc(stat.calls)
            registry.counter("op_flops", op=stat.name).inc(stat.flops)
            registry.counter("op_forward_seconds", op=stat.name).inc(stat.forward_s)
            registry.counter("op_backward_seconds", op=stat.name).inc(stat.backward_s)

    def table(self, limit: Optional[int] = None) -> str:
        """Human-readable op-time table (what ``repro train --trace-out``
        prints)."""
        rows = self.summary()
        if limit is not None:
            rows = rows[:limit]
        total = self.total_seconds or 1.0
        header = (
            f"{'op':<18} {'calls':>9} {'MFLOP':>10} "
            f"{'fwd ms':>10} {'bwd ms':>10} {'total ms':>10} {'%':>6}"
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['op']:<18} {row['calls']:>9} "
                f"{row['flops'] / 1e6:>10.2f} "
                f"{row['forward_s'] * 1e3:>10.2f} "
                f"{row['backward_s'] * 1e3:>10.2f} "
                f"{row['total_s'] * 1e3:>10.2f} "
                f"{100.0 * row['total_s'] / total:>5.1f}%"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<18} {self.total_calls:>9} "
            f"{self.total_flops / 1e6:>10.2f} "
            f"{sum(r['forward_s'] for r in rows) * 1e3:>10.2f} "
            f"{sum(r['backward_s'] for r in rows) * 1e3:>10.2f} "
            f"{self.total_seconds * 1e3:>10.2f} {'100.0%':>6}"
        )
        return "\n".join(lines)

    def reset(self) -> None:
        self.stats.clear()
