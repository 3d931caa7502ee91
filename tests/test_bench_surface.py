"""The names ``benchmarks/perf`` wraps must keep resolving.

The wall-clock benchmark attributes time by wrapping boundary functions it
names as dotted strings (``benchmarks/perf/layers.py``).  A rename in
``src/`` does not break the benchmark — the name is skipped and its layer
reported ``absent`` — so without this guard it surfaces only in CI's
``perf-smoke`` step.  Resolution is the benchmark's own ``resolve()``,
imported read-only.
"""

import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


@pytest.fixture(scope="module")
def perf():
    """``(layers, resolve)`` from the benchmark directory, which is a
    script directory rather than a package: its modules import each other
    by bare name."""
    sys.path.insert(0, str(PERF))
    try:
        import layers
        import tracing
    finally:
        sys.path.remove(str(PERF))
    yield layers, tracing.resolve
    for name in ("layers", "tracing"):
        sys.modules.pop(name, None)


def test_every_name_the_benchmark_wraps_resolves(perf):
    layers, resolve = perf
    names = [name for group in layers.SPANS.values() for name in group]
    names += list(layers.TALLIES)
    names += [layers.KEEP, layers.NET_SEND, layers.NET_RECV, layers.OP_PROFILER]
    assert len(names) > 40  # the tables were found, not an empty stand-in
    for name in names:
        assert resolve(name) is not None, (
            f"benchmarks/perf/layers.py names {name!r}, which no longer "
            "resolves: keep the name where it is (benchmarks/perf may not change)"
        )


def test_pack_tally_reads_the_padded_grids(perf):
    """The ``core.packing`` tally reads ``wide_valid``/``deep_valid`` off
    ``pack_batch``'s result; the serving and default-config training packs
    the benchmark runs are padded grids, which carry both."""
    import numpy as np

    from repro.core import WidenConfig
    from repro.core.packing import pack_batch
    from repro.core.state import NeighborStateStore
    from repro.datasets import make_acm

    layers, _ = perf
    graph = make_acm(seed=0, scale=0.3).graph
    config = WidenConfig()
    store = NeighborStateStore(
        graph, config.num_wide, config.num_deep, config.num_deep_walks, rng=0
    )
    targets = graph.labeled_nodes()[:4]
    pack = pack_batch(store.batch(targets), graph, config)
    tally = layers.TALLIES["repro.core.model.pack_batch"]((), {}, pack)
    assert tally["slots.valid"] == tally["slots.total"] > 0
    assert isinstance(pack.wide_valid, np.ndarray)
    assert isinstance(pack.deep_valid, np.ndarray)
