"""Counted work: Python calls into ``src/repro`` per op and per training step.

Wall time on a shared host moves 5-17 % between identical runs; the number
of Python calls an op makes does not.  Each case counts, under
``sys.setprofile``, the ``call`` events of frames whose file is under
``src/repro`` (numpy's own Python wrappers change with its version, so they
are not counted), runs its pass twice and requires the same count both
times, then holds it under a pinned ceiling.

The ceilings are the counts measured on CPython 3.11 plus ``SLACK`` (2 %,
rounded up).  A change that lowers a count tightens its ceiling in the same
change; one that raises a count past it says why.  A count below half its
ceiling fails too: the ceiling is stale, or the counter stopped counting.
Other CPython versions can count differently: 3.12 inlines list
comprehensions, so their frames no longer count.
"""

import math
import os
import sys

import numpy as np
import pytest

import repro
from repro.cluster import ClusterRouter
from repro.core import WidenClassifier
from repro.datasets import make_yelp
from repro.obs import RUNGS, MetricsRegistry
from repro.serve import InferenceServer
from repro.store import AggregateStore, build_store

SRC = os.path.dirname(repro.__file__) + os.sep
SEED = 0
SCALE = 1.0  # make_yelp: 3,780 nodes, 300 training nodes
SLACK = 0.02

#: Calls per pass as measured (CPython 3.11); the ceiling adds ``SLACK``.
MEASURED = {
    "cache_hit_1": 21,
    "cache_hit_16": 96,
    "store_hit_1": 53,
    "store_hit_16": 157,
    "recompute_1": 229,
    "recompute_8": 282,
    "recompute_16": 337,
    "router_store_16": 343,
    "train_step": 366,
    "train_epoch": 3710,
}


def count_calls(fn) -> int:
    """``call`` events of ``src/repro`` frames while ``fn()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def assert_counted(case: str, run) -> None:
    """``run`` prepares and counts one pass; two passes must agree and sit
    between half the ceiling and the ceiling."""
    first, second = run(), run()
    assert first == second, f"{case}: {first} then {second} calls"
    ceiling = math.ceil(MEASURED[case] * (1 + SLACK))
    assert first <= ceiling, (
        f"{case}: {first} calls > ceiling {ceiling} "
        f"(measured {MEASURED[case]} + {SLACK:.0%})"
    )
    assert first > ceiling / 2, (
        f"{case}: {first} calls, under half the ceiling {ceiling}: tighten it"
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A fitted classifier's checkpoint and store, and a probe of 16 test
    nodes, 8 owned by each shard of a 2-shard fleet."""
    dataset = make_yelp(SEED, scale=SCALE)
    model = WidenClassifier(seed=SEED)
    model.fit(dataset.graph, dataset.split.train, 1)
    root = tmp_path_factory.mktemp("counted")
    checkpoint = root / "widen.ckpt"
    model.save(checkpoint)
    store = root / "store"
    build_store(model, dataset.graph, store, seed=SEED)
    test = dataset.split.test
    probe = np.concatenate([test[test % 2 == 0][:8], test[test % 2 == 1][:8]])
    return checkpoint, store, probe


def _server(checkpoint, store=None) -> InferenceServer:
    graph = make_yelp(SEED, scale=SCALE).graph
    return InferenceServer(
        WidenClassifier.load(checkpoint), graph, seed=SEED,
        registry=MetricsRegistry(),
        store=None if store is None else AggregateStore.open(store),
    )


@pytest.mark.parametrize("size", [1, 16])
@pytest.mark.parametrize("rung", ["cache", "store", "recompute"])
def test_single_server_op(served, rung, size):
    """One ``embed`` op answered wholly by ``rung``: a cache hit on a warm
    server, else a miss (cache emptied first) that the store or the
    recompute path answers."""
    _assert_single_server_op(served, rung, size)


def test_recompute_chunk_of_a_two_shard_read(served):
    """The 8 nodes one shard recomputes of serve_recompute's 16-node read."""
    _assert_single_server_op(served, "recompute", 8)


def _assert_single_server_op(served, rung, size):
    checkpoint, store, probe = served
    nodes = probe[:size]
    server = _server(checkpoint, store if rung == "store" else None)
    server.embed(nodes)  # every lazily built structure exists

    def op():
        if rung != "cache":
            server.cache.invalidate()
        assert {RUNGS[code] for code in server.replay(nodes)["rungs"]} == {rung}
        if rung != "cache":
            server.cache.invalidate()
        return count_calls(lambda: server.embed(nodes))

    case = "cache_hit" if rung == "cache" else "store_hit" if rung == "store" else rung
    assert_counted(f"{case}_{size}", op)


def test_store_op_through_an_inline_router(served):
    checkpoint, store, probe = served
    router = ClusterRouter.from_checkpoint(
        checkpoint, make_yelp(SEED, scale=SCALE).graph, 2,
        transport="inline", seed=SEED, store_path=str(store),
    )

    def store_op():
        for transport in router.fleet.transports:
            transport.engine.server.cache.invalidate()
        return count_calls(lambda: router.embed(probe))

    with router:
        router.embed(probe)
        assert_counted("router_store_16", store_op)


@pytest.fixture(scope="module")
def yelp():
    dataset = make_yelp(SEED, scale=SCALE)
    return dataset.graph, dataset.split.train


def _warm(graph, train) -> WidenClassifier:
    """A fresh classifier after one epoch of train_yelp's loop (its op is
    ``fit(graph, train, 1)``), so every pass counts from the same state."""
    model = WidenClassifier(seed=SEED)
    model.fit(graph, train, 1)
    return model


def test_train_yelp_step(yelp):
    graph, train = yelp

    def step():
        trainer = _warm(graph, train).trainer
        trainer.epoch_begin(train)
        return count_calls(lambda: (trainer.run_microbatch(0), trainer.apply_update()))

    assert_counted("train_step", step)


def test_train_yelp_epoch(yelp):
    graph, train = yelp

    def epoch():
        model = _warm(graph, train)
        return count_calls(lambda: model.fit(graph, train, 1))

    assert_counted("train_epoch", epoch)
