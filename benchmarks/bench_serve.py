"""Serving-layer benchmark — the inference half of the efficiency claim.

The paper's Figures 4-5 benchmark *training* efficiency; this bench covers
the serving path ``repro.serve`` adds: a trained WIDEN checkpoint restored
through the model registry answers a Zipf request trace, sent as
``GROUP``-node ops timed on the wall clock, behind the embedding cache,
against the cold one-request-at-a-time baseline.

Shape claims asserted:

1. A warm embedding cache cuts the mean wall time per node well below the
   cold single-request path (the whole point of memoizing embeddings).
2. The versioned cache serves a 100% hit-rate on an exact replay of the
   trace with no intervening graph mutation.
3. After a streaming mutation that touches the trace's hottest node, the
   hit-rate of the next pass drops below the warm pass — every entry whose
   sample read that node's adjacency list is stale and recomputed (a write
   the trace never read stales nothing: invalidation is by read set).
"""

import numpy as np

from harness import dataset_scale, full_mode, load_dataset
from repro.core import WidenClassifier
from repro.serve import (
    InferenceServer,
    ModelRegistry,
    cold_single_requests,
    make_trace,
    replay,
)

GROUP = 8  # nodes per op, serve-cluster's default


def _run(tmp_path):
    dataset = load_dataset("acm")
    epochs = 20 if full_mode() else 5
    model = WidenClassifier(seed=0)
    model.fit(dataset.graph, dataset.split.train, epochs=epochs)

    registry = ModelRegistry(tmp_path / "registry")
    registry.save("widen-acm", model)
    served = registry.load("widen-acm", graph=dataset.graph)

    requests = 1000 if full_mode() else 300
    trace = make_trace(dataset.split.test, requests, rng=0)
    cold = cold_single_requests(served, dataset.graph, trace, seed=0)

    server = InferenceServer(served, dataset.graph, max_batch_size=16, seed=0)
    first = replay(server, trace, GROUP)
    warm = replay(server, trace, GROUP)

    # Streaming mutation: one node arrives, wired to the trace's hottest
    # node, whose cached answer (and any that read its list) goes stale.
    papers = dataset.graph.nodes_of_type(dataset.target_type)
    arrival = server.add_nodes(
        dataset.target_type,
        features=dataset.graph.features[papers[0]].reshape(1, -1),
    )
    hottest = np.bincount(trace).argmax()
    author = dataset.graph.nodes_of_type("author")[0]
    server.add_edges("paper-author", [hottest, arrival[0]], [author, author])
    post_mutation = replay(server, trace, GROUP)
    return cold, first, warm, post_mutation


def test_serve_latency(benchmark, tmp_path):
    cold, first, warm, post_mutation = benchmark.pedantic(
        lambda: _run(tmp_path), rounds=1, iterations=1
    )
    print()
    print(f"{'pass':<28}{'ms/node':>10}{'op p99 ms':>10}{'hit rate':>10}")
    for name, stats in (
        ("cold single requests", cold),
        ("server, cold cache", first),
        ("server, warm cache", warm),
        ("server, after mutation", post_mutation),
    ):
        hit = stats.get("cache_hit_rate", float("nan"))
        print(
            f"{name:<28}"
            f"{1e3 / stats['throughput_rps']:>10.3f}"
            f"{stats['latency_p99_s'] * 1e3:>10.3f}"
            f"{hit * 100 if hit == hit else float('nan'):>10.1f}"
        )

    # Claim 1: warm cache beats the cold single-request path per node (a
    # warm op answers GROUP nodes, a cold one answers one).
    assert warm["throughput_rps"] > cold["throughput_rps"], (
        f"warm-cache {1 / warm['throughput_rps']:.6f} s/node should be below "
        f"the cold baseline {1 / cold['throughput_rps']:.6f} s/node"
    )
    # Claim 2: an exact replay with no mutation is a 100% hit-rate.
    assert warm["cache_hit_rate"] == 1.0
    # Claim 3: the mutation invalidated everything the first pass cached.
    assert post_mutation["cache_hit_rate"] < warm["cache_hit_rate"]
    assert np.isfinite(first["batch_occupancy"])
