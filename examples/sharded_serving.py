"""Sharded serving — scale-out without drift.

The single ``InferenceServer`` owns one whole-graph copy; ``repro.cluster``
splits the *node ids* over k shards (shard ``n % k`` owns node ``n``),
each a full replica of the graph, so every shard answers requests for its
owned nodes bit-identically to the whole-graph server.  This example demonstrates the full contract:

1. scatter-gather requests through ``ClusterRouter`` and verify the
   responses equal a single server's byte for byte — including nodes whose
   neighbors other shards own;
2. stream a new paper in through the router (``add_nodes``/``add_edges``
   are broadcast as one command per write) and verify the cluster still
   matches a single server that saw the same stream, and that every shard
   holds the coordinator's freshness state (what a killed shard is rebuilt
   from);
3. print the cluster telemetry: per-shard ownership and routing counters,
   and the shard-labeled Prometheus exposition.

Run:  python examples/sharded_serving.py
"""

import tempfile

import numpy as np

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.serve import InferenceServer, ModelRegistry
from repro.serve.cache import state_differences


def fresh_graph():
    return make_acm(seed=0, scale=0.5).graph


def stream_one_paper(target):
    """The same arrival applied to a server or a router."""
    dim = target.graph.features.shape[1]
    new = target.add_nodes("paper", features=np.full((1, dim), 0.3))
    node = int(new[0])
    target.add_edges("paper-author", [node, node], [1, 3])
    return node


def main() -> None:
    dataset = make_acm(seed=0, scale=0.5)
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
    model.fit(dataset.graph, dataset.split.train, epochs=3)

    with tempfile.TemporaryDirectory(prefix="repro-registry-") as root:
        registry = ModelRegistry(root)
        checkpoint = registry.save("widen-acm", model)

        graph = fresh_graph()
        single = InferenceServer(
            WidenClassifier.load(checkpoint, graph=graph), graph, seed=7
        )
        probe = np.random.default_rng(1).choice(
            graph.num_nodes, size=20, replace=False
        )

        print("-- 1. scatter-gather equals the single server --")
        reference = single.embed(probe)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 4, transport="socket", seed=7
        )
        plan = router.plan.summary()
        print(f"4 shards over {plan['num_nodes']} nodes, "
              f"shard n % 4 owning node n")
        embeddings = router.embed(probe)
        print(f"cluster == single server, bit for bit: "
              f"{np.array_equal(embeddings, reference)}")

        print("\n-- 2. streaming mutations through the router --")
        node_single = stream_one_paper(single)
        node_cluster = stream_one_paper(router)
        assert node_cluster == node_single
        after = np.concatenate([probe, [node_cluster]])
        print(f"post-mutation cluster == single server: "
              f"{np.array_equal(router.embed(after), single.embed(after))}")
        # Every shard holds the freshness state the coordinator holds — what
        # a killed shard is rebuilt from, warm, with no history replayed.
        coordinator = router.supervisor.serving_state()
        for worker in router.workers:
            # Pulled through the transport protocol, so the same line works
            # whether the shard engine is inline or a process.
            state = worker.pull_serving_state().result()["serving_state"]
            print(f"  shard {worker.spec.shard_id}: write clock "
                  f"{state['clock']}, {state['touched_nodes'].size} adjacency "
                  f"lists touched, equals the coordinator's: "
                  f"{not state_differences(state, coordinator)}")

        print("\n-- 3. cluster telemetry --")
        merged = router.merged_registry()
        for shard in router.plan.summary()["shards"]:
            label = str(shard["shard"])
            routed = merged.get("cluster_requests_total", shard=label)
            hits, misses = (
                merged.get("serve_requests_total", cache=hit, shard=label).value
                for hit in ("hit", "miss")
            )
            print(f"  shard {label}: {shard['owned']} owned, "
                  f"{0 if routed is None else routed.value:.0f} routed, "
                  f"hit rate {hits / max(hits + misses, 1) * 100:.0f}%")
        exposition = router.render_prometheus()
        print("\nPrometheus exposition (first lines):")
        for line in exposition.splitlines()[:6]:
            print(f"  {line}")
        router.close()


if __name__ == "__main__":
    main()
