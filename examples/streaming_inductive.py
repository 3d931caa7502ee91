"""Inductive serving of brand-new nodes — the streaming scenario, live.

The paper motivates inductiveness with "high-throughput, production machine
learning systems" that constantly encounter unseen nodes (new users, new
videos).  This example runs that scenario through the ``repro.serve`` stack:
WIDEN trains on a graph with 20% of businesses missing, is checkpointed
through the model registry, and restored into an ``InferenceServer``.  The
held-out businesses then *arrive as a stream* — ``server.add_nodes`` /
``add_edges`` graft each one (features + connections) into the live serving
graph, the embedding cache invalidates itself, and the very next request
classifies the newcomer with zero retraining.

For contrast, the same protocol is run through GCN, whose spectral
convolution was designed for a fixed graph, and Node2Vec, which cannot
handle unseen nodes at all.

Run:  python examples/streaming_inductive.py
"""

import tempfile

import numpy as np

from repro.baselines import GCN, Node2Vec
from repro.core import WidenClassifier
from repro.datasets import make_inductive_split, make_yelp
from repro.eval import micro_f1
from repro.serve import RUNGS, InferenceServer, ModelRegistry


def main() -> None:
    dataset = make_yelp(seed=0, scale=0.4)
    split = make_inductive_split(dataset, holdout_fraction=0.2, rng=0)
    print(f"full graph: {dataset.graph}")
    print(f"training graph (new businesses removed): {split.train_graph}")
    print(f"arriving nodes to stream in later: {split.holdout.size}")

    labels = dataset.graph.labels[split.holdout]

    print("\n-- WIDEN behind repro.serve (built for this) --")
    widen = WidenClassifier(seed=0)
    widen.fit(split.train_graph, split.train_nodes, epochs=15)

    with tempfile.TemporaryDirectory(prefix="repro-registry-") as root:
        # Checkpoint -> registry -> restore: the serving process never sees
        # the trainer, only the self-describing checkpoint.
        registry = ModelRegistry(root)
        registry.save("widen-yelp", widen)
        served = registry.load("widen-yelp", graph=split.train_graph)
        server = InferenceServer(
            served, split.train_graph, max_batch_size=16, seed=0
        )

        # The 'stream' arrives.  Each held-out business is grafted into the
        # live graph: its features via add_nodes, then every edge to a
        # neighbor that is already present.  old->serving id bookkeeping is
        # exactly what a production ingest pipeline would keep.
        full = dataset.graph
        old_to_serving = np.full(full.num_nodes, -1, dtype=np.int64)
        old_to_serving[split.train_mapping] = np.arange(split.train_mapping.size)
        type_name = {i: name for i, name in enumerate(full.node_type_names)}
        for old_id in split.holdout:
            new_id = server.add_nodes(
                type_name[int(full.node_types[old_id])],
                features=full.features[old_id].reshape(1, -1),
            )[0]
            old_to_serving[old_id] = new_id
            neighbors, edge_types = full.neighbors(int(old_id))
            present = old_to_serving[neighbors] >= 0
            for neighbor, etype in zip(neighbors[present], edge_types[present]):
                server.add_edges(
                    full.edge_type_names[int(etype)],
                    np.array([new_id]),
                    np.array([old_to_serving[int(neighbor)]]),
                )

        # Request every newcomer the moment they are all in: one op, whose
        # reply carries the labels, the rung that served each node and the
        # op's critical path.
        serving_ids = old_to_serving[split.holdout]
        burst = server.replay(serving_ids)
        predictions = burst["values"]
        print(f"streamed in {split.holdout.size} businesses "
              f"({server.graph.version} graph mutations)")
        print(f"micro-F1 on unseen businesses: {micro_f1(labels, predictions):.4f}")
        rungs = np.bincount(burst["rungs"], minlength=len(RUNGS))
        print(f"served as one op of {serving_ids.size} nodes: "
              + " / ".join(f"{r} {n}" for r, n in zip(RUNGS, rungs) if n)
              + f" in {burst['compute'] * 1e3:.1f} ms (critical path)")

    print("\n-- GCN (transductive by design) --")
    gcn = GCN(seed=0)
    gcn.fit(split.train_graph, split.train_nodes, epochs=40)
    predictions = gcn.predict(split.holdout, graph=dataset.graph)
    print(f"micro-F1 on unseen businesses: {micro_f1(labels, predictions):.4f}")

    print("\n-- Node2Vec (cannot embed unseen nodes) --")
    node2vec = Node2Vec(seed=0)
    node2vec.fit(split.train_graph, split.train_nodes, epochs=1)
    try:
        node2vec.predict(split.holdout, graph=dataset.graph)
    except ValueError as error:
        print(f"rejected, as expected: {error}")


if __name__ == "__main__":
    main()
