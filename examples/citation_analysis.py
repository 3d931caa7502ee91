"""Academic-graph workload: classify authors by research area on DBLP.

Reproduces the paper's DBLP workload end to end and demonstrates the
introspection a downstream user gets from :mod:`repro.core.analysis`:

- which relations the attention learned to weight (mean wide-attention
  weight per pack, by edge type: the paper's mechanism claim),
- what active downsampling left behind (neighbor set sizes after training,
  and how many contextualized relay edges were installed),
- embedding-space structure via t-SNE coordinates.

Run:  python examples/citation_analysis.py
"""

import numpy as np

from repro.core import WidenClassifier
from repro.core.analysis import downsampling_summary, edge_type_attention_profile
from repro.datasets import make_dblp
from repro.eval import micro_f1, silhouette_score, tsne


def main() -> None:
    dataset = make_dblp(seed=0)
    graph = dataset.graph
    print(f"DBLP-like graph: {graph}")

    model = WidenClassifier(seed=0, dim=32, num_wide=10, num_deep=8)
    model.fit(graph, dataset.split.train, epochs=25)
    predictions = model.predict(dataset.split.test)
    print(f"author classification micro-F1: "
          f"{micro_f1(graph.labels[dataset.split.test], predictions):.4f}")

    # Which relations WIDEN learned to attend to, over the training authors.
    train = dataset.split.train
    profile = edge_type_attention_profile(model.trainer, train)
    print("\nmean wide attention per pack, by relation:")
    for relation, weight in sorted(profile.items(), key=lambda item: -item[1]):
        print(f"  {relation:<16} {weight:.4f}")
    footprint = downsampling_summary(model.trainer, train)
    config = model.trainer.config
    print(f"after active downsampling: wide sets {footprint['mean_wide_size']:.1f} "
          f"of {config.num_wide}, deep walks {footprint['mean_deep_size']:.1f} "
          f"of {config.num_deep}, {footprint['relay_count']:.0f} relay edges "
          f"(nesting depth <= {footprint['max_relay_depth']:.0f})")

    # Embedding-space structure of test authors.
    embeddings = model.embed(dataset.split.test[:150])
    labels = graph.labels[dataset.split.test[:150]]
    coordinates = tsne(embeddings, perplexity=15, iterations=200, seed=0)
    print(f"\nt-SNE silhouette of test-author embeddings: "
          f"{silhouette_score(coordinates, labels):.3f}")
    for cls in np.unique(labels):
        centroid = coordinates[labels == cls].mean(axis=0)
        print(f"  class {cls} cluster centroid: "
              f"({centroid[0]:+.2f}, {centroid[1]:+.2f})")


if __name__ == "__main__":
    main()
