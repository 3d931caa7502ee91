"""Figure 4 — training efficiency: time per epoch + micro-F1 after 10 epochs.

The paper's efficiency claims, asserted here:

1. WIDEN's time per epoch is lower than the heterogeneous heavyweights HGT
   (per-relation transformer) — the architectures WIDEN's design critique
   targets.
2. After only 10 training epochs, WIDEN's micro-F1 is competitive (within a
   margin of the best method at that budget), the paper's "competitive
   training efficiency" combination.
"""

import numpy as np

from harness import METHOD_ORDER, format_table, full_mode, load_dataset, make_model
from repro.eval.metrics import micro_f1

PAPER_FIG4 = {
    # (seconds/epoch acm, seconds/epoch dblp) from the paper's bar chart;
    # only WIDEN's exact numbers are quoted in the text.
    "widen": (0.8964, 0.9213),
}

EPOCH_BUDGET = 10


def _run():
    dataset_names = ("acm", "dblp")
    times = {method: [] for method in METHOD_ORDER}
    scores = {method: [] for method in METHOD_ORDER}
    volumes = []  # WIDEN's per-epoch message packs, one series per dataset
    for dataset_name in dataset_names:
        dataset = load_dataset(dataset_name)
        for method in METHOD_ORDER:
            model = make_model(method, dataset, seed=0)
            budget = 2 if method == "node2vec" else EPOCH_BUDGET
            model.fit(dataset.graph, dataset.split.train, epochs=budget)
            predictions = model.predict(dataset.split.test)
            times[method].append(float(np.mean(model.epoch_seconds)))
            scores[method].append(
                micro_f1(dataset.graph.labels[dataset.split.test], predictions)
            )
            if method == "widen":
                volumes.append(model.trainer.history.messages)
    return list(dataset_names), times, scores, volumes


def test_fig4_training_efficiency(benchmark):
    columns, times, scores, volumes = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(format_table("Figure 4a: seconds per epoch", times, columns))
    print()
    print(format_table(f"Figure 4b: micro-F1 after {EPOCH_BUDGET} epochs", scores, columns))
    print("\nWIDEN message packs per epoch (the volume behind Fig. 4's time axis):")
    for dataset_name, series in zip(columns, volumes):
        print(f"  {dataset_name}: {series[0]} -> {series[-1]} "
              f"({100.0 * (1 - series[-1] / series[0]):.0f}% downsampled away)")
    print("\nPaper: WIDEN 0.8964 s/epoch (ACM), 0.9213 s/epoch (DBLP) on RTX 2080 Ti;")
    print("absolute times differ on our engine — the claims below are relative.")

    for dataset_name, series in zip(columns, volumes):
        # Claim 0 (the counter-level efficiency story): WIDEN's processed
        # message volume never grows and the KL-triggered downsampler
        # actually removed packs within the budget.
        assert all(b <= a for a, b in zip(series, series[1:])), (
            f"WIDEN message volume grew on {dataset_name}"
        )
        assert series[-1] < series[0], (
            f"downsampling never engaged on {dataset_name}"
        )

    for col, dataset_name in enumerate(columns):
        # Claim 1: WIDEN trains faster per epoch than HGT (the heavyweight
        # heterogeneous architecture the paper's critique targets).
        assert times["widen"][col] < times["hgt"][col], (
            f"WIDEN should be faster per epoch than HGT on {dataset_name}"
        )
        # Claim 2: competitive accuracy at a 10-epoch budget.
        best = max(
            scores[m][col] for m in METHOD_ORDER if not np.isnan(scores[m][col])
        )
        assert scores["widen"][col] > best - 0.35, (
            f"WIDEN at 10 epochs too far behind the best on {dataset_name}"
        )
