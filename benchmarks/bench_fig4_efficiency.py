"""Figure 4 — training efficiency: time per epoch + micro-F1 after 10 epochs.

The paper's efficiency claims, asserted here:

1. WIDEN's time per epoch is lower than the heterogeneous heavyweights HGT
   (per-relation transformer) — the architectures WIDEN's design critique
   targets.
2. After only 10 training epochs, WIDEN's micro-F1 is competitive (within a
   margin of the best method at that budget), the paper's "competitive
   training efficiency" combination.

Run directly with ``--sparse-smoke`` for the CI kernel gate: trains WIDEN
on a high-skew graph with the padded kernels pinned and with the waste rule
free to pick the CSR ones, under the op profiler, and writes the comparison
to ``BENCH_fig4.json`` — failing if the CSR kernels stop paying for
themselves.
"""

import argparse
import json
import sys

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


# ---------------------------------------------------------------------------
# CI sparse smoke mode: padded grids vs the CSR kernels the waste rule picks
# on a high-skew power-law graph — the padding-tax regime
# ---------------------------------------------------------------------------

def _profile(epochs: int, scale: float, seed: int, dim: int,
             dataset_name: str, **overrides):
    """Train WIDEN under the op profiler."""
    from repro.core import WidenClassifier
    from repro.datasets import make_dataset
    from repro.obs import MetricsRegistry, OpProfiler, set_registry

    dataset = make_dataset(dataset_name, seed=seed, scale=scale)
    model = WidenClassifier(seed=seed, dim=dim, **overrides)
    profiler = OpProfiler()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with profiler:
            model.fit(dataset.graph, dataset.split.train, epochs=epochs)
    finally:
        set_registry(previous)
    predictions = model.predict(dataset.split.test)
    score = micro_f1(dataset.graph.labels[dataset.split.test], predictions)
    rows = profiler.summary()
    matmul_s = sum(r["total_s"] for r in rows if r["op"] == "matmul")
    # Which kernel family each training minibatch's pack was laid out for.
    routed = {
        layout: registry.counter("pack_batches_total", layout=layout).value
        for layout in ("padded", "sparse")
    }
    return {
        "csr_batch_share": routed["sparse"] / max(1.0, sum(routed.values())),
        "epochs": epochs,
        "op_calls": int(profiler.total_calls),
        "op_seconds": profiler.total_seconds,
        "matmul_self_time_fraction": (
            matmul_s / profiler.total_seconds if profiler.total_seconds else 0.0
        ),
        "mean_epoch_seconds": float(np.mean(model.epoch_seconds)),
        "micro_f1": float(score),
        "top_ops": [
            {"op": r["op"], "calls": int(r["calls"]), "total_s": r["total_s"]}
            for r in rows[:8]
        ],
    }


# High wide cap + unique (no-oversampling) neighbor draws: pack lengths
# track the power-law degrees, so padded grids are mostly padding while the
# edge count — the sparse path's work — stays small.
SPARSE_SMOKE_OVERRIDES = dict(
    num_wide=64, num_deep=3, num_deep_walks=2, batch_size=96,
    wide_sampling="unique",
)


def run_sparse_smoke(out_path: str, epochs: int = 2, scale: float = 1.0,
                     seed: int = 0, dim: int = 128) -> dict:
    """The CI sparse gate: CSR kernels must beat padded grids on skew.

    Trains twice on the ``skewed`` dataset (Pareto degrees: median-1 users,
    cap-saturating hubs) with a high wide-sampling cap, so the padded
    ``[B, L_max, d]`` grids are mostly padding.  The baseline row pins the
    waste rule off (``packing.SPARSE_MIN_WASTE`` patched to 1.0 and
    restored: every minibatch padded); the CSR row runs with the shipped
    constant — every minibatch's own padding waste must route it to the CSR
    kernels, whose work is proportional to real edges.  Both epoch time and
    total op-seconds must drop by >= 1.5x while learning the same
    classifier.  The row is written to ``BENCH_fig4.json`` under
    ``sparse_high_skew``.
    """
    from repro.core import packing

    shipped = packing.SPARSE_MIN_WASTE
    packing.SPARSE_MIN_WASTE = 1.0
    try:
        batched = _profile(epochs, scale, seed, dim,
                           dataset_name="skewed", **SPARSE_SMOKE_OVERRIDES)
    finally:
        packing.SPARSE_MIN_WASTE = shipped
    sparse = _profile(epochs, scale, seed, dim,
                      dataset_name="skewed", **SPARSE_SMOKE_OVERRIDES)
    row = {
        "dataset": "skewed",
        "scale": scale,
        "dim": dim,
        "overrides": SPARSE_SMOKE_OVERRIDES,
        "sparse_min_waste": shipped,
        "batched": batched,
        "sparse": sparse,
        "op_seconds_reduction": batched["op_seconds"] / sparse["op_seconds"],
        "epoch_speedup": (
            batched["mean_epoch_seconds"] / sparse["mean_epoch_seconds"]
        ),
    }
    report = {"benchmark": "fig4_efficiency_smoke", "sparse_high_skew": row}
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"padded (rule off): {batched['op_seconds']:.3f} op-s, "
          f"{batched['mean_epoch_seconds']:.3f} s/epoch, "
          f"micro-F1 {batched['micro_f1']:.4f}, "
          f"{batched['csr_batch_share']:.0%} of minibatches on CSR")
    print(f"waste rule:        {sparse['op_seconds']:.3f} op-s, "
          f"{sparse['mean_epoch_seconds']:.3f} s/epoch, "
          f"micro-F1 {sparse['micro_f1']:.4f}, "
          f"{sparse['csr_batch_share']:.0%} of minibatches on CSR")
    print(f"op-seconds reduction {row['op_seconds_reduction']:.2f}x, "
          f"epoch speedup {row['epoch_speedup']:.2f}x -> {out_path}")
    assert batched["csr_batch_share"] == 0.0, (
        "the padded baseline ran CSR minibatches"
    )
    assert sparse["csr_batch_share"] == 1.0, (
        f"the waste rule (SPARSE_MIN_WASTE={shipped}) "
        f"should route every high-skew minibatch to CSR on its own, got "
        f"{sparse['csr_batch_share']:.0%}"
    )
    assert row["epoch_speedup"] >= 1.5, (
        f"sparse kernels should give >=1.5x epoch speedup on the high-skew "
        f"graph, got {row['epoch_speedup']:.2f}x"
    )
    assert row["op_seconds_reduction"] >= 1.5, (
        f"sparse kernels should cut op-seconds >=1.5x on the high-skew "
        f"graph, got {row['op_seconds_reduction']:.2f}x"
    )
    # Same data, same seed, bit-compatible kernels: same classifier.
    assert abs(batched["micro_f1"] - sparse["micro_f1"]) < 0.02, (
        "padded and CSR kernels diverged in accuracy"
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fig. 4 efficiency smoke")
    parser.add_argument("--sparse-smoke", action="store_true",
                        help="run the padded-vs-CSR high-skew CI gate")
    parser.add_argument("--out", default="BENCH_fig4.json")
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not args.sparse_smoke:
        parser.error("direct runs require --sparse-smoke; "
                     "the full Figure 4 benchmark runs under pytest-benchmark")
    # The gate fixes its own scale/dim: the padding tax is only visible once
    # gemm work dominates Python dispatch.
    run_sparse_smoke(args.out, epochs=args.epochs, seed=args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
