"""The paper's efficiency claims, in counted work, at each seed.

Figure 5 reports WIDEN's training time growing linearly with the share of
the Yelp graph it trains on (610 s at 20 % to 3,380 s at 100 %, 5.54x), and
Section 4.4 reports WIDEN cheaper per epoch than HGT.  Both are claims about
cost, so the tests count it: :class:`OpProfiler` sums each tensor op's FLOP
estimate, shape arithmetic over seeded draws, which a rerun at the same seed
reproduces exactly (the first test checks that).  Figure 4 reports the
messages per epoch falling once the KL trigger (Eq. 9) fires; the trainer
counts the message packs that flow through PASS° and PASS▷ each epoch.
Wall-clock versions of these claims need a quiet host and live in the
benchmarks, not here.  Packed grid slots do not fall with a drop yet, so
the Figure 4 test asserts messages only.
"""

import numpy as np
import pytest

from repro.baselines import HGT
from repro.core import WidenClassifier
from repro.datasets import make_dataset
from repro.obs.profiler import OpProfiler
from repro.utils.rng import new_rng

SEEDS = (0, 1, 2)
EPOCHS = 3
PROPORTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
PAPER_RATIO = 3380.0 / 610.0
# Over these five proportions a cost growing as N**1.5 reads R² 0.989 and
# one growing as N**2 reads 0.963; WIDEN's counts read 0.9993 at the worst
# of seeds 0-2.
MIN_R2 = 0.995


@pytest.fixture(scope="module")
def yelp():
    """``benchmarks/harness.py``'s quick-mode Yelp graph (scale 0.5)."""
    return make_dataset("yelp", seed=0, scale=0.5).graph


@pytest.fixture(scope="module")
def acm():
    return make_dataset("acm", seed=0)


def widen_work(graph, proportion: float, seed: int):
    """(FLOPs, op calls) of fitting WIDEN on a uniform ``proportion`` of
    ``graph``'s nodes, on every labeled node kept (Figure 5's protocol)."""
    keep = np.sort(
        new_rng(seed).choice(graph.num_nodes, int(proportion * graph.num_nodes), replace=False)
    )
    sub, _ = graph.subgraph(keep)
    with OpProfiler() as profiler:
        WidenClassifier(seed=seed).fit(sub, np.flatnonzero(sub.labels >= 0), EPOCHS)
    return profiler.total_flops, profiler.total_calls


def test_counted_work_repeats_exactly(yelp):
    assert widen_work(yelp, 0.2, 0) == widen_work(yelp, 0.2, 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_figure5_flops_are_linear_in_the_node_proportion(yelp, seed):
    flops = np.array([widen_work(yelp, p, seed)[0] for p in PROPORTIONS])
    r2 = np.corrcoef(PROPORTIONS, flops)[0, 1] ** 2
    print(
        f"seed {seed}: FLOPs R² {r2:.5f}; 1.0 / 0.2 = {flops[-1] / flops[0]:.2f} "
        f"(the paper's Figure 5 reads {PAPER_RATIO:.2f} in seconds)"
    )
    assert (np.diff(flops) > 0).all(), flops
    assert r2 >= MIN_R2, (r2, flops)


@pytest.mark.parametrize("seed", SEEDS)
def test_widen_costs_fewer_flops_per_epoch_than_hgt(acm, seed):
    per_epoch = {}
    for model in (WidenClassifier(seed=seed), HGT(seed=seed)):
        with OpProfiler() as profiler:
            model.fit(acm.graph, acm.split.train, EPOCHS)
        per_epoch[model.name] = profiler.total_flops / EPOCHS
    print(f"seed {seed}: HGT / WIDEN FLOPs per epoch {per_epoch['hgt'] / per_epoch['widen']:.3f}")
    assert per_epoch["widen"] < per_epoch["hgt"], per_epoch


@pytest.mark.parametrize("seed", SEEDS)
def test_figure4_messages_fall_after_the_trigger_fires(acm, seed):
    history = WidenClassifier(seed=seed).fit(acm.graph, acm.split.train, 6).trainer.history
    fires = history.trigger_fires
    messages = [w + d for w, d in zip(history.wide_messages, history.deep_messages)]
    print(f"seed {seed}: Eq. 9 fires {fires}; messages per epoch {messages}")
    fired = [epoch for epoch, count in enumerate(fires[:-1]) if count]
    assert fired, fires
    for epoch in fired:
        assert messages[epoch + 1] < messages[epoch], (epoch, fires, messages)
