"""The neighbor table behind the minibatch path.

Three things are pinned here:

- the batched KL trigger (``WidenTrainer._maybe_downsample``, array ops
  over a minibatch's table rows) is *equal* — not close — to the per-state
  loop it replaced, which lives on in ``tests/helpers.py`` as the oracle;
- ``training_state()`` is a snapshot by value;
- the per-node Python work stays off the minibatch path, and off the
  recompute rung and the trainer's first touch: a function-call count, not
  a clock; the fleet's read path, which still answers node by node, is
  held to a bounded count per node the same way.
"""

import cProfile
import pstats

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier, WidenConfig, WidenModel, WidenTrainer
from repro.core.packing import AttentionGrid
from repro.core.state import NeighborStateStore, stack_states
from repro.core.trainer import _entropies
from repro.datasets import make_acm, make_yelp
from repro.nn import Module
from repro.obs import OpProfiler
from tests.helpers import use_per_state_trigger
from tests.test_read_set_invalidation import graphs

# Every Table-4 downsampling switch, and the ablations that remove a side.
SWITCHES = [
    dict(),
    dict(downsample_mode="random"),
    dict(downsample_mode="off"),
    dict(wide_downsample="random"),
    dict(deep_downsample="random"),
    dict(wide_downsample="off"),
    dict(deep_downsample="off", wide_downsample="random"),
    dict(use_relay=False),
    dict(use_relay=False, deep_downsample="random"),
    dict(use_wide=False),
    dict(use_deep=False),
]


@st.composite
def trainer_cases(draw):
    """A small sparse directed graph (isolated nodes, dead-ended walks) and
    a trainer configuration over it: floors anywhere from 1 to the caps, so
    sets sit at, above and below them; wide sets emptied by isolated nodes
    and shrunk by downsampling; one or two heads."""
    graph = draw(graphs(min_nodes=8))
    num_wide, num_deep = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    config = WidenConfig(
        dim=8,
        num_wide=num_wide,
        num_deep=num_deep,
        num_deep_walks=draw(st.integers(1, 2)),
        num_heads=draw(st.sampled_from([1, 2])),
        wide_floor=draw(st.integers(1, num_wide)),
        deep_floor=draw(st.integers(1, num_deep)),
        trigger=draw(st.sampled_from(["kl", "always", "never"])),
        # Eq. 9 on three-pack distributions: the default threshold rarely
        # fires in three epochs, 1e9 always does.
        wide_threshold=draw(st.sampled_from([1e-3, 1e9])),
        deep_threshold=draw(st.sampled_from([1e-3, 1e9])),
        batch_size=draw(st.sampled_from([3, 32])),
        dropout=draw(st.sampled_from([0.0, 0.3])),
        **draw(st.sampled_from(SWITCHES)),
    )
    seed = draw(st.integers(0, 2**16))
    return graph, config, seed


def assert_same_set(got, want):
    np.testing.assert_array_equal(got.nodes, want.nodes)
    np.testing.assert_array_equal(got.etypes, want.etypes)


def assert_same_memory(got_att, got_sig, want_att, want_sig):
    assert (got_att is None) == (want_att is None)
    if want_att is not None:
        np.testing.assert_array_equal(got_att, want_att)
    assert got_sig == want_sig


class TestBatchedTriggerEqualsPerStateReference:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=trainer_cases())
    def test_three_epochs_leave_equal_state(self, monkeypatch, case):
        graph, config, seed = case
        trainers = []
        for reference in (False, True):
            model = WidenModel(
                graph.features.shape[1], graph.num_edge_types_with_loops,
                graph.num_classes, config, seed=seed,
            )
            trainer = WidenTrainer(model, graph, config, seed=seed + 1)
            if reference:
                use_per_state_trigger(monkeypatch, trainer)
            trainers.append(trainer)
        batched, oracle = trainers
        nodes = np.arange(graph.num_nodes)
        for _ in range(3):
            for trainer in trainers:
                trainer.fit(nodes, epochs=1)
            assert batched._kl_values == oracle._kl_values  # ordered

        for name in (
            "losses", "trigger_checks", "trigger_fires", "wide_drops",
            "deep_drops", "wide_messages", "deep_messages",
        ):
            assert getattr(batched.history, name) == getattr(oracle.history, name), name
        assert (
            batched._drop_rng.bit_generator.state
            == oracle._drop_rng.bit_generator.state
        )
        for node in nodes.tolist():
            got = batched.store.get(node)
            want = oracle.oracle_states[node]
            assert_same_set(got.wide, want.wide)
            assert_same_memory(
                got.prev_wide_attention, got.prev_wide_signature,
                want.prev_wide_attention, want.prev_wide_signature,
            )
            for phi, (walk, want_walk) in enumerate(zip(got.deep, want.deep)):
                assert_same_set(walk, want_walk)
                assert walk.relays == want_walk.relays  # recipes, nesting included
                assert_same_memory(
                    got.prev_deep_attention[phi], got.prev_deep_signature[phi],
                    want.prev_deep_attention[phi], want.prev_deep_signature[phi],
                )
            # The table the oracle's forward packed from holds the same sets.
            packed = oracle.store.get(node)
            assert_same_set(packed.wide, want.wide)
            for walk, want_walk in zip(packed.deep, want.deep):
                assert_same_set(walk, want_walk)
                assert walk.relays == want_walk.relays

    @settings(max_examples=50, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 11), min_size=1, max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_entropies_equal_the_per_row_sums(self, lengths, seed):
        rng = np.random.default_rng(seed)
        lengths = np.asarray(lengths)
        weights = np.zeros((lengths.size, int(lengths.max())))
        for s, n in enumerate(lengths):
            row = rng.random(n) ** 4  # spread over many magnitudes
            weights[s, :n] = row / row.sum()
        want = []
        for s, n in enumerate(lengths):
            p = np.clip(weights[s, :n], 1e-12, None)
            want.append(float(-(p * np.log(p)).sum()))
        assert _entropies(AttentionGrid(weights, lengths)).tolist() == want


class TestTableRecords:
    def test_records_round_trip_through_the_table(self):
        graph = make_acm(seed=0, scale=0.3).graph
        store = NeighborStateStore(graph, 6, 5, 2, rng=0)
        nodes = graph.labeled_nodes()[:12]
        batch = store.batch(nodes)
        again = stack_states(batch.records())
        for name in ("targets", "wide_len", "deep_len", "deep_relay"):
            np.testing.assert_array_equal(getattr(again, name), getattr(batch, name))
        for got, want in zip(again.records(), batch.records()):
            assert_same_set(got.wide, want.wide)
            for walk, want_walk in zip(got.deep, want.deep):
                assert_same_set(walk, want_walk)

    def test_a_record_is_a_copy(self):
        graph = make_acm(seed=0, scale=0.3).graph
        store = NeighborStateStore(graph, 6, 5, 2, rng=0)
        state = store.get(3)
        kept = state.wide.nodes.copy()
        state.wide.nodes[:] = -1
        np.testing.assert_array_equal(store.get(3).wide.nodes, kept)

    def test_stale_memory_loads_as_none(self):
        """A remembered distribution whose set has since changed can never
        pass Eq. 9's same-set test: the table does not keep it."""
        graph = make_acm(seed=0, scale=0.3).graph
        store = NeighborStateStore(graph, 6, 5, 1, rng=0)
        state = store.get(3)
        state.prev_wide_attention = np.full(len(state.wide) + 1, 1.0)
        state.prev_wide_signature = ("some", "other", "set")
        state.prev_deep_attention[0] = np.full(len(state.deep[0]) + 1, 1.0)
        state.prev_deep_signature[0] = state.deep_signature(0)
        loaded = stack_states([state]).record(0)
        assert loaded.prev_wide_attention is None
        np.testing.assert_array_equal(
            loaded.prev_deep_attention[0], state.prev_deep_attention[0]
        )
        assert loaded.prev_deep_signature[0] == state.deep_signature(0)


class TestTrainingStateSnapshot:
    def test_snapshot_is_unaffected_by_later_training(self):
        """snapshot → one more epoch → restore → that epoch again: the same
        loss.  ``trigger="always"`` shrinks sets every epoch, so a snapshot
        that aliased the live neighbor state would restore the shrunk ones."""
        dataset = make_acm(seed=0, scale=0.3)
        classifier = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=5, trigger="always",
            wide_floor=2, deep_floor=2,
        )
        nodes = dataset.split.train[:36]
        classifier.fit(dataset.graph, nodes, epochs=2)
        trainer = classifier.trainer
        snapshot = trainer.training_state()
        rng = trainer.rng_state()
        parameters = {
            name: value.copy() for name, value in classifier.model.state_dict().items()
        }
        frozen = {name: value.copy() for name, value in snapshot["arrays"].items()}

        uninterrupted = trainer.fit(nodes, epochs=1).losses[-1]

        for name, value in frozen.items():
            np.testing.assert_array_equal(snapshot["arrays"][name], value, err_msg=name)
        classifier.model.load_state_dict(parameters)
        trainer.load_training_state(snapshot)
        trainer.load_rng_state(rng)
        assert trainer.fit(nodes, epochs=1).losses[-1] == uninterrupted


def python_calls(run) -> int:
    """Function calls ``cProfile`` sees while ``run()`` executes; repeats
    exactly for a seed, so it is a count and not a timing."""
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    return pstats.Stats(profile).total_calls


class TestNoPerNodeLoopOnTheMinibatchPath:
    # Measured: 1.7 calls per extra node — reductions grouped by true
    # length (2.6 before PR 19 took the id → row lookup out of Python;
    # before PR 18: 207; the same vectorisation kept on per-node objects:
    # 70).  The rest is per tensor op or per *firing* segment, neither of
    # which grows with the batch.  The bound is about twice the old
    # measurement: one more Python call per node and side (1 + Φ = 3 of
    # them) already crosses it.
    MAX_CALLS_PER_EXTRA_NODE = 5.0

    @staticmethod
    def calls_in_one_warm_epoch(dataset, batch_size):
        classifier = WidenClassifier(seed=0, batch_size=batch_size)
        nodes = dataset.split.train[:256]
        classifier.fit(dataset.graph, nodes, epochs=2)  # sampled, memory warm
        return python_calls(lambda: classifier.trainer.fit(nodes, epochs=1))

    def test_marginal_calls_per_node_stay_bounded(self):
        """Doubling the batch halves the batches; what does not halve is
        per-node work.  Function calls repeat exactly for a seed, so this
        is a count, not a timing."""
        dataset = make_yelp(seed=0, scale=1.0)
        assert dataset.split.train.size >= 256
        per_batch = {
            size: self.calls_in_one_warm_epoch(dataset, size) / (256 // size)
            for size in (32, 64)
        }
        marginal = (per_batch[64] - per_batch[32]) / 32
        assert 0 <= marginal < self.MAX_CALLS_PER_EXTRA_NODE, per_batch

    # Measured: 20 autograd nodes per default-config minibatch (52 before
    # the three attention blocks became one node each; relay batches run
    # more, so the mean is what is held).  Each node is a
    # closure, a result tensor and its gradient bookkeeping, which at
    # these sizes cost as much as the arithmetic inside.
    MAX_AUTOGRAD_NODES_PER_STEP = 24.0

    def test_autograd_nodes_and_parameter_walks_per_step(self, monkeypatch):
        dataset = make_yelp(seed=0, scale=1.0)
        classifier = WidenClassifier(seed=0)
        nodes = dataset.split.train[:256]
        classifier.fit(dataset.graph, nodes, epochs=2)
        walks = []
        walk = Module.named_parameters
        monkeypatch.setattr(
            Module, "named_parameters",
            lambda self, prefix="": walks.append(prefix) or walk(self, prefix),
        )
        with OpProfiler() as profiler:
            classifier.trainer.fit(nodes, epochs=1)
        steps = profiler.stats["cross_entropy"].calls
        assert steps == 256 // classifier.config.batch_size
        per_step = profiler.total_calls / steps
        assert per_step <= self.MAX_AUTOGRAD_NODES_PER_STEP, profiler.table()
        # Export, install and clip read the optimizer's list: no walk of
        # the module tree inside a step.
        assert walks == []


class TestNoPerNodeLoopOnTheRecomputeRung:
    """The serving cold path and the trainer's first touch sample a batch
    as array ops: Python calls must not grow with the nodes in it.

    Measured at this commit: 0 calls per extra node on both.  Parent
    (8b2ce85, one ``default_rng([seed, node])``, one ``sample_wide`` and Φ
    ``random_walk``s per node): 138.8 through ``embed_for_serving_batch``
    and 137.7 through ``rows_for``.  The bound is one call per node and
    side — a per-node loop of any kind crosses it.
    """

    MAX_CALLS_PER_EXTRA_NODE = 3.0
    SIZES = (16, 64)

    def marginal(self, calls_at) -> float:
        small, large = self.SIZES
        return (calls_at[large] - calls_at[small]) / (large - small)

    def test_serving_calls_do_not_grow_with_the_batch(self):
        dataset = make_yelp(seed=0, scale=1.0)
        classifier = WidenClassifier(seed=0)
        classifier.fit(dataset.graph, dataset.split.train[:64], epochs=1)
        calls_at = {}
        for size in self.SIZES:
            nodes = np.arange(100, 100 + size)
            serve = lambda: classifier.embed_for_serving_batch(  # noqa: E731
                nodes, dataset.graph, 7, return_reads=True
            )
            serve()  # whatever is lazy has happened
            calls_at[size] = python_calls(serve)
        assert 0 <= self.marginal(calls_at) < self.MAX_CALLS_PER_EXTRA_NODE, calls_at

    def test_first_touch_calls_do_not_grow_with_the_batch(self):
        graph = make_yelp(seed=0, scale=1.0).graph
        calls_at = {}
        for size in self.SIZES:
            store = NeighborStateStore(graph, 10, 8, 2, rng=0)
            nodes = np.arange(100, 100 + size)
            calls_at[size] = python_calls(lambda: store.rows_for(nodes))
            assert len(store) == size
        assert 0 <= self.marginal(calls_at) < self.MAX_CALLS_PER_EXTRA_NODE, calls_at


class TestBoundedPerNodeWorkOnTheReadPath:
    """A warm ``router.classify`` writes each answered node down once — a
    row of the server's request table — and moves it as columns.

    Measured at this commit: 13.0 Python calls per extra node.  A cache
    entry carries its label, so a warm classify runs no head; with one
    head call per cached node (``predict_from_embeddings`` -> ``no_grad``
    -> ``logits`` -> ``argmax``) it was 43.0, and with a ``ServeRequest``,
    a ``ServeResult``, a ``RequestRecord``, a wire item dict and three
    registry observations per node, then one owner lookup call and two
    list appends per node in the router, 69.0.  ``submit`` and ``_finish``
    are still entered once per node — the wall-clock benchmark tallies the
    ladder there — so this is a bound, not the 0 of the paths above.
    """

    MAX_CALLS_PER_EXTRA_NODE = 16.0
    SIZES = (16, 64)
    OPS = 20

    def test_warm_classify_calls_per_extra_node(self):
        dataset = make_acm(seed=0, scale=0.4)
        classifier = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        classifier.fit(dataset.graph, dataset.split.train[:40], epochs=1)
        nodes = dataset.graph.labeled_nodes()[: max(self.SIZES)]
        with ClusterRouter.from_classifier(
            classifier, dataset.graph, 2, seed=0
        ) as router:
            router.classify(nodes)  # every node cached on its shard
            per_op = {}
            for size in self.SIZES:
                calls = python_calls(
                    lambda: [router.classify(nodes[:size]) for _ in range(self.OPS)]
                )
                per_op[size] = calls / self.OPS
            owners = nodes % 2
            assert 0 < owners.sum() < owners.size  # both shards answer
        small, large = self.SIZES
        marginal = (per_op[large] - per_op[small]) / (large - small)
        assert 0 <= marginal <= self.MAX_CALLS_PER_EXTRA_NODE, per_op
