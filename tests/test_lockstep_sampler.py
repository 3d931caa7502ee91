"""Property tests for the lock-step CSR sampler and its keyed draws.

``NeighborStateStore.sample_fresh`` fills table rows for a batch of nodes
straight off the CSR (:func:`repro.graph.sampling.sample_wide_batch`,
:func:`repro.graph.random_walk.random_walk_batch`), every draw a
:func:`repro.utils.rng.keyed_draws` of ``(seed, node, counter)``.  Four
families, on small sparse *directed* ragged graphs (isolated nodes, dead
ends, multi-edges, the odd hub):

- **history-free** — a node's row is bit-equal whatever batch, order or
  repetition it was drawn in, through ``sample_fresh`` or ``rows_for``, on
  the whole graph or on the shard graph that owns it;
- **structural** — wide picks are CSR slots of the target with their own
  edge types (no slot twice at or above the cap), walks are paths that stop
  short only at a dead end, and ``read_sets()`` names what the per-node
  reference opens when replayed onto the same sets;
- **in distribution** — against ``sample_wide`` / ``random_walk`` over fixed
  seeds (they cannot be bit-equal): chi-square on slot frequencies and step
  transitions, bounds far enough out that the fixed seeds make the test
  deterministic rather than lucky;
- **the mixer** — pinned outputs (SplitMix64's published stream among
  them), uniformity, and no correlation across adjacent nodes or counters.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.planner import ShardPlanner, ShardSpec
from repro.core.state import NeighborStateStore
from repro.graph import HeteroGraph, random_walk, sample_wide
from repro.utils.rng import keyed_draws, keyed_fractions, mix64

NUM_WIDE, NUM_DEEP, NUM_WALKS = 3, 4, 2


def build_graph(n, edges) -> HeteroGraph:
    """``edges`` are ``(src, dst, etype)``; directed, multi-edges allowed."""
    edges = list(edges)
    return HeteroGraph(
        node_types=np.zeros(n, np.int64),
        src=np.array([s for s, _, _ in edges], np.int64),
        dst=np.array([d for _, d, _ in edges], np.int64),
        edge_types=np.array([t for _, _, t in edges], np.int64),
        node_type_names=["a"],
        edge_type_names=["x", "y"],
        features=np.zeros((n, 2)),
        labels=np.zeros(n, np.int64),
        num_classes=2,
    )


@st.composite
def graphs(draw, min_nodes=4, max_nodes=20):
    """About one and a half out-edges per node, plus (sometimes) a hub that
    points at everyone: degrees 0, below the cap, at it and far above."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 1)),
            max_size=3 * n // 2,
        )
    )
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        edges += [(hub, other, other % 2) for other in range(n)]
    return build_graph(n, edges)


def make_store(graph, seed) -> NeighborStateStore:
    return NeighborStateStore(graph, NUM_WIDE, NUM_DEEP, NUM_WALKS, rng=seed)


def signature(table, row):
    """Everything sampled into ``row``, trimmed to its lengths."""
    wide = int(table.wide_len[row])
    walks = table.deep_len[row].tolist()
    return (
        int(table.targets[row]),
        table.wide_nodes[row, :wide].tolist(),
        table.wide_etypes[row, :wide].tolist(),
        [table.deep_nodes[row, w, :n].tolist() for w, n in enumerate(walks)],
        [table.deep_etypes[row, w, :n].tolist() for w, n in enumerate(walks)],
    )


def alone(graph, seed, node):
    store = make_store(graph, seed)
    (row,) = store.sample_fresh([node])
    return signature(store.table, row)


seeds = st.integers(0, 2**63 - 1)


# ----------------------------------------------------------------------
# (a) history-free
# ----------------------------------------------------------------------


class TestHistoryFree:
    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(), seed=seeds, data=st.data())
    def test_a_row_does_not_depend_on_its_batch(self, graph, seed, data):
        """Any composition, order and repetition; ``sample_fresh`` (a row
        per entry) and ``rows_for`` (a row per distinct node) alike."""
        batch = data.draw(
            st.lists(st.integers(0, graph.num_nodes - 1), min_size=1, max_size=12)
        )
        want = {node: alone(graph, seed, node) for node in set(batch)}

        fresh = make_store(graph, seed)
        rows = fresh.sample_fresh(batch)
        assert len(fresh) == 0 and len(fresh.table) == len(batch)
        for node, row in zip(batch, rows):
            assert signature(fresh.table, row) == want[node]

        cached = make_store(graph, seed)
        first = data.draw(st.permutations(batch))[: len(batch) // 2]
        cached.rows_for(first)  # some of the batch is already seen
        rows = cached.rows_for(batch)
        assert len(cached) == len(cached.table) == len(set(batch))
        for node, row in zip(batch, rows):
            assert signature(cached.table, row) == want[node]
        np.testing.assert_array_equal(cached.rows_for(batch), rows)

    @settings(max_examples=25, deadline=None)
    @given(graph=graphs(min_nodes=8), seed=seeds, partition_seed=st.integers(0, 99))
    def test_a_shard_graph_draws_what_the_whole_graph_does(
        self, graph, seed, partition_seed
    ):
        """The replica an engine rebuilds from a shard payload keeps every
        adjacency list verbatim, so every owned node samples to the same
        row there as on the whole graph."""
        plan = ShardPlanner(graph, num_shards=2, seed=partition_seed).plan()
        whole = make_store(graph, seed)
        whole.rows_for(np.arange(graph.num_nodes))
        for shard in plan.shards:
            replica = ShardSpec.from_payload(shard.to_payload()).graph
            assert replica is not graph
            local = make_store(replica, seed)
            owned = np.asarray(shard.owned, np.int64)
            for node, row in zip(owned.tolist(), local.rows_for(owned)):
                assert signature(local.table, row) == signature(
                    whole.table, int(whole.rows_for([node])[0])
                )


# ----------------------------------------------------------------------
# (b) structural
# ----------------------------------------------------------------------


def slot_pairs(graph, node):
    neighbors, etypes = graph.neighbors(node)
    return list(zip(neighbors.tolist(), etypes.tolist()))


class Scripted(np.random.Generator):
    """A ``Generator`` whose answers are a script of slot offsets: replays
    given sets through the per-node reference samplers."""

    def __init__(self, offsets):
        super().__init__(np.random.PCG64(0))
        self.offsets = list(offsets)

    def integers(self, high):
        return self.offsets.pop(0)

    def choice(self, high, size, replace):
        picks, self.offsets = self.offsets[:size], self.offsets[size:]
        return np.asarray(picks, np.int64)


def offsets_of(pairs, picked, reuse):
    """Offsets into ``pairs`` that spell ``picked`` (equal pairs are
    interchangeable; without ``reuse`` each offset is used once)."""
    free = list(range(len(pairs)))
    offsets = []
    for pick in picked:
        offset = next(o for o in free if pairs[o] == pick)
        if not reuse:
            free.remove(offset)
        offsets.append(offset)
    return offsets


class TestStructure:
    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(), seed=seeds)
    def test_picks_are_slots_and_walks_are_paths(self, graph, seed):
        store = make_store(graph, seed)
        nodes = np.arange(graph.num_nodes)
        for node, row in zip(nodes.tolist(), store.sample_fresh(nodes)):
            _, wide, wide_etypes, walks, walk_etypes = signature(store.table, row)
            pairs = slot_pairs(graph, node)
            picked = list(zip(wide, wide_etypes))
            degree = len(pairs)
            # Every pick is a slot of the target, carrying that slot's type.
            assert set(picked) <= set(pairs)
            if degree >= NUM_WIDE:
                assert len(picked) == NUM_WIDE
                assert not Counter(picked) - Counter(pairs)  # no slot twice
            else:
                assert len(picked) == (NUM_WIDE if degree else 0)
            assert len(walks) == NUM_WALKS
            for walk, etypes in zip(walks, walk_etypes):
                previous = node
                for step in zip(walk, etypes):
                    assert step in slot_pairs(graph, previous)
                    previous = step[0]
                if len(walk) < NUM_DEEP:  # stopped short: at a dead end
                    assert graph.degree(previous) == 0

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(), seed=seeds)
    def test_read_sets_are_what_the_reference_opens_on_the_same_sets(
        self, graph, seed
    ):
        """Replay each row through ``sample_wide`` / ``random_walk`` with a
        scripted generator and record ``graph.neighbors``: the reference
        reproduces the row, and opens exactly the row's read set — less the
        last node of a full-length walk, whose list nobody needs but whose
        id ``read_sets`` keeps (it pads with members either way)."""
        store = make_store(graph, seed)
        nodes = np.arange(graph.num_nodes)
        rows = store.sample_fresh(nodes)
        reads = store.table.read_sets()
        opened = []
        inner = graph.neighbors

        def neighbors(node):
            opened.append(int(node))
            return inner(node)

        for node, row in zip(nodes.tolist(), rows):
            _, wide, wide_etypes, walks, walk_etypes = signature(store.table, row)
            pairs = slot_pairs(graph, node)
            wide_script = offsets_of(
                pairs, list(zip(wide, wide_etypes)), reuse=len(pairs) < NUM_WIDE
            )
            walk_scripts = []
            for walk, etypes in zip(walks, walk_etypes):
                script, previous = [], node
                for step in zip(walk, etypes):
                    script.append(slot_pairs(graph, previous).index(step))
                    previous = step[0]
                walk_scripts.append(script)

            del opened[:]
            graph.neighbors = neighbors
            try:
                replayed = sample_wide(
                    graph, node, NUM_WIDE, rng=Scripted(wide_script)
                )
                replayed_walks = [
                    random_walk(graph, node, NUM_DEEP, rng=Scripted(script))
                    for script in walk_scripts
                ]
            finally:
                del graph.neighbors
            assert replayed.nodes.tolist() == wide
            assert replayed.etypes.tolist() == wide_etypes
            for (got_nodes, got_etypes), walk, etypes in zip(
                replayed_walks, walks, walk_etypes
            ):
                assert got_nodes.tolist() == walk and got_etypes.tolist() == etypes

            reported = set(reads[row].tolist())
            unopened = {walk[-1] for walk in walks if len(walk) == NUM_DEEP}
            assert reads[row, 0] == node
            assert set(opened) <= reported
            assert reported - set(opened) <= unopened


# ----------------------------------------------------------------------
# Duplicates and empties in one batch
# ----------------------------------------------------------------------


@pytest.fixture()
def ragged():
    """0 → {1, 2} (below the cap), 1 → 2, 2 ↛ (a dead end), 3 isolated,
    4 → everyone five times over (a hub: degree 25 ≫ N_w)."""
    edges = [(0, 1, 0), (0, 2, 1), (1, 2, 0)]
    edges += [(4, other, other % 2) for other in range(5)] * 5
    return build_graph(5, edges)


class TestDuplicatesAndEmpties:
    def test_a_repeated_unseen_node_gets_one_row(self, ragged):
        store = make_store(ragged, 3)
        rows = store.rows_for([0, 0])
        assert rows.tolist() == [0, 0]
        assert len(store) == len(store.table) == 1

    def test_a_batch_mixing_seen_and_unseen_nodes(self, ragged):
        store = make_store(ragged, 3)
        store.rows_for([1])
        before = signature(store.table, 0)
        rows = store.rows_for([4, 1, 0, 4, 1])
        assert rows.tolist() == [1, 0, 2, 1, 0]  # unseen rows in first-seen order
        assert len(store) == len(store.table) == 3
        assert signature(store.table, 0) == before
        assert signature(store.table, 1) == alone(ragged, 3, 4)
        assert signature(store.table, 2) == alone(ragged, 3, 0)

    def test_an_isolated_node_is_empty_and_reads_only_itself(self, ragged):
        store = make_store(ragged, 3)
        (row,) = store.rows_for([3])
        assert store.table.wide_len[row] == 0
        assert (store.table.deep_len[row] == 0).all()
        assert set(store.table.read_sets()[row].tolist()) == {3}

    def test_a_graph_with_zero_edges(self):
        graph = build_graph(4, [])
        store = make_store(graph, 3)
        rows = store.rows_for([2, 0, 3])
        assert (store.table.wide_len[rows] == 0).all()
        assert (store.table.deep_len[rows] == 0).all()
        np.testing.assert_array_equal(
            store.table.read_sets(),
            np.repeat([[2], [0], [3]], 1 + NUM_WALKS * NUM_DEEP, axis=1),
        )

    def test_num_wide_above_the_degree_with_replacement(self, ragged):
        store = make_store(ragged, 3)
        (row,) = store.rows_for([0])
        _, wide, wide_etypes, _, _ = signature(store.table, row)
        assert len(wide) == NUM_WIDE > ragged.degree(0)
        assert set(zip(wide, wide_etypes)) <= {(1, 0), (2, 1)}

    def test_a_hub_far_above_the_cap(self):
        """Degree 2000, cap 3: three distinct slots, and over seeds every
        part of the list is reached (the first, middle and last tenth)."""
        degree = 2000
        graph = build_graph(
            degree + 1, [(0, 1 + slot, slot % 2) for slot in range(degree)]
        )
        seen = []
        for seed in range(200):
            store = make_store(graph, seed)
            (row,) = store.sample_fresh([0])
            _, wide, wide_etypes, walks, _ = signature(store.table, row)
            assert len(set(wide)) == NUM_WIDE
            assert [(node - 1) % 2 for node in wide] == wide_etypes
            assert all(len(walk) == 1 for walk in walks)  # neighbors dead-end
            seen.extend(wide)
        tenths = np.bincount((np.asarray(seen) - 1) * 10 // degree, minlength=10)
        assert tenths.min() >= 30  # 600 picks, 60 expected per tenth

    def test_no_runtime_warning_escapes(self, ragged):
        """uint64 products wrap; on numpy *scalars* that warns.  Seeds at
        both ends of the range, every degree regime in one batch."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 2**63 - 1, 2**64 - 1, -1):
                make_store(ragged, seed).rows_for(np.arange(5))
                keyed_draws(seed, np.arange(3), np.arange(3))


# ----------------------------------------------------------------------
# (c) in distribution against the per-node reference
# ----------------------------------------------------------------------

NUM_SEEDS = 3000
# chi-square upper 1e-5 points: a fixed-seed statistic beyond these is a
# wrong distribution, not luck.
CHI2_BOUND = {2: 23.0, 5: 30.9, 8: 37.3}  # by degrees of freedom


def chi_square(observed, expected) -> float:
    observed = np.asarray(observed, float)
    expected = np.broadcast_to(np.asarray(expected, float), observed.shape)
    return float(((observed - expected) ** 2 / expected).sum())


@pytest.fixture(scope="module")
def regular():
    """Five nodes, each pointing at the three after it: every list has
    three slots, so walks never die and a step is one of three."""
    return build_graph(
        5, [(src, (src + hop) % 5, hop % 2) for src in range(5) for hop in (1, 2, 3)]
    )


def batched_samples(graph, num_wide):
    """``(wide_nodes, deep_nodes)`` of node 0 over ``NUM_SEEDS`` seeds."""
    wide, deep = [], []
    for seed in range(NUM_SEEDS):
        store = NeighborStateStore(graph, num_wide, NUM_DEEP, 1, rng=seed)
        (row,) = store.sample_fresh([0])
        wide.append(store.table.wide_nodes[row].copy())
        deep.append(store.table.deep_nodes[row, 0].copy())
    return np.asarray(wide), np.asarray(deep)


def reference_samples(graph, num_wide):
    wide, deep = [], []
    for seed in range(NUM_SEEDS):
        rng = np.random.default_rng(seed)
        wide.append(sample_wide(graph, 0, num_wide, rng=rng).nodes)
        deep.append(random_walk(graph, 0, NUM_DEEP, rng=rng)[0])
    return np.asarray(wide), np.asarray(deep)


class TestInDistribution:
    def test_slot_frequencies_without_replacement(self, regular):
        """Degree 3, cap 2: the first pick is uniform over the three slots,
        the ordered pair uniform over the six without repetition — for the
        batched sampler and the reference alike."""
        for wide, _ in (batched_samples(regular, 2), reference_samples(regular, 2)):
            assert (wide[:, 0] != wide[:, 1]).all()
            first = np.bincount(wide[:, 0], minlength=4)[1:4]
            assert chi_square(first, NUM_SEEDS / 3) < CHI2_BOUND[2]
            ordered = Counter(map(tuple, wide.tolist()))
            assert len(ordered) == 6
            assert chi_square(list(ordered.values()), NUM_SEEDS / 6) < CHI2_BOUND[5]

    def test_slot_frequencies_with_replacement(self, regular):
        """Degree 3, cap 4: four independent uniform picks — each position
        uniform, and adjacent positions jointly uniform over the nine."""
        for wide, _ in (batched_samples(regular, 4), reference_samples(regular, 4)):
            for position in range(4):
                counts = np.bincount(wide[:, position], minlength=4)[1:4]
                assert chi_square(counts, NUM_SEEDS / 3) < CHI2_BOUND[2]
            for position in range(3):
                joint = np.bincount(
                    (wide[:, position] - 1) * 3 + wide[:, position + 1] - 1,
                    minlength=9,
                )
                assert chi_square(joint, NUM_SEEDS / 9) < CHI2_BOUND[8]

    def test_step_transitions(self, regular):
        """Every step takes one of three hops uniformly, independently of
        the hop before it."""
        for _, deep in (batched_samples(regular, 2), reference_samples(regular, 2)):
            path = np.concatenate([np.zeros((NUM_SEEDS, 1), np.int64), deep], axis=1)
            hops = (np.diff(path, axis=1) % 5) - 1  # 0, 1, 2
            assert ((hops >= 0) & (hops <= 2)).all()
            for step in range(NUM_DEEP):
                counts = np.bincount(hops[:, step], minlength=3)
                assert chi_square(counts, NUM_SEEDS / 3) < CHI2_BOUND[2]
            for step in range(NUM_DEEP - 1):
                joint = np.bincount(hops[:, step] * 3 + hops[:, step + 1], minlength=9)
                assert chi_square(joint, NUM_SEEDS / 9) < CHI2_BOUND[8]

    def test_one_seed_many_nodes_is_as_good_as_one_node_many_seeds(self):
        """Node ids key the draws like seeds do: 3000 clones of one list,
        sampled in a single call under a single seed."""
        clones = NUM_SEEDS
        graph = build_graph(
            clones + 3,
            [(node, clones + slot, 0) for node in range(clones) for slot in range(3)],
        )
        store = NeighborStateStore(graph, 2, 1, 1, rng=11)
        rows = store.sample_fresh(np.arange(clones))
        first = store.table.wide_nodes[rows, 0] - clones
        step = store.table.deep_nodes[rows, 0, 0] - clones
        assert chi_square(np.bincount(first, minlength=3), clones / 3) < CHI2_BOUND[2]
        assert chi_square(np.bincount(step, minlength=3), clones / 3) < CHI2_BOUND[2]
        joint = np.bincount(first * 3 + step, minlength=9)
        assert chi_square(joint, clones / 9) < CHI2_BOUND[8]


# ----------------------------------------------------------------------
# (d) the mixer
# ----------------------------------------------------------------------

GOLDEN = 0x9E3779B97F4A7C15
# keyed_draws(3, nodes [0, 1, 24569] down, counters [0, 1, 26] across).
PINNED_DRAWS = [
    [13740835526516319189, 11733452268519815518, 13052339706792012408],
    [7477902460609577917, 6084141021458535187, 15232215134617684518],
    [2740389571294256462, 1403115412712984389, 5428092173453586999],
]
PINNED_LARGE_SEED = 12401916148896372711  # keyed_draws(2**63 - 1, [7], [5])


class TestMixer:
    def test_mix64_is_splitmix64(self):
        """The first outputs of SplitMix64 seeded with 0, as published
        with the reference implementation (Vigna, ``splitmix64.c``)."""
        states = np.array([GOLDEN * k % 2**64 for k in (1, 2, 3)], np.uint64)
        assert [hex(value) for value in mix64(states).tolist()] == [
            "0xe220a8397b1dcdaf", "0x6e789e6aa1b965f4", "0x6c45d188009454f",
        ]

    def test_pinned_draws(self):
        """So the draw function cannot drift silently: every sampled set,
        store row and digest in the repo hangs off these numbers."""
        draws = keyed_draws(3, np.array([[0], [1], [24569]]), np.array([0, 1, 26]))
        assert draws.dtype == np.uint64 and draws.shape == (3, 3)
        assert draws.tolist() == PINNED_DRAWS
        assert keyed_draws(2**63 - 1, np.array([7]), np.array([5])).tolist() == [
            PINNED_LARGE_SEED
        ]
        fractions = keyed_fractions(3, np.array([[0], [1], [24569]]), np.array([0, 1, 26]))
        assert fractions.dtype == np.int64
        assert fractions.tolist() == [[d >> 33 for d in row] for row in PINNED_DRAWS]

    def test_a_value_depends_only_on_its_own_key(self):
        nodes = np.array([5, 9, 5, 2])
        counters = np.arange(6)
        grid = keyed_draws(8, nodes[:, np.newaxis], counters)
        assert (grid[0] == grid[2]).all()
        for i, node in enumerate(nodes.tolist()):
            for counter in counters.tolist():
                (single,) = keyed_draws(8, np.array([node]), np.array([counter]))
                assert single == grid[i, counter]
        assert (keyed_draws(9, nodes[:, np.newaxis], counters) != grid).all()

    def test_uniform_and_uncorrelated_across_adjacent_keys(self):
        """Adjacent node ids and adjacent counters are the keys the sampler
        actually uses.  Buckets of the top byte are uniform; neighbours in
        either direction are uncorrelated and differ in about half their
        bits (a full avalanche, not a shifted copy)."""
        grid = keyed_draws(1, np.arange(256)[:, np.newaxis], np.arange(256))
        top_byte = (grid >> np.uint64(56)).ravel().astype(np.int64)
        buckets = np.bincount(top_byte, minlength=256)
        # 255 degrees of freedom: mean 255, sd 22.6; 400 is > 6 sd out.
        assert chi_square(buckets, grid.size / 256) < 400
        unit = (grid >> np.uint64(11)).astype(np.float64) / 2.0**53
        for a, b in ((unit[:-1], unit[1:]), (unit[:, :-1], unit[:, 1:])):
            correlation = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(correlation) < 0.02  # sd 1/sqrt(65k) = 0.004
        for a, b in ((grid[:-1], grid[1:]), (grid[:, :-1], grid[:, 1:])):
            flipped = np.unpackbits((a ^ b).ravel().view(np.uint8)).sum() / a.size
            assert 31.5 < flipped < 32.5
        fractions = keyed_fractions(1, np.arange(256)[:, np.newaxis], np.arange(256))
        assert fractions.min() >= 0 and fractions.max() < 2**31
        picks = fractions * 7 >> 31
        assert chi_square(np.bincount(picks.ravel(), minlength=7), grid.size / 7) < 40
