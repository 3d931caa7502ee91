"""Per-target-node neighbor state.

Algorithm 3 samples each node's wide set and Φ deep sequences **once** at
initialization (line 3) and then only ever *downsamples* them.  The trainer
therefore keeps persistent state per target node: the current neighbor sets
plus the attention distributions of the previous epoch, which the
KL-divergence trigger (Eq. 9) compares against.

Storage is a :class:`NeighborTable` — one row per sampled node, every field
a column — so the packer, the dropout draws, the trigger and a checkpoint
(:meth:`NeighborTable.arrays`) are array operations over its rows.
:class:`NeighborState` is the per-node *record* of one row: what the
per-node reference forward, the analysis helpers and tests read.  Nothing
on the minibatch path builds one.

KL is only meaningful when the neighbor set is unchanged between epochs
("otherwise +∞" in Eq. 9).  A set only changes through a downsample, which
clears that segment's remembered distribution, so the table keeps one
*comparable length* per remembered row (0: nothing to compare against)
where a record carries a signature tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.relay import RelayRecipe, flatten_recipes, unflatten_recipes
from repro.graph import HeteroGraph
from repro.graph.random_walk import random_walk_batch
from repro.graph.sampling import DeepNeighborSet, WideNeighborSet, sample_wide_batch
from repro.obs.tracing import span as trace_span
from repro.utils.rng import SeedLike, new_rng


@dataclass
class NeighborState:
    """Wide + deep neighbor sets of one target node, plus trigger memory."""

    wide: WideNeighborSet
    deep: List[DeepNeighborSet]
    prev_wide_attention: Optional[np.ndarray] = None
    prev_wide_signature: Optional[tuple] = None
    prev_deep_attention: List[Optional[np.ndarray]] = field(default_factory=list)
    prev_deep_signature: List[Optional[tuple]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.prev_deep_attention:
            self.prev_deep_attention = [None] * len(self.deep)
        if not self.prev_deep_signature:
            self.prev_deep_signature = [None] * len(self.deep)

    def wide_signature(self) -> tuple:
        return tuple(self.wide.nodes.tolist())

    def deep_signature(self, phi: int) -> tuple:
        deep = self.deep[phi]
        relay_marks = tuple(relay is not None for relay in deep.relays)
        return tuple(deep.nodes.tolist()) + relay_marks


def _comparable(attention, signature, current_signature: tuple, size: int) -> bool:
    """Whether a record's remembered distribution can still meet Eq. 9."""
    return (
        attention is not None
        and signature == current_signature
        and attention.shape == (size + 1,)
    )


class NeighborTable:
    """Neighbor sets and trigger memory of many nodes, one row each.

    Columns (``R`` rows, caps ``N_w``/``N_d``, ``Φ`` walks; slots beyond a
    length are unspecified):

    - ``targets (R,)`` — the node each row belongs to;
    - ``wide_nodes``/``wide_etypes (R, N_w)`` + ``wide_len (R,)``;
    - ``deep_nodes``/``deep_etypes (R, Φ, N_d)`` + ``deep_len (R, Φ)``;
    - ``deep_relay (R, Φ, N_d)`` — marks positions whose edge is a relay;
      the :class:`~repro.core.relay.RelayRecipe` itself is symbolic (it is
      re-evaluated against current parameters every forward) and lives in
      ``relays``, keyed ``(row, walk, position)``;
    - ``prev_wide (R, N_w + 1)`` + ``prev_wide_len (R,)`` and ``prev_deep
      (R, Φ, N_d + 1)`` + ``prev_deep_len (R, Φ)`` — last epoch's attention
      rows and their comparable lengths (0: none).

    A table is both the store's growable storage (``size`` rows used of a
    capacity that doubles) and, through :meth:`take`, the by-value batch
    the packer consumes.
    """

    _COLUMNS = (
        "targets",
        "wide_nodes", "wide_etypes", "wide_len",
        "deep_nodes", "deep_etypes", "deep_len", "deep_relay",
        "prev_wide", "prev_wide_len", "prev_deep", "prev_deep_len",
    )

    def __init__(
        self, num_wide: int, num_deep: int, num_walks: int, capacity: int = 0
    ) -> None:
        self.num_wide = num_wide
        self.num_deep = num_deep
        self.num_walks = num_walks
        self.size = 0
        self.relays: Dict[Tuple[int, int, int], RelayRecipe] = {}
        walks = (capacity, num_walks)
        self.targets = np.zeros(capacity, np.int64)
        self.wide_nodes = np.zeros((capacity, num_wide), np.int64)
        self.wide_etypes = np.zeros((capacity, num_wide), np.int64)
        self.wide_len = np.zeros(capacity, np.int64)
        self.deep_nodes = np.zeros(walks + (num_deep,), np.int64)
        self.deep_etypes = np.zeros(walks + (num_deep,), np.int64)
        self.deep_len = np.zeros(walks, np.int64)
        self.deep_relay = np.zeros(walks + (num_deep,), bool)
        self.prev_wide = np.zeros((capacity, num_wide + 1))
        self.prev_wide_len = np.zeros(capacity, np.int64)
        self.prev_deep = np.zeros(walks + (num_deep + 1,))
        self.prev_deep_len = np.zeros(walks, np.int64)

    def __len__(self) -> int:
        return self.size

    def _relay_marks(self):
        """``(row, walk, position)`` of every relay, in ``np.nonzero`` order."""
        marked = np.nonzero(self.deep_relay[: self.size])
        return zip(*(axis.tolist() for axis in marked))

    def arrays(self) -> Dict[str, np.ndarray]:
        """The used rows as named arrays (copies): every column, plus the
        relay recipes flattened (:func:`~repro.core.relay.flatten_recipes`)
        into ``relay_recipes`` with one ``relay_roots`` entry per mark."""
        size = self.size
        arrays = {name: getattr(self, name)[:size].copy() for name in self._COLUMNS}
        arrays["relay_recipes"], arrays["relay_roots"] = flatten_recipes(
            [self.relays[mark] for mark in self._relay_marks()]
        )
        return arrays

    @classmethod
    def from_arrays(cls, arrays) -> "NeighborTable":
        """The table :meth:`arrays` wrote (its arrays copied, caps from their
        shapes)."""
        deep = arrays["deep_nodes"]
        table = cls(arrays["wide_nodes"].shape[1], deep.shape[2], deep.shape[1])
        for name in cls._COLUMNS:
            setattr(table, name, np.array(arrays[name]))
        table.size = table.targets.size
        recipes = unflatten_recipes(arrays["relay_recipes"], arrays["relay_roots"])
        table.relays = dict(zip(table._relay_marks(), recipes))
        return table

    def take(self, rows: np.ndarray) -> "NeighborTable":
        """The given rows, in order, as a table of their own (copies)."""
        rows = np.asarray(rows, np.int64)
        out = NeighborTable(self.num_wide, self.num_deep, self.num_walks)
        out.size = int(rows.size)
        for name in self._COLUMNS:
            setattr(out, name, getattr(self, name)[rows])
        if self.relays:
            for b, walk, position in out._relay_marks():
                out.relays[b, walk, position] = self.relays[
                    int(rows[b]), walk, position
                ]
        return out

    def new_rows(self, targets: np.ndarray) -> np.ndarray:
        """Append an empty row per target (capacity at least doubles when
        short); returns the new rows, which are consecutive."""
        first, size = self.size, self.size + len(targets)
        capacity = self.targets.shape[0]
        if size > capacity:
            for name in self._COLUMNS:
                old = getattr(self, name)
                grown = np.zeros(
                    (max(16, 2 * capacity, size),) + old.shape[1:], old.dtype
                )
                grown[:first] = old[:first]
                setattr(self, name, grown)
        self.size = size
        self.targets[first:size] = targets
        return np.arange(first, size)

    # -- one segment in, one segment out ---------------------------------

    def wide(self, row: int) -> WideNeighborSet:
        n = int(self.wide_len[row])
        return WideNeighborSet(
            int(self.targets[row]),
            self.wide_nodes[row, :n].copy(),
            self.wide_etypes[row, :n].copy(),
        )

    def set_wide(self, row: int, wide: WideNeighborSet) -> None:
        n = len(wide)
        if n > self.num_wide:
            raise ValueError(f"wide set of {n} exceeds the cap {self.num_wide}")
        self.wide_nodes[row, :n] = wide.nodes
        self.wide_etypes[row, :n] = wide.etypes
        self.wide_len[row] = n

    def walk(self, row: int, phi: int) -> DeepNeighborSet:
        n = int(self.deep_len[row, phi])
        relays: List[Optional[RelayRecipe]] = [None] * n
        for position in np.flatnonzero(self.deep_relay[row, phi, :n]).tolist():
            relays[position] = self.relays[row, phi, position]
        return DeepNeighborSet(
            int(self.targets[row]),
            self.deep_nodes[row, phi, :n].copy(),
            self.deep_etypes[row, phi, :n].copy(),
            relays,
        )

    def set_walk(self, row: int, phi: int, deep: DeepNeighborSet) -> None:
        n = len(deep)
        if n > self.num_deep:
            raise ValueError(f"walk of {n} exceeds the cap {self.num_deep}")
        if self.relays:
            for position in np.flatnonzero(self.deep_relay[row, phi]).tolist():
                del self.relays[row, phi, position]
        self.deep_nodes[row, phi, :n] = deep.nodes
        self.deep_etypes[row, phi, :n] = deep.etypes
        self.deep_len[row, phi] = n
        self.deep_relay[row, phi] = False
        for position, relay in enumerate(deep.relays):
            if relay is not None:
                self.deep_relay[row, phi, position] = True
                self.relays[row, phi, position] = relay

    # -- records ---------------------------------------------------------

    def record(self, row: int) -> NeighborState:
        """Row ``row`` as a :class:`NeighborState` (copies, not views)."""
        state = NeighborState(
            wide=self.wide(row),
            deep=[self.walk(row, phi) for phi in range(self.num_walks)],
        )
        n = int(self.prev_wide_len[row])
        if n:
            state.prev_wide_attention = self.prev_wide[row, :n].copy()
            state.prev_wide_signature = state.wide_signature()
        for phi in range(self.num_walks):
            n = int(self.prev_deep_len[row, phi])
            if n:
                state.prev_deep_attention[phi] = self.prev_deep[row, phi, :n].copy()
                state.prev_deep_signature[phi] = state.deep_signature(phi)
        return state

    def records(self) -> List[NeighborState]:
        return [self.record(row) for row in range(self.size)]

    def append_record(self, state: NeighborState) -> int:
        """Append ``state`` as a new row; returns the row.

        A remembered distribution whose signature no longer matches its set
        could never pass Eq. 9's same-set test, so it is stored as "none".
        """
        if len(state.deep) != self.num_walks:
            raise ValueError("all targets must carry the same walk count Φ")
        row = int(self.new_rows([state.wide.target])[0])
        self.set_wide(row, state.wide)
        attention = state.prev_wide_attention
        if _comparable(
            attention, state.prev_wide_signature,
            state.wide_signature(), len(state.wide),
        ):
            self.prev_wide[row, : attention.size] = attention
            self.prev_wide_len[row] = attention.size
        for phi, deep in enumerate(state.deep):
            self.set_walk(row, phi, deep)
            attention = state.prev_deep_attention[phi]
            if _comparable(
                attention, state.prev_deep_signature[phi],
                state.deep_signature(phi), len(deep),
            ):
                self.prev_deep[row, phi, : attention.size] = attention
                self.prev_deep_len[row, phi] = attention.size
        return row

    def read_sets(self) -> np.ndarray:
        """Ids whose *adjacency list* each row's sampler consulted.

        ``(R, 1 + Φ·N_d)``: the target (wide sample, first step of every
        walk) and every node a deep walk visited — the last one included: a
        walk that stopped early stopped *because* that node's list was
        empty, and the first edge it gains must invalidate the sample.
        Wide neighbors are absent on purpose: only their (append-only)
        feature rows are read.  Walk nodes sit back to back after the
        target; short rows are padded with the target's own id, which is
        already a member, so consumers can gather through a row without a
        mask.
        """
        size = self.size
        width = self.num_walks * self.num_deep
        walked = self.deep_nodes[:size].reshape(size, width)
        valid = (
            np.arange(self.num_deep) < self.deep_len[:size, :, np.newaxis]
        ).reshape(size, width)
        reads = np.repeat(self.targets[:size, np.newaxis], 1 + width, axis=1)
        reads[np.nonzero(valid)[0], np.cumsum(valid, axis=1)[valid]] = walked[valid]
        return reads


def stack_states(states: Sequence[NeighborState]) -> NeighborTable:
    """Records as the rows of one table — the packer's input type.

    Caps are the widest set present, so hand-built records of any size fit.
    """
    if not states:
        raise ValueError("stack_states requires at least one state")
    num_walks = len(states[0].deep)
    table = NeighborTable(
        max(len(state.wide) for state in states),
        max((len(deep) for state in states for deep in state.deep), default=0),
        num_walks,
        capacity=len(states),
    )
    for state in states:
        table.append_record(state)
    return table


class NeighborStateStore:
    """Lazily samples neighbor sets per node id into a :class:`NeighborTable`.

    Every set is a pure function of ``(base seed, node, the adjacency lists
    its sampler reads)`` — counter-keyed draws
    (:func:`~repro.utils.rng.keyed_draws`), so neither the batch a node is
    first touched in, nor its order, nor the shard whose graph holds the
    lists moves a row.  ``rng`` fixes the base seed: an int *is* it, a
    ``Generator`` contributes one draw, ``None`` is OS entropy.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        num_wide: int,
        num_deep: int,
        num_deep_walks: int,
        rng: SeedLike = None,
    ) -> None:
        self.graph = graph
        self.num_wide = num_wide
        self.num_deep = num_deep
        self.num_deep_walks = num_deep_walks
        self._base_seed = (
            int(rng)
            if isinstance(rng, (int, np.integer))
            else int(new_rng(rng).integers(2**63 - 1))
        )
        self.table = NeighborTable(num_wide, num_deep, num_deep_walks)
        self._row_of: Dict[int, int] = {}

    def rows_for(self, nodes: Sequence[int]) -> np.ndarray:
        """Table rows of ``nodes``, sampling the unseen ones in one call."""
        row_of = self._row_of
        ids = np.asarray(nodes, np.int64).tolist()
        rows = list(map(row_of.get, ids))
        if None in rows:
            unseen = list(dict.fromkeys([node for node in ids if node not in row_of]))
            row_of.update(zip(unseen, self.sample_fresh(unseen).tolist()))
            rows = list(map(row_of.get, ids))
        return np.asarray(rows, np.int64)

    def batch(self, nodes: Sequence[int]) -> NeighborTable:
        """The rows of ``nodes`` as one packer-ready table."""
        return self.table.take(self.rows_for(nodes))

    def get(self, node: int) -> NeighborState:
        """``node``'s row as a record (a copy: edits do not reach the table)."""
        return self.table.record(int(self.rows_for([node])[0]))

    def sample_fresh(self, nodes: Sequence[int]) -> np.ndarray:
        """Sample wide + Φ deep sets for ``nodes`` into new table rows.

        Returns the rows, one per entry of ``nodes`` (a repeated node gets
        equal rows); the nodes are *not* entered in the id → row map, so a
        later :meth:`rows_for` samples them again — to the same sets.  Draw
        counters ``φ·N_d + s`` are walk ``φ``'s step ``s``; the wide side
        counts on from ``Φ·N_d`` because how many it takes depends on the
        degree.
        """
        nodes = np.asarray(nodes, np.int64)
        with trace_span("graph.sample", nodes=int(nodes.size)):
            table = self.table
            rows = table.new_rows(nodes)
            new = slice(table.size - rows.size, table.size)  # rows, as a view
            (
                table.deep_nodes[new], table.deep_etypes[new], table.deep_len[new],
            ) = random_walk_batch(
                self.graph, nodes, self.num_deep_walks, self.num_deep, self._base_seed
            )
            (
                table.wide_nodes[new], table.wide_etypes[new], table.wide_len[new],
            ) = sample_wide_batch(
                self.graph, nodes, self.num_wide, self._base_seed,
                first_counter=self.num_deep_walks * self.num_deep,
            )
        return rows

    def load_table(self, table: NeighborTable) -> None:
        """Adopt ``table`` as the cached rows (checkpoint restore).  Every
        row came from :meth:`rows_for`, one per node, so its ``targets``
        are the id → row map."""
        self.table = table
        targets = table.targets[: table.size].tolist()
        self._row_of = dict(zip(targets, range(table.size)))

    def rng_state(self) -> dict:
        """Serializable snapshot of the sampling state: the base seed."""
        return {"base_seed": self._base_seed}

    def load_rng_state(self, state: dict) -> None:
        """Restore :meth:`rng_state`."""
        self._base_seed = int(state["base_seed"])

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, node: int) -> bool:
        return int(node) in self._row_of
