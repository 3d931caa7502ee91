"""Per-target-node neighbor state.

Algorithm 3 samples each node's wide set and Φ deep sequences **once** at
initialization (line 3) and then only ever *downsamples* them.  The trainer
therefore keeps persistent state per target node: the current neighbor sets
plus the attention distributions of the previous epoch, which the
KL-divergence trigger (Eq. 9) compares against.

A *signature* accompanies every stored distribution: KL is only meaningful
when the neighbor set is unchanged between epochs ("otherwise +∞" in Eq. 9),
so a set mutation invalidates the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.graph import HeteroGraph, sample_deep, sample_wide
from repro.graph.sampling import DeepNeighborSet, WideNeighborSet
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

    def read_set(self, width: int) -> np.ndarray:
        """Ids whose *adjacency list* the sampler consulted, as ``(width,)``.

        The target (wide sample, first step of every walk) and every node a
        deep walk visited — the last one included: a walk that stopped early
        stopped *because* that node's list was empty, and the first edge it
        gains must invalidate the sample.  Wide neighbors are absent on
        purpose: only their (append-only) feature rows are read.  Short
        rows are padded with the target's own id, which is already a
        member, so consumers can gather through the row without a mask.
        """
        reads = np.full(width, self.wide.target, np.int64)
        walked = np.concatenate([deep.nodes for deep in self.deep])
        reads[1 : 1 + walked.size] = walked
        return reads

    def wide_signature(self) -> tuple:
        return tuple(self.wide.nodes.tolist())

    def deep_signature(self, phi: int) -> tuple:
        deep = self.deep[phi]
        relay_marks = tuple(relay is not None for relay in deep.relays)
        return tuple(deep.nodes.tolist()) + relay_marks


class NeighborStateStore:
    """Lazily samples and caches :class:`NeighborState` per node id."""

    def __init__(
        self,
        graph: HeteroGraph,
        num_wide: int,
        num_deep: int,
        num_deep_walks: int,
        rng: SeedLike = None,
        wide_sampling: str = "replace",
        sample_seeding: str = "stream",
    ) -> None:
        if wide_sampling not in ("replace", "unique"):
            raise ValueError(f"unknown wide_sampling {wide_sampling!r}")
        if sample_seeding not in ("stream", "per_node"):
            raise ValueError(f"unknown sample_seeding {sample_seeding!r}")
        self.graph = graph
        self.num_wide = num_wide
        self.num_deep = num_deep
        self.num_deep_walks = num_deep_walks
        self.wide_sampling = wide_sampling
        self.sample_seeding = sample_seeding
        self._rng = new_rng(rng)
        # Per-node seeding: one base seed drawn from the stream rng at
        # construction, then every node samples from its own
        # ``default_rng((base_seed, node))`` — the initial sets become a
        # pure function of the node id, independent of first-touch order.
        # That is what lets a partition-local shard draw bit-identical
        # sets to a whole-graph trainer (the shard graph's adjacency lists
        # are verbatim within its closure; see repro.cluster.planner).
        self._base_seed: Optional[int] = None
        if sample_seeding == "per_node":
            self._base_seed = int(self._rng.integers(2**63 - 1))
        self._states: Dict[int, NeighborState] = {}

    def get(self, node: int) -> NeighborState:
        node = int(node)
        state = self._states.get(node)
        if state is None:
            state = self.sample_fresh(node)
            self._states[node] = state
        return state

    def sample_fresh(self, node: int) -> NeighborState:
        """Sample wide + Φ deep sets for ``node`` (no caching)."""
        rng = self._rng
        if self._base_seed is not None:
            rng = np.random.default_rng((self._base_seed, int(node)))
        wide = sample_wide(
            self.graph, node, self.num_wide, rng=rng,
            unique=self.wide_sampling == "unique",
        )
        deep = [
            sample_deep(self.graph, node, self.num_deep, rng=rng)
            for _ in range(self.num_deep_walks)
        ]
        return NeighborState(wide=wide, deep=deep)

    def rng_state(self) -> dict:
        """Serializable snapshot of the sampling rng.

        The historical (stream-seeded) shape is the raw bit-generator state
        dict, kept as-is so existing checkpoints round-trip unchanged;
        per-node seeding wraps it to carry the base seed too.
        """
        if self._base_seed is None:
            return self._rng.bit_generator.state
        return {
            "stream": self._rng.bit_generator.state,
            "base_seed": int(self._base_seed),
        }

    def load_rng_state(self, state: dict) -> None:
        if "stream" in state and "bit_generator" not in state:
            self._rng.bit_generator.state = state["stream"]
            self._base_seed = int(state["base_seed"])
        else:
            self._rng.bit_generator.state = state

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, node: int) -> bool:
        return int(node) in self._states
