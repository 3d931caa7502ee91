"""Shard planning: partition + halo replication for sharded serving.

The planner turns one serving graph into ``k`` shard graphs that can answer
requests for their *owned* nodes **bit-identically** to a whole-graph
server.  The argument rests on WIDEN's serving-path locality (see
``repro.graph.halo``): embedding a target queries the adjacency lists of
nodes within ``reach - 1`` out-hops and reads the features of nodes within
``reach`` out-hops, where ``reach`` is the model's declared sampling reach
(:attr:`WidenConfig.serving_reach`).  A shard therefore materializes:

- **closure sources** — ``k_hop_out(owned, reach - 1)``: every node whose
  out-edge list an owned computation can query; the shard keeps exactly the
  global edges whose source lies in this set.
- **halo** — ``k_hop_out(owned, reach)``: every node whose features an
  owned computation can read; features outside the halo are zeroed.

Shard graphs keep the **global id space** (same ``num_nodes``, same node
ordering).  Because :meth:`HeteroGraph._rebuild_csr` sorts edges with a
*stable* argsort on the source column, filtering the global CSR arrays by a
source mask preserves every surviving adjacency list verbatim — same
neighbors, same order — so seeded neighbor sampling draws identical indices
on the shard and on the whole graph.  :meth:`HeteroGraph.append_edges`
keeps that layout under streaming writes (a new edge lands at the end of
its source's list on the shard exactly as on the whole graph).  Zeroing
non-halo features is not an optimization (the arrays keep their global
shape); it is the *proof of locality*: if an owned request ever read
outside its halo, the shard would visibly diverge from the whole-graph
server, and the equivalence tests would catch it.

Ownership is a :func:`repro.graph.partition.partition_graph` partition
(balanced, low edge cut — fewer cut edges means smaller halos and fewer
boundary-crossing requests).  The plan also keeps, per shard and on the
router side only, the ``touches_halo`` mask — owned nodes within ``reach``
out-hops of a non-owned node — which the router uses to count
boundary-crossing requests without any per-request BFS.

Since the transport refactor, shard state crosses a **message boundary**:

- :meth:`ShardSpec.to_payload` / :meth:`ShardSpec.from_payload` are the
  compact serialized form a spawned worker process rebuilds its shard from
  — plain arrays only, features restricted to the halo rows (everything
  outside is zero by construction), so spawning a shard costs plan
  *shipping*, not re-planning.
- Streaming mutations propagate as serializable **commands**
  (:class:`AddNodesCommand` / :class:`RefreshCommand`) instead of Python
  closures.  The plan applies each command to its own router-side mirror
  spec and the router ships the identical command to the shard engine,
  which applies it to its independent copy — the two sides stay aligned
  because they replay the same command stream.

**Cost of a write.**  Edges are only ever added, so a shard's closure and
halo only ever grow, and a write reaches a shard as a *delta*: the appended
edges whose source already sat in the closure, the full adjacency lists of
the sources that just entered it, feature rows for the nodes that just
entered the halo, and the global changed-sources.  Which nodes entered is
read off per-shard hop distances from the owned set
(:func:`repro.graph.halo.out_hops`), kept on the mirror spec and relaxed
from the new edges — no BFS, no edge-set diff, no re-shipped snapshot.  A
command is O(new edges + newly reached lists), not O(|E| + |halo|·d₀).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.graph import HeteroGraph, MutationEvent
from repro.graph.halo import (
    in_hops,
    out_edge_slots,
    out_hops,
    relax_in_hops,
    relax_out_hops,
)
from repro.graph.partition import edge_cut, partition_graph


@dataclass
class AddNodesCommand:
    """Serializable per-shard applier for a streaming node arrival.

    Every shard appends the same global ids (the id space must stay
    aligned); only the owner receives real ``features`` — the rest get
    zeros until some edge pulls the arrivals into their halo.
    """

    type_name: str
    features: Optional[np.ndarray]
    labels: Optional[np.ndarray]
    count: int
    expected_ids: np.ndarray
    is_owner: bool


@dataclass
class RefreshCommand:
    """Serializable *delta* bringing a shard up to date after ``add_edges``.

    ``src`` / ``dst`` / ``edge_types`` are the edges the shard is missing,
    each to be appended to its source's adjacency list: the appended global
    edges whose source already lay in the closure (batch order), then the
    complete lists of ``new_closure`` — sources the write pulled into the
    closure, of which the shard held nothing yet.  ``new_halo`` are the
    nodes pulled into the halo, with their feature rows (an arrival that a
    foreign shard took as zeros gets its real features here).  The *global*
    ``changed_sources`` are what the shard server stamps as touched, so it
    drops exactly the owned materializations a whole-graph server would.
    """

    src: np.ndarray
    dst: np.ndarray
    edge_types: np.ndarray
    new_closure: np.ndarray
    new_halo: np.ndarray
    new_halo_features: Optional[np.ndarray]
    changed_sources: np.ndarray


MutationCommand = Union[AddNodesCommand, RefreshCommand]


@dataclass
class ShardSpec:
    """One shard: its ownership, replication sets and materialized graph.

    All node ids are **global** ids; ``graph`` spans the full id space with
    edges restricted to ``closure_sources`` and features zeroed outside
    ``halo``.  Two instances of a spec exist at runtime: the plan's
    router-side mirror and the engine's working copy (rebuilt from
    :meth:`to_payload` behind the transport) — both advance by applying the
    same :class:`MutationCommand` stream via :meth:`apply`.

    The last three fields are router-side state the plan maintains on the
    mirror only (``None`` on an engine's copy; they never cross the wire):
    the routing mask and the two capped hop-distance arrays it and the
    delta commands are derived from.
    """

    shard_id: int
    owned: np.ndarray
    closure_sources: np.ndarray
    halo: np.ndarray
    graph: HeteroGraph
    touches_halo: Optional[np.ndarray] = None  # bool mask, global id space
    owned_hops: Optional[np.ndarray] = None  # out-hops from the owned set
    foreign_hops: Optional[np.ndarray] = None  # out-hops to a non-owned node

    @property
    def num_owned(self) -> int:
        return int(self.owned.size)

    @property
    def halo_only(self) -> np.ndarray:
        """Replicated (non-owned) nodes whose features this shard carries."""
        owned_mask = np.zeros(self.graph.num_nodes, dtype=bool)
        owned_mask[self.owned] = True
        return self.halo[~owned_mask[self.halo]]

    def summary(self) -> Dict[str, int]:
        return {
            "shard": self.shard_id,
            "owned": self.num_owned,
            "halo": int(self.halo.size),
            "halo_only": int(self.halo_only.size),
            "closure_sources": int(self.closure_sources.size),
            "edges": int(self.graph.num_edges),
            "boundary_nodes": int(
                self.touches_halo[self.owned].sum() if self.owned.size else 0
            ),
        }

    # ------------------------------------------------------------------
    # Message-boundary serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Compact, picklable form of this shard (plain arrays only).

        Features ship as halo rows plus the halo index — everything outside
        the halo is zero by construction, so a shard of a large graph
        crosses the process boundary at replication-factor cost, not
        whole-feature-matrix cost.
        """
        graph = self.graph
        return {
            "shard_id": int(self.shard_id),
            "owned": self.owned,
            "closure_sources": self.closure_sources,
            "halo": self.halo,
            "node_types": graph.node_types,
            "src": graph._src,
            "dst": graph.indices,
            "edge_types": graph.edge_type_of,
            "node_type_names": list(graph.node_type_names),
            "edge_type_names": list(graph.edge_type_names),
            "labels": graph.labels,
            "num_classes": int(graph.num_classes),
            "version": int(graph.version),
            "feature_dim": (
                None if graph.features is None else int(graph.features.shape[1])
            ),
            "halo_features": (
                None if graph.features is None else graph.features[self.halo]
            ),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ShardSpec":
        """Rebuild an independent spec (own graph, own arrays) from
        :meth:`to_payload` output.

        The payload's edge arrays are already in stable CSR order, and
        ``HeteroGraph._rebuild_csr`` uses a stable argsort, so the rebuilt
        adjacency lists are verbatim identical — the precondition for
        bit-identical seeded sampling on the far side of the boundary.
        """
        features = None
        if payload["feature_dim"] is not None:
            features = np.zeros(
                (payload["node_types"].shape[0], payload["feature_dim"])
            )
            features[payload["halo"]] = payload["halo_features"]
        graph = HeteroGraph(
            node_types=payload["node_types"].copy(),
            src=payload["src"].copy(),
            dst=payload["dst"].copy(),
            edge_types=payload["edge_types"].copy(),
            node_type_names=list(payload["node_type_names"]),
            edge_type_names=list(payload["edge_type_names"]),
            features=features,
            labels=payload["labels"].copy(),
            num_classes=payload["num_classes"],
        )
        # Align the version counter (the rng-seed base of the shard server)
        # with the global graph at plan time.
        graph.version = payload["version"]
        return cls(
            shard_id=payload["shard_id"],
            owned=payload["owned"].copy(),
            closure_sources=payload["closure_sources"].copy(),
            halo=payload["halo"].copy(),
            graph=graph,
        )

    # ------------------------------------------------------------------
    # Command application (runs on the mirror AND inside the engine)
    # ------------------------------------------------------------------

    def apply(self, command: MutationCommand) -> None:
        """Apply one mutation command to this spec's graph and sets.

        The same function runs on the router-side mirror and inside every
        shard engine; determinism of the command stream is what keeps the
        two aligned without shared memory.
        """
        if isinstance(command, AddNodesCommand):
            self._apply_add_nodes(command)
        elif isinstance(command, RefreshCommand):
            self._apply_refresh(command)
        else:
            raise TypeError(f"unknown mutation command {type(command).__name__}")

    def _apply_add_nodes(self, command: AddNodesCommand) -> None:
        got = self.graph.add_nodes(
            command.type_name,
            features=command.features,
            labels=command.labels,
            count=command.count,
        )
        if not np.array_equal(got, command.expected_ids):
            raise RuntimeError(
                f"shard {self.shard_id} id space diverged: appended "
                f"{got}, global appended {command.expected_ids}"
            )
        if command.is_owner:
            # Isolated arrivals: owned and in-halo by definition (depth-0
            # reachability), crossing nothing yet.
            self.owned = np.concatenate([self.owned, command.expected_ids])
            self.closure_sources = _merge_sorted(
                self.closure_sources, command.expected_ids
            )
            self.halo = _merge_sorted(self.halo, command.expected_ids)

    def _apply_refresh(self, command: RefreshCommand) -> None:
        if command.new_halo_features is not None:
            self.graph.features[command.new_halo] = command.new_halo_features
        self.closure_sources = _merge_sorted(
            self.closure_sources, command.new_closure
        )
        self.halo = _merge_sorted(self.halo, command.new_halo)
        self.graph.append_edges(
            command.src,
            command.dst,
            command.edge_types,
            changed_sources=command.changed_sources,
        )


def _merge_sorted(ids: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Union of two sorted, disjoint id arrays, without re-sorting."""
    return np.insert(ids, np.searchsorted(ids, new), new)


def _shard_edge_arrays(graph: HeteroGraph, closure_sources: np.ndarray):
    """The global edges whose source lies in the closure, **in CSR order**.

    The global CSR is stably sorted by source, so a boolean-mask gather
    yields per-source adjacency lists identical (contents *and* order) to
    the whole graph — the load-bearing fact behind bit-identical sampling.
    """
    closure_mask = np.zeros(graph.num_nodes, dtype=bool)
    closure_mask[closure_sources] = True
    edge_mask = closure_mask[graph._src]
    return (
        graph._src[edge_mask],
        graph.indices[edge_mask],
        graph.edge_type_of[edge_mask],
    )


def _masked_features(graph: HeteroGraph, halo: np.ndarray) -> Optional[np.ndarray]:
    if graph.features is None:
        return None
    features = np.zeros_like(graph.features)
    features[halo] = graph.features[halo]
    return features


class ShardPlanner:
    """Builds a :class:`ClusterPlan` from one serving graph.

    ``reach`` must be the model's declared sampling reach
    (:func:`repro.serve.server.serving_reach_of`); sharding an
    unknown-reach classifier is refused at the router level because no
    finite halo would be provably sufficient.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        reach: int,
        num_shards: int,
        *,
        balance_slack: float = 1.3,
        refine_passes: int = 2,
        seed: int = 0,
    ) -> None:
        if reach < 1:
            raise ValueError(f"reach must be >= 1, got {reach}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.graph = graph
        self.reach = int(reach)
        self.num_shards = int(num_shards)
        self.balance_slack = balance_slack
        self.refine_passes = refine_passes
        self.seed = seed

    def plan(self) -> "ClusterPlan":
        parts = partition_graph(
            self.graph,
            self.num_shards,
            refine_passes=self.refine_passes,
            balance_slack=self.balance_slack,
            rng=self.seed,
        )
        owner_of = np.empty(self.graph.num_nodes, dtype=np.int64)
        for shard_id, owned in enumerate(parts):
            owner_of[owned] = shard_id
        shards = [
            self._build_shard(shard_id, owned)
            for shard_id, owned in enumerate(parts)
        ]
        return ClusterPlan(
            global_graph=self.graph,
            reach=self.reach,
            shards=shards,
            owner_of=owner_of,
            partition_edge_cut=edge_cut(self.graph, parts),
        )

    def _build_shard(self, shard_id: int, owned: np.ndarray) -> ShardSpec:
        graph = self.graph
        owned_hops = out_hops(graph, owned, self.reach)
        closure_sources = np.flatnonzero(owned_hops < self.reach)
        halo = np.flatnonzero(owned_hops <= self.reach)
        # An owned node touches the halo when some non-owned node lies
        # within ``reach`` out-hops of it.
        foreign_hops = in_hops(graph, np.flatnonzero(owned_hops > 0), self.reach)
        touches_halo = (owned_hops == 0) & (foreign_hops <= self.reach)
        src, dst, etypes = _shard_edge_arrays(graph, closure_sources)
        shard_graph = HeteroGraph(
            node_types=graph.node_types.copy(),
            src=src,
            dst=dst,
            edge_types=etypes,
            node_type_names=graph.node_type_names,
            edge_type_names=graph.edge_type_names,
            features=_masked_features(graph, halo),
            labels=graph.labels.copy(),
            num_classes=graph.num_classes,
        )
        # Align the shard's version counter with the global graph so a
        # shard server's version base — the rng-seed component — matches a
        # single whole-graph server's (bit-identical responses need
        # bit-identical seeds).
        shard_graph.version = graph.version
        return ShardSpec(
            shard_id=shard_id,
            owned=owned,
            closure_sources=closure_sources,
            halo=halo,
            graph=shard_graph,
            touches_halo=touches_halo,
            owned_hops=owned_hops,
            foreign_hops=foreign_hops,
        )


@dataclass
class ClusterPlan:
    """The sharding decision plus the machinery to keep it fresh.

    The plan owns the ownership map and, under streaming mutations, knows
    how to propagate a change from the global graph into each shard: which
    shards are affected at all, and what serializable command brings them
    up to date.  Command builders apply each command to the plan's own
    mirror spec immediately (routing masks and hop distances stay current)
    and return it for the router to ship to the shard engine — the
    engine's copy replays the identical command behind the transport.
    """

    global_graph: HeteroGraph
    reach: int
    shards: List[ShardSpec]
    owner_of: np.ndarray
    partition_edge_cut: int = 0

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def owner(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self.owner_of.size:
            raise IndexError(
                f"node {node} out of range [0, {self.owner_of.size})"
            )
        return int(self.owner_of[node])

    def replication_factor(self) -> float:
        """Mean copies of a node's features across shards (>= 1.0)."""
        total = sum(int(spec.halo.size) for spec in self.shards)
        return total / self.global_graph.num_nodes if self.global_graph.num_nodes else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "reach": self.reach,
            "edge_cut": self.partition_edge_cut,
            "replication_factor": self.replication_factor(),
            "shards": [spec.summary() for spec in self.shards],
        }

    # ------------------------------------------------------------------
    # Streaming mutation propagation
    # ------------------------------------------------------------------

    def place_new_nodes(self, count: int) -> int:
        """Owner shard for a batch of arriving nodes: the least-loaded one.

        Deterministic (ties break toward the lowest shard id) so a replayed
        mutation stream reproduces the same ownership.
        """
        sizes = [spec.num_owned for spec in self.shards]
        return int(np.argmin(sizes))

    def add_nodes_commands(
        self,
        owner: int,
        new_ids: np.ndarray,
        type_name: str,
        features: Optional[np.ndarray],
        labels: Optional[np.ndarray],
        count: int,
    ) -> List[AddNodesCommand]:
        """Per-shard commands for a node arrival already on the global graph.

        Every shard appends the same ids (the global id space must stay
        aligned), but only the owner receives real features — for everyone
        else the arrivals are outside the halo until some edge pulls them
        in, at which point :meth:`refresh_command` ships their features.
        ``HeteroGraph.add_nodes`` fires an ``add_nodes`` event on each shard
        graph, so per-shard servers touch exactly the new ids — the same
        no-drop invalidation a whole-graph server performs.
        """
        new_ids = np.asarray(new_ids, dtype=np.int64)
        zeros = None if features is None else np.zeros_like(np.atleast_2d(features))
        far = self.reach + 1
        commands = []
        for spec in self.shards:
            is_owner = spec.shard_id == owner
            command = AddNodesCommand(
                type_name=type_name,
                features=(features if is_owner else zeros),
                labels=labels,
                count=count,
                expected_ids=new_ids,
                is_owner=is_owner,
            )
            spec.apply(command)  # keep the router-side mirror current
            # Isolated arrivals: at depth 0 for their owner, out of every
            # other shard's reach, and foreign to everyone but the owner.
            spec.touches_halo = np.append(
                spec.touches_halo, np.zeros(new_ids.size, dtype=bool)
            )
            spec.owned_hops = np.append(
                spec.owned_hops, np.full(new_ids.size, 0 if is_owner else far)
            )
            spec.foreign_hops = np.append(
                spec.foreign_hops, np.full(new_ids.size, far if is_owner else 0)
            )
            commands.append(command)
        self.owner_of = np.concatenate(
            [self.owner_of, np.full(new_ids.size, owner, dtype=np.int64)]
        )
        return commands

    def refresh_command(
        self, spec: ShardSpec, event: MutationEvent
    ) -> Optional[RefreshCommand]:
        """Delta command bringing ``spec`` up to date with an ``add_edges``
        event that already landed on the global graph.

        Returns ``None`` when no appended edge starts inside the shard's
        closure: the adjacency lists it materializes did not move and no
        hop distance from its owned set can have dropped, hence (by
        path-locality) no owned node's served embedding can observe the
        mutation, and the shard is skipped without any envelope at all.

        Otherwise the spec's hop distances are relaxed from the new edges;
        what dropped to ``< reach`` just entered the closure, what dropped
        to ``<= reach`` just entered the halo (both only ever grow — edges
        are never removed).  The command carries those deltas and the
        *global* changed-sources: the shard server stamps them as touched
        and drops the owned materializations whose read set meets them —
        the ones a whole-graph server drops, because an owned node's sample
        only ever reads lists inside the closure, which the shard holds
        verbatim.  (A source that just *entered* the closure needs no
        stamp: until now no owned sample could reach its list.)
        """
        graph, reach = self.global_graph, self.reach
        src, dst, edge_types = event.edges
        hops = spec.owned_hops
        in_closure = hops[src] < reach
        if not in_closure.any():
            return None
        before = hops.copy()
        lowered = relax_out_hops(graph, hops, src, dst, reach)
        new_closure = lowered[(before[lowered] >= reach) & (hops[lowered] < reach)]
        new_halo = lowered[before[lowered] > reach]
        crossers = relax_in_hops(graph, spec.foreign_hops, src, dst, reach)
        spec.touches_halo[crossers[self.owner_of[crossers] == spec.shard_id]] = True
        entered_src, slots = out_edge_slots(graph, new_closure)
        command = RefreshCommand(
            src=np.concatenate([src[in_closure], entered_src]),
            dst=np.concatenate([dst[in_closure], graph.indices[slots]]),
            edge_types=np.concatenate(
                [edge_types[in_closure], graph.edge_type_of[slots]]
            ),
            new_closure=new_closure,
            new_halo=new_halo,
            new_halo_features=(
                None if graph.features is None else graph.features[new_halo]
            ),
            changed_sources=event.sources,
        )
        spec.apply(command)  # keep the router-side mirror current
        return command
