"""Shard planning: a shard is ``(whole graph, owned ids)``.

The planner decides **placement** and nothing else.  Every shard holds a
full replica of the serving graph — same id space, same adjacency lists in
the same order, same features — and *owns* a slice of the node ids: the
nodes whose requests it answers, whose store rows it holds and whose cache
entries it keeps.  A replica's adjacency lists are the whole graph's
verbatim, so seeded neighbor sampling draws identical indices on any shard
and on a single whole-graph server: an owned answer is bit-identical
wherever it is computed.  Ownership is a
:func:`repro.graph.partition.partition_graph` partition (balanced, low
edge cut); arrivals go to the least-loaded shard.

Why a full replica and not an L-hop halo: WIDEN's deep walks have length
``N_d`` = 8, and on every graph this repo runs the nodes within 8 out-hops
of any shard's owned set are *all* nodes by hop 4-6 (EXPERIMENTS.md, "What
a shard holds").  A halo that measures as "everything" is not worth
maintaining; a real partial-replica design belongs with an out-of-core
graph substrate (ROADMAP, "Parked").

Shard state crosses a **message boundary**.  On the coordinator every
:class:`ShardSpec` points at the coordinator's *own* graph object — one
graph, no mirror copies — and :meth:`ShardSpec.to_payload` hands out
references to its arrays; :meth:`ShardSpec.from_payload` builds the
engine's independent replica behind the transport.  A write is **one**
serializable command, built once and broadcast to every shard
(:class:`AddNodesCommand`, :class:`RefreshCommand`): the coordinator's
graph has already taken the write, each engine replays the command onto
its replica via :meth:`ShardSpec.apply`.  A command is O(what arrived) —
an arrival's rows or the appended edge triples, never a snapshot or a
per-shard diff — and crosses the wire as a tagged dict of arrays
(``to_payload`` / :func:`command_from_payload`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.graph import HeteroGraph, MutationEvent
from repro.graph.partition import edge_cut, partition_graph


@dataclass
class AddNodesCommand:
    """A streaming node arrival, as every shard replays it.

    Every shard appends the same global ids with the same features and
    labels (the replicas must stay aligned); shard ``owner`` also adopts
    the ids into its owned set.
    """

    type_name: str
    features: Optional[np.ndarray]
    labels: Optional[np.ndarray]
    expected_ids: np.ndarray
    owner: int

    def to_payload(self) -> Dict[str, object]:
        """The command as it crosses the wire: a tagged dict of arrays."""
        return {"command": "add_nodes", **vars(self)}


@dataclass
class RefreshCommand:
    """The edges an ``add_edges`` appended, in application order.

    Each lands at the end of its source's adjacency list on the replica
    exactly as it did on the coordinator's graph, and the replica's own
    ``add_edges`` event names the same changed sources, so a shard server
    drops exactly the owned materializations a whole-graph server would.
    """

    src: np.ndarray
    dst: np.ndarray
    edge_types: np.ndarray

    def to_payload(self) -> Dict[str, object]:
        """The command as it crosses the wire: a tagged dict of arrays."""
        return {"command": "refresh", **vars(self)}


MutationCommand = Union[AddNodesCommand, RefreshCommand]

_COMMANDS = {"add_nodes": AddNodesCommand, "refresh": RefreshCommand}


def command_from_payload(payload: Dict[str, object]) -> MutationCommand:
    """Rebuild a command from its ``to_payload`` dict (engine side)."""
    fields = dict(payload)
    tag = fields.pop("command", None)
    if tag not in _COMMANDS:
        raise ValueError(f"unknown mutation command {tag!r}")
    return _COMMANDS[tag](**fields)


@dataclass
class ShardSpec:
    """One shard: the ids it owns and the graph it reads.

    All node ids are **global**.  On the coordinator ``graph`` is the
    coordinator's own graph object; behind a transport it is the engine's
    independent replica (:meth:`from_payload`), advanced by replaying the
    broadcast :class:`MutationCommand` stream through :meth:`apply`.
    """

    shard_id: int
    owned: np.ndarray
    graph: HeteroGraph

    @property
    def num_owned(self) -> int:
        return int(self.owned.size)

    def summary(self) -> Dict[str, int]:
        return {"shard": self.shard_id, "owned": self.num_owned}

    def to_payload(self) -> Dict[str, object]:
        """This shard as plain arrays: *references* into ``graph``, no
        copies.  Safe to hold (engine arguments): a
        write replaces the graph's arrays, never writes into them, and
        appends feature rows past the end of this view, so a payload stays
        a snapshot of the version it was cut at."""
        graph = self.graph
        return {
            "shard_id": int(self.shard_id),
            "owned": self.owned,
            "node_types": graph.node_types,
            "src": graph._src,
            "dst": graph.indices,
            "edge_types": graph.edge_type_of,
            "node_type_names": list(graph.node_type_names),
            "edge_type_names": list(graph.edge_type_names),
            "features": graph.features,
            "labels": graph.labels,
            "num_classes": int(graph.num_classes),
            "version": int(graph.version),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ShardSpec":
        """Rebuild an independent spec (own graph, own arrays) from
        :meth:`to_payload` output.

        The payload's edge arrays are already in stable CSR order, and
        ``HeteroGraph._rebuild_csr`` uses a stable argsort, so the rebuilt
        adjacency lists are verbatim identical — the precondition for
        bit-identical seeded sampling on the far side of the boundary.
        The constructor gathers the edge arrays and copies the features
        into its own buffer; the rest is copied here.
        """
        graph = HeteroGraph(
            node_types=payload["node_types"].copy(),
            src=payload["src"],
            dst=payload["dst"],
            edge_types=payload["edge_types"],
            node_type_names=list(payload["node_type_names"]),
            edge_type_names=list(payload["edge_type_names"]),
            features=payload["features"],
            labels=payload["labels"].copy(),
            num_classes=payload["num_classes"],
        )
        # Align the version counter (the write clock of the shard server)
        # with the coordinator's graph at the time the payload was cut.
        graph.version = payload["version"]
        return cls(
            shard_id=payload["shard_id"],
            owned=payload["owned"].copy(),
            graph=graph,
        )

    def apply(self, command: MutationCommand) -> None:
        """Replay one broadcast command onto this spec's replica (inside
        an engine): the shared command stream is what keeps the replicas
        aligned with the coordinator's graph without shared memory."""
        if isinstance(command, AddNodesCommand):
            got = self.graph.add_nodes(
                command.type_name,
                features=command.features,
                labels=command.labels,
                count=int(command.expected_ids.size),
            )
            if not np.array_equal(got, command.expected_ids):
                raise RuntimeError(
                    f"shard {self.shard_id} id space diverged: appended "
                    f"{got}, global appended {command.expected_ids}"
                )
            if command.owner == self.shard_id:
                self.owned = np.concatenate([self.owned, got])
        elif isinstance(command, RefreshCommand):
            self.graph.append_edges(command.src, command.dst, command.edge_types)
        else:
            raise TypeError(f"unknown mutation command {type(command).__name__}")


class ShardPlanner:
    """Builds a :class:`ClusterPlan` from one serving graph: a balanced,
    low-edge-cut ownership partition over one shared graph object."""

    def __init__(self, graph: HeteroGraph, num_shards: int, *, seed: int = 0) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.graph = graph
        self.num_shards = int(num_shards)
        self.seed = seed

    def plan(self) -> "ClusterPlan":
        parts = partition_graph(self.graph, self.num_shards, rng=self.seed)
        owner_of = np.empty(self.graph.num_nodes, dtype=np.int64)
        for shard_id, owned in enumerate(parts):
            owner_of[owned] = shard_id
        return ClusterPlan(
            global_graph=self.graph,
            shards=[
                ShardSpec(shard_id, owned, self.graph)
                for shard_id, owned in enumerate(parts)
            ],
            owner_of=owner_of,
            partition_edge_cut=edge_cut(self.graph, parts),
        )


def check_node_range(nodes: np.ndarray, num_nodes: int) -> None:
    """Refuse an op with an id outside ``[0, num_nodes)``, naming the first:
    an array gather would wrap a negative id to another node instead."""
    bad = ((nodes < 0) | (nodes >= num_nodes)).nonzero()[0]
    if bad.size:
        raise IndexError(f"node {int(nodes[bad[0]])} out of range [0, {num_nodes})")


@dataclass
class ClusterPlan:
    """The ownership map over the coordinator's graph, kept current under
    streaming arrivals, plus the builders of the one command per write the
    router broadcasts."""

    global_graph: HeteroGraph
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

    def summary(self) -> Dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "num_nodes": int(self.global_graph.num_nodes),
            "edge_cut": self.partition_edge_cut,
            "shards": [spec.summary() for spec in self.shards],
        }

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
    ) -> AddNodesCommand:
        """The command for an arrival already on the coordinator's graph;
        records its ownership here."""
        new_ids = np.asarray(new_ids, dtype=np.int64)
        spec = self.shards[owner]
        spec.owned = np.concatenate([spec.owned, new_ids])
        self.owner_of = np.concatenate(
            [self.owner_of, np.full(new_ids.size, owner, dtype=np.int64)]
        )
        return AddNodesCommand(
            type_name=type_name,
            features=features,
            labels=labels,
            expected_ids=new_ids,
            owner=int(owner),
        )

    def refresh_command(self, event: MutationEvent) -> RefreshCommand:
        """The command for an ``add_edges`` event that already landed on
        the coordinator's graph: the appended edges, verbatim."""
        return RefreshCommand(*event.edges)
