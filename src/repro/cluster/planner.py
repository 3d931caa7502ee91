"""Shard planning: a shard is ``(whole graph, owned ids)``.

The planner decides **placement** and nothing else.  Every shard holds a
full replica of the serving graph — same id space, same adjacency lists in
the same order, same features — and *owns* a slice of the node ids: the
nodes whose requests it answers, whose store rows it holds and whose cache
entries it keeps.  A replica's adjacency lists are the whole graph's
verbatim, so seeded neighbor sampling draws identical indices on any shard
and on a single whole-graph server: an owned answer is bit-identical
wherever it is computed.  So a low-edge-cut partition would buy no
locality, and ownership is one rule, :func:`shard_of`: node ``n`` belongs
to shard ``n % num_shards``, arrivals included.  Nothing about ownership
is stored, grown, shipped or persisted.

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
from typing import Dict, Optional, Union

import numpy as np

from repro.graph import HeteroGraph, MutationEvent


@dataclass
class AddNodesCommand:
    """A streaming node arrival, as every shard replays it.

    Every shard appends the same global ids with the same features and
    labels (the replicas must stay aligned); each id's owner follows from
    the id by :func:`shard_of`.
    """

    type_name: str
    features: Optional[np.ndarray]
    labels: Optional[np.ndarray]
    expected_ids: np.ndarray

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


def shard_of(nodes: np.ndarray, num_shards: int) -> np.ndarray:
    """The ownership rule: node ``n`` belongs to shard ``n % num_shards``.

    A pure function of the id, so an arrival's owner is known on every
    replica without being shipped, and a resumed fleet owns what the
    interrupted one did.  :attr:`ShardSpec.owned` is its inverse.
    """
    return nodes % num_shards


@dataclass
class ShardSpec:
    """One shard: the graph it reads, and the ids it owns by :func:`shard_of`.

    All node ids are **global**.  On the coordinator ``graph`` is the
    coordinator's own graph object; behind a transport it is the engine's
    independent replica (:meth:`from_payload`), advanced by replaying the
    broadcast :class:`MutationCommand` stream through :meth:`apply`.
    """

    shard_id: int
    num_shards: int
    graph: HeteroGraph

    @property
    def owned(self) -> np.ndarray:
        """Every id ``shard_of`` gives this shard, arrivals included."""
        return np.arange(self.shard_id, self.graph.num_nodes, self.num_shards)

    @property
    def num_owned(self) -> int:
        return len(range(self.shard_id, self.graph.num_nodes, self.num_shards))

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
            "num_shards": int(self.num_shards),
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
            num_shards=payload["num_shards"],
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
        elif isinstance(command, RefreshCommand):
            self.graph.append_edges(command.src, command.dst, command.edge_types)
        else:
            raise TypeError(f"unknown mutation command {type(command).__name__}")


def check_node_range(nodes: np.ndarray, num_nodes: int) -> None:
    """Refuse an op with an id outside ``[0, num_nodes)``, naming the first:
    an array gather would wrap a negative id to another node instead."""
    bad = ((nodes < 0) | (nodes >= num_nodes)).nonzero()[0]
    if bad.size:
        raise IndexError(f"node {int(nodes[bad[0]])} out of range [0, {num_nodes})")


class ClusterPlan:
    """The shards over the coordinator's graph, plus the builders of the
    one command per write the router broadcasts."""

    def __init__(self, graph: HeteroGraph, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if num_shards > graph.num_nodes:
            raise ValueError(
                f"cannot spread {graph.num_nodes} nodes over {num_shards} shards"
            )
        self.global_graph = graph
        self.shards = [ShardSpec(k, num_shards, graph) for k in range(num_shards)]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def summary(self) -> Dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "num_nodes": int(self.global_graph.num_nodes),
            "shards": [spec.summary() for spec in self.shards],
        }

    def add_nodes_commands(
        self,
        new_ids: np.ndarray,
        type_name: str,
        features: Optional[np.ndarray],
        labels: Optional[np.ndarray],
    ) -> AddNodesCommand:
        """The command for an arrival already on the coordinator's graph."""
        return AddNodesCommand(
            type_name=type_name,
            features=features,
            labels=labels,
            expected_ids=np.asarray(new_ids, dtype=np.int64),
        )

    def refresh_command(self, event: MutationEvent) -> RefreshCommand:
        """The command for an ``add_edges`` event that already landed on
        the coordinator's graph: the appended edges, verbatim."""
        return RefreshCommand(*event.edges)
