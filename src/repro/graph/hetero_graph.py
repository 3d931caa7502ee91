"""The :class:`HeteroGraph` data structure.

A heterogeneous graph (Definition 1 of the paper) with typed nodes and typed
edges.  Adjacency is stored in CSR form for O(1) neighborhood slicing — the
access pattern that dominates neighbor sampling and random walks.  Edge types
are stored aligned with the CSR ``indices`` array so a neighbor lookup returns
``(neighbor_ids, edge_types)`` in one slice.

Alongside the *real* edge types, the graph allocates one **self-loop edge
type per node type** — WIDEN learns a self-loop edge embedding ``e_{t,t}``
between nodes of the same type (Section 3.1), and baselines reuse the same
vocabulary.  ``num_edge_types`` counts real types only;
``num_edge_types_with_loops`` includes the self-loop types.

The graph is *append-only*: the streaming serving path (``repro.serve``)
extends it in place through :meth:`add_nodes` / :meth:`add_edges`, which
keep the type vocabularies fixed (the model's edge-type embedding tables
are sized at training time), bump the monotone :attr:`version` counter and
fire registered mutation hooks — the invalidation signal for anything that
caches per-node derived state (embedding caches, sampled neighbor stores).
A write is an edit to the layout, not a rebuild of it: edges are spliced
into the CSR at the end of their source's list and feature rows append
into spare buffer capacity, so a mutation costs O(what arrived).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # annotations only: scipy is imported where a matrix is built
    import scipy.sparse as sp


@dataclass
class MutationEvent:
    """What a mutation actually changed, for fine-grained invalidation.

    Mutation hooks receive the graph; the event of the mutation that fired
    them is available as :attr:`HeteroGraph.last_mutation`.  ``kind`` is one
    of:

    - ``"add_nodes"`` — ``nodes`` holds the freshly appended ids.  No
      existing adjacency list changed, so nothing previously cached can be
      stale.
    - ``"add_edges"`` — ``sources`` holds every node whose out-edge list
      grew (for symmetric insertion that is both endpoints).  Anything whose
      sampled neighborhood can reach a changed list within the model's walk
      depth must recompute; everything else stays valid.  ``edges`` holds
      the appended ``(src, dst, edge_types)`` arrays in application order —
      what a replica needs to apply the same mutation as a delta.
    - ``"rewire"`` — a structural rebuild with unknown extent; consumers
      must fall back to full invalidation unless ``sources`` narrows it.
    """

    kind: str
    nodes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    sources: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    edges: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None


class HeteroGraph:
    """Typed graph with CSR adjacency; append-only under streaming arrivals.

    Construct via :class:`~repro.graph.builder.GraphBuilder`; the raw
    constructor expects already-validated arrays.

    Parameters
    ----------
    node_types:
        ``(n,)`` int array; ``node_types[i]`` indexes into ``node_type_names``.
    src, dst, edge_types:
        Parallel ``(m,)`` int arrays, one entry per *directed* edge.
        Undirected graphs store both directions.
    node_type_names, edge_type_names:
        Human-readable names; positions define the integer encodings.
    features:
        Optional ``(n, d0)`` float feature matrix.
    labels:
        Optional ``(n,)`` int labels; ``-1`` marks unlabeled nodes.
    num_classes:
        Number of distinct classes among labeled nodes.
    adopt:
        Keep the arrays instead of sorting and copying them: ``src`` must
        already be in CSR order (sorted, as :attr:`_src` is — what a shard
        payload carries), and nothing else may hold the arrays.  The first
        arrival moves ``features`` into a buffer with spare rows.
    """

    def __init__(
        self,
        node_types: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        edge_types: np.ndarray,
        node_type_names: Sequence[str],
        edge_type_names: Sequence[str],
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        num_classes: int = 0,
        *,
        adopt: bool = False,
    ) -> None:
        self.node_types = np.asarray(node_types, dtype=np.int64)
        self.num_nodes = int(self.node_types.shape[0])
        self.node_type_names = list(node_type_names)
        self.edge_type_names = list(edge_type_names)
        self.num_node_types = len(self.node_type_names)
        self.num_edge_types = len(self.edge_type_names)
        # ``features`` is the leading view of an owned buffer with spare
        # rows, so arrivals append in place (see _append_feature_rows).
        self.features: Optional[np.ndarray] = None
        self._feature_buffer: Optional[np.ndarray] = None
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if adopt:
                self.features = features
            else:
                self.features = features[:0]
                self._append_feature_rows(features)
        self.labels = (
            np.full(self.num_nodes, -1, dtype=np.int64)
            if labels is None
            else np.asarray(labels, dtype=np.int64)
        )
        self.num_classes = int(num_classes)
        self.version = 0
        self.last_mutation: Optional[MutationEvent] = None
        self._mutation_hooks: List[Callable[["HeteroGraph"], None]] = []
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        edge_types = np.asarray(edge_types, dtype=np.int64)
        if adopt:
            if not src.shape == dst.shape == edge_types.shape:
                raise ValueError("src/dst/edge_types shapes differ")
            if src.size and (src[1:] < src[:-1]).any():
                raise ValueError("adopted edges are not in CSR order")
            self._set_csr(src, dst, edge_types)
        else:
            self._rebuild_csr(src, dst, edge_types)

    def _rebuild_csr(
        self, src: np.ndarray, dst: np.ndarray, edge_types: np.ndarray
    ) -> None:
        """(Re)build the CSR arrays from COO edges (``__init__`` and
        :meth:`replace_edges`); :meth:`append_edges` reproduces this layout
        bit for bit without the full sort."""
        # Sort edges by source (stable: a list keeps its edges' order).
        order = np.argsort(src, kind="stable")
        self._set_csr(src[order], dst[order], edge_types[order])

    def _set_csr(
        self, sorted_src: np.ndarray, indices: np.ndarray, edge_type_of: np.ndarray
    ) -> None:
        """Take edges already in CSR order as the adjacency: the arrays
        themselves, plus the offsets counted from their sources."""
        self.num_edges = int(sorted_src.shape[0])
        self.indices = indices
        self.edge_type_of = edge_type_of
        counts = np.bincount(sorted_src, minlength=self.num_nodes)
        self.indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        # Keep COO around for adjacency-matrix construction.
        self._src = sorted_src

    # ------------------------------------------------------------------
    # Self-loop edge-type vocabulary (one per node type)
    # ------------------------------------------------------------------

    @property
    def num_edge_types_with_loops(self) -> int:
        """Real edge types plus one self-loop type per node type."""
        return self.num_edge_types + self.num_node_types

    def self_loop_type(self, node: int) -> int:
        """Edge-type id of the self-loop for ``node``'s node type."""
        return self.num_edge_types + int(self.node_types[node])

    def self_loop_types(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`self_loop_type`."""
        return self.num_edge_types + self.node_types[np.asarray(nodes)]

    # ------------------------------------------------------------------
    # Streaming mutation (serving path)
    # ------------------------------------------------------------------

    def add_mutation_hook(
        self, hook: Callable[["HeteroGraph"], None]
    ) -> Callable[["HeteroGraph"], None]:
        """Register ``hook(graph)`` to fire after every mutation.

        Hooks run after :attr:`version` is bumped, so they observe the new
        version.  Returns ``hook`` so callers can keep a handle for
        :meth:`remove_mutation_hook`.
        """
        self._mutation_hooks.append(hook)
        return hook

    def remove_mutation_hook(self, hook: Callable[["HeteroGraph"], None]) -> None:
        self._mutation_hooks.remove(hook)

    def _fire_mutation(self, event: Optional[MutationEvent] = None) -> None:
        self.version += 1
        self.last_mutation = event
        for hook in list(self._mutation_hooks):
            hook(self)

    def add_nodes(
        self,
        type_name: str,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Append ``count`` nodes of an *existing* type; return their new ids.

        The node-type vocabulary is fixed after construction — WIDEN's edge
        embeddings (including the per-node-type self-loop types) are sized at
        training time, so a brand-new type could not be embedded anyway.
        ``features`` is required when the graph carries features; ``labels``
        defaults to unlabeled (``-1``) — arriving production nodes have no
        ground truth.
        """
        if type_name not in self.node_type_names:
            raise ValueError(
                f"unknown node type {type_name!r}; streaming arrivals must "
                f"use one of {self.node_type_names} (the model's type "
                "vocabulary is fixed at training time)"
            )
        type_id = self.node_type_names.index(type_name)
        if features is not None:
            features = np.atleast_2d(np.asarray(features, dtype=np.float64))
            if count is None:
                count = features.shape[0]
            elif count != features.shape[0]:
                raise ValueError(
                    f"count ({count}) != feature rows ({features.shape[0]})"
                )
        elif count is None:
            count = 1
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if self.features is not None:
            if features is None:
                raise ValueError("graph has features; arriving nodes need them")
            if features.shape[1] != self.features.shape[1]:
                raise ValueError(
                    f"feature dim {features.shape[1]} != graph's "
                    f"{self.features.shape[1]}"
                )
        if labels is None:
            labels = np.full(count, -1, dtype=np.int64)
        else:
            labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
            if labels.shape != (count,):
                raise ValueError(f"labels shape {labels.shape} != ({count},)")
            if labels.max(initial=-1) >= self.num_classes:
                raise ValueError(
                    f"label {labels.max()} out of range for "
                    f"{self.num_classes} classes"
                )
        start = self.num_nodes
        self.node_types = np.concatenate(
            [self.node_types, np.full(count, type_id, dtype=np.int64)]
        )
        self.num_nodes += count
        if self.features is not None:
            self._append_feature_rows(features)
        self.labels = np.concatenate([self.labels, labels])
        # New nodes start isolated: extend indptr with the terminal offset.
        self.indptr = np.concatenate(
            [self.indptr, np.full(count, self.indptr[-1], dtype=np.int64)]
        )
        new_ids = np.arange(start, start + count, dtype=np.int64)
        self._fire_mutation(MutationEvent(kind="add_nodes", nodes=new_ids))
        return new_ids

    def _append_feature_rows(self, rows: np.ndarray) -> None:
        """Append to ``features`` in amortized O(rows): the matrix lives in
        a buffer twice its size (untouched spare pages cost no memory), so
        an arrival writes its rows instead of re-copying ``(n, d0)``.
        Earlier views of ``features`` stay valid; they just end sooner."""
        held = self.features.shape[0]
        need = held + rows.shape[0]
        buffer = self._feature_buffer
        if buffer is None or self.features.base is not buffer or buffer.shape[0] < need:
            buffer = np.empty((2 * need, rows.shape[1]))
            buffer[:held] = self.features
            self._feature_buffer = buffer
        buffer[held:need] = rows
        self.features = buffer[:need]

    def add_edges(
        self,
        edge_type: str,
        src: np.ndarray,
        dst: np.ndarray,
        symmetric: bool = True,
    ) -> None:
        """Append edges of an *existing* type (same contract as the builder:
        endpoints must exist, explicit self-loops are rejected, ``symmetric``
        also stores the reverse direction)."""
        if edge_type not in self.edge_type_names:
            raise ValueError(
                f"unknown edge type {edge_type!r}; streaming arrivals must "
                f"use one of {self.edge_type_names}"
            )
        etype_id = self.edge_type_names.index(edge_type)
        src = np.atleast_1d(np.asarray(src, dtype=np.int64))
        dst = np.atleast_1d(np.asarray(dst, dtype=np.int64))
        if src.shape != dst.shape:
            raise ValueError(f"src/dst shapes differ: {src.shape} vs {dst.shape}")
        if src.size == 0:
            return
        if np.any(src == dst):
            raise ValueError("explicit self-loop edges are not allowed")
        if symmetric:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        self.append_edges(src, dst, np.full(src.shape, etype_id, dtype=np.int64))

    def append_edges(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        edge_types: np.ndarray,
    ) -> None:
        """Splice already-typed directed edges into the CSR in place.

        Each edge lands at the end of its source's adjacency list, edges of
        one source in batch order — exactly where a stable-argsort rebuild
        of ``concat(old, new)`` would put them, at the cost of one stable
        sort of the *batch* instead of the whole edge set.  The arrays are
        replaced, never written into, so references handed out earlier
        (shard payloads, engine arguments) keep their snapshot.

        Fires one ``"add_edges"`` event.
        """
        src, dst, edge_types = self._checked_edges(src, dst, edge_types)
        order = np.argsort(src, kind="stable")
        sorted_src = src[order]
        at = self.indptr[sorted_src + 1]
        self.indices = np.insert(self.indices, at, dst[order])
        self.edge_type_of = np.insert(self.edge_type_of, at, edge_types[order])
        self._src = np.insert(self._src, at, sorted_src)
        grown = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sorted_src, minlength=self.num_nodes), out=grown[1:])
        self.indptr = self.indptr + grown
        self.num_edges += int(src.size)
        self._fire_mutation(
            MutationEvent(
                kind="add_edges",
                sources=np.unique(src),
                edges=(src, dst, edge_types),
            )
        )

    def _checked_edges(self, src, dst, edge_types):
        """Typed COO edges as int64 arrays, shapes and id range validated."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        edge_types = np.asarray(edge_types, dtype=np.int64)
        if not (src.shape == dst.shape == edge_types.shape):
            raise ValueError("src/dst/edge_types shapes differ")
        if src.size and (
            min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= self.num_nodes
        ):
            raise IndexError(f"edge endpoints out of range [0, {self.num_nodes})")
        return src, dst, edge_types

    def replace_edges(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        edge_types: np.ndarray,
        changed_sources: Optional[np.ndarray] = None,
    ) -> None:
        """Swap the entire edge set in place (a full CSR rebuild).

        Unlike :meth:`add_edges` this may rewrite any adjacency list, so it
        fires a ``"rewire"`` mutation event.  ``changed_sources`` — the node
        ids whose out-edge lists actually differ from before — lets
        fine-grained consumers invalidate only the affected reach; when
        omitted, consumers must assume everything changed.
        """
        src, dst, edge_types = self._checked_edges(src, dst, edge_types)
        self._rebuild_csr(src, dst, edge_types)
        event = MutationEvent(kind="rewire")
        if changed_sources is not None:
            event.sources = np.unique(np.asarray(changed_sources, dtype=np.int64))
        self._fire_mutation(event)

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------

    def neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, edge_types)`` of ``node``'s out-edges."""
        start, stop = self.indptr[node], self.indptr[node + 1]
        return self.indices[start:stop], self.edge_type_of[start:stop]

    def extents(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(start, degree)`` of each node's adjacency list: list ``i`` is
        ``indices[start[i] : start[i] + degree[i]]`` (and the same slice of
        ``edge_type_of``) — :meth:`neighbors` for an array of nodes, and
        how the batched samplers open a list."""
        start = self.indptr[nodes]
        return start, self.indptr[nodes + 1] - start

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        return np.diff(self.indptr)

    def nodes_of_type(self, type_name: str) -> np.ndarray:
        """All node ids whose type is ``type_name``."""
        type_id = self.node_type_names.index(type_name)
        return np.flatnonzero(self.node_types == type_id)

    def edge_type_id(self, type_name: str) -> int:
        return self.edge_type_names.index(type_name)

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0)

    # ------------------------------------------------------------------
    # Matrix views (baselines)
    # ------------------------------------------------------------------

    def adjacency(
        self, edge_type: Optional[int] = None, add_self_loops: bool = False
    ) -> sp.csr_matrix:
        """Sparse adjacency, optionally restricted to one edge type.

        ``add_self_loops`` adds the identity (GCN's ``A + I``).
        """
        import scipy.sparse as sp

        if edge_type is None:
            mask = slice(None)
        else:
            mask = self.edge_type_of == edge_type
        src = self._src[mask]
        dst = self.indices[mask]
        data = np.ones(len(src))
        adj = sp.csr_matrix(
            (data, (src, dst)), shape=(self.num_nodes, self.num_nodes)
        )
        # Duplicate (parallel) edges collapse to weight >= 1; clip to binary.
        adj.data = np.minimum(adj.data, 1.0)
        if add_self_loops:
            adj = adj + sp.eye(self.num_nodes, format="csr")
        return adj

    def normalized_adjacency(self, add_self_loops: bool = True) -> sp.csr_matrix:
        """Symmetric GCN normalization ``D^-1/2 (A + I) D^-1/2``."""
        import scipy.sparse as sp

        adj = self.adjacency(add_self_loops=add_self_loops)
        degree = np.asarray(adj.sum(axis=1)).reshape(-1)
        inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.maximum(degree, 1e-12)), 0.0)
        d_mat = sp.diags(inv_sqrt)
        return (d_mat @ adj @ d_mat).tocsr()

    # ------------------------------------------------------------------
    # Subgraphs (inductive protocol, partition training, scalability sweep)
    # ------------------------------------------------------------------

    def subgraph(self, keep: np.ndarray) -> Tuple["HeteroGraph", np.ndarray]:
        """Induced subgraph on node set ``keep``.

        Returns ``(subgraph, mapping)`` where ``mapping[new_id] == old_id``.
        Features and labels are carried over; edges with either endpoint
        outside ``keep`` are dropped.
        """
        keep = np.unique(np.asarray(keep, dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.num_nodes):
            raise IndexError("subgraph node ids out of range")
        new_id = np.full(self.num_nodes, -1, dtype=np.int64)
        new_id[keep] = np.arange(keep.size)
        edge_keep = (new_id[self._src] >= 0) & (new_id[self.indices] >= 0)
        sub = HeteroGraph(
            node_types=self.node_types[keep],
            src=new_id[self._src[edge_keep]],
            dst=new_id[self.indices[edge_keep]],
            edge_types=self.edge_type_of[edge_keep],
            node_type_names=self.node_type_names,
            edge_type_names=self.edge_type_names,
            features=None if self.features is None else self.features[keep],
            labels=self.labels[keep],
            num_classes=self.num_classes,
        )
        return sub, keep

    def remove_nodes(self, drop: np.ndarray) -> Tuple["HeteroGraph", np.ndarray]:
        """Complement of :meth:`subgraph`: drop ``drop``, keep the rest."""
        mask = np.ones(self.num_nodes, dtype=bool)
        mask[np.asarray(drop, dtype=np.int64)] = False
        return self.subgraph(np.flatnonzero(mask))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> Dict[str, object]:
        """Dataset statistics in the shape of the paper's Table 1."""
        return {
            "num_nodes": self.num_nodes,
            "num_node_types": self.num_node_types,
            "num_edges": self.num_edges,
            "num_edge_types": self.num_edge_types,
            "num_features": 0 if self.features is None else self.features.shape[1],
            "num_classes": self.num_classes,
            "nodes_per_type": {
                name: int((self.node_types == i).sum())
                for i, name in enumerate(self.node_type_names)
            },
            "edges_per_type": {
                name: int((self.edge_type_of == i).sum())
                for i, name in enumerate(self.edge_type_names)
            },
        }

    def __repr__(self) -> str:
        return (
            f"HeteroGraph(nodes={self.num_nodes} ({self.num_node_types} types), "
            f"edges={self.num_edges} ({self.num_edge_types} types), "
            f"classes={self.num_classes})"
        )
