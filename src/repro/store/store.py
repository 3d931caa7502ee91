"""The on-disk / in-memory materialized-aggregate store.

Layout: a directory holding four arrays plus JSON metadata —

- ``rows.npy`` — ``(K, R, d)`` float64 row blocks, one per stored node.
  Each block concatenates the wide pack matrix (capacity ``num_wide + 1``
  rows) and Φ deep pack matrices (capacity ``num_deep + 1`` rows each),
  zero-padded; trimming information lives in ``lengths.npy``.
- ``lengths.npy`` — ``(K, 1 + Φ)`` int64 true lengths (wide first).
- ``versions.npy`` — ``(K,)`` int64 *stamp* of each block: the serving
  server's write clock when the block was materialized (0 for everything
  the offline builder wrote).
- ``reads.npy`` — ``(K, 1 + Φ·N_d)`` int32 *read set* of each block: the
  ids whose adjacency lists its sample consulted
  (:meth:`repro.core.state.NeighborTable.read_sets`).  int32 because the
  column rides every shard's slice payload; a graph this code can hold in
  memory has far fewer than 2³¹ nodes.
- ``meta.json`` — format version, model geometry, builder seed, graph
  version and the parameter digest the rows were computed under.

A block is exact until a write touches a list it read.  The store only
*records* stamps and read sets (:meth:`AggregateStore.versions_of`,
:meth:`AggregateStore.reads_of`); the verdict is the server's, through
the one freshness rule it shares with the cache
(:func:`repro.serve.cache.fresh_mask`).

``rows.npy`` is opened with ``mmap_mode="r"`` so a store larger than RAM
costs one page-fault per looked-up block, not a load.  Capacities are the
sampling caps (``num_wide``/``num_deep`` bound every neighborhood), so a
lazily re-materialized row after a mutation always fits the same block
shape — the in-memory overlay and the mmap share one geometry.

A store is only meaningful against the exact parameters and rng scheme
that built it; :meth:`AggregateStore.compatible_with` checks the format,
geometry, parameter digest and server seed and returns the human-readable
reason on mismatch so callers refuse loudly instead of serving wrong
aggregates.  Older formats are refused outright, because the format number
also names the draw scheme and a server never reproduces another one's
samples — the rows would be wrong rather than merely stale: v1 seeded a
generator with ``(seed, node version, node)``, v2 with ``(seed, node)``;
v3 rows are drawn by the counter-keyed sampler
(:meth:`repro.core.state.NeighborStateStore.sample_fresh`).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.packing import PackRows

STORE_FORMAT_VERSION = 3

_META_FILE = "meta.json"
_ROWS_FILE = "rows.npy"
_LENGTHS_FILE = "lengths.npy"
_VERSIONS_FILE = "versions.npy"
_READS_FILE = "reads.npy"

# Meta keys that must match the serving classifier's geometry exactly.
_GEOMETRY_KEYS = (
    "dim", "num_wide", "num_deep", "num_walks", "use_wide", "use_deep",
)


def block_capacity(meta: Dict[str, object]) -> Tuple[int, int, int]:
    """``(wide_cap, deep_cap, total_rows)`` of one row block."""
    wide_cap = (int(meta["num_wide"]) + 1) if meta["use_wide"] else 0
    deep_cap = (int(meta["num_deep"]) + 1) if meta["use_deep"] else 0
    total = wide_cap + int(meta["num_walks"]) * deep_cap
    return wide_cap, deep_cap, total


def encode_block(
    rows: PackRows, meta: Dict[str, object]
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack one node's trimmed matrices into a ``(R, d)`` block + lengths."""
    wide_cap, deep_cap, total = block_capacity(meta)
    num_walks = int(meta["num_walks"])
    block = np.zeros((total, int(meta["dim"])))
    lengths = np.zeros(1 + num_walks, np.int64)
    if wide_cap:
        if rows.wide is None:
            raise ValueError("use_wide store but PackRows.wide is None")
        lengths[0] = rows.wide.shape[0]
        block[: lengths[0]] = rows.wide
    if deep_cap:
        if len(rows.deep) != num_walks:
            raise ValueError(
                f"expected {num_walks} walks, got {len(rows.deep)}"
            )
        for j, walk in enumerate(rows.deep):
            offset = wide_cap + j * deep_cap
            lengths[1 + j] = walk.shape[0]
            block[offset : offset + walk.shape[0]] = walk
    return block, lengths


def _refuse_old_format(meta: Dict[str, object], what: str) -> Optional[str]:
    """Why an older store cannot be served (``None`` for current ones)."""
    version = int(meta.get("format_version", 0))
    if version >= STORE_FORMAT_VERSION:
        return None
    drawn = (
        "were sampled from one generator per node, seeded (seed, node)"
        if version == 2
        else "carry no read sets and were sampled under the "
        "(seed, node version, node) rng scheme"
    )
    return (
        f"{what} is store format v{version}; this code reads "
        f"v{STORE_FORMAT_VERSION}.  v{version} rows {drawn}, which a server "
        "drawing counter-keyed (seed, node, draw index) samples never "
        "reproduces — rebuild the store with `python -m repro store-build`"
    )


def decode_block(
    block: np.ndarray,
    lengths: np.ndarray,
    meta: Dict[str, object],
    reads: Optional[np.ndarray] = None,
) -> PackRows:
    """Trim a row block back into :class:`PackRows` (views, no copies)."""
    wide_cap, deep_cap, _ = block_capacity(meta)
    wide = block[: int(lengths[0])] if wide_cap else None
    deep: List[np.ndarray] = []
    for j in range(int(meta["num_walks"]) if deep_cap else 0):
        offset = wide_cap + j * deep_cap
        deep.append(block[offset : offset + int(lengths[1 + j])])
    return PackRows(wide=wide, deep=deep, reads=reads)


def _own_id_reads(start: int, stop: int, width: int) -> np.ndarray:
    """Read-set rows for ids without a row: each its own id, so a gather
    through them stays in range."""
    return np.repeat(np.arange(start, stop, dtype=np.int32)[:, None], width, axis=1)


class AggregateStore:
    """Stamped per-node pack-row store with a lazy refresh overlay.

    ``node_ids=None`` means the dense full-graph layout (block ``i`` holds
    node ``i``); a cluster shard's slice carries an explicit id array and
    resolves through an id-indexed position table.  :meth:`refresh` never touches the
    (read-only, possibly mmap'd) base arrays — re-materialized rows live
    in an in-memory overlay consulted first by every lookup.
    """

    def __init__(
        self,
        meta: Dict[str, object],
        rows: np.ndarray,
        lengths: np.ndarray,
        versions: np.ndarray,
        reads: np.ndarray,
        node_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.meta = dict(meta)
        self._rows = rows
        self._lengths = lengths
        self._versions = versions
        self._node_ids = (
            None if node_ids is None else np.asarray(node_ids, np.int64)
        )
        # node -> (stamp, block, lengths): rows re-materialized since
        # open, kept in encoded block form so the serving hot path reads
        # overlay and base entries identically.
        self._overlay: Dict[int, Tuple[int, np.ndarray, np.ndarray]] = {}
        # Id-indexed lookup tables, so a whole miss batch resolves in one
        # fancy-indexed read each: the stamp and the read set of the row
        # currently serving each node (overlay over base; stamp -1 and the
        # node's own id where there is none; grown by :meth:`refresh` for
        # arrivals) and, for a slice, each node's base position (-1: none).
        self._base_position: Optional[np.ndarray] = None
        if self._node_ids is None:
            self._current_versions = np.array(versions, np.int64)
            self._current_reads = np.array(reads, np.int32)
        else:
            size = int(self._node_ids.max()) + 1 if self._node_ids.size else 0
            self._base_position = np.full(size, -1, np.int64)
            self._base_position[self._node_ids] = np.arange(self._node_ids.size)
            self._current_versions = np.full(size, -1, np.int64)
            self._current_versions[self._node_ids] = versions
            self._current_reads = _own_id_reads(0, size, reads.shape[1])
            self._current_reads[self._node_ids] = reads

    # -- lookups ---------------------------------------------------------

    def _positions_of(self, nodes: np.ndarray) -> np.ndarray:
        """Base-array position of each node id (``-1`` where no row)."""
        table = self._base_position
        limit = self._rows.shape[0] if table is None else table.size
        in_range = (nodes >= 0) & (nodes < limit)
        if table is None:
            return np.where(in_range, nodes, -1)
        positions = np.full(nodes.shape, -1, np.int64)
        positions[in_range] = table[nodes[in_range]]
        return positions

    def _position(self, node: int) -> Optional[int]:
        node = int(node)
        table = self._base_position
        if table is None:
            return node if 0 <= node < self._rows.shape[0] else None
        if 0 <= node < table.size and table[node] >= 0:
            return int(table[node])
        return None

    def has(self, node: int) -> bool:
        """Whether any row (base or overlay) exists for ``node``."""
        return int(node) in self._overlay or self._position(node) is not None

    def in_overlay(self, node: int) -> bool:
        """Whether the node's current row lives in the re-materialized
        overlay (vs the base blocks) — the serving-ladder attribution
        between the ``store`` and ``overlay`` rungs."""
        return int(node) in self._overlay

    def version_of(self, node: int) -> Optional[int]:
        """Stamp (write clock) the node's row was materialized at, or None."""
        entry = self._overlay.get(int(node))
        if entry is not None:
            return entry[0]
        position = self._position(node)
        return None if position is None else int(self._versions[position])

    def rows_for(self, node: int) -> PackRows:
        """The node's pack matrices and read set (overlay over base)."""
        block, lengths = self.block_for(node)
        return decode_block(
            block, lengths, self.meta, reads=self._current_reads[int(node)]
        )

    def block_for(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """The node's raw ``(R, d)`` capacity-padded block + lengths row.

        This is the serving hot path: base entries are mmap views and
        overlay entries are already encoded, so a lookup is two dict/array
        probes with no decoding or re-padding work.
        """
        entry = self._overlay.get(int(node))
        if entry is not None:
            return entry[1], entry[2]
        position = self._position(node)
        if position is None:
            raise KeyError(f"node {node} has no store row")
        return self._rows[position], self._lengths[position]

    def versions_of(self, nodes) -> np.ndarray:
        """Vectorized :meth:`version_of` (``-1`` where no row exists)."""
        nodes = np.asarray(nodes, np.int64)
        table = self._current_versions
        known = (nodes >= 0) & (nodes < table.size)
        if known.all():
            return table[nodes]
        out = np.full(nodes.size, -1, np.int64)
        out[known] = table[nodes[known]]
        return out

    def reads_of(self, nodes) -> np.ndarray:
        """``(B, 1 + Φ·N_d)`` read sets of the rows :meth:`versions_of`
        stamps (a node without a row reads as its own id)."""
        nodes = np.asarray(nodes, np.int64)
        table = self._current_reads
        known = (nodes >= 0) & (nodes < table.shape[0])
        if known.all():
            return table[nodes]
        out = np.repeat(nodes.astype(np.int32)[:, None], table.shape[1], axis=1)
        out[known] = table[nodes[known]]
        return out

    def blocks_for(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`block_for`: ``(B, R, d)`` blocks + ``(B, 1+Φ)``
        lengths, gathered with one fancy-indexed read for base entries.

        Every node must hold a row (callers classify freshness first);
        raises :class:`KeyError` otherwise.
        """
        nodes = np.asarray(nodes, np.int64)
        total, dim = self.block_shape
        blocks = np.empty((nodes.size, total, dim))
        lengths = np.empty((nodes.size, self._lengths.shape[1]), np.int64)
        if self._overlay:
            base_mask = np.array(
                [int(node) not in self._overlay for node in nodes], bool
            )
        else:
            base_mask = np.ones(nodes.size, bool)
        base_nodes = nodes[base_mask]
        if base_nodes.size:
            positions = self._positions_of(base_nodes)
            if (positions < 0).any():
                raise KeyError(
                    f"node {int(base_nodes[positions < 0][0])} has no store row"
                )
            blocks[base_mask] = self._rows[positions]
            lengths[base_mask] = self._lengths[positions]
        for position in np.nonzero(~base_mask)[0]:
            _, block, length_row = self._overlay[int(nodes[position])]
            blocks[position] = block
            lengths[position] = length_row
        return blocks, lengths

    def refresh(self, node: int, version: int, rows: PackRows) -> None:
        """Write back a lazily re-materialized row (in-memory overlay),
        stamped ``version``, with the read set ``rows`` carries."""
        if rows.reads is None:
            raise ValueError(
                f"rows for node {node} carry no read set; without one the "
                "row could never be told stale"
            )
        block, lengths = encode_block(rows, self.meta)
        node = int(node)
        self._overlay[node] = (int(version), block, lengths)
        size = self._current_versions.size
        if node >= size:  # an arrival: grow, doubling
            grown = max(node + 1, 2 * size)
            self._current_versions = np.concatenate(
                [self._current_versions, np.full(grown - size, -1)]
            )
            self._current_reads = np.concatenate(
                [
                    self._current_reads,
                    _own_id_reads(size, grown, self._current_reads.shape[1]),
                ]
            )
        self._current_versions[node] = int(version)
        self._current_reads[node] = rows.reads

    # -- accounting ------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int(self._rows.shape[0])

    @property
    def block_shape(self) -> Tuple[int, int]:
        """``(R, d)`` of one row block (what a batch assembly allocates)."""
        _, _, total = block_capacity(self.meta)
        return total, int(self.meta["dim"])

    @property
    def row_nbytes(self) -> int:
        """Bytes of one row block (the gauge the capacity planner reads)."""
        return int(self._rows[0].nbytes) if self.num_rows else 0

    @property
    def nbytes(self) -> int:
        return int(self._rows.nbytes)

    @property
    def overlay_size(self) -> int:
        return len(self._overlay)

    # -- compatibility ---------------------------------------------------

    def compatible_with(self, classifier, seed: int) -> Optional[str]:
        """Reason this store cannot serve ``classifier`` at server ``seed``
        (``None`` when it can).  Checks the store format (the rng scheme
        is part of it), the serving-path support flags, the model geometry,
        the parameter digest and the rng seed — everything that went into
        the materialized values."""
        reason = _refuse_old_format(self.meta, "this store")
        if reason is not None:
            return reason
        supports = getattr(classifier, "supports_store", None)
        if supports is None or not hasattr(classifier, "embed_from_store_blocks"):
            return f"{getattr(classifier, 'name', classifier)!r} has no store hooks"
        reason = supports()
        if reason is not None:
            return reason
        config = classifier.config
        geometry = {
            "dim": int(config.dim),
            "num_wide": int(config.num_wide),
            "num_deep": int(config.num_deep),
            "num_walks": int(config.num_deep_walks),
            "use_wide": bool(config.use_wide),
            "use_deep": bool(config.use_deep),
        }
        for key in _GEOMETRY_KEYS:
            if geometry[key] != self.meta[key]:
                return (
                    f"geometry mismatch on {key}: store has "
                    f"{self.meta[key]!r}, classifier has {geometry[key]!r}"
                )
        digest = classifier.params_digest()
        if digest != self.meta["params_digest"]:
            return (
                f"parameter digest mismatch: store built against "
                f"{self.meta['params_digest']}, classifier is {digest}"
            )
        if int(seed) != int(self.meta["seed"]):
            return (
                f"seed mismatch: store sampled with seed {self.meta['seed']}, "
                f"server uses {seed}"
            )
        return None

    # -- persistence -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        *,
        meta: Dict[str, object],
        rows: np.ndarray,
        lengths: np.ndarray,
        versions: np.ndarray,
        reads: np.ndarray,
    ) -> "AggregateStore":
        """Write a dense full-graph store directory and return it (mmap'd)."""
        os.makedirs(path, exist_ok=True)
        meta = dict(meta)
        meta["format_version"] = STORE_FORMAT_VERSION
        np.save(os.path.join(path, _ROWS_FILE), rows)
        np.save(os.path.join(path, _LENGTHS_FILE), lengths)
        np.save(os.path.join(path, _VERSIONS_FILE), versions)
        np.save(os.path.join(path, _READS_FILE), np.asarray(reads, np.int32))
        with open(os.path.join(path, _META_FILE), "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
        return cls.open(path)

    @classmethod
    def open(cls, path, mmap: bool = True) -> "AggregateStore":
        """Open a store directory; row blocks stay on disk via mmap."""
        meta_path = os.path.join(path, _META_FILE)
        if not os.path.exists(meta_path):
            raise FileNotFoundError(
                f"{path!r} is not a store directory (no {_META_FILE})"
            )
        with open(meta_path) as handle:
            meta = json.load(handle)
        version = int(meta.get("format_version", 0))
        if version > STORE_FORMAT_VERSION:
            raise ValueError(
                f"store {path!r} is format v{version}, newer than this "
                f"code's v{STORE_FORMAT_VERSION}"
            )
        reason = _refuse_old_format(meta, f"store {path!r}")
        if reason is not None:
            raise ValueError(reason)
        rows = np.load(
            os.path.join(path, _ROWS_FILE), mmap_mode="r" if mmap else None
        )
        lengths = np.load(os.path.join(path, _LENGTHS_FILE))
        versions = np.load(os.path.join(path, _VERSIONS_FILE))
        reads = np.load(os.path.join(path, _READS_FILE))
        return cls(meta, rows, lengths, versions, reads)

    # -- shard slices ----------------------------------------------------

    def slice_payload(self, nodes: Iterable[int]) -> Dict[str, object]:
        """Plain-data slice of the store covering ``nodes`` (shard halo
        handling: a shard engine serves only its *owned* nodes, so its
        slice carries exactly those blocks — halo nodes contribute to
        other shards' rows at build time, never to local lookups).

        The payload crosses the transport's pickle boundary as-is;
        :meth:`from_payload` rebuilds a positioned in-memory store on the
        other side.  Overlay entries are folded in so a slice taken from a
        live store reflects its current effective rows.
        """
        present = sorted(
            {int(node) for node in nodes if self.has(int(node))}
        )
        _, _, total = block_capacity(self.meta)
        dim = int(self.meta["dim"])
        num_walks = int(self.meta["num_walks"])
        rows = np.zeros((len(present), total, dim))
        lengths = np.zeros((len(present), 1 + num_walks), np.int64)
        versions = np.zeros(len(present), np.int64)
        for position, node in enumerate(present):
            entry = self._overlay.get(node)
            if entry is not None:
                version, block, length_row = entry
            else:
                base = self._position(node)
                version = int(self._versions[base])
                block = np.asarray(self._rows[base])
                length_row = self._lengths[base]
            rows[position] = block
            lengths[position] = length_row
            versions[position] = version
        return {
            "meta": dict(self.meta),
            "node_ids": np.asarray(present, np.int64),
            "rows": rows,
            "lengths": lengths,
            "versions": versions,
            "reads": self._current_reads[np.asarray(present, np.int64)],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AggregateStore":
        """Rebuild a (sliced) store from :meth:`slice_payload` output."""
        return cls(
            dict(payload["meta"]),
            np.asarray(payload["rows"]),
            np.asarray(payload["lengths"], np.int64),
            np.asarray(payload["versions"], np.int64),
            np.asarray(payload["reads"], np.int32),
            node_ids=np.asarray(payload["node_ids"], np.int64),
        )

    def __repr__(self) -> str:
        return (
            f"AggregateStore(rows={self.num_rows}, "
            f"overlay={self.overlay_size}, "
            f"graph_version={self.meta.get('graph_version')}, "
            f"digest={self.meta.get('params_digest')})"
        )
