"""The on-disk / in-memory materialized-answer store.

Layout: a directory holding three arrays plus JSON metadata —

- ``embeddings.npy`` — ``(K, d)`` float64, one finished serving embedding
  per stored node: exactly what
  :meth:`~repro.core.classifier.WidenClassifier.embed_for_serving_batch`
  returns for it under the store's seed.
- ``versions.npy`` — ``(K,)`` int64 *stamp* of each row: the serving
  server's write clock when the row was materialized (0 for everything
  the offline builder wrote).
- ``reads.npy`` — ``(K, 1 + Φ·N_d)`` int32 *read set* of each row: the
  ids whose adjacency lists its sample consulted
  (:meth:`repro.core.state.NeighborTable.read_sets`).  int32 because the
  column rides every shard's slice payload; a graph this code can hold in
  memory has far fewer than 2³¹ nodes.
- ``meta.json`` — format version, model geometry, builder seed, graph
  version and the parameter digest the rows were computed under.

A row is exact until a write touches a list it read.  The store only
*records* stamps and read sets (:meth:`AggregateStore.versions_of`,
:meth:`AggregateStore.reads_of`); the verdict is the server's, through
the one freshness rule it shares with the cache
(:func:`repro.serve.cache.fresh_mask`).

In memory the three arrays are *id-indexed tables* (row ``i`` belongs to
node ``i``; stamp ``-1`` and the node's own id as read set where there is
no row), so every lookup is one fancy-indexed read and a lazily
re-materialized row is an in-place write.  ``embeddings.npy`` is opened
copy-on-write (``mmap_mode="c"``): untouched rows stay on disk, refreshed
ones live in private pages, the file is never written.  What used to be a
separate overlay is the set of rows with ``stamp > 0`` — written by a
serving server after a write of its own, not by the offline builder.

A store is only meaningful against the exact parameters and rng scheme
that built it; :meth:`AggregateStore.compatible_with` checks the format,
geometry, parameter digest and server seed and returns the human-readable
reason on mismatch so callers refuse loudly instead of serving wrong
answers.  Older formats are refused outright: v1 seeded a generator with
``(seed, node version, node)`` and v2 with ``(seed, node)``, draw schemes
no server reproduces; v3 rows are drawn as today's
(:meth:`repro.core.state.NeighborStateStore.sample_fresh`) but hold the
pack matrices of a half-finished forward, not answers.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.classifier import serving_refusal

STORE_FORMAT_VERSION = 4

_META_FILE = "meta.json"
_EMBEDDINGS_FILE = "embeddings.npy"
_VERSIONS_FILE = "versions.npy"
_READS_FILE = "reads.npy"


def store_geometry(config) -> Dict[str, object]:
    """The meta entries a store records from a classifier's config, which
    the serving classifier's geometry must match exactly."""
    return {
        "dim": int(config.dim),
        "num_wide": int(config.num_wide),
        "num_deep": int(config.num_deep),
        "num_walks": int(config.num_deep_walks),
        "use_wide": bool(config.use_wide),
        "use_deep": bool(config.use_deep),
    }


def _refuse_old_format(meta: Dict[str, object], what: str) -> Optional[str]:
    """Why an older store cannot be served (``None`` for current ones)."""
    version = int(meta.get("format_version", 0))
    if version >= STORE_FORMAT_VERSION:
        return None
    if version == 3:
        why = (
            "hold pack matrices (a forward stopped before attention), not "
            "answers, and nothing finishes that forward any more"
        )
    else:
        drawn = (
            "were sampled from one generator per node, seeded (seed, node)"
            if version == 2
            else "carry no read sets and were sampled under the "
            "(seed, node version, node) rng scheme"
        )
        why = (
            f"{drawn}, which a server drawing counter-keyed (seed, node, "
            "draw index) samples never reproduces"
        )
    return (
        f"{what} is store format v{version}; this code reads "
        f"v{STORE_FORMAT_VERSION}.  v{version} rows {why} — rebuild the "
        "store with `python -m repro store-build`"
    )


def _own_id_reads(start: int, stop: int, width: int) -> np.ndarray:
    """Read-set rows for ids without a row: each its own id, so a gather
    through them stays in range."""
    return np.repeat(np.arange(start, stop, dtype=np.int32)[:, None], width, axis=1)


class AggregateStore:
    """Stamped per-node table of finished embeddings, refreshed in place.

    ``node_ids=None`` means the dense full-graph layout (row ``i`` holds
    node ``i``) and the arrays become the tables as they are; a cluster
    shard's slice carries an explicit id array and is scattered into
    tables spanning its largest id.  :meth:`refresh` writes into the tables
    — never into the file behind a copy-on-write mmap.
    """

    def __init__(
        self,
        meta: Dict[str, object],
        embeddings: np.ndarray,
        versions: np.ndarray,
        reads: np.ndarray,
        node_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.meta = dict(meta)
        if node_ids is None:
            # A plain view over the (copy-on-write) mapping: same pages,
            # without memmap's Python-level indexing on the hot path.
            self._embeddings = np.asarray(embeddings)
            self._versions = np.array(versions, np.int64)
            self._reads = np.array(reads, np.int32)
        else:
            node_ids = np.asarray(node_ids, np.int64)
            size = int(node_ids.max()) + 1 if node_ids.size else 0
            self._embeddings = np.zeros((size, int(self.meta["dim"])))
            self._embeddings[node_ids] = embeddings
            self._versions = np.full(size, -1, np.int64)
            self._versions[node_ids] = versions
            self._reads = _own_id_reads(0, size, reads.shape[1])
            self._reads[node_ids] = reads

    # -- lookups ---------------------------------------------------------

    def version_of(self, node: int) -> Optional[int]:
        """Stamp (write clock) the node's row was materialized at, or None."""
        stamp = int(self.versions_of([node])[0])
        return None if stamp < 0 else stamp

    def has(self, node: int) -> bool:
        """Whether a row exists for ``node``."""
        return self.version_of(node) is not None

    def versions_of(self, nodes) -> np.ndarray:
        """Stamp of each node's row (``-1`` where no row exists)."""
        nodes = np.asarray(nodes, np.int64)
        table = self._versions
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
        table = self._reads
        known = (nodes >= 0) & (nodes < table.shape[0])
        if known.all():
            return table[nodes]
        out = np.repeat(nodes.astype(np.int32)[:, None], table.shape[1], axis=1)
        out[known] = table[nodes[known]]
        return out

    def blocks_for(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """The rows themselves: ``(B, d)`` embeddings + ``(B, 1 + Φ·N_d)``
        read sets, one fancy-indexed read each.

        Every node must hold a row (callers classify freshness first);
        raises :class:`KeyError` otherwise.
        """
        nodes = np.asarray(nodes, np.int64)
        missing = self.versions_of(nodes) < 0
        if missing.any():
            raise KeyError(f"node {int(nodes[missing][0])} has no store row")
        return self._embeddings[nodes], self._reads[nodes]

    def block_for(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """One node's ``(d,)`` embedding and read set."""
        embeddings, reads = self.blocks_for([node])
        return embeddings[0], reads[0]

    def refresh(self, nodes, version: int, embeddings, reads) -> None:
        """Write back lazily re-materialized rows (one node or a batch),
        stamped ``version``, in place."""
        if reads is None:
            raise ValueError(
                f"rows for node(s) {nodes} carry no read set; without one "
                "they could never be told stale"
            )
        nodes = np.atleast_1d(np.asarray(nodes, np.int64))
        size = self._versions.size
        if nodes.size and int(nodes.max()) >= size:  # an arrival: grow, doubling
            grown = max(int(nodes.max()) + 1, 2 * size)
            self._embeddings = np.concatenate(
                [self._embeddings, np.zeros((grown - size, self._embeddings.shape[1]))]
            )
            self._versions = np.concatenate(
                [self._versions, np.full(grown - size, -1)]
            )
            self._reads = np.concatenate(
                [self._reads, _own_id_reads(size, grown, self._reads.shape[1])]
            )
        self._embeddings[nodes] = embeddings
        self._versions[nodes] = int(version)
        self._reads[nodes] = reads

    # -- accounting ------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int((self._versions >= 0).sum())

    @property
    def row_nbytes(self) -> int:
        """Bytes of one row's embedding (the gauge the capacity planner
        reads) — a property of the format, so an empty slice reports it too."""
        return int(self.meta["dim"]) * 8

    @property
    def nbytes(self) -> int:
        return self.num_rows * self.row_nbytes

    @property
    def overlay_size(self) -> int:
        """Rows a serving server wrote after a write of its own."""
        return int((self._versions > 0).sum())

    # -- compatibility ---------------------------------------------------

    def compatible_with(self, classifier, seed: int) -> Optional[str]:
        """Reason this store cannot serve ``classifier`` at server ``seed``
        (``None`` when it can).  Checks the store format (the rng scheme
        is part of it), the serving contract
        (:func:`~repro.core.classifier.serving_refusal`), the model
        geometry, the parameter digest and the rng seed — everything that
        went into the materialized values."""
        reason = _refuse_old_format(self.meta, "this store") or serving_refusal(
            classifier
        )
        if reason is not None:
            return reason
        for key, value in store_geometry(classifier.config).items():
            if value != self.meta[key]:
                return (
                    f"geometry mismatch on {key}: store has "
                    f"{self.meta[key]!r}, classifier has {value!r}"
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
        embeddings: np.ndarray,
        versions: np.ndarray,
        reads: np.ndarray,
    ) -> "AggregateStore":
        """Write a dense full-graph store directory and return it (mmap'd)."""
        os.makedirs(path, exist_ok=True)
        meta = dict(meta)
        meta["format_version"] = STORE_FORMAT_VERSION
        np.save(os.path.join(path, _EMBEDDINGS_FILE), embeddings)
        np.save(os.path.join(path, _VERSIONS_FILE), versions)
        np.save(os.path.join(path, _READS_FILE), np.asarray(reads, np.int32))
        with open(os.path.join(path, _META_FILE), "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
        return cls.open(path)

    @classmethod
    def open(cls, path, mmap: bool = True) -> "AggregateStore":
        """Open a store directory; embeddings stay on disk via a
        copy-on-write mmap."""
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
        embeddings = np.load(
            os.path.join(path, _EMBEDDINGS_FILE), mmap_mode="c" if mmap else None
        )
        versions = np.load(os.path.join(path, _VERSIONS_FILE))
        reads = np.load(os.path.join(path, _READS_FILE))
        return cls(meta, embeddings, versions, reads)

    # -- shard slices ----------------------------------------------------

    def slice_payload(self, nodes: Iterable[int]) -> Dict[str, object]:
        """Plain-data slice of the store covering ``nodes`` (a shard
        engine serves only its *owned* nodes, so its slice carries
        exactly those rows).

        The payload crosses the wire codec as-is (plain data and
        arrays); :meth:`from_payload` rebuilds an in-memory store on the
        other side, copying every row, so the store keeps no view of the
        frame it arrived in.  Rows are read from the live tables, so a slice taken from a
        serving store carries its refreshed rows and their stamps.
        """
        present = np.unique(np.fromiter(nodes, np.int64))
        present = present[self.versions_of(present) >= 0]
        return {
            "meta": dict(self.meta),
            "node_ids": present,
            "embeddings": self._embeddings[present],
            "versions": self._versions[present],
            "reads": self._reads[present],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AggregateStore":
        """Rebuild a (sliced) store from :meth:`slice_payload` output."""
        meta = dict(payload["meta"])
        reason = _refuse_old_format(meta, "this store slice")
        if reason is not None:
            raise ValueError(reason)
        return cls(
            meta,
            np.asarray(payload["embeddings"]),
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
