"""The on-disk / in-memory materialized-answer store.

Layout: one file, a ``"store"`` record frame (:mod:`repro.codec`) holding
three arrays plus metadata —

- ``embeddings`` — ``(K, d)`` float64, one finished serving embedding
  per stored node: exactly what
  :meth:`~repro.core.classifier.WidenClassifier.embed_for_serving_batch`
  returns for it under the store's seed.
- ``versions`` — ``(K,)`` int64 *stamp* of each row: the serving
  server's write clock when the row was materialized (0 for everything
  the offline builder wrote).
- ``reads`` — ``(K, 1 + Φ·N_d)`` int32 *read set* of each row: the
  ids whose adjacency lists its sample consulted
  (:meth:`repro.core.state.NeighborTable.read_sets`).  int32 because the
  column rides every shard's slice payload; a graph this code can hold in
  memory has far fewer than 2³¹ nodes.
- ``meta`` — format version, model geometry, builder seed, graph
  version and the parameter digest the rows were computed under.

A row is exact until a write touches a list it read.  The store only
*records* stamps and read sets (:meth:`AggregateStore.versions_of`,
:meth:`AggregateStore.reads_of`); the verdict is the server's, through
the one freshness rule it shares with the cache
(:func:`repro.serve.cache.fresh_mask`).

In memory the three arrays are *id-indexed tables* over the ids the store
covers: a whole-graph store covers every id (row ``i`` belongs to node
``i``), a cluster shard's slice only the ids it owns, ``s, s+S, s+2S, …``
for shard ``s`` of ``S`` (row ``n // S`` belongs to node ``n``) — the same
layout, ``S = 1`` being the whole graph.  Stamp ``-1`` and the node's own
id as read set mark an id without a row, and an id the store does not
cover reads the same way.  So every lookup is one fancy-indexed read and
a lazily re-materialized row is an in-place write.  The file is mapped
copy-on-write (:func:`repro.codec.read_record`): untouched rows stay in
the page cache, refreshed ones live in private pages, the file is never
written, and a rebuild at the same path (a new file renamed over it) does
not reach an open store.  What used to be a separate overlay is the set
of rows with ``stamp > 0`` — written by a serving server after a write of
its own, not by the offline builder.

A store is only meaningful against the exact parameters and rng scheme
that built it; :meth:`AggregateStore.compatible_with` checks the format,
geometry, parameter digest and server seed and returns the human-readable
reason on mismatch so callers refuse loudly instead of serving wrong
answers.  A store of another format version — before v5 a directory of
arrays — is refused with the command that rebuilds it.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.codec import Record, publish, read_record
from repro.core.classifier import serving_refusal
from repro.utils import owned

STORE_FORMAT_VERSION = 5


def refuse_directory(path) -> None:
    """A store is one file: refuse a directory before any work is done."""
    if os.path.isdir(path):
        raise ValueError(
            f"store {str(path)!r} is a directory, the layout of store "
            f"formats before v{STORE_FORMAT_VERSION}; this code reads one "
            "file — rebuild it with `python -m repro store-build --out FILE`"
        )


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


def _format_refusal(meta: Dict[str, object], what: str) -> Optional[str]:
    """Why a store of another format cannot be served (``None`` for v5)."""
    version = int(meta.get("format_version", 0))
    if version == STORE_FORMAT_VERSION:
        return None
    if version > STORE_FORMAT_VERSION:
        return (
            f"{what} is store format v{version}, newer than this code's "
            f"v{STORE_FORMAT_VERSION}"
        )
    return (
        f"{what} is store format v{version}; this code reads "
        f"v{STORE_FORMAT_VERSION} — rebuild the store with `python -m repro "
        "store-build`"
    )


def _own_id_reads(ids: np.ndarray, width: int) -> np.ndarray:
    """Read-set rows for ids without a row: each its own id, so a gather
    through them stays in range."""
    return np.repeat(ids.astype(np.int32)[:, None], width, axis=1)


class AggregateStore:
    """Stamped per-node table of finished embeddings, refreshed in place.

    The arrays are the tables as they are, kept without a copy: row ``k``
    belongs to node ``shard_id + k * num_shards``.  The defaults
    (``0``, ``1``) are the whole-graph store; a cluster shard's slice
    (:meth:`slice_payload`) covers the ids shard ``shard_id`` of
    ``num_shards`` owns, so its tables are ``1 / num_shards`` of the
    whole.  An id the store does not cover has no row: lookups read it as
    absent and :meth:`refresh` never writes it.  :meth:`refresh` writes
    into the tables — never into the file behind a copy-on-write mapping.
    """

    def __init__(
        self,
        meta: Dict[str, object],
        embeddings: np.ndarray,
        versions: np.ndarray,
        reads: np.ndarray,
        shard_id: int = 0,
        num_shards: int = 1,
    ) -> None:
        self.meta = dict(meta)
        self.shard_id = int(shard_id)
        self.num_shards = int(num_shards)
        if not 0 <= self.shard_id < self.num_shards:
            raise ValueError(
                f"shard {self.shard_id} of {self.num_shards} does not exist"
            )
        # Kept as given: views of a file's copy-on-write mapping, or the
        # arrays a slice payload delivered.
        self._embeddings = np.asarray(embeddings, np.float64)
        self._versions = np.asarray(versions, np.int64)
        self._reads = np.asarray(reads, np.int32)
        rows = self._versions.shape[0]
        if self._embeddings.shape != (rows, int(self.meta["dim"])) or (
            self._reads.ndim != 2 or self._reads.shape[0] != rows
        ):
            raise ValueError(
                f"store tables disagree: embeddings {self._embeddings.shape}, "
                f"versions {self._versions.shape}, reads {self._reads.shape} "
                f"at dim {self.meta['dim']}"
            )

    def _rows(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each node's table row, and whether the table has that row (an
        id this store does not cover never does).  A row read as unsigned
        is one compare for both bounds: a negative one is past any table."""
        size = self._versions.size
        if self.num_shards == 1:
            return nodes, nodes.view(np.uint64) < size
        rows, residue = np.divmod(nodes, self.num_shards)
        known = residue == self.shard_id
        known &= rows.view(np.uint64) < size
        return rows, known

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
        rows, known = self._rows(nodes)
        table = self._versions
        if known.all():
            return table[rows]
        out = np.full(nodes.size, -1, np.int64)
        out[known] = table[rows[known]]
        return out

    def reads_of(self, nodes) -> np.ndarray:
        """``(B, 1 + Φ·N_d)`` read sets of the rows :meth:`versions_of`
        stamps (a node without a row reads as its own id)."""
        nodes = np.asarray(nodes, np.int64)
        rows, known = self._rows(nodes)
        table = self._reads
        if known.all():
            return table[rows]
        out = _own_id_reads(nodes, table.shape[1])
        out[known] = table[rows[known]]
        return out

    def blocks_for(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """The rows themselves: ``(B, d)`` embeddings + ``(B, 1 + Φ·N_d)``
        read sets, one fancy-indexed read each.

        Every node must hold a row (callers classify freshness first);
        raises :class:`KeyError` otherwise.
        """
        nodes = np.asarray(nodes, np.int64)
        rows, known = self._rows(nodes)
        if not known.all() or (self._versions[rows] < 0).any():
            missing = self.versions_of(nodes) < 0
            raise KeyError(f"node {int(nodes[missing][0])} has no store row")
        return self._embeddings[rows], self._reads[rows]

    def block_for(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """One node's ``(d,)`` embedding and read set."""
        embeddings, reads = self.blocks_for([node])
        return embeddings[0], reads[0]

    def refresh(self, nodes, version: int, embeddings, reads) -> None:
        """Write back lazily re-materialized rows (one node or a batch),
        stamped ``version``, in place.  A node this store does not cover is
        skipped: it has no row here, and its row index would be another
        node's."""
        if reads is None:
            raise ValueError(
                f"rows for node(s) {nodes} carry no read set; without one "
                "they could never be told stale"
            )
        nodes = np.atleast_1d(np.asarray(nodes, np.int64))
        rows, residue = np.divmod(nodes, self.num_shards)
        covered = (residue == self.shard_id) & (nodes >= 0)
        if not covered.all():
            embeddings = np.reshape(embeddings, (nodes.size, -1))[covered]
            reads = np.reshape(reads, (nodes.size, -1))[covered]
            rows = rows[covered]
        size = self._versions.size
        if rows.size and int(rows.max()) >= size:  # an arrival: grow, doubling
            grown = max(int(rows.max()) + 1, 2 * size)
            self._embeddings = np.concatenate(
                [self._embeddings, np.zeros((grown - size, self._embeddings.shape[1]))]
            )
            self._versions = np.concatenate(
                [self._versions, np.full(grown - size, -1)]
            )
            ids = self.shard_id + self.num_shards * np.arange(size, grown)
            self._reads = np.concatenate(
                [self._reads, _own_id_reads(ids, self._reads.shape[1])]
            )
        self._embeddings[rows] = embeddings
        self._versions[rows] = int(version)
        self._reads[rows] = reads

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
        reason = _format_refusal(self.meta, "this store") or serving_refusal(
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
        """Publish a dense full-graph store file at ``path`` and return it
        opened (mapped)."""
        refuse_directory(path)
        publish(path, Record("store", {
            "meta": dict(meta, format_version=STORE_FORMAT_VERSION),
            "embeddings": embeddings,
            "versions": versions,
            "reads": np.asarray(reads, np.int32),
        }))
        return cls.open(path)

    @classmethod
    def open(cls, path) -> "AggregateStore":
        """Open a store file; its tables are copy-on-write views of the
        file's mapping (:func:`repro.codec.read_record`)."""
        refuse_directory(path)
        payload = read_record(path, "store")
        reason = _format_refusal(payload["meta"], f"store {str(path)!r}")
        if reason is not None:
            raise ValueError(reason)
        return cls(
            payload["meta"], payload["embeddings"], payload["versions"], payload["reads"]
        )

    # -- shard slices ----------------------------------------------------

    def slice_payload(
        self, nodes: Iterable[int], shard_id: int = 0, num_shards: int = 1
    ) -> Dict[str, object]:
        """Plain-data slice of the store for shard ``shard_id`` of
        ``num_shards``, carrying the rows of ``nodes`` (a shard engine
        serves only its *owned* nodes, so its slice carries exactly those).

        The slice is the shard's own tables, dense over every id the shard
        owns below the store's extent — row ``k`` is node
        ``shard_id + k * num_shards`` — so :meth:`from_payload` adopts the
        arrays as they cross the wire, with no scatter.  An owned id
        without a row here (or not in ``nodes``) gets stamp ``-1`` and its
        own id as read set; a node of ``nodes`` the shard does not own is
        refused.  The arrays are fresh copies read from the live tables,
        so a slice taken from a serving store carries its refreshed rows
        and their stamps, and later refreshes do not reach it.
        """
        wanted = np.fromiter(nodes, np.int64)
        if (wanted % num_shards != shard_id).any():
            raise ValueError(
                f"a slice for shard {shard_id} of {num_shards} holds only "
                f"ids n with n % {num_shards} == {shard_id}"
            )
        ids = np.arange(shard_id, self._versions.size * self.num_shards, num_shards)
        inside = wanted[(wanted >= 0) & (wanted < ids.size * num_shards)]
        keep = np.zeros(ids.size, bool)
        keep[inside // num_shards] = True
        versions = self.versions_of(ids)
        versions[~keep] = -1
        present = versions >= 0
        embeddings = np.zeros((ids.size, int(self.meta["dim"])))
        embeddings[present] = self.blocks_for(ids[present])[0]
        reads = self.reads_of(ids)
        reads[~present] = _own_id_reads(ids[~present], reads.shape[1])
        return {
            "meta": dict(self.meta),
            "shard_id": int(shard_id),
            "num_shards": int(num_shards),
            "embeddings": embeddings,
            "versions": versions,
            "reads": reads,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AggregateStore":
        """The (sliced) store of a received :meth:`slice_payload`, over its
        arrays: adopted when they are the receiver's own (what a transport
        delivered), copied when they are views (:func:`repro.utils.owned`)."""
        meta = dict(payload["meta"])
        reason = _format_refusal(meta, "this store slice")
        if reason is not None:
            raise ValueError(reason)
        return cls(
            meta,
            owned(payload["embeddings"], np.float64),
            owned(payload["versions"], np.int64),
            owned(payload["reads"], np.int32),
            shard_id=payload["shard_id"],
            num_shards=payload["num_shards"],
        )

    def __repr__(self) -> str:
        return (
            f"AggregateStore(rows={self.num_rows}, "
            f"overlay={self.overlay_size}, "
            f"graph_version={self.meta.get('graph_version')}, "
            f"digest={self.meta.get('params_digest')})"
        )
