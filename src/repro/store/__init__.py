"""repro.store — read-set-stamped materialized-aggregate tier for warm serving.

SeHGNN (arXiv 2207.02547) observes that a hetero-GNN's neighbor
aggregation can be computed *once* instead of per request; this package
applies that to WIDEN's serving path.  The offline builder
(:func:`build_store`) runs the batched packing machinery over every node
and persists the trimmed pack matrices ``M°``/``M▷`` (Eqs. 1-2) — the
post-projection, post-edge-multiply aggregates — into a compact,
mmap-friendly on-disk store keyed by graph version + parameter digest.
At serve time a cache miss with a fresh store row skips sampling,
feature projection and edge gathers entirely: the answer is attention +
MLP over the stored blocks (:meth:`WidenClassifier.embed_from_store_blocks`),
bit-identical to the full recompute because both halves run the same
code over the same pack values.

Freshness is the server's one rule, shared with its cache: every row
records the *read set* of its sample (the ids whose adjacency lists the
sampler consulted) and the *stamp* (the server's write clock when it was
made; 0 for everything built offline).  A write stamps the lists it
changed; a row is served only while nothing it read has been stamped
since.  A row a write undercut is re-materialized lazily by the next miss
(write-back into an in-memory overlay) — the recompute path is always the
exactness oracle — and a row no write undercut stays valid indefinitely,
because answers are seeded by ``(seed, node)`` alone: re-sampling it would
draw the same sample from the same lists.
"""

from repro.store.store import AggregateStore, STORE_FORMAT_VERSION
from repro.store.builder import build_store

__all__ = ["AggregateStore", "STORE_FORMAT_VERSION", "build_store"]
