"""repro.store — read-set-stamped materialized-answer tier for warm serving.

SeHGNN (arXiv 2207.02547) observes that a hetero-GNN's neighbor
aggregation can be computed *once* instead of per request.  Its
aggregates are parameter-free; WIDEN's packs are projected with the
checkpoint's weights, so anything precomputed here is already bound to one
parameter digest — and then the thing worth keeping is the finished
answer, not a half-finished forward (DESIGN.md, "The store holds
answers").  The offline builder (:func:`build_store`) runs the serving
miss path (:meth:`WidenClassifier.embed_for_serving_batch`) over every
node and persists one ``(d,)`` embedding per node into a compact,
mmap-friendly on-disk store keyed by graph version + parameter digest.
At serve time a cache miss with a fresh store row runs no model code at
all: the answer is one gather.

Freshness is the server's one rule, shared with its cache: every row
records the *read set* of its sample (the ids whose adjacency lists the
sampler consulted) and the *stamp* (the server's write clock when it was
made; 0 for everything built offline).  A write stamps the lists it
changed; a row is served only while nothing it read has been stamped
since.  A row a write undercut is re-materialized lazily by the next miss
(written back in place) — the recompute path is always the exactness
oracle — and a row no write undercut stays valid indefinitely, because
answers are seeded by ``(seed, node)`` alone: re-sampling it would draw
the same sample from the same lists.
"""

from repro.store.store import AggregateStore, STORE_FORMAT_VERSION
from repro.store.builder import build_store

__all__ = ["AggregateStore", "STORE_FORMAT_VERSION", "build_store"]
