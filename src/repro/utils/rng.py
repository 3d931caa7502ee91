"""Deterministic random-number management.

Every stochastic component in the library (samplers, initializers, trainers,
dataset generators) takes either a seed or a ``numpy.random.Generator`` so
experiments are exactly reproducible.  Nothing in the library touches numpy's
global random state.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``Generator``; pass through if one is given already."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from one seed.

    Useful when an experiment needs separate streams (e.g. one per model in a
    benchmark sweep) that stay reproducible regardless of call order.
    """
    root = new_rng(seed)
    return [np.random.default_rng(s) for s in root.integers(0, 2**63 - 1, size=count)]


_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U27, _U30, _U31, _U33 = (np.uint64(shift) for shift in (27, 30, 31, 33))


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function (Stafford's "Mix13") over a uint64 array.

    A bijection on 64-bit words whose every output bit depends on every
    input bit; fed consecutive multiples of the golden-ratio increment it
    *is* the SplitMix64 generator (Steele, Lea & Flood 2014).  Array
    products wrap modulo 2**64 silently — a numpy *scalar* product would
    raise a ``RuntimeWarning`` instead, so callers hand in arrays.
    """
    z = (z ^ (z >> _U30)) * _MIX_1
    z = (z ^ (z >> _U27)) * _MIX_2
    return z ^ (z >> _U31)


def keyed_draws(seed: int, nodes: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """One uint64 per ``(seed, node, counter)``: a counter-based generator.

    ``mix64(mix64(mix64(seed + γ) + node·γ) + counter·γ)`` with γ the
    golden-ratio increment: a node's draws are the SplitMix64 stream
    started from a state that is itself the ``node``-th output of the
    stream the seed starts.  ``nodes`` and ``counters`` (non-negative
    integer arrays) broadcast against each other, and the value at an index
    depends on nothing but the three numbers there — not on what else is in
    the arrays, their order or their shape — which is what lets a batched
    sampler promise each node the sets it would draw alone.
    """
    stream = mix64(np.array([int(seed) & _MASK64], np.uint64) + _GOLDEN)
    state = mix64(stream + np.asarray(nodes).astype(np.uint64) * _GOLDEN)
    return mix64(state + np.asarray(counters).astype(np.uint64) * _GOLDEN)


def keyed_fractions(seed: int, nodes: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The top 31 bits of :func:`keyed_draws` as int64: uniform fixed-point
    fractions ``u`` in ``[0, 2**31)``.

    ``u * n >> 31`` is then an index below ``n`` for any bound under 2**32
    (0 for a bound of 0), all in int64; its bias, at most ``n / 2**31``, is
    far under what a test could resolve for an adjacency list.
    """
    return (keyed_draws(seed, nodes, counters) >> _U33).view(np.int64)
