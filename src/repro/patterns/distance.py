"""LRU stack (reuse) distance computation.

The template-based estimator needs, for every re-appearance of a cache
block, the number of *distinct* blocks referenced since its previous
appearance — the classic LRU stack distance (Mattson et al.).  A block
re-referenced at stack distance ``d`` hits in a fully-associative LRU
cache of more than ``d`` blocks and misses otherwise.

Implemented with the standard O(n log n) algorithm: a Fenwick (binary
indexed) tree over reference positions marks the *latest* position of
each block; the distance is the count of marked positions after the
block's previous appearance.
"""

from __future__ import annotations

import numpy as np


class _FenwickTree:
    """Prefix-sum tree over integer slots, growable by appending.

    The classic fixed-``n`` Fenwick layout, plus :meth:`append`: node
    ``i`` covers slots ``(i - lowbit(i), i]``, so a new rightmost node's
    value is computable from existing prefix sums in O(log n) — which is
    what lets the stack-distance computation run *incrementally* over a
    chunked stream whose total length is unknown up front.
    """

    __slots__ = ("n", "tree")

    def __init__(self, n: int = 0) -> None:
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def append(self, value: int) -> None:
        """Grow by one slot (0-based index ``n``) holding ``value``."""
        i = self.n + 1
        # Node i covers (i - lowbit, i]; every covered slot but the new
        # one already exists, so its sum is a difference of prefixes.
        self.tree.append(
            self.prefix_sum(i - 1) - self.prefix_sum(i - (i & (-i))) + value
        )
        self.n = i

    def prefix_sum(self, i: int) -> int:
        """Sum of slots [0, i)."""
        total = 0
        tree = self.tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of slots [lo, hi)."""
        return self.prefix_sum(hi) - self.prefix_sum(lo)


class StackDistanceCounter:
    """Incremental stack distances over a chunked block-id stream.

    Feeding consecutive chunks to :meth:`distances` yields exactly the
    per-chunk slices of ``stack_distances(concatenated stream)`` — the
    latest-position markers and last-seen map persist across calls, so
    a reuse straddling a chunk boundary gets the same distance as in
    the monolithic computation.  State grows with the number of
    *positions* (one Fenwick slot per reference) and distinct blocks.
    """

    __slots__ = ("_tree", "_last_pos", "_n")

    def __init__(self) -> None:
        self._tree = _FenwickTree()
        self._last_pos: dict[int, int] = {}
        self._n = 0

    @property
    def references(self) -> int:
        """References consumed so far."""
        return self._n

    def distances(self, block_ids: np.ndarray | list[int]) -> np.ndarray:
        """Stack distances of one chunk, continuing the global stream."""
        ids = np.asarray(block_ids, dtype=np.int64)
        out = np.empty(len(ids), dtype=np.int64)
        tree = self._tree
        last_pos = self._last_pos
        i = self._n
        for j, block in enumerate(ids.tolist()):
            prev = last_pos.get(block)
            if prev is None:
                out[j] = -1
            else:
                # Distinct blocks seen in (prev, i): each contributes
                # its latest-position marker inside the window.
                out[j] = tree.range_sum(prev + 1, i)
                tree.add(prev, -1)
            tree.append(1)
            last_pos[block] = i
            i += 1
        self._n = i
        return out


def stack_distances(block_ids: np.ndarray | list[int]) -> np.ndarray:
    """LRU stack distance for each reference in a block-id sequence.

    Returns an int64 array where entry ``i`` is the number of distinct
    blocks referenced strictly between reference ``i`` and the previous
    reference to the same block, or ``-1`` for a first (cold) reference.
    """
    return StackDistanceCounter().distances(block_ids)


def misses_for_cache_blocks(
    distances: np.ndarray, cache_blocks: int
) -> int:
    """Miss count for a fully-associative LRU cache of ``cache_blocks`` lines.

    Cold references (-1) always miss; re-references miss when their stack
    distance is at least the cache size in blocks.
    """
    d = np.asarray(distances)
    cold = np.count_nonzero(d < 0)
    capacity_misses = np.count_nonzero((d >= 0) & (d >= cache_blocks))
    return int(cold + capacity_misses)


def lru_misses(block_ids: np.ndarray | list[int], cache_blocks: int) -> int:
    """Misses of a fully-associative LRU cache of ``cache_blocks`` lines.

    Exactly equivalent to ``misses_for_cache_blocks(stack_distances(b), c)``
    but O(1) per reference instead of O(log n): when the capacity is
    known up front there is no need to materialise the distances.  The
    template estimator uses it for a partial cache share and for the
    fully-associative ablation; its default walk is set-associative.
    """
    if cache_blocks < 1:
        return len(block_ids)
    from collections import OrderedDict

    resident: OrderedDict[int, None] = OrderedDict()
    misses = 0
    ids = (
        block_ids.tolist()
        if isinstance(block_ids, np.ndarray)
        else block_ids
    )
    for block in ids:
        if block in resident:
            resident.move_to_end(block)
            continue
        misses += 1
        if len(resident) >= cache_blocks:
            resident.popitem(last=False)
        resident[block] = None
    return misses


def positional_distances(block_ids: np.ndarray | list[int]) -> np.ndarray:
    """Positional (non-distinct) distance to the previous same-block reference.

    The paper's two-step template algorithm speaks of "the distance
    between this appearance and the immediate last appearance"; this is
    the literal reading (reference-count distance), kept as an ablation
    alternative to the stack distance.
    """
    ids = np.asarray(block_ids, dtype=np.int64)
    out = np.empty(len(ids), dtype=np.int64)
    last_pos: dict[int, int] = {}
    for i, block in enumerate(ids.tolist()):
        prev = last_pos.get(block)
        out[i] = -1 if prev is None else i - prev - 1
        last_pos[block] = i
    return out
