"""Set-associative LRU cache with write-back/write-allocate policy.

This mirrors the simulator the paper builds for model verification: "The
cache simulation is based on the popular LRU algorithm and can report the
number of cache misses and writebacks.  We simulate a last level cache
during the model verification." (§IV).

Implementation notes
--------------------
Each set is an :class:`collections.OrderedDict` mapping ``tag -> _Line``;
``move_to_end`` gives O(1) LRU maintenance and ``popitem(last=False)``
O(1) eviction.  Per the HPC guides, the hot loop avoids allocation: the
line record is a tiny mutable object reused in place on hits.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.stats import CacheStats


class _Line:
    """One resident cache line: dirty bit + owning data-structure label."""

    __slots__ = ("dirty", "label")

    def __init__(self, dirty: bool, label: str) -> None:
        self.dirty = dirty
        self.label = label


class SetAssociativeCache:
    """An LRU set-associative cache simulating a last-level cache.

    Parameters
    ----------
    geometry:
        The cache shape (``CA``, ``NA``, ``CL``).
    stats:
        Optional pre-existing :class:`CacheStats` to accumulate into.
    policy:
        Replacement policy: ``"lru"`` (the paper's assumption, default),
        ``"fifo"`` or ``"random"`` — the alternatives quantify how
        sensitive the CGPMAC models' accuracy is to the LRU assumption
        (see ``benchmarks/bench_ablations.py``).
    seed:
        RNG seed for the ``"random"`` policy.

    The cache is write-allocate and write-back: a store miss loads the
    line (counted as a miss for the stored label) and marks it dirty; a
    dirty line evicted by any later access counts one writeback against
    the label that owned it.
    """

    POLICIES = ("lru", "fifo", "random")

    def __init__(
        self,
        geometry: CacheGeometry,
        stats: CacheStats | None = None,
        policy: str = "lru",
        seed: int = 0,
    ):
        if policy not in self.POLICIES:
            raise ValueError(
                f"policy must be one of {self.POLICIES}, got {policy!r}"
            )
        self.geometry = geometry
        self.policy = policy
        self.stats = stats if stats is not None else CacheStats()
        self._sets: list[OrderedDict[int, _Line]] = [
            OrderedDict() for _ in range(geometry.num_sets)
        ]
        self._num_sets = geometry.num_sets
        self._ways = geometry.associativity
        self._line_size = geometry.line_size
        #: Line touches so far; the current touch's step number.
        self.clock = 0
        if policy == "random":
            import random as _random

            self._rng = _random.Random(seed)

    # ------------------------------------------------------------------
    # core access paths
    # ------------------------------------------------------------------
    def access_line(self, line_id: int, is_write: bool, label: str) -> bool:
        """Touch one cache line; returns True on a hit.

        ``line_id`` is the global line identifier (address // CL).  The
        touch is step :attr:`clock` of the cache's life: a miss
        subtracts it from its label's ``residency`` counter and an
        eviction adds it to the victim's.
        """
        self.clock += 1
        cache_set = self._sets[line_id % self._num_sets]
        tag = line_id // self._num_sets
        stats = self.stats.label(label)
        line = cache_set.get(tag)
        if line is not None:
            stats.hits += 1
            if self.policy == "lru":
                cache_set.move_to_end(tag)
            if is_write:
                line.dirty = True
            return True
        stats.misses += 1
        stats.residency -= self.clock
        if len(cache_set) >= self._ways:
            if self.policy == "random":
                victim_tag = self._rng.choice(list(cache_set))
                victim = cache_set.pop(victim_tag)
            else:
                # LRU and FIFO both evict the oldest entry; they differ
                # only in whether hits refresh recency (handled above).
                _, victim = cache_set.popitem(last=False)
            victim_stats = self.stats.label(victim.label)
            if victim.dirty:
                victim_stats.writebacks += 1
            victim_stats.evictions += 1
            victim_stats.residency += self.clock
        cache_set[tag] = _Line(is_write, label)
        return False

    def access(self, address: int, size: int, is_write: bool, label: str) -> int:
        """Access ``size`` bytes at ``address``; returns the number of misses.

        Accesses spanning multiple lines are split into one access per
        line, exactly as a hardware LLC sees split transactions.
        """
        misses = 0
        for line_id in self.geometry.lines_touched(address, size):
            if not self.access_line(line_id, is_write, label):
                misses += 1
        return misses

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def resident_lines(self) -> int:
        """Number of lines currently resident in the whole cache."""
        return sum(len(s) for s in self._sets)

    def resident_lines_for(self, label: str) -> int:
        """Number of resident lines owned by ``label``."""
        return sum(
            1 for s in self._sets for line in s.values() if line.label == label
        )

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        line_id = address // self._line_size
        return (line_id // self._num_sets) in self._sets[line_id % self._num_sets]

    def flush(self) -> int:
        """Evict everything; returns the number of dirty-line writebacks.

        Writebacks are charged to the owning labels, matching an
        end-of-run cache drain, and every line's residency ends at the
        current step.
        """
        writebacks = 0
        for cache_set in self._sets:
            for line in cache_set.values():
                stats = self.stats.label(line.label)
                if line.dirty:
                    stats.writebacks += 1
                    writebacks += 1
                stats.evictions += 1
                stats.residency += self.clock
            cache_set.clear()
        return writebacks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self.geometry.describe()}, "
            f"resident={self.resident_lines()})"
        )
