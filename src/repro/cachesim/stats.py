"""Per-data-structure cache statistics.

The paper's cache simulator "can report the number of cache misses and
writebacks" per data structure; the analytical CGPMAC models estimate the
number of *loads* from main memory (misses).  We therefore track hits,
misses and writebacks separately so that validation can compare on
misses while full main-memory traffic (misses + writebacks) remains
available.

Two more counters give the cache-DVF extension each label's residency.
Every miss inserts one line of its label and every eviction ends one,
so with steps numbered 1, 2, ... per line touch, ``residency`` holds
Σ eviction steps − Σ insertion steps and a label's residency integral
after ``T`` touches is ``residency + (misses − evictions) × T``
(:meth:`~repro.cachesim.simulator.CacheSimulator.average_resident_lines`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class LabelStats:
    """Counters for one data-structure label."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    #: Lines of this label evicted, by a miss or by a flush.
    evictions: int = 0
    #: Σ eviction steps − Σ insertion steps of this label's lines.
    residency: int = 0

    @property
    def accesses(self) -> int:
        """Total cache accesses (hits + misses)."""
        return self.hits + self.misses

    @property
    def memory_accesses(self) -> int:
        """Total main-memory transactions (misses + writebacks)."""
        return self.misses + self.writebacks

    def merge(self, other: "LabelStats") -> None:
        """Accumulate ``other`` into this counter set."""
        self.hits += other.hits
        self.misses += other.misses
        self.writebacks += other.writebacks
        self.evictions += other.evictions
        self.residency += other.residency


@dataclass(slots=True)
class CacheStats:
    """Aggregated statistics keyed by data-structure label."""

    by_label: dict[str, LabelStats] = field(default_factory=dict)

    def label(self, name: str) -> LabelStats:
        """Counters for ``name``, creating them on first use."""
        stats = self.by_label.get(name)
        if stats is None:
            stats = LabelStats()
            self.by_label[name] = stats
        return stats

    def misses(self, name: str) -> int:
        """Miss count for one label (0 if the label never appeared)."""
        stats = self.by_label.get(name)
        return stats.misses if stats else 0

    def memory_accesses(self, name: str) -> int:
        """Misses + writebacks for one label."""
        stats = self.by_label.get(name)
        return stats.memory_accesses if stats else 0

    @property
    def total(self) -> LabelStats:
        """Sum over all labels."""
        agg = LabelStats()
        for stats in self.by_label.values():
            agg.merge(stats)
        return agg

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another stats object into this one."""
        for name, stats in other.by_label.items():
            self.label(name).merge(stats)

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Plain-dict form for serialisation and report rendering."""
        return {
            name: {
                "hits": s.hits,
                "misses": s.misses,
                "writebacks": s.writebacks,
            }
            for name, s in sorted(self.by_label.items())
        }
