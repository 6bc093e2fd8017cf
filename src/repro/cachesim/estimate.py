"""Sampling estimator for cache simulation: miss/N_ha with error bars.

Exact trace replay is linear in the trace; for the billion-reference
streams the chunked protocol makes reachable, even the array engine's
tens of millions of touches per second can be too slow for interactive
what-if sweeps (cache size x FIT x protection).  This module trades a
controlled amount of accuracy for a large constant-factor speedup by
replaying only a *sample* of the cache and reporting confidence
half-widths alongside the estimates.

Why sample cache sets, not references
-------------------------------------
Reservoir-sampling the reference stream is statistically dishonest
here: dropping a reference perturbs the LRU state every later reference
to the same set observes, so the surviving sample is replayed against a
*wrong* cache and the bias is unbounded.  Cache sets, by contrast, are
perfectly independent — a set's hits/misses/writebacks depend only on
its own access subsequence (the same independence the sharded simulator
is built on).  Filtering the expanded line stream to a subset of sets
and replaying it is therefore *exact* for every retained set; the only
error is sampling error across sets, and that is quantifiable.

The design is classical cluster sampling:

1. Partition the ``num_sets`` cache sets into ``G`` groups by a seeded
   random permutation (groups, not single sets, so the variance
   estimate has honest degrees of freedom even for highly regular
   access patterns that load individual sets unevenly).
2. Draw ``g`` of the ``G`` groups uniformly without replacement and
   replay only references landing in their sets, tagging each retained
   line touch with a synthetic ``(group, label)`` label so one replay
   yields per-group per-label counts.
3. Expand each per-label counter as ``G * mean(group totals)`` with the
   finite-population-corrected Student-t half-width of
   :func:`repro.patterns.random_access.finite_population_total` — the
   same hypergeometric ``(1 - g/G)`` shrinkage as the paper's Eq. 5-6
   overlap model, because group sampling is likewise without
   replacement.

``sample_fraction=1`` degenerates to a census: the estimate equals the
exact replay and every half-width is zero (the tests assert this).

The estimator consumes the chunked-iterator protocol
(:class:`TraceEstimator.consume` is push-mode, :func:`estimate_trace`
pull-mode), so its memory footprint is O(chunk) like the exact
streaming path — plus O(sampled state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import DEFAULT_CHUNK_SIZE, ArrayLRUEngine
from repro.cachesim.expand import _expand_lines, set_index
from repro.cachesim.stats import CacheStats
from repro.trace.reference import ReferenceTrace, iter_chunks

# The statistical helper lives with the paper's hypergeometric machinery
# in repro.patterns.random_access, which imports cachesim.configs —
# importing it lazily (in finish()) keeps this module importable from
# the repro.cachesim package __init__ without a cycle.

#: Separator between the group rank and the real label inside the
#: synthetic engine labels (unit separator: never appears in kernel
#: data-structure names).
_SEP = "\x1f"

#: Default number of set groups (clusters).  Enough degrees of freedom
#: for a stable Student-t half-width, few enough that the synthetic
#: label table (``g * labels``) stays small.
DEFAULT_GROUPS = 64


@dataclass(frozen=True)
class LabelEstimate:
    """Estimated counters (with confidence half-widths) for one label."""

    hits: float
    hits_halfwidth: float
    misses: float
    misses_halfwidth: float
    writebacks: float
    writebacks_halfwidth: float
    #: Main-memory transactions (misses + writebacks) — the N_ha the
    #: DVF computation consumes.  Estimated from the per-group sums
    #: directly, so the half-width is *not* simply the sum of the parts'.
    memory_accesses: float
    memory_accesses_halfwidth: float


@dataclass(frozen=True)
class EstimateResult:
    """Sampling-estimator output: per-label estimates plus provenance.

    The half-widths are two-sided ``confidence``-level intervals: on
    repeated seeded runs, ``estimate ± halfwidth`` covers the exact
    replay value with the stated probability (validated against exact
    replay in ``tests/cachesim/test_estimate.py``).
    """

    by_label: dict[str, LabelEstimate]
    confidence: float
    num_sets: int
    num_groups: int
    sampled_groups: int
    sampled_sets: int
    sample_fraction: float
    seed: int
    #: References consumed and expanded line touches actually replayed.
    refs: int
    sampled_refs: int

    def label(self, name: str) -> LabelEstimate:
        """Estimates for ``name`` (all-zero if the label never appeared)."""
        est = self.by_label.get(name)
        if est is None:
            return LabelEstimate(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return est

    def misses(self, name: str) -> float:
        """Estimated miss count for one label (CacheStats-compatible)."""
        return self.label(name).misses

    def misses_halfwidth(self, name: str) -> float:
        return self.label(name).misses_halfwidth

    def memory_accesses(self, name: str) -> float:
        """Estimated misses + writebacks for one label."""
        return self.label(name).memory_accesses

    def as_dict(self) -> dict:
        """Plain-dict form for serialisation and report rendering."""
        return {
            "confidence": self.confidence,
            "num_sets": self.num_sets,
            "num_groups": self.num_groups,
            "sampled_groups": self.sampled_groups,
            "sampled_sets": self.sampled_sets,
            "sample_fraction": self.sample_fraction,
            "seed": self.seed,
            "refs": self.refs,
            "sampled_refs": self.sampled_refs,
            "by_label": {
                name: {
                    "hits": est.hits,
                    "hits_halfwidth": est.hits_halfwidth,
                    "misses": est.misses,
                    "misses_halfwidth": est.misses_halfwidth,
                    "writebacks": est.writebacks,
                    "writebacks_halfwidth": est.writebacks_halfwidth,
                    "memory_accesses": est.memory_accesses,
                    "memory_accesses_halfwidth":
                        est.memory_accesses_halfwidth,
                }
                for name, est in sorted(self.by_label.items())
            },
        }


class TraceEstimator:
    """Push-mode cluster-sampling estimator over trace chunks.

    Feed chunks with :meth:`consume` (e.g. as the ``sink=`` of a
    streaming :class:`~repro.trace.recorder.TraceRecorder`), then call
    :meth:`finish`.  See the module docstring for the statistics.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        sample_fraction: float = 0.125,
        groups: int = DEFAULT_GROUPS,
        confidence: float = 0.95,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        if groups < 1:
            raise ValueError(f"groups must be >= 1, got {groups}")
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        self.geometry = geometry
        self.confidence = float(confidence)
        self.seed = int(seed)
        num_sets = geometry.num_sets
        # G groups; g sampled.  A census (g == G) needs no variance, so
        # tiny caches (G capped by num_sets) degrade gracefully; a real
        # sample needs g >= 2 for a variance estimate.
        big_g = min(int(groups), num_sets)
        if sample_fraction >= 1.0:
            g = big_g
        else:
            g = min(big_g, max(2, int(np.ceil(sample_fraction * big_g))))
        self.num_groups = big_g
        self.sampled_groups = g
        rng = np.random.default_rng(seed)
        # Random balanced partition of sets into groups, then a uniform
        # without-replacement draw of g groups.  (Choosing the draw, not
        # "the first g groups", keeps the estimator unbiased when group
        # sizes differ by one.)
        group_of_set = np.empty(num_sets, dtype=np.int64)
        group_of_set[rng.permutation(num_sets)] = (
            np.arange(num_sets, dtype=np.int64) % big_g
        )
        chosen = rng.choice(big_g, size=g, replace=False)
        rank_of_group = np.full(big_g, -1, dtype=np.int64)
        rank_of_group[chosen] = np.arange(g, dtype=np.int64)
        #: Per-set sample rank (0..g-1) or -1 when the set is unsampled.
        self._rank_of_set = rank_of_group[group_of_set]
        self.sampled_sets = int(np.count_nonzero(self._rank_of_set >= 0))
        self._engine = ArrayLRUEngine(geometry, chunk_size=chunk_size)
        self._stats = CacheStats()
        self._label_order: list[str] = []
        self._label_seen: set[str] = set()
        self.refs = 0
        self.sampled_refs = 0
        self._finished = False

    # ------------------------------------------------------------------
    def consume(self, chunk: ReferenceTrace) -> None:
        """Replay the sampled-set subsequence of one chunk."""
        if self._finished:
            raise RuntimeError("estimator already finished")
        for name in chunk.labels:
            if name not in self._label_seen:
                self._label_seen.add(name)
                self._label_order.append(name)
        n = len(chunk)
        if n == 0:
            return
        self.refs += n
        line_ids, is_write, label_ids = _expand_lines(
            chunk, self.geometry.line_size
        )
        rank = self._rank_of_set[
            set_index(line_ids, self.geometry.num_sets)
        ]
        keep = rank >= 0
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            return
        self.sampled_refs += kept
        n_labels = len(chunk.labels)
        # Synthetic (group, label) labels: one replay produces per-group
        # per-label counters, decoded in finish().  Interning is by
        # name, so chunks whose label tables grow as a prefix stay
        # consistent across the stream.
        synth_ids = (rank[keep] * n_labels + label_ids[keep]).astype(
            np.int32
        )
        synth_labels = [
            f"{r}{_SEP}{name}"
            for r in range(self.sampled_groups)
            for name in chunk.labels
        ]
        self._engine.replay(
            line_ids[keep],
            is_write[keep],
            synth_ids,
            synth_labels,
            self._stats,
        )

    # ------------------------------------------------------------------
    def finish(self, flush_at_end: bool = False) -> EstimateResult:
        """Expand the sampled per-group counters into estimates."""
        from repro.patterns.random_access import finite_population_total

        if self._finished:
            raise RuntimeError("estimator already finished")
        self._finished = True
        if flush_at_end:
            # Only sampled sets ever hold lines, so the flush's
            # writebacks are per-group counts like everything else.
            self._engine.flush(self._stats)
        g = self.sampled_groups
        hits = {name: np.zeros(g) for name in self._label_order}
        misses = {name: np.zeros(g) for name in self._label_order}
        writebacks = {name: np.zeros(g) for name in self._label_order}
        for key, counters in self._stats.by_label.items():
            rank_s, name = key.split(_SEP, 1)
            r = int(rank_s)
            if name not in hits:
                self._label_order.append(name)
                hits[name] = np.zeros(g)
                misses[name] = np.zeros(g)
                writebacks[name] = np.zeros(g)
            hits[name][r] = counters.hits
            misses[name][r] = counters.misses
            writebacks[name][r] = counters.writebacks
        by_label = {}
        for name in self._label_order:
            h, hw = finite_population_total(
                hits[name], self.num_groups, self.confidence
            )
            m, mw = finite_population_total(
                misses[name], self.num_groups, self.confidence
            )
            w, ww = finite_population_total(
                writebacks[name], self.num_groups, self.confidence
            )
            n_ha, n_ha_w = finite_population_total(
                misses[name] + writebacks[name],
                self.num_groups,
                self.confidence,
            )
            by_label[name] = LabelEstimate(
                hits=h,
                hits_halfwidth=hw,
                misses=m,
                misses_halfwidth=mw,
                writebacks=w,
                writebacks_halfwidth=ww,
                memory_accesses=n_ha,
                memory_accesses_halfwidth=n_ha_w,
            )
        return EstimateResult(
            by_label=by_label,
            confidence=self.confidence,
            num_sets=self.geometry.num_sets,
            num_groups=self.num_groups,
            sampled_groups=self.sampled_groups,
            sampled_sets=self.sampled_sets,
            sample_fraction=self.sampled_groups / self.num_groups,
            seed=self.seed,
            refs=self.refs,
            sampled_refs=self.sampled_refs,
        )


def estimate_trace(
    trace,
    geometry: CacheGeometry,
    flush_at_end: bool = False,
    sample_fraction: float = 0.125,
    groups: int = DEFAULT_GROUPS,
    confidence: float = 0.95,
    seed: int = 0,
    chunk_refs: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> EstimateResult:
    """Pull-mode estimator entry, the counterpart of
    :func:`~repro.cachesim.simulator.simulate_trace`.

    ``trace`` may be a :class:`ReferenceTrace` (optionally chunked via
    ``chunk_refs`` to bound expansion memory) or any chunk iterator.
    """
    estimator = TraceEstimator(
        geometry,
        sample_fraction=sample_fraction,
        groups=groups,
        confidence=confidence,
        seed=seed,
        chunk_size=chunk_size,
    )
    if isinstance(trace, ReferenceTrace):
        chunks = (
            iter_chunks(trace, chunk_refs) if chunk_refs else (trace,)
        )
    else:
        chunks = trace
    for chunk in chunks:
        estimator.consume(chunk)
    return estimator.finish(flush_at_end=flush_at_end)
