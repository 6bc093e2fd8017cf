"""Batched, array-backed set-associative LRU simulation engine.

The dict-based :class:`~repro.cachesim.cache.SetAssociativeCache` walks
one reference at a time (~1 µs each) — fine as a trusted oracle, too
slow as the substrate behind every verification run and trace-driven FI
campaign.  This engine replays the same expanded line-touch stream in
large numpy batches and produces **bit-identical** per-label statistics
(hits, misses, writebacks, evictions and the ``residency`` step sum;
see :mod:`repro.cachesim.stats`).

How the batching works
----------------------
Accesses to different cache sets never interact, and within one set the
LRU outcome depends only on that set's access subsequence.  A chunk of
the expanded trace is processed in staged, vectorised passes:

0. **Pre-collapse** — consecutive touches of the same line in the raw
   stream are guaranteed hits after the first (nothing can evict the
   line in between); they are counted with one ``bincount`` before any
   sorting, shrinking the downstream volume by the trace's run factor.
1. **Per-set grouping** — a stable sort by set index turns the chunk
   into per-set subsequences while preserving each set's access order.
2. **Run collapse** — same-line items that became adjacent within a
   set's subsequence (e.g. interleaved streams) collapse the same way.
   Each surviving *run* carries the OR of its write flags, the position
   of its first access (the step at which it inserts a line and evicts
   one) and of its last access (its LRU age).  Positions are 1-based
   global steps, the oracle's clock.
3. **Wave scheduling** — runs are ranked within their set; wave *k*
   holds every set's *k*-th run.  A wave touches any set at most once,
   so it is a handful of whole-array numpy operations on gathered
   state rows (tag compare for hits, LRU argmin for victims, scatter
   for fills) with no conflicts.

State lives in per-set arrays ``tags``/``age``/``dirty``/``label`` of
shape ``(num_sets, ways)``; empty ways hold the sentinel tag ``-1``
(real tags are non-negative); ``age`` is the global access
position of the line's last touch, so the LRU victim is the row-wise
argmin.  Ages are unique (each access has a distinct position), which
makes victim choice — and with it writeback and eviction attribution —
deterministic and identical to the dict oracle.

Wave efficiency scales with the number of sets: a 4096-set cache packs
thousands of runs per wave, a 64-set cache at most 64.  When a chunk's
mean wave would hold fewer than :data:`ADAPTIVE_WAVE_CUTOFF` runs, the
engine replays it with a **stack-rank** kernel instead, whose number of
whole-array passes depends on the associativity ``W``, not on the
number of sets.  By Mattson's LRU stack property a ``W``-way LRU set
holds exactly its ``W`` most recently used distinct lines.  Each touched
set's resident lines, oldest first, are put in front of its runs; one
stable sort by line gives every entry ``i`` the previous occurrence
``prev(i)`` of its line; and ``W - 1`` running-maximum passes of::

    D_1(i) = i - 1
    D_{k+1}(i) = D_k(i-1)      if prev(i-1) < D_k(i-1)
                 D_{k+1}(i-1)  otherwise

give ``D_W(i)``, the last-use position of the ``W``-th most recently
used distinct line before ``i``.  Entry ``i`` hits exactly when
``prev(i) >= D_W(i)``, and a miss in a full set evicts the line last
used at ``D_W(i)``.  A miss and the hits on its line that follow it form
one residency group, which gives the victim's dirty bit (the OR of the
group's writes) and label (the miss's).  Each set's new state is its
``W`` most recent last occurrences.  The wave kernel stays for many-set
chunks: there each wave is wide, while the stack-rank kernel would pay
its sort and ``W - 1`` passes over every run plus every touched set's
residents (about 2x slower on the 4 MB cache's MC chunks).

Both kernels add to the per-label counters where they count hits,
misses and writebacks: a miss subtracts its step from its label's
``residency`` and an eviction adds the same step to the victim's, as
exact int64 sums.

The engine implements the LRU policy only; FIFO/random ablations stay
on the reference path (:class:`CacheEngineError` enforces the switch).
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.stats import CacheStats

#: Recognised values for the ``engine=`` switch on
#: :class:`~repro.cachesim.simulator.CacheSimulator`.
ENGINES = ("auto", "array", "reference")

#: Default chunk size: references per chunk when
#: :meth:`~repro.cachesim.simulator.CacheSimulator.run` cuts a trace,
#: and expanded line touches per engine batch.
DEFAULT_CHUNK_SIZE = 1 << 18

#: A chunk switches from the wave kernel to the stack-rank kernel when
#: its mean wave would hold fewer runs than this (per-wave numpy
#: dispatch overhead, ~tens of µs, then dominates the wave kernel).
ADAPTIVE_WAVE_CUTOFF = 128

_NO_AGE = np.iinfo(np.int64).max

#: :class:`~repro.cachesim.stats.LabelStats` counters the replay
#: kernels accumulate, in the row order of their ``counters`` array.
_COUNTERS = ("hits", "misses", "writebacks", "evictions", "residency")


def _label_counts(label_arr: np.ndarray, n_labels: int) -> np.ndarray:
    """Per-label occurrence counts (``bincount`` with fast paths).

    One- and two-label traces — the common case for the Table II
    kernels — count with ``count_nonzero`` instead of a ``bincount``,
    which is several times faster on large int32 inputs.
    """
    if n_labels == 1:
        return np.array([label_arr.size], dtype=np.int64)
    if n_labels == 2:
        ones = int(np.count_nonzero(label_arr))
        return np.array([label_arr.size - ones, ones], dtype=np.int64)
    return np.bincount(label_arr, minlength=n_labels)


def _label_sums(
    label_arr: np.ndarray, values: np.ndarray, n_labels: int
) -> np.ndarray:
    """Per-label int64 sums of ``values`` (exact: no float weights)."""
    sums = np.zeros(n_labels, dtype=np.int64)
    np.add.at(sums, label_arr, values)
    return sums


class CacheEngineError(ValueError):
    """An unsupported simulation engine/policy combination was requested."""


def check_engine(engine: str, policy: str) -> str:
    """Resolve the ``engine=`` switch against the replacement policy.

    Returns the concrete engine (``"array"`` or ``"reference"``).
    ``"auto"`` picks the array engine for LRU and the reference cache
    for everything else; an *explicit* ``"array"`` request with a
    non-LRU policy raises :class:`CacheEngineError` instead of silently
    falling back.
    """
    if engine not in ENGINES:
        raise CacheEngineError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    if engine == "auto":
        return "array" if policy == "lru" else "reference"
    if engine == "array" and policy != "lru":
        raise CacheEngineError(
            f"the array engine implements the LRU policy only; "
            f"policy={policy!r} requires engine='reference' "
            f"(or engine='auto' to route it there)"
        )
    return engine


class ArrayLRUEngine:
    """Array-backed LRU cache state plus the batched replay kernel.

    One instance holds the warm cache state across :meth:`replay`
    calls, mirroring the oracle's behaviour for traces split across
    several :meth:`~repro.cachesim.simulator.CacheSimulator.run` calls.
    Labels are interned into a table owned by the engine so victim
    attribution survives across calls.
    """

    def __init__(
        self, geometry: CacheGeometry, chunk_size: int = DEFAULT_CHUNK_SIZE
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.geometry = geometry
        self.chunk_size = int(chunk_size)
        num_sets = geometry.num_sets
        shape = (num_sets, geometry.associativity)
        # Invariants the wave kernel relies on: an empty way holds
        # tag == -1 (real tags are >= 0, so ``tags != -1`` *is* the
        # validity bit — no separate array, no validity mask on the
        # hit compare) and age == _NO_AGE (so the LRU argmin never
        # picks a resident way over an empty one on full-row checks).
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._age = np.full(shape, _NO_AGE, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=bool)
        self._label = np.zeros(shape, dtype=np.int32)
        #: log2(num_sets) when it is a power of two, else None (the
        #: chunk kernel then falls back to %/// for the set split).
        self._set_shift = (
            num_sets.bit_length() - 1
            if num_sets & (num_sets - 1) == 0
            else None
        )
        #: Global access clock: number of line touches replayed so far.
        self.clock = 0
        self._labels: list[str] = []
        self._label_ids: dict[str, int] = {}

    # ------------------------------------------------------------------
    # label interning
    # ------------------------------------------------------------------
    def intern(self, name: str) -> int:
        """Engine-global id for ``name``, allocating on first use."""
        lid = self._label_ids.get(name)
        if lid is None:
            lid = len(self._labels)
            self._label_ids[name] = lid
            self._labels.append(name)
        return lid

    # ------------------------------------------------------------------
    # state round-trip (set-sharded worker processes)
    # ------------------------------------------------------------------
    def shard_state(self, shard: int, num_shards: int) -> dict:
        """Snapshot only the sets owned by ``shard`` (round-robin split).

        The sharded simulator partitions sets as ``set % num_shards``;
        a worker replaying one shard only ever touches those rows, so
        shipping ``1/num_shards`` of the state both ways is exact — and
        ``num_shards``x cheaper than the whole state.  Restore with
        :meth:`load_shard_state`.
        """
        rows = slice(shard, None, num_shards)
        return {
            "tags": np.ascontiguousarray(self._tags[rows]),
            "age": np.ascontiguousarray(self._age[rows]),
            "dirty": np.ascontiguousarray(self._dirty[rows]),
            "label": np.ascontiguousarray(self._label[rows]),
            "clock": self.clock,
            "labels": list(self._labels),
        }

    def load_shard_state(
        self, shard: int, num_shards: int, state: dict
    ) -> None:
        """Restore a snapshot taken by :meth:`shard_state`."""
        rows = slice(shard, None, num_shards)
        expected = self._tags[rows].shape
        if state["tags"].shape != expected:
            raise ValueError(
                f"shard state shape {state['tags'].shape} does not match "
                f"shard rows {expected}"
            )
        self._tags[rows] = state["tags"]
        self._age[rows] = state["age"]
        self._dirty[rows] = state["dirty"]
        self._label[rows] = state["label"]
        self.clock = int(state["clock"])
        self._labels = list(state["labels"])
        self._label_ids = {name: i for i, name in enumerate(self._labels)}

    def state_diff(self, sets: np.ndarray) -> dict:
        """Snapshot only the rows of ``sets`` (ascending set indices).

        The replay kernel mutates exactly the sets its line stream
        touches, so a worker that replayed one partition can ship back
        ``state_diff(unique touched sets)`` instead of its whole shard
        slice — typically a small fraction of the rows when the chunk is
        smaller than the cache's set count.  Restore with
        :meth:`apply_state_diff`; rows not in ``sets`` are untouched by
        construction, so applying the diff reproduces the worker's full
        state exactly.
        """
        sets = np.asarray(sets, dtype=np.int64)
        return {
            "sets": sets,
            "tags": self._tags[sets],
            "age": self._age[sets],
            "dirty": self._dirty[sets],
            "label": self._label[sets],
            "clock": self.clock,
            "labels": list(self._labels),
        }

    def apply_state_diff(self, diff: dict) -> None:
        """Scatter a :meth:`state_diff` snapshot back into the state."""
        sets = diff["sets"]
        self._tags[sets] = diff["tags"]
        self._age[sets] = diff["age"]
        self._dirty[sets] = diff["dirty"]
        self._label[sets] = diff["label"]
        self.clock = int(diff["clock"])
        self._labels = list(diff["labels"])
        self._label_ids = {name: i for i, name in enumerate(self._labels)}

    # ------------------------------------------------------------------
    # introspection (oracle-comparable)
    # ------------------------------------------------------------------
    def resident_lines(self) -> int:
        """Number of lines currently resident in the whole cache."""
        return int(np.count_nonzero(self._tags != -1))

    def resident_lines_for(self, label: str) -> int:
        """Number of resident lines owned by ``label``."""
        lid = self._label_ids.get(label)
        if lid is None:
            return 0
        return int(
            np.count_nonzero((self._tags != -1) & (self._label == lid))
        )

    def flush(self, stats: CacheStats) -> int:
        """Evict everything, charging writebacks for dirty lines.

        Every resident line's residency ends at the current step.
        """
        valid = self._tags != -1
        n_labels = len(self._labels)
        resident = np.bincount(self._label[valid], minlength=n_labels)
        dirty = np.bincount(
            self._label[valid & self._dirty], minlength=n_labels
        )
        for lid in np.flatnonzero(resident):
            counters = stats.label(self._labels[lid])
            counters.writebacks += int(dirty[lid])
            counters.evictions += int(resident[lid])
            counters.residency += int(resident[lid]) * self.clock
        self._tags[:] = -1
        self._age[:] = _NO_AGE
        return int(dirty.sum())

    # ------------------------------------------------------------------
    # batched replay
    # ------------------------------------------------------------------
    def replay(
        self,
        line_ids: np.ndarray,
        is_write: np.ndarray,
        label_ids: np.ndarray,
        labels: list[str],
        stats: CacheStats,
    ) -> None:
        """Replay expanded line touches, accumulating into ``stats``.

        Parameters mirror the output of
        :func:`~repro.cachesim.simulator._expand_lines` plus the trace's
        label table.
        """
        n_total = len(line_ids)
        ids = [self.intern(name) for name in labels]
        remap = (
            None
            if ids == list(range(len(ids)))
            else np.asarray(ids, dtype=np.int32)
        )
        # One row per LabelStats counter (_COUNTERS), one column per
        # engine label.
        counters = np.zeros((len(_COUNTERS), len(self._labels)), np.int64)
        engine_labels = (
            label_ids if remap is None else remap[label_ids]
        )
        for start in range(0, n_total, self.chunk_size):
            stop = min(start + self.chunk_size, n_total)
            self._replay_chunk(
                line_ids[start:stop],
                is_write[start:stop],
                engine_labels[start:stop],
                self.clock + start + 1,
                counters,
            )
        self.clock += n_total
        for lid in np.flatnonzero(counters.any(axis=0)):
            label_stats = stats.label(self._labels[lid])
            for name, value in zip(_COUNTERS, counters[:, lid].tolist()):
                setattr(label_stats, name, getattr(label_stats, name) + value)

    # -- chunk kernel ----------------------------------------------------
    def _replay_chunk(
        self,
        line_ids: np.ndarray,
        is_write: np.ndarray,
        engine_labels: np.ndarray,
        base_position: int,
        counters: np.ndarray,
    ) -> None:
        n = len(line_ids)
        if n == 0:
            return
        hits = counters[0]
        n_labels = hits.size
        # Stage 0: pre-collapse consecutive same-line touches (cheap,
        # before any sort — straddles and streaming sweeps shrink here).
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        if n > 1:
            np.not_equal(line_ids[1:], line_ids[:-1], out=keep[1:])
        if keep.all():
            item_line = line_ids
            item_label = engine_labels
            item_write = is_write
            item_first = np.arange(
                base_position, base_position + n, dtype=np.int64
            )
            item_last = item_first
        else:
            starts0 = np.flatnonzero(keep)
            item_line = line_ids[starts0]
            item_label = engine_labels[starts0]
            item_write = np.logical_or.reduceat(is_write, starts0)
            item_first = starts0 + base_position
            ends0 = np.empty_like(starts0)
            ends0[:-1] = starts0[1:] - 1
            ends0[-1] = n - 1
            item_last = ends0 + base_position
            # Duplicate touches are guaranteed hits, each charged to
            # its own label (a run may mix labels): all touches minus
            # the surviving items, per label.
            hits += _label_counts(engine_labels, n_labels)
            hits -= _label_counts(item_label, n_labels)
        # Stage 1: per-set grouping (stable sort keeps each set's
        # order).  Only the line ids and write flags are gathered into
        # sorted order; every other run column is gathered once at the
        # end through a composed item index.
        num_sets = self.geometry.num_sets
        if self._set_shift is not None:
            set_idx = item_line & (num_sets - 1)
        else:
            set_idx = item_line % num_sets
        # A 16-bit sort key switches numpy's stable sort to radix,
        # several times faster than the int64 merge sort here.
        if num_sets <= 1 << 16:
            order = np.argsort(set_idx.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(set_idx, kind="stable")
        line_s = item_line.take(order)
        w_s = item_write.take(order)
        # Stage 2: collapse same-line items adjacent within a set.
        # Equal lines never sit in different sets, so adjacency is a
        # single line-id compare.
        n_items = line_s.size
        new_run = np.empty(n_items, dtype=bool)
        new_run[0] = True
        if n_items > 1:
            np.not_equal(line_s[1:], line_s[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        n_runs = starts.size
        if n_runs != n_items:
            # Each collapsed item is one more guaranteed hit (its own
            # duplicates were counted in stage 0).
            dup_idx = order.take(np.flatnonzero(~new_run))
            hits += _label_counts(item_label.take(dup_idx), n_labels)
            run_write = np.logical_or.reduceat(w_s, starts)
        else:
            run_write = w_s
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:] - 1
        ends[-1] = n_items - 1
        run_line = line_s.take(starts)
        if self._set_shift is not None:
            run_set = run_line & (num_sets - 1)
        else:
            run_set = run_line % num_sets
        # Stage 3: group runs by set; wave k = every set's k-th run.
        group_start = np.empty(n_runs, dtype=bool)
        group_start[0] = True
        if n_runs > 1:
            np.not_equal(run_set[1:], run_set[:-1], out=group_start[1:])
        group_first = np.flatnonzero(group_start)
        group_sizes = np.diff(group_first, append=n_runs)
        n_waves = int(group_sizes.max())
        if n_runs < n_waves * ADAPTIVE_WAVE_CUTOFF:
            # Set-sorted order is already per-set chronological, which
            # is all the stack-rank replay needs.
            comp = order.take(starts)
            runs = (
                run_set,
                run_line,
                item_label.take(comp),
                run_write,
                item_first.take(comp),
                item_last.take(order.take(ends)),
            )
            self._replay_runs_stack(runs, group_first, group_sizes, counters)
            return
        # wave_sizes[k] = number of sets with more than k runs.
        n_groups = group_first.size
        size_hist = np.bincount(group_sizes, minlength=n_waves + 1)
        wave_sizes = n_groups - np.cumsum(size_hist)[:n_waves]
        # Wave-major order without a second sort: wave k holds
        # group_first + k for every group with more than k runs, in
        # ascending set order — exactly what the stable rank sort
        # used to produce.  The dense (n_waves, n_groups) mask is only
        # worth it when groups are reasonably balanced; skewed chunks
        # (mask much larger than n_runs) fall back to a radix sort of
        # the explicit ranks.
        if n_waves * n_groups <= 4 * n_runs:
            offsets = group_first[None, :] + np.arange(n_waves)[:, None]
            in_wave = (
                np.arange(n_waves)[:, None] < group_sizes[None, :]
            )
            wave_order = offsets[in_wave]
        else:
            rank = np.arange(n_runs, dtype=np.int64)
            rank -= np.repeat(group_first, group_sizes)
            if n_waves <= 1 << 16:
                wave_order = np.argsort(
                    rank.astype(np.uint16), kind="stable"
                )
            else:
                wave_order = np.argsort(rank, kind="stable")
        run_line_w = run_line.take(wave_order)
        comp = order.take(starts.take(wave_order))
        comp_end = order.take(ends.take(wave_order))
        runs = (
            run_set.take(wave_order),
            self._run_tags(run_line_w),
            item_label.take(comp),
            run_write.take(wave_order),
            item_first.take(comp),
            item_last.take(comp_end),
        )
        self._replay_runs_waves(runs, wave_sizes, counters)

    def _run_tags(self, run_line: np.ndarray) -> np.ndarray:
        """Cache tags for an array of line ids."""
        if self._set_shift is not None:
            return run_line >> self._set_shift
        return run_line // self.geometry.num_sets

    def _replay_runs_waves(
        self,
        runs,
        wave_sizes: np.ndarray,
        counters: np.ndarray,
    ) -> None:
        """Vectorised replay: one access per set per wave.

        ``runs`` columns arrive in wave-major order; wave ``k``
        occupies the ``wave_sizes[k]`` rows after wave ``k - 1``.
        """
        hits, misses, writebacks, evictions, residency = counters
        n_labels = hits.size
        run_set, run_tag, run_label, run_write, run_first, run_last = runs
        ways = self.geometry.associativity
        tags_a = self._tags
        age_a = self._age
        # Flat views: scatters go through precomputed flat offsets
        # (set * ways + way), cheaper than dual fancy indexing.
        tags_f = tags_a.reshape(-1)
        age_f = age_a.reshape(-1)
        dirty_f = self._dirty.reshape(-1)
        label_f = self._label.reshape(-1)
        hit_labels: list[np.ndarray] = []
        miss_labels: list[np.ndarray] = []
        wb_labels: list[np.ndarray] = []
        evict_labels: list[np.ndarray] = []
        row_off = np.arange(int(wave_sizes.max())) * ways
        num_sets = self.geometry.num_sets
        lo = 0
        for size in wave_sizes.tolist():
            hi = lo + size
            ws = run_set[lo:hi]
            wt = run_tag[lo:hi]
            wl = run_label[lo:hi]
            ww = run_write[lo:hi]
            wfirst = run_first[lo:hi]
            wlast = run_last[lo:hi]
            lo = hi
            if size == num_sets:
                # Full wave: runs stay set-sorted through the stable
                # rank sort, so a wave touching every set is the
                # identity permutation — compare against the state
                # arrays directly, no gather, sequential access.
                rows = tags_a
                base = row_off[:size]
            else:
                rows = tags_a[ws]
                base = ws * ways
            eq = rows == wt[:, None]
            # argmax + gather instead of any(): one scan over eq, not
            # two (way is only meaningful where hit is True).
            way = eq.argmax(axis=1)
            hit = eq.reshape(-1).take(row_off[:size] + way)
            if hit.all():
                flat = base + way
                age_f[flat] = wlast
                if ww.any():
                    # A write hit marks the line dirty; read hits
                    # leave the bit alone — no |= over the full wave.
                    dirty_f[flat.compress(ww)] = True
                hit_labels.append(wl)
                continue
            if hit.any():
                hidx = np.flatnonzero(hit)
                hflat = base.take(hidx) + way.take(hidx)
                age_f[hflat] = wlast.take(hidx)
                hw = ww.take(hidx)
                if hw.any():
                    dirty_f[hflat.compress(hw)] = True
                hit_labels.append(wl.take(hidx))
                midx = np.flatnonzero(~hit)
                ws = ws.take(midx)
                wt = wt.take(midx)
                wl = wl.take(midx)
                ww = ww.take(midx)
                wfirst = wfirst.take(midx)
                wlast = wlast.take(midx)
                rows = rows.take(midx, axis=0)
                base = base.take(midx)
            miss_labels.append(wl)
            # A line is resident from its inserting miss's step to its
            # evicting miss's step.
            residency -= _label_sums(wl, wfirst, n_labels)
            # An empty way (tag == -1) fills first; any empty slot is
            # equivalent (way position never affects behaviour).  Full
            # rows evict the LRU way: the age argmin over resident
            # ways (_NO_AGE keeps empty ways out of contention).
            empty = rows == -1
            way = empty.argmax(axis=1)
            full = ~empty.reshape(-1).take(row_off[: ws.size] + way)
            if full.any():
                fidx = np.flatnonzero(full)
                es = ws.take(fidx)
                ew = age_a[es].argmin(axis=1)
                way[fidx] = ew
                vflat = es * ways + ew
                victim_label = label_f.take(vflat)
                victim_dirty = dirty_f.take(vflat)
                if victim_dirty.any():
                    wb_labels.append(victim_label.compress(victim_dirty))
                evict_labels.append(victim_label)
                residency += _label_sums(
                    victim_label, wfirst.take(fidx), n_labels
                )
            flat = base + way
            tags_f[flat] = wt
            dirty_f[flat] = ww
            label_f[flat] = wl
            age_f[flat] = wlast
        for bucket, counts in (
            (hit_labels, hits),
            (miss_labels, misses),
            (wb_labels, writebacks),
            (evict_labels, evictions),
        ):
            if bucket:
                counts += _label_counts(np.concatenate(bucket), n_labels)

    def _replay_runs_stack(
        self,
        runs,
        group_first: np.ndarray,
        group_sizes: np.ndarray,
        counters: np.ndarray,
    ) -> None:
        """Stack-rank replay for chunks with few runs per wave.

        ``runs`` columns arrive set-sorted (each set's runs in order);
        set ``g`` holds the ``group_sizes[g]`` runs from
        ``group_first[g]``.  Each touched set becomes one segment of
        *entries*: its resident lines, oldest first, then its runs.  An
        entry's ``d`` is the last-use position of the ``ways``-th most
        recently used distinct line before it, so it hits exactly when
        its line's previous occurrence is at or after ``d``.
        """
        run_set, run_line, run_label, run_write, run_first, run_last = runs
        hits, misses, writebacks, evictions, residency = counters
        n_labels = hits.size
        ways = self.geometry.associativity
        num_sets = self.geometry.num_sets
        n_runs = run_line.size
        touched = run_set.take(group_first)
        # Resident lines of the touched sets, oldest first: empty ways
        # hold _NO_AGE, so they sort last and the residents are a
        # prefix of each row.
        rows = touched[:, None]
        lru = np.argsort(self._age[touched], axis=1)
        res_tags = self._tags[rows, lru]
        resident = res_tags != -1
        n_res = np.count_nonzero(resident, axis=1)
        res_cum = np.cumsum(n_res)
        seg_start = group_first + res_cum - n_res
        run_pos = np.arange(n_runs) + np.repeat(res_cum, group_sizes)
        res_pos = (seg_start[:, None] + np.arange(ways))[resident]
        n_entries = n_runs + int(res_cum[-1])
        line = np.empty(n_entries, dtype=np.int64)
        line[run_pos] = run_line
        line[res_pos] = res_tags[resident] * num_sets + np.repeat(
            touched, n_res
        )
        write = np.empty(n_entries, dtype=bool)
        write[run_pos] = run_write
        write[res_pos] = self._dirty[rows, lru][resident]
        label = np.empty(n_entries, dtype=np.int32)
        label[run_pos] = run_label
        label[res_pos] = self._label[rows, lru][resident]
        age = np.empty(n_entries, dtype=np.int64)
        age[run_pos] = run_last
        age[res_pos] = self._age[rows, lru][resident]
        # prev[i]: the previous entry with the same line, or -1.  Equal
        # lines share a set, so prev never leaves the segment.
        by_line = np.argsort(line, kind="stable")
        line_o = line.take(by_line)
        same = line_o[1:] == line_o[:-1]
        prev = np.full(n_entries, -1, dtype=np.int64)
        prev[by_line[1:][same]] = by_line[:-1][same]
        # d goes from D_1 to D_ways by the module docstring's
        # recurrence.  D_k never falls as i grows within a segment, so
        # its forward fill is a running maximum.  A value below the
        # entry's segment start means "fewer than k distinct lines":
        # positions of earlier segments are all smaller, so the running
        # maximum needs no cut at set boundaries.
        d = np.arange(-1, n_entries - 1, dtype=np.int64)
        for _ in range(ways - 1):
            fill = np.where(prev < d, d, -1)
            np.maximum.accumulate(fill, out=fill)
            d[1:] = fill[:-1]
            d[0] = -1
        hit = (prev >= d) & (prev >= 0)
        # Residency groups: an inserting miss (or a resident line) and
        # the hits on its line that follow it, contiguous in line order.
        starts_o = ~hit.take(by_line)
        group_first_o = np.flatnonzero(starts_o)
        group_dirty = np.logical_or.reduceat(
            write.take(by_line), group_first_o
        )
        group_label = label.take(by_line.take(group_first_o))
        group = np.empty(n_entries, dtype=np.int64)
        group[by_line] = np.cumsum(starts_o) - 1
        run_hit = hit.take(run_pos)
        miss = np.flatnonzero(~run_hit)
        miss_label = run_label.take(miss)
        miss_step = run_first.take(miss)
        hits += _label_counts(run_label.compress(run_hit), n_labels)
        misses += _label_counts(miss_label, n_labels)
        residency -= _label_sums(miss_label, miss_step, n_labels)
        # A miss in a full set evicts the line last used at d.
        victim = d.take(run_pos.take(miss))
        evicting = victim >= np.repeat(seg_start, group_sizes).take(miss)
        victim_group = group.take(victim.compress(evicting))
        victim_label = group_label.take(victim_group)
        victim_dirty = group_dirty.take(victim_group)
        if victim_dirty.any():
            writebacks += _label_counts(
                victim_label.compress(victim_dirty), n_labels
            )
        evictions += _label_counts(victim_label, n_labels)
        residency += _label_sums(
            victim_label, miss_step.compress(evicting), n_labels
        )
        # New state: each set's `ways` most recent last occurrences,
        # way 0 the most recent (way slots are interchangeable).
        last_o = np.append(~same, True)
        is_last = np.zeros(n_entries, dtype=bool)
        is_last[by_line.compress(last_o)] = True
        last_pos = np.flatnonzero(is_last)
        last_seg = np.searchsorted(seg_start, last_pos, side="right") - 1
        seg_lasts = np.cumsum(np.add.reduceat(is_last, seg_start))
        way = seg_lasts.take(last_seg) - np.arange(1, last_pos.size + 1)
        keep = way < ways
        keep_pos = last_pos.compress(keep)
        keep_group = group.take(keep_pos)
        set_way = (touched.take(last_seg.compress(keep)), way.compress(keep))
        self._tags[touched] = -1
        self._age[touched] = _NO_AGE
        self._tags[set_way] = self._run_tags(line.take(keep_pos))
        self._age[set_way] = age.take(keep_pos)
        self._dirty[set_way] = group_dirty.take(keep_group)
        self._label[set_way] = group_label.take(keep_group)
