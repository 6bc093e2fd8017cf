"""Set-sharded parallel LRU simulation with zero-copy transport.

Cache sets never interact: the LRU outcome of a set depends only on that
set's own access subsequence (the same independence the array engine's
wave scheduling exploits within one process).  This module partitions
the line-touch stream by set index into K shards, replays each shard
through its own :class:`~repro.cachesim.engine.ArrayLRUEngine` —
optionally in worker processes — and merges the results so they are
**bit-identical** to the single-process run:

* Per-label hits / misses / writebacks merge by exact integer summation
  over disjoint access subsets.
* Residency events carry *local* steps out of each shard (an engine
  numbers accesses by its own clock); they are remapped through the
  shard's global-position array (``global_step = positions[local_step -
  1 - clock_before] + 1``) and merged across shards by the same stable
  ``step * 2 + kind`` sort the engine uses within a chunk — evictions
  precede the insertion that caused them, steps are globally unique per
  access, so the merged event sequence (and therefore the float
  residency-integral accumulation order) is exactly the single-process
  one.

The parallel path is built to make the boundary cheap, not just the
cores numerous (PR 4 shipped the pickled *expanded* stream through a
pool spawned per call, and lost 6x to the overhead):

* **Persistent pool** — workers come from the module-level pool in
  :mod:`repro.cachesim.pool`, spawned lazily on first use and reused
  across every sharded simulator in the process; fork cost is paid
  once per process.
* **Zero-copy transport** — the *compact* trace columns (21 bytes per
  reference) go into one ``multiprocessing.shared_memory`` block; each
  worker receives only a name/length descriptor plus its shard's slice
  of the engine state (``1/num_shards`` of the arrays).
* **Worker-side expansion** — each worker runs
  :func:`~repro.cachesim.expand.expand_shard` against the shared
  columns, expanding *only its own set-partition*; the parent never
  materialises the expanded stream at all on the pooled path.
* **Crash safety** — parent engine state is mutated only after every
  shard result has arrived, so a lost worker (``BrokenProcessPool``)
  degrades to a bit-identical inline replay from untouched state; the
  shared block is unlinked in a ``finally`` either way.

Each shard engine allocates the full geometry but only ever touches its
own sets, so a flush or residency count over all shards partitions the
cache exactly.  ``num_shards`` is clamped to ``num_sets``: for K >=
num_sets every set index satisfies ``set % K == set == set %
num_sets``, so the clamp is behaviour-identical and merely avoids
spawning shards that cannot own a set.

Sharding is opt-in: :class:`~repro.cachesim.simulator.CacheSimulator`
shards only when constructed with an explicit ``shards=K > 1``.  The
shard sweep in ``BENCH_pipeline.json`` records whether it pays on the
host that ran it.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np

from repro.cachesim import pool as _pool
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import (
    DEFAULT_CHUNK_SIZE,
    ArrayLRUEngine,
)
from repro.cachesim.expand import (
    _expand_lines,
    expand_shard,
    set_index,
    shard_entry_counts,
    shard_index,
)
from repro.cachesim.stats import CacheStats
from repro.trace.io import TraceShmRing, attach_trace_shm, trace_to_shm


def partition_expanded(
    line_ids: np.ndarray,
    is_write: np.ndarray,
    label_ids: np.ndarray,
    num_sets: int,
    num_shards: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Split an expanded line-touch stream into per-shard substreams.

    Returns one ``(positions, line_ids, is_write, label_ids)`` tuple per
    shard, where ``positions`` are the entries' indices in the original
    stream (ascending, so each set's access order is preserved and the
    local→global position map is monotone).
    """
    shard_idx = shard_index(line_ids, num_sets, num_shards)
    shards = []
    for shard in range(num_shards):
        positions = np.flatnonzero(shard_idx == shard)
        shards.append(
            (
                positions,
                line_ids[positions],
                is_write[positions],
                label_ids[positions],
            )
        )
    return shards


def _remap_events(
    events, positions: np.ndarray, clock_before: int, base_step: int
):
    """Translate a shard's local event steps to global stream steps.

    ``clock_before`` is the shard engine's clock before this replay
    (local steps within the run are relative to it); ``base_step`` is
    the whole simulation's cumulative touch count before this run, so
    warm multi-run sequences keep globally monotone steps exactly like
    the single-engine clock does.
    """
    if events is None:
        return None
    steps, kinds, event_labels = events
    if steps.size:
        steps = base_step + positions[steps - 1 - clock_before] + 1
    return steps, kinds, event_labels


def merge_events(shard_events: list):
    """Merge per-shard event streams into global chronological order.

    Steps are unique per access, and an eviction shares its insertion's
    step (same shard, concatenated evict-before-insert), so the
    ``step * 2 + kind`` stable sort reproduces the exact single-process
    event order.
    """
    collected = [e for e in shard_events if e is not None and e[0].size]
    if not collected:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int32)
    steps = np.concatenate([e[0] for e in collected])
    kinds = np.concatenate([e[1] for e in collected])
    labels = np.concatenate([e[2] for e in collected])
    order = np.argsort(steps * 2 + kinds, kind="stable")
    return steps[order], kinds[order], labels[order]


def _state_nbytes(state: dict | None) -> int:
    if state is None:
        return 0
    return sum(
        v.nbytes for v in state.values() if isinstance(v, np.ndarray)
    )


def _replay_shard_shm(payload: dict):
    """Worker-process entry: attach, expand own partition, replay.

    Receives only the shared-memory descriptor, the shard's slice of
    engine state (``None`` when the cache is cold), and scalars.
    Returns ``(stats, events-with-global-steps, state-diff,
    local-entry-count)`` — the state comes back as a *diff* holding
    only the sets this replay touched (the replay kernel provably
    mutates no other row), so the return pickle scales with the chunk,
    not the cache.
    """
    shm, columns = attach_trace_shm(payload["shm"])
    try:
        if payload.get("chaos_kill"):
            # Test hook: die mid-replay exactly like an OOM-killed
            # worker would, after the block is attached.
            os.kill(os.getpid(), signal.SIGKILL)
        geometry = payload["geometry"]
        positions, line_ids, is_write, label_ids = expand_shard(
            *columns,
            geometry.line_size,
            geometry.num_sets,
            payload["num_shards"],
            payload["shard"],
        )
    finally:
        # Every view into shm.buf must be gone before close().
        del columns
        shm.close()
    engine = ArrayLRUEngine(geometry, chunk_size=payload["chunk_size"])
    state = payload["state"]
    if state is not None:
        engine.load_shard_state(payload["shard"], payload["num_shards"], state)
    clock_before = engine.clock
    stats = CacheStats()
    events = engine.replay(
        line_ids,
        is_write,
        label_ids,
        payload["labels"],
        stats,
        payload["collect_events"],
    )
    touched = np.unique(set_index(line_ids, geometry.num_sets))
    return (
        stats,
        _remap_events(events, positions, clock_before, payload["base_step"]),
        engine.state_diff(touched),
        len(line_ids),
    )


class ShardedLRUSimulator:
    """K independent shard engines presenting the one-engine interface.

    Drop-in for :class:`~repro.cachesim.engine.ArrayLRUEngine` as seen
    by :class:`~repro.cachesim.simulator.CacheSimulator`, except that
    its replay entry, :meth:`replay_trace`, takes the *compact* trace
    so the pooled path can ship it zero-copy and expand in the
    workers.  ``jobs=1`` (or a single live shard) replays inline, in
    shard order, with no pool, pickling, or state copies.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        num_shards: int,
        jobs: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.geometry = geometry
        # Clamp: sets are assigned round-robin, so shards beyond
        # num_sets could never own a set — and set % K == set %
        # num_sets for every set when K >= num_sets, so the clamp is
        # behaviour-identical.
        self.num_shards = min(int(num_shards), geometry.num_sets)
        self.jobs = int(jobs)
        self.chunk_size = int(chunk_size)
        self._engines = [
            ArrayLRUEngine(geometry, chunk_size=chunk_size)
            for _ in range(self.num_shards)
        ]
        #: Total expanded touches replayed (mirrors the engine clock).
        self.clock = 0
        # Mirror of every shard engine's label table: each replay
        # interns the same trace label list in the same order, so the
        # tables stay identical and event label ids decode here.
        self._labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        #: Byte accounting of the last pooled replay (``None`` until a
        #: pooled replay happens): shm block size and state bytes each
        #: way.  The bench harness records this per variant.
        self.last_transport: dict | None = None
        #: Test hook: shard index whose worker SIGKILLs itself
        #: mid-replay on the pooled path (chaos suite).
        self.chaos_kill_shard: int | None = None
        # Streaming state: inside a stream_scope the pooled path packs
        # chunks into one reusable shared block instead of allocating
        # and unlinking a block per chunk.
        self._streaming = False
        self._ring: TraceShmRing | None = None

    # ------------------------------------------------------------------
    # streaming (chunked-iterator protocol)
    # ------------------------------------------------------------------
    def _ensure_ring(self, n: int) -> TraceShmRing:
        if self._ring is None or self._ring.capacity < n:
            self._drop_ring()
            self._ring = TraceShmRing(n)
        return self._ring

    def _drop_ring(self) -> None:
        if self._ring is not None:
            self._ring.close()
            self._ring.unlink()
            self._ring = None

    @contextmanager
    def stream_scope(self):
        """Reuse one shared-memory ring across chunked pooled replays.

        Inside the scope every :meth:`replay_trace` call packs its
        chunk into a ring sized for the largest chunk seen so far
        (typically allocated once, by the first chunk, since streams
        carry fixed-size chunks).  The ring is closed and unlinked when
        the scope exits, including on error — the same no-leak
        guarantee the per-call path gets from its ``finally``.
        """
        if self._streaming:
            raise RuntimeError("stream_scope is not reentrant")
        self._streaming = True
        try:
            yield self
        finally:
            self._streaming = False
            self._drop_ring()

    # ------------------------------------------------------------------
    def _intern_all(self, labels: list[str]) -> None:
        for name in labels:
            if name not in self._label_ids:
                self._label_ids[name] = len(self._labels)
                self._labels.append(name)

    def label_name(self, lid: int) -> str:
        """Label string for an engine-global label id."""
        return self._labels[lid]

    # ------------------------------------------------------------------
    def replay_trace(
        self,
        trace,
        stats: CacheStats,
        collect_events: bool = False,
    ):
        """Replay a compact trace through the shards; merged result.

        Same contract as the engine's ``replay`` but from the
        *unexpanded* trace: on the pooled path the compact columns go
        to workers over shared memory and each worker expands only its
        own partition; inline (``jobs=1``, one live shard, or pool
        failure) the parent expands once and partitions.
        """
        self._intern_all(trace.labels)
        n = len(trace.addresses)
        if n == 0:
            if not collect_events:
                return None
            return merge_events([])
        counts = shard_entry_counts(
            trace.addresses,
            trace.sizes,
            self.geometry.line_size,
            self.geometry.num_sets,
            self.num_shards,
        )
        live = np.flatnonzero(counts)
        n_expanded = int(counts.sum())
        shard_events = None
        if self.jobs > 1 and live.size > 1:
            shard_events = self._replay_pool(
                trace, live.tolist(), stats, collect_events
            )
        if shard_events is None:
            line_ids, is_write, label_ids = _expand_lines(
                trace, self.geometry.line_size
            )
            shards = partition_expanded(
                line_ids,
                is_write,
                label_ids,
                self.geometry.num_sets,
                self.num_shards,
            )
            shard_events = self._replay_inline(
                shards, live.tolist(), trace.labels, stats, collect_events
            )
        self.clock += n_expanded
        if not collect_events:
            return None
        return merge_events(shard_events)

    def _replay_inline(self, shards, live, labels, stats, collect_events):
        shard_events = []
        for i in live:
            positions, ids, writes, lids = shards[i]
            engine = self._engines[i]
            clock_before = engine.clock
            events = engine.replay(
                ids, writes, lids, labels, stats, collect_events
            )
            shard_events.append(
                _remap_events(events, positions, clock_before, self.clock)
            )
        return shard_events

    def _replay_pool(self, trace, live, stats, collect_events):
        """Zero-copy pooled replay; ``None`` means "fall back inline".

        Parent state is only mutated after *every* shard result is in
        hand, so a worker lost mid-replay (``BrokenProcessPool``)
        leaves the engines untouched and the caller can replay inline
        for a bit-identical result.  The shared block is closed and
        unlinked in a ``finally`` either way — no /dev/shm leak even
        when a worker is SIGKILLed.
        """
        executor = _pool.get_pool(min(self.jobs, len(live)))
        if self._streaming:
            # Ring path: the block outlives this chunk; the enclosing
            # stream_scope unlinks it once when the stream ends.
            shm = None
            ring = self._ensure_ring(len(trace.addresses))
            descriptor = ring.pack(trace)
            shm_name, shm_bytes = ring.name, ring.nbytes
        else:
            shm, descriptor = trace_to_shm(trace)
            shm_name, shm_bytes = shm.name, shm.size
        transport = {
            "mode": "shared_memory_ring" if shm is None else "shared_memory",
            "shm_name": shm_name,
            "shm_bytes": shm_bytes,
            "state_out_bytes": 0,
            "state_back_bytes": 0,
            "workers": min(self.jobs, len(live)),
        }
        self.last_transport = transport
        try:
            futures = []
            for i in live:
                engine = self._engines[i]
                state = (
                    engine.shard_state(i, self.num_shards)
                    if engine.clock
                    else None
                )
                transport["state_out_bytes"] += _state_nbytes(state)
                payload = {
                    "shm": descriptor,
                    "geometry": self.geometry,
                    "chunk_size": self.chunk_size,
                    "shard": i,
                    "num_shards": self.num_shards,
                    "state": state,
                    "labels": list(trace.labels),
                    "base_step": self.clock,
                    "collect_events": collect_events,
                    "chaos_kill": self.chaos_kill_shard == i,
                }
                futures.append((i, executor.submit(_replay_shard_shm, payload)))
            try:
                results = [(i, fut.result()) for i, fut in futures]
            except BrokenProcessPool:
                _pool.discard_pool()
                return None
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()
        shard_events = []
        for i, (shard_stats, events, diff, _n_local) in results:
            self._engines[i].apply_state_diff(diff)
            stats.merge(shard_stats)
            transport["state_back_bytes"] += _state_nbytes(diff)
            shard_events.append(events)
        return shard_events

    # ------------------------------------------------------------------
    def flush(self, stats: CacheStats) -> int:
        """Evict every shard, charging writebacks for dirty lines."""
        return sum(engine.flush(stats) for engine in self._engines)

    def resident_lines(self) -> int:
        """Resident lines over all shards (shards hold disjoint sets)."""
        return sum(engine.resident_lines() for engine in self._engines)

    def resident_lines_for(self, label: str) -> int:
        """Resident lines owned by ``label`` over all shards."""
        return sum(
            engine.resident_lines_for(label) for engine in self._engines
        )
