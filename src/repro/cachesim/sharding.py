"""Set-sharded parallel LRU simulation with zero-copy transport.

Cache sets never interact: the LRU outcome of a set depends only on that
set's own access subsequence (the same independence the array engine's
wave scheduling exploits within one process).  This module partitions
the line-touch stream by set index into K shards, replays each shard
through its own :class:`~repro.cachesim.engine.ArrayLRUEngine` —
optionally in worker processes — and merges the results so they are
**bit-identical** to the single-process run:

* Per-label hits / misses / writebacks / evictions merge by exact
  integer summation over disjoint access subsets.
* Residency is not tracked: each shard engine numbers steps by its own
  clock, so the shards' ``residency`` step sums do not add up to the
  single-process one.
  :meth:`~repro.cachesim.simulator.CacheSimulator.average_resident_lines`
  refuses a simulator with ``shards > 1``, and :meth:`replay_trace`
  refuses ``collect_events``.

The parallel path is built to make the boundary cheap, not just the
cores numerous (PR 4 shipped the pickled *expanded* stream through a
pool spawned per call, and lost 6x to the overhead):

* **Persistent pool** — workers come from the module-level pool in
  :mod:`repro.cachesim.pool`, spawned lazily on first use and reused
  across every sharded simulator in the process; fork cost is paid
  once per process.
* **Zero-copy transport** — the *compact* trace columns (13 bytes per
  reference) go into one ``multiprocessing.shared_memory`` block; each
  worker receives only a descriptor (name, length, per-label element
  sizes) plus its shard's slice of the engine state (``1/num_shards``
  of the arrays).
* **Worker-side expansion** — each worker runs
  :func:`~repro.cachesim.expand.expand_shard` against the shared
  columns, expanding *only its own set-partition*; the parent never
  materialises the expanded stream at all on the pooled path.
* **Crash safety** — parent engine state is mutated only after every
  shard result has arrived, so a lost worker (``BrokenProcessPool``)
  degrades to a bit-identical inline replay from untouched state; the
  shared block is unlinked in a ``finally`` either way.

Each shard engine allocates the full geometry but only ever touches its
own sets, so the shards partition the cache exactly.  ``num_shards`` is clamped to ``num_sets``: for K >=
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

import numpy as np

from repro.cachesim import pool as _pool
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import ArrayLRUEngine, CacheEngineError
from repro.cachesim.expand import (
    _expand_lines,
    expand_shard,
    set_index,
    shard_entry_counts,
    shard_index,
)
from repro.cachesim.stats import CacheStats
from repro.trace.io import attach_trace_shm, trace_to_shm


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
    stream (ascending, so each set's access order is preserved).
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
    Returns ``(stats, state-diff)`` — the state comes back as a *diff*
    holding only the sets this replay touched (the replay kernel
    provably mutates no other row), so the return pickle scales with
    the chunk, not the cache.
    """
    shm, columns = attach_trace_shm(payload["shm"])
    try:
        if payload.get("chaos_kill"):
            # Test hook: die mid-replay exactly like an OOM-killed
            # worker would, after the block is attached.
            os.kill(os.getpid(), signal.SIGKILL)
        geometry = payload["geometry"]
        # columns: addresses, is_write, label_ids.
        sizes = np.asarray(payload["shm"]["element_sizes"])[columns[2]]
        _, line_ids, is_write, label_ids = expand_shard(
            columns[0],
            sizes,
            *columns[1:],
            geometry.line_size,
            geometry.num_sets,
            payload["num_shards"],
            payload["shard"],
        )
    finally:
        # Every view into shm.buf must be gone before close().
        del columns
        shm.close()
    engine = ArrayLRUEngine(geometry)
    state = payload["state"]
    if state is not None:
        engine.load_shard_state(payload["shard"], payload["num_shards"], state)
    stats = CacheStats()
    engine.replay(line_ids, is_write, label_ids, payload["labels"], stats)
    touched = np.unique(set_index(line_ids, geometry.num_sets))
    return stats, engine.state_diff(touched)


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
        self._engines = [
            ArrayLRUEngine(geometry) for _ in range(self.num_shards)
        ]
        #: Total expanded touches replayed (mirrors the engine clock).
        self.clock = 0
        #: Byte accounting of the last pooled replay (``None`` until a
        #: pooled replay happens): shm block size and state bytes each
        #: way.  The bench harness records this per variant.
        self.last_transport: dict | None = None
        #: Test hook: shard index whose worker SIGKILLs itself
        #: mid-replay on the pooled path (chaos suite).
        self.chaos_kill_shard: int | None = None

    # ------------------------------------------------------------------
    def replay_trace(
        self,
        trace,
        stats: CacheStats,
        collect_events: bool = False,
    ) -> None:
        """Replay a compact trace through the shards; merged result.

        Same contract as the engine's ``replay`` but from the
        *unexpanded* trace: on the pooled path the compact columns go
        to workers over shared memory and each worker expands only its
        own partition; inline (``jobs=1``, one live shard, or pool
        failure) the parent expands once and partitions.  Residency
        events are not available (``collect_events=True`` raises
        :class:`~repro.cachesim.engine.CacheEngineError`): the shards
        number steps by their own clocks.
        """
        if collect_events:
            raise CacheEngineError(
                "sharded replay does not track residency; replay on one "
                "engine (shards=1)"
            )
        if len(trace.addresses) == 0:
            return
        counts = shard_entry_counts(
            trace.addresses,
            trace.element_sizes[trace.label_ids],
            self.geometry.line_size,
            self.geometry.num_sets,
            self.num_shards,
        )
        live = np.flatnonzero(counts).tolist()
        pooled = (
            self.jobs > 1
            and len(live) > 1
            and self._replay_pool(trace, live, stats)
        )
        if not pooled:
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
            for i in live:
                _, ids, writes, lids = shards[i]
                self._engines[i].replay(ids, writes, lids, trace.labels, stats)
        self.clock += int(counts.sum())

    def _replay_pool(self, trace, live, stats) -> bool:
        """Zero-copy pooled replay; ``False`` means "fall back inline".

        Parent state is only mutated after *every* shard result is in
        hand, so a worker lost mid-replay (``BrokenProcessPool``)
        leaves the engines untouched and the caller can replay inline
        for a bit-identical result.  The shared block is closed and
        unlinked in a ``finally`` either way — no /dev/shm leak even
        when a worker is SIGKILLed.
        """
        executor = _pool.get_pool(min(self.jobs, len(live)))
        shm, descriptor = trace_to_shm(trace)
        transport = {
            "mode": "shared_memory",
            "shm_name": shm.name,
            "shm_bytes": shm.size,
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
                    "shard": i,
                    "num_shards": self.num_shards,
                    "state": state,
                    "labels": list(trace.labels),
                    "chaos_kill": self.chaos_kill_shard == i,
                }
                futures.append((i, executor.submit(_replay_shard_shm, payload)))
            try:
                results = [(i, fut.result()) for i, fut in futures]
            except BrokenProcessPool:
                _pool.discard_pool()
                return False
        finally:
            shm.close()
            shm.unlink()
        for i, (shard_stats, diff) in results:
            self._engines[i].apply_state_diff(diff)
            stats.merge(shard_stats)
            transport["state_back_bytes"] += _state_nbytes(diff)
        return True
