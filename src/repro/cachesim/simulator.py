"""Drive a memory-reference trace through the cache simulator.

:class:`CacheSimulator` fixes its engine at construction, from the
replacement policy alone:

* LRU gets the batched numpy engine
  (:class:`~repro.cachesim.engine.ArrayLRUEngine`): each chunk is
  expanded into flat numpy columns of per-line touches (vectorised),
  collapsed, and replayed in per-set waves of whole-array operations.
  It is bit-identical to the oracle.  An explicit ``shards=K > 1``
  replaces it with :class:`~repro.cachesim.sharding.ShardedLRUSimulator`,
  which splits the same replay by set index.
* FIFO/random, or an explicit ``engine="reference"``, get the dict-based
  :class:`~repro.cachesim.cache.SetAssociativeCache` oracle: a
  sequential walk doing plain dict operations, roughly a microsecond
  per reference.  It supports every replacement policy and remains the
  ground truth the array engine is differentially tested against
  (``tests/cachesim/test_engine_differential.py``).

Requesting ``engine="array"`` for a non-LRU policy raises
:class:`~repro.cachesim.engine.CacheEngineError` instead of silently
degrading.

Whole and streamed traces share one replay path: :meth:`CacheSimulator.run`
cuts a whole trace into ``chunk_size``-reference chunks
(:func:`~repro.trace.reference.iter_chunks`) and feeds every chunk to
:meth:`CacheSimulator.run_chunk` against the warm engine state.
Expansion is per-reference elementwise, so the statistics do not
depend on where the chunk boundaries fall, and the replay's working
memory is O(chunk).  ``benchmarks/harness.py`` records the measured
engine speedup per kernel in ``BENCH_cachesim.json``.

Residency, for the cache-DVF extension, is two more counters per label
that both engines keep where they count hits, misses and writebacks:
evictions, and Σ eviction steps − Σ insertion steps (steps number the
line touches 1, 2, ...).  :meth:`CacheSimulator.average_resident_lines`
closes the integral with the lines still resident.  Sharded replay
numbers steps per shard, so it refuses ``track_residency``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np

from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import (
    DEFAULT_CHUNK_SIZE,
    ArrayLRUEngine,
    CacheEngineError,
    check_engine,
)
from repro.cachesim.expand import _expand_lines
from repro.cachesim.pool import effective_cpus
from repro.cachesim.sharding import ShardedLRUSimulator
from repro.cachesim.stats import CacheStats
from repro.trace.reference import ReferenceTrace, iter_chunks

# _expand_lines lives in repro.cachesim.expand (the sharded workers need
# it without importing this module); run_chunk looks it up as this
# module's global, and the tests and the bench harness import it from
# here.


def _count_arg(value, name: str) -> int:
    """Validate a ``shards``/``jobs`` count: an int >= 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


class CacheSimulator:
    """Runs reference traces through a set-associative cache.

    The simulator keeps the cache state across :meth:`run` calls, so a
    kernel split across several traces (e.g. per-iteration traces) warms
    the cache naturally.

    Parameters
    ----------
    geometry:
        The cache shape (``CA``, ``NA``, ``CL``).
    policy:
        Replacement policy (``"lru"``/``"fifo"``/``"random"``).
    seed:
        RNG seed for the ``"random"`` policy.
    track_residency:
        Enable :meth:`average_resident_lines`, the per-label residency
        used by the cache-DVF extension.  Sharded replay numbers steps
        per shard, so it refuses residency tracking.
    engine:
        ``"auto"`` (default), ``"array"`` or ``"reference"`` — see the
        module docstring.  ``"auto"`` picks the array engine for LRU
        and the oracle for every other policy; both engines produce
        bit-identical statistics for LRU.
    chunk_size:
        References per chunk when :meth:`run` cuts a whole trace, and
        expanded line touches per array-engine batch.
    shards:
        Set-index shard count (default 1).  ``K > 1`` partitions the
        line stream by set index and replays each shard through its
        own array engine — bit-identical merged results (see
        :mod:`repro.cachesim.sharding`); requires the LRU policy and
        the array engine.
    jobs:
        Worker processes for sharded replay.  ``"auto"`` (default)
        opens one per shard, never more than the visible CPUs; ``1``
        replays the shards inline in this process.  Ignored with one
        shard.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str = "lru",
        seed: int = 0,
        track_residency: bool = False,
        engine: str = "auto",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        shards: int = 1,
        jobs: int | str = "auto",
    ):
        if policy not in SetAssociativeCache.POLICIES:
            raise ValueError(
                f"policy must be one of {SetAssociativeCache.POLICIES}, "
                f"got {policy!r}"
            )
        shards = _count_arg(shards, "shards")
        if jobs != "auto":
            jobs = _count_arg(jobs, "jobs")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.geometry = geometry
        self.policy = policy
        self.engine = check_engine(engine, policy)
        self._chunk_size = int(chunk_size)
        self._stats = CacheStats()
        #: The dict-based oracle; ``None`` under the array engine.
        self.cache: SetAssociativeCache | None = None
        self._array: ArrayLRUEngine | ShardedLRUSimulator | None = None
        self.shards = self.jobs = 1
        if shards > 1:
            # Sharded replay rides on the array engine's set
            # independence; the oracle path cannot be partitioned.
            if policy != "lru":
                raise CacheEngineError(
                    f"sharded simulation requires the LRU policy, "
                    f"got policy={policy!r}"
                )
            if self.engine != "array":
                raise CacheEngineError(
                    "sharded simulation (shards > 1) requires the array "
                    "engine; drop engine='reference' or use shards=1"
                )
            if track_residency:
                raise CacheEngineError(
                    "residency tracking requires one engine (sharded "
                    "replay numbers steps per shard); use shards=1"
                )
            self.jobs = (
                jobs if jobs != "auto"
                else max(1, min(shards, effective_cpus()))
            )
            self._array = ShardedLRUSimulator(
                geometry, shards, jobs=self.jobs, chunk_size=chunk_size
            )
            self.shards = self._array.num_shards
        elif self.engine == "array":
            self._array = ArrayLRUEngine(geometry, chunk_size=chunk_size)
        else:
            self.cache = SetAssociativeCache(
                geometry, stats=self._stats, policy=policy, seed=seed
            )
        self.track_residency = track_residency

    @property
    def stats(self) -> CacheStats:
        """Accumulated per-label statistics."""
        return self._stats

    def average_resident_lines(self, label: str) -> float:
        """Time-averaged cache lines held by ``label`` during the run.

        Time is measured in cache accesses (each access is one tick):
        the residency integral is the label's ``residency`` counter plus
        its still-resident lines (misses − evictions) times the touches
        so far.  Requires ``track_residency=True``.
        """
        if not self.track_residency:
            raise RuntimeError(
                "construct CacheSimulator(track_residency=True) to use "
                "residency accounting"
            )
        steps = self._stats.total.accesses
        counters = self._stats.by_label.get(label)
        if steps == 0 or counters is None:
            return 0.0
        resident = counters.misses - counters.evictions
        return (counters.residency + resident * steps) / steps

    # -- introspection ---------------------------------------------------
    def resident_lines(self) -> int:
        """Number of lines currently resident in the cache."""
        if self._array is not None:
            return self._array.resident_lines()
        return self.cache.resident_lines()

    def resident_lines_for(self, label: str) -> int:
        """Number of resident lines owned by ``label``."""
        if self._array is not None:
            return self._array.resident_lines_for(label)
        return self.cache.resident_lines_for(label)

    # -- trace replay ----------------------------------------------------
    def run(self, trace) -> CacheStats:
        """Simulate a trace; returns the accumulated stats object.

        Accepts either a :class:`ReferenceTrace`, cut here into
        ``chunk_size``-reference chunks, or an *iterable of chunks*
        (anything yielding ``ReferenceTrace`` pieces, e.g.
        :func:`~repro.trace.reference.iter_chunks`), routed through
        :meth:`run_stream`.  Every chunk goes through
        :meth:`run_chunk`, so the result — counters, including the
        residency ones, and final cache state — does not depend on the
        chunking.
        """
        if not isinstance(trace, ReferenceTrace):
            return self.run_stream(trace)
        for chunk in iter_chunks(trace, self._chunk_size):
            self.run_chunk(chunk)
        return self._stats

    def run_stream(self, chunks) -> CacheStats:
        """Simulate an iterable of trace chunks inside :meth:`stream_scope`.

        Peak memory is O(chunk), not O(trace): each chunk is expanded,
        replayed against the persistent warm engine state, and dropped.
        """
        with self.stream_scope():
            for chunk in chunks:
                self.run_chunk(chunk)
        return self._stats

    def run_chunk(self, chunk: ReferenceTrace) -> CacheStats:
        """Simulate one chunk against the warm cache state.

        The push-mode streaming entry: use it as the ``sink=`` of a
        streaming :class:`~repro.trace.recorder.TraceRecorder`, ideally
        inside :meth:`stream_scope`.
        """
        for name in chunk.labels:
            self._stats.label(name)
        engine = self._array
        if isinstance(engine, ShardedLRUSimulator):
            # The sharded simulator owns expansion (worker-side on the
            # pooled path), so the parent never materialises the
            # expanded chunk when worker processes are in play.
            engine.replay_trace(chunk, self._stats)
            return self._stats
        line_ids, writes, label_ids = _expand_lines(
            chunk, self.geometry.line_size
        )
        if engine is None:
            return self._run_reference(chunk, line_ids, writes, label_ids)
        engine.replay(line_ids, writes, label_ids, chunk.labels, self._stats)
        return self._stats

    @contextmanager
    def stream_scope(self):
        """Context for a run of :meth:`run_chunk` calls.

        With an explicit ``shards=K`` the sharded engine reuses one
        shared-memory ring across the scope's chunks instead of
        allocating a block per chunk; otherwise this is a no-op.
        """
        ctx = (
            self._array.stream_scope()
            if isinstance(self._array, ShardedLRUSimulator)
            else nullcontext()
        )
        with ctx:
            yield self

    def _run_reference(
        self,
        trace: ReferenceTrace,
        line_ids: np.ndarray,
        writes: np.ndarray,
        label_ids: np.ndarray,
    ) -> CacheStats:
        """The oracle's sequential walk, for every replacement policy."""
        access = self.cache.access_line
        labels = trace.labels
        for line_id, is_write, lid in zip(
            line_ids.tolist(), writes.tolist(), label_ids.tolist()
        ):
            access(line_id, is_write, labels[lid])
        return self._stats

    def flush(self) -> int:
        """Drain the cache, charging writebacks for dirty lines."""
        if self._array is not None:
            return self._array.flush(self._stats)
        return self.cache.flush()


def simulate_trace(
    trace,
    geometry: CacheGeometry,
    flush_at_end: bool = False,
    policy: str = "lru",
    engine: str = "auto",
    shards: int = 1,
    jobs: int | str = "auto",
) -> CacheStats:
    """One-shot convenience: simulate a trace on a cold cache.

    ``trace`` may be a :class:`ReferenceTrace` or a chunk iterator (see
    :meth:`CacheSimulator.run`); ``policy``/``engine``/``shards``/
    ``jobs`` configure the :class:`CacheSimulator`, and ``flush_at_end``
    drains it afterwards.  Replay is exact: every reference goes
    through the cache.
    """
    sim = CacheSimulator(
        geometry, policy=policy, engine=engine, shards=shards, jobs=jobs
    )
    sim.run(trace)
    if flush_at_end:
        sim.flush()
    return sim.stats
