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

A whole trace has one entry, :meth:`CacheSimulator.run`.  It takes a
:class:`~repro.trace.reference.PeriodicTrace` — one period repeated ``R``
times — or a :class:`~repro.trace.reference.ReferenceTrace`, which is a
period repeated once.  It cuts the period into
:data:`~repro.cachesim.engine.CHUNK_SIZE`-reference chunks
(:func:`~repro.trace.reference.iter_chunks`) and feeds every chunk to
:meth:`CacheSimulator.run_chunk` against the warm engine state.  A
streamed trace, never whole in memory, goes in chunk by chunk through
:meth:`CacheSimulator.run_chunk` itself.  Expansion is per-reference
elementwise, so the statistics do not depend on where the chunk
boundaries fall, and the replay's working memory is O(chunk).
``benchmarks/harness.py`` records the measured engine speedup per kernel
in ``BENCH_cachesim.json``.

On the array engine with ``R > 1``, :meth:`CacheSimulator.run` replays
the period, and after every pass compares the engine's recency state
(:meth:`~repro.cachesim.engine.ArrayLRUEngine.recency_state`)
with the one the pass started from.  Once they are equal, every later
pass repeats the last one: equal state plus equal input gives equal
output, so this is exact.  The ``m`` passes left add ``m`` times the
last pass's delta of each counter, and the clock and the ages move on
by ``m·L`` (``L`` the period's line touches), leaving exactly the state
a full replay leaves.  Residency needs no more than that: each later
pass's steps are ``L`` later, which adds ``L·(Δevictions − Δmisses)``
to its step sum, and that is zero, because equal states hold the same
number of lines of each label.  The oracle and sharded replay replay
every pass.

Residency, for the cache-DVF extension, is two more counters per label
that both engines keep where they count hits, misses and writebacks:
evictions, and Σ eviction steps − Σ insertion steps (steps number the
line touches 1, 2, ...).  :meth:`CacheSimulator.average_resident_lines`
closes the integral with the lines still resident.  Sharded replay
numbers steps per shard, so that method refuses a sharded simulator.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim import engine as engine_mod
from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import (
    ArrayLRUEngine,
    CacheEngineError,
    check_engine,
)
from repro.cachesim.expand import _expand_lines
from repro.cachesim.pool import effective_cpus
from repro.cachesim.sharding import ShardedLRUSimulator
from repro.cachesim.stats import CacheStats
from repro.trace.reference import PeriodicTrace, ReferenceTrace, iter_chunks

# _expand_lines lives in repro.cachesim.expand (the sharded workers need
# it without importing this module); run_chunk looks it up as this
# module's global.


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
    engine:
        ``"auto"`` (default), ``"array"`` or ``"reference"`` — see the
        module docstring.  ``"auto"`` picks the array engine for LRU
        and the oracle for every other policy; both engines produce
        bit-identical statistics for LRU.
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
        engine: str = "auto",
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
        self.geometry = geometry
        self.policy = policy
        self.engine = check_engine(engine, policy)
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
            self.jobs = (
                jobs if jobs != "auto"
                else max(1, min(shards, effective_cpus()))
            )
            self._array = ShardedLRUSimulator(geometry, shards, jobs=self.jobs)
            self.shards = self._array.num_shards
        elif self.engine == "array":
            self._array = ArrayLRUEngine(geometry)
        else:
            self.cache = SetAssociativeCache(
                geometry, stats=self._stats, policy=policy, seed=seed
            )

    @property
    def stats(self) -> CacheStats:
        """Accumulated per-label statistics."""
        return self._stats

    def average_resident_lines(self, label: str) -> float:
        """Time-averaged cache lines held by ``label`` during the run.

        Time is measured in cache accesses (each access is one tick):
        the residency integral is the label's ``residency`` counter plus
        its still-resident lines (misses − evictions) times the touches
        so far.  Raises :class:`CacheEngineError` with more than one
        shard, whose engines number steps each by its own clock.
        """
        if self.shards > 1:
            raise CacheEngineError(
                "residency needs one engine (sharded replay numbers "
                "steps per shard); use shards=1"
            )
        steps = self._stats.total.accesses
        counters = self._stats.by_label.get(label)
        if steps == 0 or counters is None:
            return 0.0
        resident = counters.misses - counters.evictions
        return (counters.residency + resident * steps) / steps

    # -- trace replay ----------------------------------------------------
    def run(
        self,
        trace: ReferenceTrace | PeriodicTrace,
        chunk_refs: int | None = None,
    ) -> CacheStats:
        """Simulate a whole trace; returns the accumulated stats object.

        A :class:`ReferenceTrace` counts as a period repeated once.  The
        period is cut into ``chunk_refs``-reference chunks (default
        ``CHUNK_SIZE``) for :meth:`run_chunk`.  On the array engine,
        passes stop once the recency state repeats and the rest are
        added from the last pass's deltas (see the module docstring);
        the oracle and sharded replay replay every pass.  The result —
        counters, including the residency ones, and final cache state —
        depends neither on which nor on the chunking.
        """
        if isinstance(trace, ReferenceTrace):
            trace = PeriodicTrace(trace)
        elif not isinstance(trace, PeriodicTrace):
            raise TypeError(
                f"run takes a ReferenceTrace or a PeriodicTrace, got "
                f"{type(trace).__name__}; feed chunks to run_chunk"
            )
        chunks = list(iter_chunks(
            trace.period,
            engine_mod.CHUNK_SIZE if chunk_refs is None else chunk_refs,
        ))
        engine = self._array
        if not isinstance(engine, ArrayLRUEngine):
            for _ in range(trace.repeats):
                for chunk in chunks:
                    self.run_chunk(chunk)
            return self._stats
        state = engine.recency_state() if trace.repeats > 1 else None
        for left in range(trace.repeats - 1, -1, -1):
            before, since = self._counters(), engine.clock
            for chunk in chunks:
                self.run_chunk(chunk)
            if not left:
                break
            previous, state = state, engine.recency_state()
            if all(map(np.array_equal, previous, state)):
                self._repeat_last_pass(left, before)
                engine.advance(left * (engine.clock - since), since)
                break
        return self._stats

    def _counters(self) -> dict[str, tuple[int, ...]]:
        """Every label's five counters, for a pass's deltas."""
        return {
            name: (s.hits, s.misses, s.writebacks, s.evictions, s.residency)
            for name, s in self._stats.by_label.items()
        }

    def _repeat_last_pass(
        self, passes: int, before: dict[str, tuple[int, ...]]
    ) -> None:
        """Add ``passes`` more copies of the pass that began at ``before``."""
        for name, now in self._counters().items():
            old = before.get(name, (0,) * 5)
            s = self._stats.by_label[name]
            s.hits += passes * (now[0] - old[0])
            s.misses += passes * (now[1] - old[1])
            s.writebacks += passes * (now[2] - old[2])
            s.evictions += passes * (now[3] - old[3])
            s.residency += passes * (now[4] - old[4])

    def run_chunk(self, chunk: ReferenceTrace) -> CacheStats:
        """Simulate one chunk against the warm cache state.

        The entry for a streamed trace: use it as the ``sink=`` of a
        streaming :class:`~repro.trace.recorder.TraceRecorder`.
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


def simulate_trace(
    trace: ReferenceTrace | PeriodicTrace,
    geometry: CacheGeometry,
    policy: str = "lru",
    engine: str = "auto",
    shards: int = 1,
    jobs: int | str = "auto",
) -> CacheStats:
    """One-shot convenience: simulate a trace on a cold cache.

    ``trace`` is a :class:`ReferenceTrace` or a :class:`PeriodicTrace`
    (see :meth:`CacheSimulator.run`); ``policy``/``engine``/``shards``/
    ``jobs`` configure the :class:`CacheSimulator`.  Replay is exact:
    every reference goes through the cache.
    """
    sim = CacheSimulator(
        geometry, policy=policy, engine=engine, shards=shards, jobs=jobs
    )
    return sim.run(trace)
