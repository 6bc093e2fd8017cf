"""Configurable set-associative LRU cache simulator.

This subpackage is the *validation substrate* for the DVF analytical
models: the paper drives a Pin-collected memory-reference trace through a
configurable last-level-cache simulator and compares the simulator's
per-data-structure main-memory access counts against the CGPMAC model
estimates (Figure 4).  Here the trace comes from :mod:`repro.trace`
instead of Pin, and this package provides the simulator.

Public API
----------
:class:`CacheGeometry`
    Shape of a cache (associativity, sets, line size); paper Table III.
:class:`SetAssociativeCache`
    An LRU, write-back/write-allocate set-associative cache.
:class:`CacheSimulator`
    Drives a reference trace through a cache, accumulating per-label stats.
    Its engine is fixed at construction from the replacement policy: the
    batched numpy :class:`ArrayLRUEngine` for LRU, the dict-based oracle
    for FIFO/random or ``engine="reference"``.
:class:`ArrayLRUEngine`
    The batched, array-backed LRU engine (bit-identical to the oracle).
:class:`CacheStats` / :class:`LabelStats`
    Per-data-structure hit/miss/writeback accounting.
:data:`PAPER_CACHES`
    The named configurations of paper Table IV.
"""

from repro.cachesim.configs import (
    PAPER_CACHES,
    PROFILING_CACHES,
    VERIFICATION_CACHES,
    CacheGeometry,
)
from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.engine import (
    ENGINES,
    ArrayLRUEngine,
    CacheEngineError,
    check_engine,
)
from repro.cachesim.estimate import (
    EstimateResult,
    LabelEstimate,
    TraceEstimator,
    estimate_trace,
)
from repro.cachesim.expand import expanded_size
from repro.cachesim.pool import (
    effective_cpus,
    pool_scope,
    shutdown_pool,
)
from repro.cachesim.sharding import ShardedLRUSimulator
from repro.cachesim.simulator import CacheSimulator, simulate_trace
from repro.cachesim.stats import CacheStats, LabelStats

__all__ = [
    "CacheGeometry",
    "SetAssociativeCache",
    "ArrayLRUEngine",
    "ShardedLRUSimulator",
    "CacheEngineError",
    "CacheSimulator",
    "CacheStats",
    "LabelStats",
    "check_engine",
    "simulate_trace",
    "estimate_trace",
    "EstimateResult",
    "LabelEstimate",
    "TraceEstimator",
    "expanded_size",
    "effective_cpus",
    "pool_scope",
    "shutdown_pool",
    "ENGINES",
    "PAPER_CACHES",
    "PROFILING_CACHES",
    "VERIFICATION_CACHES",
]
