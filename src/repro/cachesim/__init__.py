"""Configurable set-associative LRU cache simulator.

This subpackage is the *validation substrate* for the DVF analytical
models: the paper drives a Pin-collected memory-reference trace through a
configurable last-level-cache simulator and compares the simulator's
per-data-structure main-memory access counts against the CGPMAC model
estimates (Figure 4).  Here the trace comes from :mod:`repro.trace`
instead of Pin, and this package provides the simulator.  Every
reference is replayed exactly: the simulated counts are Figure 4's
ground truth, not an estimate.

Public API
----------
:class:`~repro.cachesim.configs.CacheGeometry`
    Shape of a cache (associativity, sets, line size); paper Table III.
:class:`~repro.cachesim.cache.SetAssociativeCache`
    An LRU, write-back/write-allocate set-associative cache.
:class:`~repro.cachesim.simulator.CacheSimulator`
    Drives a reference trace through a cache, accumulating per-label stats.
    Its engine is fixed at construction from the replacement policy: the
    batched numpy ``ArrayLRUEngine`` for LRU, the dict-based oracle
    for FIFO/random or ``engine="reference"``.
:class:`~repro.cachesim.engine.ArrayLRUEngine`
    The batched, array-backed LRU engine (bit-identical to the oracle).
:class:`~repro.cachesim.stats.CacheStats` / ``LabelStats``
    Per-data-structure hit/miss/writeback accounting, plus the eviction
    and step-sum counters behind residency tracking.
:data:`~repro.cachesim.configs.PAPER_CACHES`
    The named configurations of paper Table IV.
"""
