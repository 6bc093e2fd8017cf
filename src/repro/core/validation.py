"""Model-vs-simulator validation harness (paper §IV-A, Figure 4).

For each kernel and cache configuration this compares the CGPMAC
analytical estimate of main-memory accesses against the number the LRU
cache simulator reports for the instrumented kernel's actual reference
trace, per data structure — and times both paths, quantifying the
paper's "evaluation cost at the time granularity of seconds" claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import CHUNK_SIZE
from repro.cachesim.simulator import CacheSimulator
from repro.cachesim.stats import CacheStats
from repro.diagnostics import DiagnosticSink
from repro.kernels.base import Kernel, Workload


@dataclass(frozen=True)
class StructureValidation:
    """Model vs simulator for one data structure."""

    structure: str
    simulated: float
    estimated: float

    @property
    def relative_error(self) -> float:
        """``|estimated - simulated| / simulated`` (0 when both are 0)."""
        if self.simulated == 0:
            return 0.0 if self.estimated == 0 else float("inf")
        return abs(self.estimated - self.simulated) / self.simulated


@dataclass(frozen=True)
class ValidationResult:
    """Full validation of one kernel on one cache configuration."""

    kernel: str
    workload: str
    cache: str
    structures: tuple[StructureValidation, ...]
    model_seconds: float
    simulation_seconds: float

    @property
    def max_relative_error(self) -> float:
        return max((s.relative_error for s in self.structures), default=0.0)

    @property
    def speedup(self) -> float:
        """How much faster the analytical model is than simulation."""
        if self.model_seconds == 0:
            return float("inf")
        return self.simulation_seconds / self.model_seconds

    def structure(self, name: str) -> StructureValidation:
        for s in self.structures:
            if s.structure == name:
                return s
        raise KeyError(f"no structure {name!r} in validation result")


def ground_truth_stats(
    kernel: Kernel,
    workload: Workload,
    geometry: CacheGeometry,
    engine: str = "auto",
    shards: int = 1,
    jobs: int | str = "auto",
    trace_cache=None,
    chunk_refs: int = CHUNK_SIZE,
) -> CacheStats:
    """Run the simulation (ground-truth) side of a validation: exact replay.

    The one place the replay options are declared; :func:`validate_kernel`,
    :func:`~repro.experiments.fig4_verification.run_fig4` and
    :meth:`~repro.core.analyzer.DVFAnalyzer.analyze_simulated` pass
    their keyword arguments through, and ``engine``/``shards``/``jobs``
    build the :class:`~repro.cachesim.simulator.CacheSimulator`.

    Without a ``trace_cache`` the kernel records straight into
    :meth:`~repro.cachesim.simulator.CacheSimulator.run_chunk` in
    ``chunk_refs``-reference chunks, so the whole trace never exists
    (O(chunk) peak memory).  A periodic kernel
    (:attr:`~repro.kernels.base.Kernel.periodic`) instead records its
    period into memory (O(period)) for
    :meth:`~repro.cachesim.simulator.CacheSimulator.run`, which stops
    replaying once the cache state repeats.  A ``trace_cache`` (a
    :class:`~repro.trace.cache.TraceCache` or directory path) supplies
    a persisted period and repeat count, replayed the same way in
    chunks of the same size.  Every chunking, engine and shard count
    gives bit-identical results.
    """
    sim = CacheSimulator(geometry, engine=engine, shards=shards, jobs=jobs)
    if trace_cache is None and not kernel.periodic:
        kernel.trace_stream(workload, chunk_refs, sim.run_chunk)
    else:
        sim.run(kernel.record(workload, cache=trace_cache), chunk_refs)
    return sim.stats


def validate_kernel(
    kernel: Kernel,
    workload: Workload,
    geometry: CacheGeometry,
    sink: DiagnosticSink | None = None,
    **replay,
) -> ValidationResult:
    """Run both evaluation paths and compare per data structure.

    ``sink`` governs the *model* path only: with one, estimator
    failures degrade to the worst-case bound (recorded in ``sink``) so
    a validation sweep completes; without one they raise.  The
    simulation path is ground truth and always raises on failure;
    ``replay`` keyword arguments go to :func:`ground_truth_stats`.  The
    reported ``simulation_seconds`` covers trace acquisition (cached or
    collected) plus simulation, so a warm trace cache shows up in the
    measured cost ratio.
    """
    start = time.perf_counter()
    estimated, _ = kernel.estimate_nha(workload, geometry, sink)
    model_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stats = ground_truth_stats(kernel, workload, geometry, **replay)
    simulation_seconds = time.perf_counter() - start

    rows = tuple(
        StructureValidation(
            structure=name,
            simulated=float(stats.misses(name)),
            estimated=float(estimate),
        )
        for name, estimate in estimated.items()
    )
    return ValidationResult(
        kernel=kernel.name,
        workload=workload.name,
        cache=geometry.name or "cache",
        structures=rows,
        model_seconds=model_seconds,
        simulation_seconds=simulation_seconds,
    )
