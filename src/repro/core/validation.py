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
from repro.cachesim.engine import CacheEngineError
from repro.cachesim.simulator import CacheSimulator, simulate_trace
from repro.diagnostics import DiagnosticSink, check_mode
from repro.kernels.base import Kernel, Workload
from repro.trace.reference import iter_chunks


@dataclass(frozen=True)
class StructureValidation:
    """Model vs simulator for one data structure."""

    structure: str
    simulated: float
    estimated: float
    #: Confidence half-width of ``simulated`` when the simulation side
    #: ran in estimator mode; 0 for an exact replay.
    simulated_halfwidth: float = 0.0

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
    chunk_refs: int | None = None,
    sim_mode: str = "exact",
    estimate_options: dict | None = None,
):
    """Run the simulation (ground-truth) side of a validation.

    Returns :class:`~repro.cachesim.stats.CacheStats` in exact mode or
    an :class:`~repro.cachesim.estimate.EstimateResult` in estimator
    mode; both answer ``.misses(name)``.  ``chunk_refs`` streams the
    trace — without a ``trace_cache`` the kernel records straight into
    the consumer and the monolithic trace is never materialised.
    """
    if sim_mode not in ("exact", "estimate"):
        raise ValueError(
            f"sim_mode must be 'exact' or 'estimate', got {sim_mode!r}"
        )
    if sim_mode == "exact" and estimate_options is not None:
        raise ValueError(
            "estimate_options only applies to sim_mode='estimate'"
        )
    if chunk_refs is not None and trace_cache is None:
        # True streaming: the recorder pushes chunks straight into the
        # consumer; the monolithic trace is never materialised.
        if sim_mode == "estimate":
            if engine == "reference":
                raise CacheEngineError(
                    "estimator mode requires the array engine; drop "
                    "engine='reference' or use sim_mode='exact'"
                )
            from repro.cachesim.estimate import TraceEstimator

            estimator = TraceEstimator(geometry, **(estimate_options or {}))
            kernel.trace_stream(workload, chunk_refs, estimator.consume)
            return estimator.finish()
        sim = CacheSimulator(
            geometry, engine=engine, shards=shards, jobs=jobs
        )
        with sim.stream_scope():
            kernel.trace_stream(workload, chunk_refs, sim.run_chunk)
        return sim.stats
    trace = kernel.trace(workload, cache=trace_cache)
    source = (
        iter_chunks(trace, chunk_refs) if chunk_refs is not None else trace
    )
    return simulate_trace(
        source,
        geometry,
        engine=engine,
        shards=shards,
        jobs=jobs,
        mode=sim_mode,
        estimate_options=estimate_options,
    )


def validate_kernel(
    kernel: Kernel,
    workload: Workload,
    geometry: CacheGeometry,
    mode: str = "strict",
    sink: DiagnosticSink | None = None,
    engine: str = "auto",
    jobs: int | str = "auto",
    shards: int = 1,
    trace_cache=None,
    chunk_refs: int | None = None,
    sim_mode: str = "exact",
    estimate_options: dict | None = None,
) -> ValidationResult:
    """Run both evaluation paths and compare per data structure.

    ``mode`` governs the *model* path only: in ``lenient`` mode
    estimator failures degrade to the worst-case bound (recorded in
    ``sink``) so a validation sweep completes.  The simulation path is
    ground truth and always raises on failure.  ``engine`` selects the
    cache-simulation engine (``"auto"``/``"array"``/``"reference"``);
    both produce bit-identical statistics for LRU.  ``shards``/``jobs``
    control set-sharded (parallel) simulation — the default is one
    shard, in this process — and ``trace_cache`` — a
    :class:`~repro.trace.cache.TraceCache` or cache-directory path —
    reuses persisted traces across calls; all three preserve
    bit-identical results.  The reported ``simulation_seconds`` covers
    trace acquisition (cached or collected) plus simulation, so a warm
    trace cache shows up in the measured cost ratio.

    ``chunk_refs`` streams the trace in fixed-size chunks: with no
    ``trace_cache`` the kernel records straight into the simulator
    (peak memory O(chunk), the full trace never exists); with a cache
    the persisted trace is re-chunked on the way in.  Both are
    bit-identical to the monolithic path.  ``sim_mode="estimate"``
    replaces exact replay with the cluster-sampling estimator
    (:mod:`repro.cachesim.estimate`): ``simulated`` becomes an estimate
    and each row carries its ``simulated_halfwidth``;
    ``estimate_options`` passes ``sample_fraction``/``groups``/
    ``confidence``/``seed`` through.
    """
    check_mode(mode)
    if sim_mode not in ("exact", "estimate"):
        raise ValueError(
            f"sim_mode must be 'exact' or 'estimate', got {sim_mode!r}"
        )
    if sim_mode == "exact" and estimate_options is not None:
        raise ValueError("estimate_options only applies to sim_mode='estimate'")
    start = time.perf_counter()
    estimated = kernel.estimate_nha(workload, geometry, mode=mode, sink=sink)
    model_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stats = ground_truth_stats(
        kernel,
        workload,
        geometry,
        engine=engine,
        shards=shards,
        jobs=jobs,
        trace_cache=trace_cache,
        chunk_refs=chunk_refs,
        sim_mode=sim_mode,
        estimate_options=estimate_options,
    )
    simulation_seconds = time.perf_counter() - start

    rows = tuple(
        StructureValidation(
            structure=name,
            simulated=float(stats.misses(name)),
            estimated=float(estimate),
            simulated_halfwidth=(
                float(stats.misses_halfwidth(name))
                if sim_mode == "estimate"
                else 0.0
            ),
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
