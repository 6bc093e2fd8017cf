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
from repro.cachesim.engine import DEFAULT_CHUNK_SIZE, CacheEngineError
from repro.cachesim.estimate import EstimateResult, TraceEstimator
from repro.cachesim.simulator import CacheSimulator
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

    The one place the replay options are declared; :func:`validate_kernel`,
    :func:`~repro.experiments.fig4_verification.run_fig4` and
    :meth:`~repro.core.analyzer.DVFAnalyzer.analyze_simulated` pass
    their keyword arguments through.  ``sim_mode`` picks the consumer:
    ``"exact"`` replays every chunk through a
    :class:`~repro.cachesim.simulator.CacheSimulator` built with
    ``engine``/``shards``/``jobs`` and returns its
    :class:`~repro.cachesim.stats.CacheStats`; ``"estimate"`` feeds the
    cluster-sampling :class:`~repro.cachesim.estimate.TraceEstimator`
    (``estimate_options`` passes ``sample_fraction``/``groups``/
    ``confidence``/``seed`` through) and returns an
    :class:`~repro.cachesim.estimate.EstimateResult`.  Both answer
    ``.misses(name)``.

    ``trace_cache`` — a :class:`~repro.trace.cache.TraceCache` or
    cache-directory path — reuses persisted traces.  ``chunk_refs``
    sets the chunk size; without a ``trace_cache`` it also makes the
    kernel record straight into the consumer, so the whole trace never
    exists (O(chunk) peak memory).  Every chunking, engine and shard
    count gives bit-identical results.
    """
    if sim_mode == "exact":
        if estimate_options is not None:
            raise ValueError(
                "estimate_options only applies to sim_mode='estimate'"
            )
        sim = CacheSimulator(geometry, engine=engine, shards=shards, jobs=jobs)
        consume, finish = sim.run_chunk, lambda: sim.stats
    elif sim_mode == "estimate":
        if engine == "reference" or shards != 1:
            raise CacheEngineError(
                "the estimator replays its sampled sets on one array "
                "engine; engine='reference' and shards > 1 apply to "
                "sim_mode='exact' only"
            )
        estimator = TraceEstimator(geometry, **(estimate_options or {}))
        consume, finish = estimator.consume, estimator.finish
    else:
        raise ValueError(
            f"sim_mode must be 'exact' or 'estimate', got {sim_mode!r}"
        )
    if chunk_refs is not None and trace_cache is None:
        kernel.trace_stream(workload, chunk_refs, consume)
    else:
        trace = kernel.trace(workload, cache=trace_cache)
        size = DEFAULT_CHUNK_SIZE if chunk_refs is None else chunk_refs
        for chunk in iter_chunks(trace, size):
            consume(chunk)
    return finish()


def validate_kernel(
    kernel: Kernel,
    workload: Workload,
    geometry: CacheGeometry,
    mode: str = "strict",
    sink: DiagnosticSink | None = None,
    **replay,
) -> ValidationResult:
    """Run both evaluation paths and compare per data structure.

    ``mode`` governs the *model* path only: in ``lenient`` mode
    estimator failures degrade to the worst-case bound (recorded in
    ``sink``) so a validation sweep completes.  The simulation path is
    ground truth and always raises on failure; ``replay`` keyword
    arguments go to :func:`ground_truth_stats`.  Under
    ``sim_mode="estimate"`` ``simulated`` is an estimate and each row
    carries its ``simulated_halfwidth``.  The reported
    ``simulation_seconds`` covers trace acquisition (cached or
    collected) plus simulation, so a warm trace cache shows up in the
    measured cost ratio.
    """
    check_mode(mode)
    start = time.perf_counter()
    estimated = kernel.estimate_nha(workload, geometry, mode=mode, sink=sink)
    model_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stats = ground_truth_stats(kernel, workload, geometry, **replay)
    simulation_seconds = time.perf_counter() - start

    rows = tuple(
        StructureValidation(
            structure=name,
            simulated=float(stats.misses(name)),
            estimated=float(estimate),
            simulated_halfwidth=(
                float(stats.misses_halfwidth(name))
                if isinstance(stats, EstimateResult)
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
