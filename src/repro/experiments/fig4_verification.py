"""Figure 4: verification of the main-memory access models (§IV-A).

For each of the six kernels at Table V input sizes, on the small and
large verification caches of Table IV, compare the CGPMAC analytical
estimate of per-data-structure main-memory accesses against the LRU
cache simulator driven by the instrumented kernel's trace.  The paper
reports estimation error within 15% in all cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import format_table
from repro.core.validation import validate_kernel
from repro.experiments.configs import FIG4_CACHES, KERNEL_ORDER, WORKLOADS
from repro.kernels.registry import KERNELS
from repro.trace.cache import as_trace_cache


@dataclass(frozen=True)
class Fig4Row:
    """One bar pair of Figure 4: a data structure on one cache."""

    kernel: str
    cache: str
    structure: str
    simulated: float
    estimated: float
    relative_error: float
    model_seconds: float
    simulation_seconds: float
    #: Confidence half-width of ``simulated`` under ``sim_mode=
    #: "estimate"``; 0 for an exact replay.
    simulated_halfwidth: float = 0.0


def run_fig4(
    tier: str = "verification",
    kernels: tuple[str, ...] = KERNEL_ORDER,
    caches: dict | None = None,
    trace_cache=None,
    **replay,
) -> list[Fig4Row]:
    """Regenerate the Figure 4 data series.

    ``trace_cache`` (a :class:`~repro.trace.cache.TraceCache` or cache
    directory path) collects each kernel's trace once per workload
    instead of once per cache cell — the sweep's dominant cost — without
    changing any reported number.  The other ``replay`` keyword
    arguments go to :func:`~repro.core.validation.ground_truth_stats`:
    ``chunk_refs`` streams each trace through the simulator in O(chunk)
    memory (bit-identical), and ``sim_mode="estimate"`` swaps exact
    replay for the cluster-sampling estimator, populating
    ``simulated_halfwidth``.
    """
    caches = caches if caches is not None else FIG4_CACHES
    # One TraceCache instance for the whole sweep, so the per-cell
    # lookups share hit/miss counters (and CI can assert on them).
    trace_cache = as_trace_cache(trace_cache)
    workloads = WORKLOADS[tier]
    rows: list[Fig4Row] = []
    for cache_name, geometry in caches.items():
        for kernel_name in kernels:
            kernel = KERNELS[kernel_name]
            result = validate_kernel(
                kernel,
                workloads[kernel_name],
                geometry,
                trace_cache=trace_cache,
                **replay,
            )
            for s in result.structures:
                rows.append(
                    Fig4Row(
                        kernel=kernel_name,
                        cache=cache_name,
                        structure=s.structure,
                        simulated=s.simulated,
                        estimated=s.estimated,
                        relative_error=s.relative_error,
                        model_seconds=result.model_seconds,
                        simulation_seconds=result.simulation_seconds,
                        simulated_halfwidth=s.simulated_halfwidth,
                    )
                )
    return rows


def render_fig4(rows: list[Fig4Row]) -> str:
    """Figure 4 as a text table."""
    table = format_table(
        ["kernel", "cache", "structure", "simulated", "model", "error"],
        [
            (
                r.kernel,
                r.cache,
                r.structure,
                (
                    f"{r.simulated:.0f}±{r.simulated_halfwidth:.0f}"
                    if r.simulated_halfwidth
                    else f"{r.simulated:.0f}"
                ),
                f"{r.estimated:.0f}",
                f"{r.relative_error * 100:.1f}%",
            )
            for r in rows
        ],
    )
    worst = max(rows, key=lambda r: r.relative_error)
    model_cost = sum(r.model_seconds for r in rows)
    sim_cost = sum(r.simulation_seconds for r in rows)
    return (
        "Figure 4 — model verification (N_ha: model vs cache simulator)\n"
        + table
        + f"\nworst error: {worst.relative_error * 100:.1f}% "
        f"({worst.kernel}.{worst.structure} on {worst.cache})"
        + f"\nevaluation cost: model {model_cost:.3f}s vs simulation "
        f"{sim_cost:.1f}s"
    )
