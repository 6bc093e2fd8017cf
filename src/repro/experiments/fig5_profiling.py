"""Figure 5: DVF profiling of the six kernels (§IV-B).

Per-data-structure DVF for each kernel at Table VI input sizes, across
the four Table IV profiling caches (16KB/128KB/1MB/8MB).  Key paper
observations this data reproduces:

* different structures in one application differ in DVF (VM: A > B, C);
* CG's DVF is orders of magnitude above FT's (working set + time);
* MC's DVF is far above NB's;
* FT's DVF jumps when the cache can no longer hold the whole transform;
* streaming kernels are insensitive to cache capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import DVFAnalyzer
from repro.core.machine import DEFAULT_FIT, MachineModel
from repro.core.report import format_table
from repro.experiments.configs import FIG5_CACHES, KERNEL_ORDER, WORKLOADS
from repro.kernels.registry import KERNELS


@dataclass(frozen=True)
class Fig5Cell:
    """One bar of Figure 5: a structure's DVF on one cache."""

    kernel: str
    cache: str
    structure: str
    dvf: float
    nha: float
    size_bytes: float
    time_seconds: float


def run_fig5(
    tier: str = "profiling",
    kernels: tuple[str, ...] = KERNEL_ORDER,
    caches: dict | None = None,
    fit: float = DEFAULT_FIT,
) -> list[Fig5Cell]:
    """Regenerate the Figure 5 data series (analytical path only)."""
    caches = caches if caches is not None else FIG5_CACHES
    workloads = WORKLOADS[tier]
    cells: list[Fig5Cell] = []
    for cache_name, geometry in caches.items():
        analyzer = DVFAnalyzer(MachineModel.from_geometry(geometry, fit=fit))
        for kernel_name in kernels:
            kernel = KERNELS[kernel_name]
            report = analyzer.analyze(kernel, workloads[kernel_name])
            for s in report.structures:
                cells.append(
                    Fig5Cell(
                        kernel=kernel_name,
                        cache=cache_name,
                        structure=s.name,
                        dvf=s.dvf,
                        nha=s.nha,
                        size_bytes=s.size_bytes,
                        time_seconds=report.time_seconds,
                    )
                )
    return cells


def application_dvf(cells: list[Fig5Cell]) -> dict[tuple[str, str], float]:
    """``DVF_a`` per (kernel, cache) — the right-most bar of each panel."""
    totals: dict[tuple[str, str], float] = {}
    for cell in cells:
        key = (cell.kernel, cell.cache)
        totals[key] = totals.get(key, 0.0) + cell.dvf
    return totals


def render_fig5(cells: list[Fig5Cell]) -> str:
    """Figure 5 as one text table per kernel."""
    out: list[str] = ["Figure 5 — DVF profiling (per structure, per cache)"]
    kernels = sorted({c.kernel for c in cells}, key=KERNEL_ORDER.index)
    totals = application_dvf(cells)
    for kernel in kernels:
        subset = [c for c in cells if c.kernel == kernel]
        structures = list(dict.fromkeys(c.structure for c in subset))
        caches = list(dict.fromkeys(c.cache for c in subset))
        rows = []
        for cache in caches:
            by_structure = {
                c.structure: c.dvf for c in subset if c.cache == cache
            }
            rows.append(
                [cache]
                + [f"{by_structure[s]:.4e}" for s in structures]
                + [f"{totals[(kernel, cache)]:.4e}"]
            )
        out.append(f"\n({kernel})")
        out.append(
            format_table(["cache"] + structures + [f"{kernel} (DVF_a)"], rows)
        )
    return "\n".join(out)
