"""DVF for the cache hierarchy (extension).

The paper limits its study to main memory but states that "the
definition of DVF is also applicable to other hardware components
(e.g., cache hierarchy...)" (§I).  This module applies Eq. 1 to the
last-level cache:

* ``S_d`` becomes the structure's *time-averaged resident footprint in
  the cache* — data is only exposed to SRAM faults while it is cached;
* ``N_ha`` becomes the number of *cache accesses* (hits + misses) to
  the structure — each access is an opportunity for a latent SRAM error
  to propagate into the computation;
* ``FIT`` is the SRAM failure rate (typically far below DRAM's for
  ECC-protected caches, and above it for unprotected tag/data arrays).

The residency measurement comes from
:class:`~repro.cachesim.simulator.CacheSimulator` with
``track_residency=True`` on one engine: each label's eviction count and
step sums (:class:`~repro.cachesim.stats.LabelStats`) give its exact
residency integral.  Unlike the main-memory DVF there is no analytical
shortcut here — residency depends on the full interleaving — so this
path is simulation-based by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import CacheSimulator
from repro.core.dvf import n_error
from repro.core.runtime import RooflineRuntime
from repro.kernels.base import Kernel, Workload

#: Default SRAM FIT rate per Mbit (unprotected 6T SRAM cell arrays sit
#: in the 10-1000 FIT/Mbit range in the literature; caches with SECDED
#: are orders of magnitude lower).
DEFAULT_SRAM_FIT = 100.0


@dataclass(frozen=True)
class CacheStructureDVF:
    """Cache-DVF result for one data structure."""

    name: str
    avg_resident_bytes: float
    cache_accesses: int
    n_error: float
    dvf: float


@dataclass(frozen=True)
class CacheDVFReport:
    """Cache-vulnerability report of one kernel run."""

    application: str
    cache: str
    fit: float
    time_seconds: float
    structures: tuple[CacheStructureDVF, ...]

    @property
    def dvf_application(self) -> float:
        """Sum over structures (Eq. 2 applied to the cache component)."""
        return sum(s.dvf for s in self.structures)

    def structure(self, name: str) -> CacheStructureDVF:
        for s in self.structures:
            if s.name == name:
                return s
        raise KeyError(f"no structure {name!r} in cache-DVF report")

    def ranked(self) -> list[CacheStructureDVF]:
        return sorted(self.structures, key=lambda s: s.dvf, reverse=True)


def analyze_cache_dvf(
    kernel: Kernel,
    workload: Workload,
    geometry: CacheGeometry,
    fit: float = DEFAULT_SRAM_FIT,
    time_seconds: float | None = None,
) -> CacheDVFReport:
    """Run the instrumented kernel and compute per-structure cache DVF.

    ``time_seconds`` defaults to the roofline estimate from the kernel's
    resource counts (consistent with the main-memory analyzer).
    """
    if time_seconds is None:
        resources = kernel.resource_counts(workload)
        time_seconds = RooflineRuntime(
            resources.flops, resources.bytes_moved
        ).seconds()
    simulator = CacheSimulator(geometry, track_residency=True)
    trace = kernel.trace(workload)
    simulator.run(trace)
    rows = []
    for name in kernel.data_structures(workload):
        resident_bytes = (
            simulator.average_resident_lines(name) * geometry.line_size
        )
        label = simulator.stats.by_label.get(name)
        accesses = label.accesses if label else 0
        errors = n_error(fit, time_seconds, resident_bytes)
        rows.append(
            CacheStructureDVF(
                name=name,
                avg_resident_bytes=resident_bytes,
                cache_accesses=accesses,
                n_error=errors,
                dvf=errors * accesses,
            )
        )
    return CacheDVFReport(
        application=kernel.name,
        cache=geometry.name or "cache",
        fit=fit,
        time_seconds=time_seconds,
        structures=tuple(rows),
    )
