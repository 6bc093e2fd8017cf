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

Only the two inputs are measured here; :func:`~repro.core.dvf.build_report`
prices them, so the result is an ordinary
:class:`~repro.core.dvf.DVFReport` (its ``machine`` is the cache's name).

The residency measurement comes from an unsharded
:class:`~repro.cachesim.simulator.CacheSimulator`, whose engines keep
each label's eviction count and step sums on every replay
(:class:`~repro.cachesim.stats.LabelStats`): they give its exact
residency integral.  Unlike the main-memory DVF there is no analytical
shortcut here — residency depends on the full interleaving — so this
path is simulation-based by construction.
"""

from __future__ import annotations

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import CacheSimulator
from repro.core.analyzer import DVFAnalyzer
from repro.core.dvf import DVFReport, build_report
from repro.core.machine import MachineModel
from repro.kernels.base import Kernel, Workload

#: Default SRAM FIT rate per Mbit (unprotected 6T SRAM cell arrays sit
#: in the 10-1000 FIT/Mbit range in the literature; caches with SECDED
#: are orders of magnitude lower).
DEFAULT_SRAM_FIT = 100.0


def analyze_cache_dvf(
    kernel: Kernel,
    workload: Workload,
    geometry: CacheGeometry,
    fit: float = DEFAULT_SRAM_FIT,
    time_seconds: float | None = None,
) -> DVFReport:
    """Run the instrumented kernel and compute per-structure cache DVF.

    The recorded trace (:meth:`~repro.kernels.base.Kernel.record`) is
    replayed as recorded, so a periodic kernel's period is never tiled.
    Each row's ``size_bytes`` is the structure's time-averaged resident
    bytes and its ``nha`` its cache accesses.  ``time_seconds``
    defaults to the main-memory analyzer's ``T`` on a default
    :class:`MachineModel` with this cache.
    """
    if time_seconds is None:
        time_seconds = DVFAnalyzer(
            MachineModel.from_geometry(geometry)
        ).runtime_provider(kernel, workload)
    simulator = CacheSimulator(geometry)
    simulator.run(kernel.record(workload))
    sizes: dict[str, float] = {}
    nha: dict[str, float] = {}
    for name in kernel.data_structures(workload):
        sizes[name] = simulator.average_resident_lines(name) * geometry.line_size
        label = simulator.stats.by_label.get(name)
        nha[name] = float(label.accesses) if label else 0.0
    return build_report(
        kernel.name, geometry.name or "cache", fit, time_seconds, sizes, nha
    )
