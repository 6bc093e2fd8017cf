"""The machine every DVF is priced against (paper Fig. 3, hardware input).

A :class:`MachineModel` bundles the hardware information of the paper's
workflow: the last-level cache geometry (for the CGPMAC ``N_ha``
estimate), the memory FIT rate (the ``N_error`` term) and a roofline
performance model, ``T = max(flops / flops_rate, bytes / bandwidth)``,
for the execution time.  Kernels
(:class:`~repro.core.analyzer.DVFAnalyzer`) and Aspen models
(:func:`~repro.aspen.compiler.compile_source`) are both evaluated
against it; an Aspen ``machine`` block evaluates to one
(:func:`repro.aspen.machine.from_decl`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.cachesim.configs import CacheGeometry
from repro.core.fit import NO_ECC

#: Default hardware parameters: unprotected memory (Table VII), one
#: DDR3-1600 channel and one scalar core.
DEFAULT_FIT = NO_ECC.fit        # failures / 1e9 h / Mbit
DEFAULT_BANDWIDTH = 12.8e9      # bytes/s
DEFAULT_FLOPS = 2.0e9           # flop/s


@dataclass(frozen=True, slots=True)
class MachineModel:
    """Cache geometry, memory FIT and roofline rates of one machine.

    Attributes
    ----------
    name:
        Machine name (the report's ``machine`` label).
    cache:
        Last-level cache geometry (paper Table IV entries).
    fit:
        Memory failure rate in FIT/Mbit (Table VII values); finite and
        ``>= 0``.
    bandwidth:
        Main-memory bandwidth, bytes/s (roofline); finite and ``> 0``.
    flops_rate:
        Peak floating-point rate, flop/s (roofline); finite and ``> 0``.
    """

    name: str
    cache: CacheGeometry
    fit: float = DEFAULT_FIT
    bandwidth: float = DEFAULT_BANDWIDTH
    flops_rate: float = DEFAULT_FLOPS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fit) and self.fit >= 0):
            raise ValueError(
                f"machine {self.name!r}: fit must be finite and >= 0, "
                f"got {self.fit}"
            )
        for label, rate in (
            ("bandwidth", self.bandwidth), ("flops_rate", self.flops_rate)
        ):
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError(
                    f"machine {self.name!r}: {label} must be finite and "
                    f"> 0, got {rate}"
                )

    def roofline_seconds(self, flops: float, bytes_moved: float) -> float:
        """Roofline execution time: ``max(flops/rate, bytes/bandwidth)``."""
        if not (
            math.isfinite(flops) and flops >= 0
            and math.isfinite(bytes_moved) and bytes_moved >= 0
        ):
            raise ValueError(
                f"flops and bytes_moved must be finite and >= 0, got "
                f"{flops} and {bytes_moved}"
            )
        return max(flops / self.flops_rate, bytes_moved / self.bandwidth)

    def with_fit(self, fit: float) -> "MachineModel":
        """A copy of this machine with a different memory FIT rate."""
        return replace(self, fit=fit)

    @classmethod
    def from_geometry(
        cls,
        cache: CacheGeometry,
        fit: float = DEFAULT_FIT,
        bandwidth: float = DEFAULT_BANDWIDTH,
        flops_rate: float = DEFAULT_FLOPS,
        name: str | None = None,
    ) -> "MachineModel":
        """A machine named after its cache (``"machine"`` if unnamed)."""
        return cls(
            name=name or cache.name or "machine",
            cache=cache,
            fit=fit,
            bandwidth=bandwidth,
            flops_rate=flops_rate,
        )
