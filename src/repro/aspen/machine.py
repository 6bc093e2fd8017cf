"""Machine-model semantics: cache geometry, memory FIT and roofline.

A machine declaration supplies three sections::

    machine node {
      cache  { associativity: 8, sets: 8192, line_size: 64 }
      memory { fit: 5000, bandwidth: 12.8e9 }
      core   { flops: 2.0e9 }
    }

``cache`` feeds the CGPMAC estimators, ``memory.fit`` the DVF N_error
term, and ``memory.bandwidth`` + ``core.flops`` the roofline
execution-time model (Aspen is, first of all, a performance-modeling
language — the paper's extension rides on that).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.aspen.ast import MachineDecl
from repro.aspen.errors import AspenSemanticError
from repro.aspen.expr import evaluate_int
from repro.cachesim.configs import CacheGeometry

#: Default hardware parameters (used when a section omits a property).
DEFAULT_FIT = 5000.0            # failures / 1e9 h / Mbit, no ECC (Table VII)
DEFAULT_BANDWIDTH = 12.8e9      # bytes/s — one DDR3-1600 channel
DEFAULT_FLOPS = 2.0e9           # flop/s  — one scalar core


@dataclass(frozen=True, slots=True)
class MachineModel:
    """Evaluated machine description.

    Attributes
    ----------
    name:
        Machine name.
    cache:
        Last-level cache geometry.
    fit:
        Memory failure rate in FIT/Mbit (Table VII values).
    bandwidth:
        Main-memory bandwidth, bytes/s (roofline).
    flops_rate:
        Peak floating-point rate, flop/s (roofline).
    """

    name: str
    cache: CacheGeometry
    fit: float = DEFAULT_FIT
    bandwidth: float = DEFAULT_BANDWIDTH
    flops_rate: float = DEFAULT_FLOPS

    def roofline_seconds(self, flops: float, bytes_moved: float) -> float:
        """Roofline execution time: ``max(flops/rate, bytes/bandwidth)``."""
        if flops < 0 or bytes_moved < 0:
            raise ValueError("flops and bytes_moved must be non-negative")
        return max(flops / self.flops_rate, bytes_moved / self.bandwidth)

    def with_fit(self, fit: float) -> "MachineModel":
        """A copy of this machine with a different memory FIT rate."""
        if fit < 0:
            raise ValueError(f"fit must be >= 0, got {fit}")
        return replace(self, fit=fit)

    @staticmethod
    def from_decl(decl: MachineDecl, overrides: dict[str, float] | None = None
                  ) -> "MachineModel":
        """Evaluate a parsed machine declaration.

        ``overrides`` replace same-named machine parameters before the
        section expressions are evaluated.
        """
        env: dict[str, float] = {}
        for param in decl.params:
            env[param.name] = param.value.evaluate(env)
        if overrides:
            unknown = set(overrides) - set(env)
            if unknown and decl.params:
                raise AspenSemanticError(
                    f"machine {decl.name!r} has no parameters {sorted(unknown)}"
                )
            env.update(overrides)
        cache_props = decl.sections.get("cache")
        if cache_props is None:
            raise AspenSemanticError(
                f"machine {decl.name!r} must declare a cache section"
            )
        for key in ("associativity", "sets", "line_size"):
            if key not in cache_props:
                raise AspenSemanticError(
                    f"machine {decl.name!r} cache section missing {key!r}"
                )
        cache = CacheGeometry(
            associativity=evaluate_int(
                cache_props["associativity"], env, "cache associativity"
            ),
            num_sets=evaluate_int(cache_props["sets"], env, "cache sets"),
            line_size=evaluate_int(cache_props["line_size"], env, "cache line size"),
            name=decl.name,
        )
        memory = decl.sections.get("memory", {})
        core = decl.sections.get("core", {})
        known_sections = {"cache", "memory", "core"}
        unknown_sections = set(decl.sections) - known_sections
        if unknown_sections:
            raise AspenSemanticError(
                f"machine {decl.name!r} has unknown sections "
                f"{sorted(unknown_sections)} (known: {sorted(known_sections)})"
            )
        fit = memory["fit"].evaluate(env) if "fit" in memory else DEFAULT_FIT
        bandwidth = (
            memory["bandwidth"].evaluate(env)
            if "bandwidth" in memory
            else DEFAULT_BANDWIDTH
        )
        flops_rate = core["flops"].evaluate(env) if "flops" in core else DEFAULT_FLOPS
        if fit < 0:
            raise AspenSemanticError(f"machine {decl.name!r}: fit must be >= 0")
        if bandwidth <= 0 or flops_rate <= 0:
            raise AspenSemanticError(
                f"machine {decl.name!r}: bandwidth and flops must be positive"
            )
        return MachineModel(
            name=decl.name,
            cache=cache,
            fit=fit,
            bandwidth=bandwidth,
            flops_rate=flops_rate,
        )

    @staticmethod
    def from_geometry(
        cache: CacheGeometry,
        fit: float = DEFAULT_FIT,
        bandwidth: float = DEFAULT_BANDWIDTH,
        flops_rate: float = DEFAULT_FLOPS,
        name: str | None = None,
    ) -> "MachineModel":
        """Build a machine directly from a cache geometry (no DSL)."""
        return MachineModel(
            name=name or cache.name or "machine",
            cache=cache,
            fit=fit,
            bandwidth=bandwidth,
            flops_rate=flops_rate,
        )
