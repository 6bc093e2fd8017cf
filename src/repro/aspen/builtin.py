"""The six paper kernels as ready-made Aspen models (§III-D examples).

Each entry pairs a kernel with the DSL source describing it at a given
workload tier, generated from the same single source of truth the
analytical models use (``Kernel.aspen_source``), plus a library of
machine descriptions matching paper Table IV.

Example
-------
>>> from repro.aspen.builtin import builtin_source, MACHINE_LIBRARY
>>> from repro.aspen.compiler import compile_source
>>> compiled = compile_source(
...     builtin_source("VM", "test") + MACHINE_LIBRARY, machine="small"
... )
>>> sorted(compiled.nha_by_structure())
['A', 'B', 'C']
"""

from __future__ import annotations

from repro.cachesim.configs import PAPER_CACHES
from repro.core.machine import DEFAULT_BANDWIDTH, DEFAULT_FIT, DEFAULT_FLOPS
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import WORKLOAD_TIERS

#: Kernels whose builtin DSL form ``aspen`` evaluates, at every tier.
#: (PCG, CG's ``variant: pcg``, has one too; NB has none.)
DSL_KERNELS = ("VM", "CG", "MG", "FT", "MC")


def builtin_source(kernel: str, tier: str = "test") -> str:
    """Aspen source text for one paper kernel at one workload tier."""
    try:
        k = KERNELS[kernel.upper()]
    except KeyError:
        raise KeyError(
            f"unknown kernel {kernel!r}; available: {sorted(KERNELS)}"
        ) from None
    workload = WORKLOAD_TIERS[tier][k.name]
    return k.aspen_source(workload)


def _machine_block(name: str, geometry) -> str:
    return (
        f"machine {name} {{\n"
        f"  cache {{ associativity: {geometry.associativity}, "
        f"sets: {geometry.num_sets}, line_size: {geometry.line_size} }}\n"
        f"  memory {{ fit: {DEFAULT_FIT:g}, bandwidth: {DEFAULT_BANDWIDTH:g} }}\n"
        f"  core {{ flops: {DEFAULT_FLOPS:g} }}\n"
        f"}}\n"
    )


#: Every paper Table IV cache as an Aspen ``machine`` declaration.
MACHINE_LIBRARY = "\n".join(
    _machine_block(name.replace("-", "_"), geometry)
    for name, geometry in PAPER_CACHES.items()
    if name[0].isalpha()
) + "\n" + "\n".join(
    _machine_block(f"cache_{name.lower()}", geometry)
    for name, geometry in PAPER_CACHES.items()
    if not name[0].isalpha()
)
