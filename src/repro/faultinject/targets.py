"""Injectable adapters for the paper kernels.

Each adapter runs a kernel's computation with an optional single bit
flip injected into a chosen data structure at a chosen *phase* of the
execution (0.0 = before the computation, 0.5 = halfway, ...), returning
the output the fault-free reference is compared against.

The numerics are the kernels' own: each adapter draws its inputs with
its kernel's ``inputs`` (CG: ``start``), and runs CG's
:meth:`~repro.kernels.conjugate_gradient.CGState.step`, FT's
:func:`~repro.kernels.fft.bit_reverse` / :func:`~repro.kernels.fft.fft_stage`
and MC's :func:`~repro.kernels.monte_carlo.search_grid`, untraced, so a
flip into MC's ``G`` sends the lookups to the rows the kernel's search
would.  What is left here is fault injection's part: where the
computation splits for the flip, and which arrays may be flipped.  VM
and MC split their loops at the phase as vectorised slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.faultinject.flips import random_flip
from repro.kernels.base import Workload
from repro.kernels.fft import bit_reverse, fft_stage
from repro.kernels.monte_carlo import search_grid
from repro.kernels.registry import KERNELS


@dataclass(frozen=True)
class InjectionTarget:
    """One injectable kernel.

    Attributes
    ----------
    kernel_name:
        Table II short name.
    structures:
        Injectable data-structure labels.
    run:
        ``run(workload, inject_into, phase, rng) -> output`` — with
        ``inject_into=None`` this is the fault-free reference run.
        Adapters let numerical exceptions propagate; the campaign
        classifies them as crashes.
    """

    kernel_name: str
    structures: tuple[str, ...]
    run: Callable[[Workload, str | None, float, np.random.Generator], np.ndarray]


# ----------------------------------------------------------------------
# VM
# ----------------------------------------------------------------------
def _run_vm(workload, inject_into, phase, rng):
    n = int(workload["n"])
    sa = int(workload.get("stride_a", 4))
    sb = int(workload.get("stride_b", 1))
    a, b = KERNELS["VM"].inputs(workload)
    c = np.zeros(n)
    arrays = {"A": a, "B": b, "C": c}
    split = int(phase * n)
    c[:split] += a[: split * sa : sa] * b[: split * sb : sb]
    if inject_into is not None:
        random_flip(arrays[inject_into], rng)
    c[split:] += a[split * sa :: sa] * b[split * sb :: sb]
    return c


# ----------------------------------------------------------------------
# CG: flips land in the live arrays between two iterations
# ----------------------------------------------------------------------
def _run_cg(workload, inject_into, phase, rng):
    iterations = int(workload.get("iterations", 10))
    state = KERNELS["CG"].start(workload)
    arrays = {"A": state.a, "x": state.x, "p": state.p, "r": state.r}
    inject_at = min(int(phase * iterations), iterations - 1)
    for k in range(iterations):
        if inject_into is not None and k == inject_at:
            random_flip(arrays[inject_into], rng)
        state.step()
    return state.x


# ----------------------------------------------------------------------
# FT: flips land in X between two stages of the chained transforms
# ----------------------------------------------------------------------
def _run_ft(workload, inject_into, phase, rng):
    x = KERNELS["FT"].inputs(workload)
    stages = int(np.log2(len(x)))
    transforms = int(workload.get("transforms", 1))
    steps = transforms * stages
    inject_at = min(int(phase * steps), steps - 1)
    for t in range(transforms):
        x = bit_reverse(x)
        for s in range(stages):
            if inject_into == "X" and t * stages + s == inject_at:
                random_flip(x, rng)
            fft_stage(x, 1 << s)
    return x


# ----------------------------------------------------------------------
# MC
# ----------------------------------------------------------------------
def _run_mc(workload, inject_into, phase, rng):
    energies, xs, samples = KERNELS["MC"].inputs(workload)
    arrays = {"G": energies, "E": xs}
    split = min(int(phase * len(samples)), len(samples) - 1)

    def lookup(batch: np.ndarray) -> float:
        rows, _ = search_grid(energies, batch)
        return float(xs[rows].sum())

    total = lookup(samples[:split])
    if inject_into is not None:
        random_flip(arrays[inject_into], rng)
    total += lookup(samples[split:])
    return np.asarray([total])


#: Injectable kernels keyed by Table II name.
INJECTABLE_KERNELS: dict[str, InjectionTarget] = {
    "VM": InjectionTarget("VM", ("A", "B", "C"), _run_vm),
    "CG": InjectionTarget("CG", ("A", "x", "p", "r"), _run_cg),
    "FT": InjectionTarget("FT", ("X",), _run_ft),
    "MC": InjectionTarget("MC", ("G", "E"), _run_mc),
}


def resolve_target(kernel_name: str) -> InjectionTarget:
    """Look up the injection adapter for ``kernel_name`` (case-insensitive).

    This is the single resolution point shared by the campaign driver
    and the executor worker processes, so a trial shipped to a worker by
    name resolves to the same adapter the parent validated.
    """
    try:
        return INJECTABLE_KERNELS[kernel_name.upper()]
    except KeyError:
        raise KeyError(
            f"kernel {kernel_name!r} has no injection adapter; available: "
            f"{sorted(INJECTABLE_KERNELS)}"
        ) from None
