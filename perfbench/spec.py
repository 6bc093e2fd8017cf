"""Workload definitions shared by the measured child and the pin script.

Every workload is a list of *cells* (fig4, fig5, replay: one kernel on
one cache) or *jobs* (service).  The benchmark seed only permutes their
order, so the pinned outputs in ``pinned.json`` hold for every seed.

Imported with the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import math
import random

from repro.aspen.builtin import DSL_KERNELS, MACHINE_LIBRARY, builtin_source
from repro.cachesim.configs import PAPER_CACHES
from repro.experiments.configs import (
    FIG4_CACHES,
    FIG5_CACHES,
    KERNEL_ORDER,
)

#: Chunk size (references) the replay workload streams traces in.
REPLAY_CHUNK_REFS = 65536

#: Aspen ``machine`` name for each Table IV cache in ``MACHINE_LIBRARY``.
ASPEN_MACHINES = {
    name: (
        name.replace("-", "_") if name[0].isalpha()
        else f"cache_{name.lower()}"
    )
    for name in PAPER_CACHES
}

#: Copies of the service job set each repetition submits (distinct ids).
SERVICE_ROUNDS = 2

#: Relative tolerance for pinned floating-point outputs: far above
#: run-to-run rounding noise (outputs are deterministic), far below any
#: change to a model.
FLOAT_RTOL = 1e-9


def cells(workload: str) -> list[tuple[str, str]]:
    """(kernel, cache) cells of a cell workload, in canonical order."""
    caches = {
        "fig4": FIG4_CACHES,
        "fig5": FIG5_CACHES,
        "replay": PAPER_CACHES,
    }[workload]
    return [(k, c) for c in caches for k in KERNEL_ORDER]


def service_jobs() -> list[dict]:
    """Scenario job entries: builtin Aspen models and analytical kernels.

    Each entry's ``pin`` key names its pinned payload; the rounds repeat
    the same work under distinct job ids.
    """
    sources = {k: builtin_source(k, "test") + MACHINE_LIBRARY
               for k in DSL_KERNELS}
    jobs = []
    for r in range(SERVICE_ROUNDS):
        for kernel in DSL_KERNELS:
            for cache, machine in ASPEN_MACHINES.items():
                pin = f"aspen-{kernel}-{cache}"
                jobs.append({
                    "id": f"{pin}-r{r}",
                    "kind": "aspen",
                    "label": pin,
                    "source": sources[kernel],
                    "machine": machine,
                    "mode": "strict",
                })
        for kernel in KERNEL_ORDER:
            for cache in PAPER_CACHES:
                pin = f"kernel-{kernel}-{cache}"
                jobs.append({
                    "id": f"{pin}-r{r}",
                    "kind": "kernel",
                    "kernel": kernel,
                    "tier": "test",
                    "geometry": cache,
                })
    return jobs


def pin_key(job_id: str) -> str:
    """Pinned-payload key of a service job id (drops the round suffix)."""
    return job_id.rsplit("-r", 1)[0]


def scenario(order_seed: str) -> dict:
    """The service scenario with its jobs in seed-permuted order."""
    jobs = service_jobs()
    random.Random(order_seed).shuffle(jobs)
    return {
        "name": "perfbench-service",
        "service": {"jobs": 2},
        "jobs": jobs,
    }


def permuted(items: list, order_seed: str) -> list:
    """A seed-determined permutation of ``items``."""
    out = list(items)
    random.Random(order_seed).shuffle(out)
    return out


def cell_key(kernel: str, cache: str) -> str:
    return f"{kernel}|{cache}"


def stats_table(stats) -> dict:
    """``CacheStats`` as ``{label: [hits, misses, writebacks]}``."""
    return {
        name: [s["hits"], s["misses"], s["writebacks"]]
        for name, s in stats.as_dict().items()
    }


def by_structure(payload: dict) -> dict:
    """A report payload with its structure rows keyed by name.

    The row order of compiled Aspen reports follows string hashing, so
    it changes with ``PYTHONHASHSEED``; the rows themselves do not.
    """
    rows = {row["name"]: row for row in payload["structures"]}
    return {**payload, "structures": rows}


def mismatch(expected, actual, path: str = "") -> str | None:
    """First difference between a pinned value and an output, or None.

    Integers and strings must match exactly, floats within
    :data:`FLOAT_RTOL`; containers must have the same keys and lengths.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return f"{path}: keys differ"
        for key in expected:
            found = mismatch(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, (list, tuple)) \
                or len(expected) != len(actual):
            return f"{path}: length differs"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, bool) or isinstance(expected, str) \
            or expected is None:
        return None if expected == actual else f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, int):
        return None if actual == expected else f"{path}: {actual!r} != {expected}"
    if isinstance(expected, float):
        if isinstance(actual, (int, float)) and math.isclose(
            float(actual), expected, rel_tol=FLOAT_RTOL, abs_tol=1e-300
        ):
            return None
        return f"{path}: {actual!r} != {expected!r}"
    return f"{path}: unexpected pinned type {type(expected).__name__}"
