"""Regenerate ``cg_profiling_stats.json``, pinned by test_periodic_replay.py.

Run from the repo root after an *intentional* change to the CG kernel,
the trace recorder or the array engine::

    PYTHONPATH=src python tests/cachesim/fixtures/make_cg_profiling.py

Streams every one of profiling-tier CG's 99 iterations (122,478,048
references) through the array engine on each of the four profiling
caches, in 65,536-reference chunks, and writes each label's hits,
misses, writebacks, evictions and residency step sum.  Nothing here
takes the periodic shortcut the test checks: ``trace_stream`` records
and pushes every iteration.  It takes about 75 s on a 2-CPU x86-64 VM
at O(chunk) memory.
"""

import json
from pathlib import Path

from repro.cachesim.configs import PROFILING_CACHES
from repro.cachesim.simulator import CacheSimulator
from repro.experiments.configs import WORKLOADS
from repro.kernels.registry import KERNELS

FIXTURE = Path(__file__).parent / "cg_profiling_stats.json"


def main() -> None:
    kernel = KERNELS["CG"]
    workload = WORKLOADS["profiling"]["CG"]
    expected = {}
    for name, geometry in PROFILING_CACHES.items():
        sim = CacheSimulator(geometry)
        kernel.trace_stream(workload, 1 << 16, sim.run_chunk)
        expected[name] = {
            label: [s.hits, s.misses, s.writebacks, s.evictions, s.residency]
            for label, s in sorted(sim.stats.by_label.items())
        }
    FIXTURE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
