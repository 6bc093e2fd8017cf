"""Regenerate the golden-trace fixtures pinned by test_golden_traces.py.

Run from the repo root after an *intentional* change to kernels or the
trace recorder::

    PYTHONPATH=src python tests/cachesim/fixtures/make_golden.py

Writes ``vm_test.npz`` / ``mc_test.npz`` (test-tier recorded traces for
the VM and MC kernels) and ``expected_stats.json`` (their exact
CacheStats on both Table IV verification caches, computed with the
reference oracle).  Commit the result together with the change that
motivated it — an unexplained diff here is simulator drift, which is
exactly what the fixtures exist to catch.
"""

import json
from pathlib import Path

from repro.cachesim.configs import VERIFICATION_CACHES
from repro.cachesim.simulator import CacheSimulator
from repro.experiments.configs import WORKLOADS
from repro.kernels.registry import KERNELS
from repro.trace.io import save_trace

FIXTURE_DIR = Path(__file__).parent
GOLDEN_KERNELS = ("VM", "MC")


def main() -> None:
    expected: dict[str, dict[str, dict]] = {}
    for name in GOLDEN_KERNELS:
        trace = KERNELS[name].trace(WORKLOADS["test"][name])
        save_trace(trace, FIXTURE_DIR / f"{name.lower()}_test.npz")
        per_cache: dict[str, dict] = {}
        for cache_name, geometry in VERIFICATION_CACHES.items():
            sim = CacheSimulator(geometry, engine="reference")
            sim.run(trace)
            per_cache[cache_name] = sim.stats.as_dict()
        expected[name] = per_cache
    out = FIXTURE_DIR / "expected_stats.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} and {len(GOLDEN_KERNELS)} trace archives")


if __name__ == "__main__":
    main()
