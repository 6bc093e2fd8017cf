"""Regenerate ``pinned.json``, the outputs every benchmark run checks.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/pin.py

Simulated hit/miss/writeback counts come from the dict-oracle engine
(``engine="reference"``, one shard), so the array, streamed and sharded
paths the workloads take are checked against an independent replay.
Model values and service payloads come from the analytical path, which
has a single implementation.  Only regenerate after a change that is
meant to alter outputs, and say why in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import spec
from repro.cachesim.configs import PAPER_CACHES
from repro.core.validation import ground_truth_stats
from repro.experiments.configs import WORKLOADS
from repro.experiments.fig4_verification import run_fig4
from repro.experiments.fig5_profiling import run_fig5
from repro.kernels.registry import KERNELS
from repro.service.scenario import parse_scenario
from repro.service.worker import execute_job

HERE = Path(__file__).resolve().parent


def main() -> None:
    verification = WORKLOADS["verification"]
    sim = {}
    for kernel, cache in spec.cells("replay"):
        stats = ground_truth_stats(
            KERNELS[kernel], verification[kernel], PAPER_CACHES[cache],
            engine="reference", shards=1, jobs=1,
        )
        sim[spec.cell_key(kernel, cache)] = spec.stats_table(stats)

    fig4_nha: dict = {}
    for row in run_fig4(tier="verification", engine="reference",
                        shards=1, jobs=1):
        key = spec.cell_key(row.kernel, row.cache)
        if row.simulated != sim[key][row.structure][1]:
            raise SystemExit(f"{key}.{row.structure}: fig4 and replay disagree")
        fig4_nha.setdefault(key, {})[row.structure] = row.estimated

    fig5: dict = {}
    for cell in run_fig5(tier="profiling"):
        key = spec.cell_key(cell.kernel, cell.cache)
        fig5.setdefault(key, {})[cell.structure] = [cell.dvf, cell.nha]

    service = {}
    for job in parse_scenario(spec.scenario("pin")).jobs:
        key = spec.pin_key(job.id)
        if key in service:
            continue
        body = execute_job(job, 1, False)
        if not body.get("ok"):
            raise SystemExit(f"{job.id}: {body}")
        service[key] = body["payload"]

    pinned = {"sim": sim, "fig4_nha": fig4_nha, "fig5": fig5,
              "service": service}
    (HERE / "pinned.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
