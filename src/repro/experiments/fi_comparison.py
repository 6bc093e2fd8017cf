"""DVF vs statistical fault injection (extension experiment).

The paper's core argument (§I, §VI): fault injection is prohibitively
expensive and cannot quantitatively compare application components,
while DVF delivers a component ranking analytically.  This experiment
puts numbers on both halves:

* **agreement** — Spearman rank correlation between the DVF ranking and
  the empirical vulnerability ranking from a randomized campaign;
* **cost** — wall-clock of the campaign vs the analytical evaluation,
  and the trial count a statistically meaningful campaign needs.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cachesim.configs import PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.machine import MachineModel
from repro.core.report import format_table
from repro.experiments.configs import WORKLOADS
from repro.faultinject.campaign import run_campaign
from repro.faultinject.compare import rank_agreement
from repro.faultinject.executor import make_executor
from repro.faultinject.targets import INJECTABLE_KERNELS
from repro.kernels.base import Workload
from repro.kernels.registry import KERNELS


@dataclass(frozen=True)
class FIComparisonRow:
    """One kernel's DVF-vs-fault-injection comparison."""

    kernel: str
    trials: int
    rank_correlation: float
    failure_rates: dict[str, float]
    campaign_seconds: float
    model_seconds: float

    @property
    def cost_ratio(self) -> float:
        """How many times more expensive the campaign is."""
        return self.campaign_seconds / max(self.model_seconds, 1e-9)


#: Per-kernel workload overrides for fault injection.  A campaign only
#: observes failures when faults land in data the run actually consumes;
#: MC's test workload touches a tiny fraction of its tables per run, so
#: a statistically meaningful campaign would need tens of thousands of
#: trials — exactly the cost problem the paper describes.  A denser
#: lookup mix keeps the comparison honest at a few hundred trials.
FI_WORKLOADS = {
    "MC": Workload(
        "fi", {"grid_points": 2048, "nuclides": 8, "lookups": 2000}
    ),
}


#: The injectable kernels the ``fi`` command compares, in table order.
FI_KERNELS = ("VM", "CG", "FT", "MC")


def run_fi_comparison(
    kernels: tuple[str, ...] = FI_KERNELS,
    tier: str = "test",
    trials: int = 200,
    seed: int = 0,
    jobs: int | None = None,
    timeout: float | None = None,
    checkpoint_dir: str | Path | None = None,
) -> list[FIComparisonRow]:
    """Run campaigns and compare against DVF for injectable kernels.

    Returns one row per kernel, in ``kernels`` order.  ``jobs``/
    ``timeout`` route the campaigns through the crash-isolated process
    executor; one executor serves every kernel's campaign, so its
    workers are forked once per comparison.  ``checkpoint_dir`` journals
    each kernel's campaign to ``<dir>/<kernel>.jsonl`` and resumes from
    any journal already there, so an interrupted comparison re-runs only
    what is missing.  On Ctrl-C, inside a campaign (which flushes its
    checkpoint first) or between two, the finished rows are returned:
    fewer rows than ``kernels`` means the comparison was interrupted.
    """
    analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["8MB"]))
    rows: list[FIComparisonRow] = []
    executor = make_executor(jobs=jobs, timeout=timeout)
    try:
        for name in kernels:
            if name not in INJECTABLE_KERNELS:
                raise KeyError(f"kernel {name!r} has no injection adapter")
            workload = FI_WORKLOADS.get(name, WORKLOADS[tier][name])
            checkpoint = (
                Path(checkpoint_dir) / f"{name.lower()}.jsonl"
                if checkpoint_dir is not None
                else None
            )
            campaign = run_campaign(
                name,
                workload,
                trials=trials,
                seed=seed,
                executor=executor,
                checkpoint=checkpoint,
            )
            if not campaign.complete:
                # Interrupted mid-campaign: its trials are journaled; stop
                # here so a re-run with the same checkpoint_dir resumes.
                break
            # Collect the campaign's garbage first: a collection it has
            # made due would otherwise land in, and be billed to, the
            # model's few milliseconds.
            gc.collect()
            start = time.perf_counter()
            report = analyzer.analyze(KERNELS[name], workload)
            model_seconds = time.perf_counter() - start
            rho, _ = rank_agreement(campaign, report)
            rows.append(
                FIComparisonRow(
                    kernel=name,
                    trials=trials,
                    rank_correlation=rho,
                    failure_rates=campaign.failure_rates(),
                    campaign_seconds=campaign.wall_seconds,
                    model_seconds=model_seconds,
                )
            )
    except KeyboardInterrupt:
        # Between campaigns: the finished rows stand, as they do when a
        # campaign comes back incomplete.
        pass
    finally:
        executor.close()
    return rows


def render_fi_comparison(rows: list[FIComparisonRow]) -> str:
    """Text rendering of the comparison."""
    table = format_table(
        ["kernel", "trials", "rank corr.", "failure rates",
         "campaign", "model", "cost ratio"],
        [
            (
                r.kernel,
                r.trials,
                f"{r.rank_correlation:.2f}",
                ", ".join(
                    f"{k}={v:.2f}" for k, v in sorted(r.failure_rates.items())
                ),
                f"{r.campaign_seconds:.2f}s",
                f"{r.model_seconds * 1e3:.1f}ms",
                f"{r.cost_ratio:.0f}x",
            )
            for r in rows
        ],
    )
    return (
        "DVF vs statistical fault injection\n"
        + table
        + "\n(rank corr. = Spearman rho between the DVF ranking and the "
        "campaign's\n empirical-vulnerability ranking; NaN = campaign "
        "observed no failures)"
    )
