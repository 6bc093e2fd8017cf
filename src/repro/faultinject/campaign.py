"""Randomized fault-injection campaigns with per-structure statistics.

The campaign engine is built for running *large* campaigns reliably:

* **Deterministic trials** — every trial's RNG stream is keyed on
  ``(campaign seed, structure, trial index)`` via
  :func:`~repro.faultinject.executor.trial_seed`, so results are
  bit-identical regardless of executor, worker count, structure subset,
  or resume point.
* **Crash isolation** — trials run through a pluggable
  :class:`~repro.faultinject.executor.TrialExecutor`; with process
  isolation a segfault-class failure or hang becomes a CRASH/TIMEOUT
  outcome instead of killing the campaign.
* **Checkpoint/resume** — completed trials are journaled to one JSONL
  checkpoint (:mod:`repro.faultinject.checkpoint`); rerun with the same
  checkpoint, an interrupted campaign (including Ctrl-C) merges the
  journaled trials, runs only the missing ones and produces the same
  result the uninterrupted run would have.
* **Adaptive stopping** — per structure, injection stops once the
  Wilson-interval half-width of the failure rate drops below a target
  precision, spending trials only where the estimate is still loose.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

from repro.faultinject.checkpoint import (
    CheckpointWriter,
    campaign_fingerprint,
    load_checkpoint,
)
from repro.faultinject.errors import TrialCrash, TrialTimeout
from repro.faultinject.executor import (
    TrialExecutor,
    TrialSpec,
    make_executor,
    reference_rng,
)
from repro.faultinject.outcomes import Outcome, classify_outcome
from repro.faultinject.targets import InjectionTarget, resolve_target
from repro.kernels.base import Workload


def wilson_halfwidth(failures: int, trials: int, z: float = 1.96) -> float:
    """Half-width of the Wilson score interval for a binomial rate.

    Unlike the normal approximation, the Wilson interval stays honest at
    the boundaries: at ``p=0`` or ``p=1`` it still reports the genuine
    residual uncertainty ``~z^2/(z^2+n)`` instead of collapsing to zero.
    With no trials the uncertainty is total (1.0).
    """
    if trials <= 0:
        return 1.0
    n = float(trials)
    p = failures / n
    z2 = z * z
    return z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / (1.0 + z2 / n)


@dataclass(frozen=True)
class StructureStats:
    """Campaign statistics for one data structure."""

    structure: str
    trials: int
    benign: int
    sdc: int
    crash: int
    timeout: int = 0

    @property
    def failures(self) -> int:
        return self.sdc + self.crash + self.timeout

    @property
    def failure_rate(self) -> float:
        """Fraction of injected faults that become visible failures."""
        return self.failures / self.trials if self.trials else 0.0

    @property
    def confidence_halfwidth(self) -> float:
        """95% Wilson score interval half-width of the failure rate."""
        return wilson_halfwidth(self.failures, self.trials)


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a full campaign on one kernel.

    ``complete`` is False when the campaign was interrupted (Ctrl-C)
    before every structure finished — the partial statistics are valid,
    and a checkpointed campaign resumes to the full result.
    """

    kernel: str
    workload: str
    trials_per_structure: int
    structures: tuple[StructureStats, ...]
    wall_seconds: float
    reference_seconds: float
    complete: bool = True

    def stats(self, structure: str) -> StructureStats:
        for s in self.structures:
            if s.structure == structure:
                return s
        raise KeyError(f"no structure {structure!r} in campaign")

    def failure_rates(self) -> dict[str, float]:
        return {s.structure: s.failure_rate for s in self.structures}


def _classify_raw(value, reference, tolerance: float) -> Outcome:
    """Map a raw executor result onto the outcome taxonomy."""
    if isinstance(value, TrialTimeout):
        return Outcome.TIMEOUT
    if isinstance(value, TrialCrash):
        return Outcome.CRASH
    return classify_outcome(value, reference, tolerance)


def run_campaign(
    kernel_name: str,
    workload: Workload,
    trials: int = 100,
    tolerance: float = 1e-6,
    seed: int = 0,
    structures: tuple[str, ...] | None = None,
    executor: TrialExecutor | None = None,
    jobs: int | None = None,
    timeout: float | None = None,
    checkpoint: str | Path | None = None,
    target_halfwidth: float | None = None,
    min_trials: int = 20,
) -> CampaignResult:
    """Inject up to ``trials`` random faults per structure and classify.

    Every trial flips one uniformly random bit of one uniformly random
    element at a uniformly random execution phase — the statistical
    fault-injection protocol of the literature the paper argues is too
    expensive for quantitative per-structure analysis.

    Parameters beyond the classic ones:

    * ``executor`` — a :class:`TrialExecutor`; default in-process, or a
      crash-isolated process pool when ``jobs``/``timeout`` is given.
    * ``checkpoint`` — JSONL trial journal: trials already journaled
      there are merged instead of re-run, and new ones are appended, so
      one journal continues across interruptions; a missing file starts
      fresh.
    * ``target_halfwidth`` — adaptive stopping: stop a structure early
      once its Wilson half-width is below this (after ``min_trials``).
    * SIGINT (Ctrl-C) is trapped: completed trials are flushed and a
      partial result with ``complete=False`` is returned.
    """
    target: InjectionTarget = resolve_target(kernel_name)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    chosen = structures if structures is not None else target.structures
    unknown = set(chosen) - set(target.structures)
    if unknown:
        raise KeyError(
            f"structures {sorted(unknown)} not injectable for "
            f"{kernel_name}; available: {target.structures}"
        )

    fingerprint = campaign_fingerprint(
        target.kernel_name, workload, seed, tolerance
    )
    resumed: dict[tuple[str, int], Outcome] = {}
    writer: CheckpointWriter | None = None
    if checkpoint is not None:
        if Path(checkpoint).exists():
            resumed = load_checkpoint(checkpoint, fingerprint)
        writer = CheckpointWriter(checkpoint, fingerprint)

    own_executor = executor is None
    if executor is None:
        executor = make_executor(jobs=jobs, timeout=timeout)

    rows: list[StructureStats] = []
    complete = True
    try:
        start = time.perf_counter()
        reference = target.run(workload, None, 0.0, reference_rng(seed))
        reference_seconds = time.perf_counter() - start
        campaign_start = time.perf_counter()
        for structure in chosen:
            stats, interrupted = _run_structure(
                target,
                workload,
                structure,
                trials,
                tolerance,
                seed,
                reference,
                executor,
                writer,
                resumed,
                target_halfwidth,
                min_trials,
            )
            if stats is not None:
                rows.append(stats)
            if interrupted:
                complete = False
                break
    finally:
        if writer is not None:
            writer.close()
        if own_executor:
            executor.close()
    wall = time.perf_counter() - campaign_start
    return CampaignResult(
        kernel=target.kernel_name,
        workload=workload.name,
        trials_per_structure=trials,
        structures=tuple(rows),
        wall_seconds=wall,
        reference_seconds=reference_seconds,
        complete=complete,
    )


def _run_structure(
    target: InjectionTarget,
    workload: Workload,
    structure: str,
    trials: int,
    tolerance: float,
    seed: int,
    reference,
    executor: TrialExecutor,
    writer: CheckpointWriter | None,
    resumed: dict[tuple[str, int], Outcome],
    target_halfwidth: float | None,
    min_trials: int,
) -> tuple[StructureStats | None, bool]:
    """Run one structure's trials; returns ``(stats, interrupted)``.

    Outcomes are consumed strictly in trial-index order and the
    stopping rule is evaluated per counted trial, so the stop point —
    and therefore the result — is independent of executor batch size.
    Extra in-flight results past the stop point are discarded.
    """
    outcomes: dict[int, Outcome] = {
        i: resumed[(structure, i)]
        for i in range(trials)
        if (structure, i) in resumed
    }
    executed: set[int] = set()
    counts = {o: 0 for o in Outcome}
    counted = 0
    cursor = 0
    interrupted = False
    stopped = False
    try:
        while cursor < trials and not stopped:
            if cursor not in outcomes:
                window: list[int] = []
                i = cursor
                while len(window) < executor.batch_size and i < trials:
                    if i not in outcomes:
                        window.append(i)
                    i += 1
                specs = [
                    TrialSpec(target.kernel_name, workload, structure, i, seed)
                    for i in window
                ]
                for i, raw in zip(window, executor.run_batch(specs)):
                    outcomes[i] = _classify_raw(raw, reference, tolerance)
                    executed.add(i)
            while cursor < trials and cursor in outcomes and not stopped:
                outcome = outcomes[cursor]
                counts[outcome] += 1
                counted += 1
                if writer is not None and cursor in executed:
                    writer.append(structure, cursor, outcome)
                cursor += 1
                if target_halfwidth is not None and counted >= min_trials:
                    failures = (
                        counts[Outcome.SDC]
                        + counts[Outcome.CRASH]
                        + counts[Outcome.TIMEOUT]
                    )
                    if wilson_halfwidth(failures, counted) <= target_halfwidth:
                        stopped = True
    except KeyboardInterrupt:
        interrupted = True
    if counted == 0:
        return None, interrupted
    return (
        StructureStats(
            structure=structure,
            trials=counted,
            benign=counts[Outcome.BENIGN],
            sdc=counts[Outcome.SDC],
            crash=counts[Outcome.CRASH],
            timeout=counts[Outcome.TIMEOUT],
        ),
        interrupted,
    )
