"""Statistical fault injection — the baseline methodology (paper §I/§VI).

The paper motivates DVF by contrast with statistical fault injection:
FI needs a large number of randomized trials for statistical
significance, is expensive, and yields no quantitative per-structure
comparison.  This subpackage implements that baseline so the claims can
be tested rather than assumed — and implements it robustly enough to
run at scale:

* :mod:`repro.faultinject.flips` — bit-flip primitives on numpy data;
* :mod:`repro.faultinject.targets` — injectable adapters for the paper
  kernels (inject into a chosen data structure at a chosen execution
  phase, observe the output);
* :mod:`repro.faultinject.outcomes` — outcome classification
  (benign / silent data corruption / crash / timeout);
* :mod:`repro.faultinject.executor` — deterministic per-trial seeding
  plus pluggable in-process / crash-isolated process executors;
* :mod:`repro.faultinject.checkpoint` — JSONL trial journal enabling
  resumable campaigns;
* :mod:`repro.faultinject.errors` — structured error taxonomy
  (trial crash/timeout sentinels, checkpoint corruption/mismatch);
* :mod:`repro.faultinject.campaign` — randomized campaigns with
  per-structure statistics, Wilson confidence intervals, adaptive
  stopping, and SIGINT-safe checkpoint/resume;
* :mod:`repro.faultinject.compare` — rank agreement between DVF and
  empirical vulnerability.
"""

from repro.faultinject.flips import flip_bit, random_flip
from repro.faultinject.outcomes import Outcome, classify_outcome
from repro.faultinject.targets import (
    INJECTABLE_KERNELS,
    InjectionTarget,
    resolve_target,
)
from repro.faultinject.errors import (
    CheckpointCorrupt,
    CheckpointError,
    CheckpointMismatch,
    FaultInjectionError,
    TrialCrash,
    TrialError,
    TrialTimeout,
    WorkerLost,
)
from repro.faultinject.executor import (
    PENDING,
    InProcessExecutor,
    ProcessTrialExecutor,
    SupervisedCall,
    TrialExecutor,
    TrialSpec,
    Worker,
    make_executor,
    run_trial,
    trial_seed,
)
from repro.faultinject.checkpoint import (
    CheckpointWriter,
    campaign_fingerprint,
    load_checkpoint,
)
from repro.faultinject.campaign import (
    CampaignResult,
    StructureStats,
    run_campaign,
    wilson_halfwidth,
)
from repro.faultinject.compare import (
    empirical_vulnerability,
    rank_agreement,
)

__all__ = [
    "flip_bit",
    "random_flip",
    "Outcome",
    "classify_outcome",
    "InjectionTarget",
    "INJECTABLE_KERNELS",
    "resolve_target",
    "FaultInjectionError",
    "TrialError",
    "TrialCrash",
    "TrialTimeout",
    "WorkerLost",
    "CheckpointError",
    "CheckpointCorrupt",
    "CheckpointMismatch",
    "TrialExecutor",
    "InProcessExecutor",
    "ProcessTrialExecutor",
    "SupervisedCall",
    "Worker",
    "PENDING",
    "TrialSpec",
    "make_executor",
    "run_trial",
    "trial_seed",
    "CheckpointWriter",
    "campaign_fingerprint",
    "load_checkpoint",
    "run_campaign",
    "CampaignResult",
    "StructureStats",
    "wilson_halfwidth",
    "empirical_vulnerability",
    "rank_agreement",
]
