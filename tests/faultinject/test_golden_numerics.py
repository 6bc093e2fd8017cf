"""Golden numerics: fault-injection outcomes and Fig 6 solves, pinned.

``fixtures/golden_numerics.json`` freezes two things the injectable
kernels' numerics decide:

* the outcome of every trial of the in-process campaigns that
  ``python -m repro.experiments fi --tier test`` runs (seed 0, 100
  trials per structure, on ``FI_WORKLOADS`` and the test tier), one
  letter per trial in trial order: the first letter of its
  :class:`~repro.faultinject.outcomes.Outcome` value;
* CG's and PCG's iteration counts and final residuals from
  ``ConjugateGradientKernel.solve`` at Fig 6's test-tier sizes.

Any change to the arithmetic the adapters, the traced runs or the
solver share shows up here as a changed outcome or residual.  CI's
fault-injection smoke job holds the CLI's checkpoint journals to the
same outcomes.  Regenerate deliberately with ``fixtures/make_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.configs import WORKLOADS
from repro.experiments.fi_comparison import FI_KERNELS, FI_WORKLOADS
from repro.faultinject.campaign import run_campaign
from repro.faultinject.checkpoint import campaign_fingerprint, load_checkpoint
from repro.kernels.base import Workload
from repro.kernels.conjugate_gradient import ConjugateGradientKernel

FIXTURE = Path(__file__).parent / "fixtures" / "golden_numerics.json"

#: What the ``fi`` command runs at the test tier.
TRIALS = 100
SEED = 0
TOLERANCE = 1e-6
#: Fig 6's sizes at the test tier.
SOLVE_SIZES = (100, 200, 300, 400)


def campaign_workload(kernel: str) -> Workload:
    return FI_WORKLOADS.get(kernel, WORKLOADS["test"][kernel])


def journal_outcomes(path: Path) -> dict[str, str]:
    """Per structure, one outcome letter per journaled trial, in order."""
    letters: dict[str, dict[int, str]] = {}
    for (structure, trial), outcome in load_checkpoint(path).items():
        letters.setdefault(structure, {})[trial] = outcome.value[0]
    return {
        structure: "".join(by_trial[i] for i in sorted(by_trial))
        for structure, by_trial in sorted(letters.items())
    }


def campaign_record(kernel: str, journal: Path) -> dict:
    """The golden entry of ``kernel``'s in-process campaign."""
    workload = campaign_workload(kernel)
    run_campaign(
        kernel, workload, trials=TRIALS, tolerance=TOLERANCE, seed=SEED,
        checkpoint=journal,
    )
    return {
        "fingerprint": campaign_fingerprint(kernel, workload, SEED, TOLERANCE),
        "outcomes": journal_outcomes(journal),
    }


def solve_record(variant: str, n: int) -> dict:
    """Iterations and residual of Fig 6's solve of ``variant`` at ``n``."""
    result = ConjugateGradientKernel().solve(
        Workload(
            "fig6",
            {"n": n, "variant": variant, "system": "laplacian2d", "seed": 0},
        )
    )
    return {"iterations": result.iterations, "residual": result.residual}


# make_golden.py imports this module before the fixture exists.
GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("kernel", FI_KERNELS)
def test_campaign_outcomes_match_golden(kernel, tmp_path):
    assert campaign_record(kernel, tmp_path / "journal.jsonl") == (
        GOLDEN["campaigns"][kernel]
    )


@pytest.mark.parametrize("variant", ["cg", "pcg"])
@pytest.mark.parametrize("n", SOLVE_SIZES)
def test_solve_matches_golden(variant, n):
    assert solve_record(variant, n) == GOLDEN["solve"][variant][str(n)]
