"""Regenerate the golden numerics pinned by test_golden_numerics.py.

Run from the repo root after an *intentional* change to an injectable
kernel's arithmetic or to the campaign protocol::

    PYTHONPATH=src python tests/faultinject/fixtures/make_golden.py

Writes ``golden_numerics.json``: the per-trial outcomes of the ``fi``
command's test-tier campaigns (in-process) and CG's and PCG's Fig 6
solves.  Commit the result together with the change that motivated it;
an unexplained diff here means the kernels compute something else.
"""

import json
import sys
import tempfile
from pathlib import Path

FIXTURE_DIR = Path(__file__).parent
sys.path.insert(0, str(FIXTURE_DIR.parent))

from test_golden_numerics import (  # noqa: E402
    FI_KERNELS,
    FIXTURE,
    SOLVE_SIZES,
    campaign_record,
    solve_record,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        campaigns = {
            kernel: campaign_record(kernel, Path(tmp) / f"{kernel}.jsonl")
            for kernel in FI_KERNELS
        }
    golden = {
        "campaigns": campaigns,
        "solve": {
            variant: {str(n): solve_record(variant, n) for n in SOLVE_SIZES}
            for variant in ("cg", "pcg")
        },
    }
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
