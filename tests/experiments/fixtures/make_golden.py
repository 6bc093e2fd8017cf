"""Regenerate the golden CLI outputs pinned by test_golden_outputs.py.

Run from the repo root after an *intentional* change to what the
``aspen``, ``fig6``, ``fig7``, ``sensitivity`` or ``tables`` command
prints::

    PYTHONPATH=src python tests/experiments/fixtures/make_golden.py

Writes ``golden_outputs.json``: each command's test-tier stdout, one
entry per line, timing lines dropped.  Commit the result together with
the change that motivated it; an unexplained diff here means a model
or a renderer computes something else.
"""

import json
import sys
from pathlib import Path

FIXTURE_DIR = Path(__file__).parent
sys.path.insert(0, str(FIXTURE_DIR.parent))

from test_golden_outputs import COMMANDS, FIXTURE, command_lines  # noqa: E402


def main() -> None:
    golden = {command: command_lines(command) for command in COMMANDS}
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
