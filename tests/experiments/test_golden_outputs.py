"""Golden CLI outputs: the commands the repository benchmark does not pin.

``fixtures/golden_outputs.json`` freezes the test-tier stdout of
``python -m repro.experiments <command> --tier test`` for ``aspen`` (in
both modes), ``fig6``, ``fig7``, ``sensitivity`` and ``tables``, one
list entry per line.  The timing lines (``[... regenerated in ...s]``)
are dropped, as CI's hash-seed step drops them; every other byte must
match.  Any change to a model, to DVF assembly or to a renderer shows
up here as a changed line.  Regenerate deliberately with
``fixtures/make_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.experiments.runner import main

FIXTURE = Path(__file__).parent / "fixtures" / "golden_outputs.json"

#: Each pinned command line, ``--tier test`` appended.
COMMANDS = (
    "aspen",
    "aspen --mode lenient",
    "fig6",
    "fig7",
    "sensitivity",
    "tables",
)


def command_lines(command: str) -> list[str]:
    """The command's stdout lines, timing lines dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split() + ["--tier", "test"]) == 0
    return [
        line
        for line in out.getvalue().split("\n")
        if " regenerated in " not in line
    ]


# make_golden.py imports this module before the fixture exists.
@pytest.fixture(scope="module")
def golden() -> dict[str, list[str]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden(golden, command):
    assert command_lines(command) == golden[command]
