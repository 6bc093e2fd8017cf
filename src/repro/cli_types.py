"""Numeric argument types shared by the command-line interfaces.

Each is an ``argparse`` ``type=``: a value outside its range is a usage
error (exit code 2) naming the flag, instead of a run that misbehaves.
The rules are the ones scenario files already obey
(:mod:`repro.service.scenario`): worker counts and attempt budgets are
integers >= 1.  Timeouts must be positive and finite, and probabilities
lie in [0, 1].  They live apart from the scenario's validators because
importing those loads the whole service package (about 0.45 s), which
every experiments command would then pay.
"""

from __future__ import annotations

import argparse
import math


def _number(text: str, kind):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {'an integer' if kind is int else 'a number'}, "
            f"got {text!r}"
        ) from None


def positive_int(text: str) -> int:
    """An integer >= 1: a worker count or an attempt budget."""
    value = _number(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_seconds(text: str) -> float:
    """A finite number of seconds > 0: a timeout."""
    value = _number(text, float)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value


def probability(text: str) -> float:
    """A probability in [0, 1]."""
    value = _number(text, float)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {text!r}"
        )
    return value
