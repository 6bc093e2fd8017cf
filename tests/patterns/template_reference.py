"""Per-element block template and OrderedDict LRU walk: the differential reference.

These are the loops that ``repro.patterns.template`` replaced with a
vectorised block template and a replay on ``ArrayLRUEngine``.  The tests
require equal block arrays and equal miss counts.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np


def block_template(
    indices: np.ndarray, element_size: int, line_size: int
) -> np.ndarray:
    """Cache-block template of an element template, one element at a time."""
    cl = line_size
    e = element_size
    starts = np.asarray(indices, dtype=np.int64) * e
    if e <= cl:
        first = starts // cl
        last = (starts + e - 1) // cl
        if np.array_equal(first, last):
            return first
    blocks: list[int] = []
    for s in starts.tolist():
        blocks.extend(range(s // cl, (s + e - 1) // cl + 1))
    return np.asarray(blocks, dtype=np.int64)


def set_associative_lru_misses(
    block_ids: np.ndarray | list[int], num_sets: int, ways: int
) -> int:
    """Misses of a set-associative LRU cache over a block-id sequence.

    Blocks map to sets by ``block % num_sets``; each set is an
    ``OrderedDict`` in LRU order.
    """
    if ways < 1 or num_sets < 1:
        raise ValueError("num_sets and ways must be >= 1")
    sets: list[OrderedDict[int, None]] = [
        OrderedDict() for _ in range(num_sets)
    ]
    misses = 0
    ids = (
        block_ids.tolist()
        if isinstance(block_ids, np.ndarray)
        else block_ids
    )
    for block in ids:
        resident = sets[block % num_sets]
        if block in resident:
            resident.move_to_end(block)
            continue
        misses += 1
        if len(resident) >= ways:
            resident.popitem(last=False)
        resident[block] = None
    return misses


def template_misses(pattern, geometry) -> int:
    """``TemplateAccess``'s default walk (full cache) on the reference loops."""
    blocks = block_template(
        pattern.element_indices, pattern.element_size, geometry.line_size
    )
    return set_associative_lru_misses(
        np.tile(blocks, pattern.repeats),
        geometry.num_sets,
        geometry.associativity,
    )
