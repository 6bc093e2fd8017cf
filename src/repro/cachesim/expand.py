"""Expansion of byte-reference traces into per-line touch streams.

The cache engines consume *expanded* streams: one entry per cache line
an access touches (an access spanning k lines contributes k consecutive
entries).  This module owns every flavour of that expansion:

* :func:`_expand_lines` — full expansion of a trace (the array engine's
  input format);
* :func:`expanded_size` — the expanded length *without* materialising
  the stream (what the bench harness reports refs/s against);
* :func:`expand_shard` — worker-side expansion of one set-shard's
  partition directly from the compact columns, bit-identical to
  partitioning the full expansion (the zero-copy sharded path ships
  compact columns over shared memory and expands in the workers, so
  each shard pays only for its own slice);
* :func:`shard_entry_counts` — exact per-shard expanded-entry counts,
  again without expanding (how the parent decides which shards are live
  before submitting any work).

Everything here is pure numpy over the trace columns; keeping the
variants in one module keeps the bit-identity contract between them
auditable (``tests/cachesim/test_sharding.py`` asserts
``expand_shard == partition_expanded(_expand_lines(...))`` exactly).
"""

from __future__ import annotations

import numpy as np


def set_index(line_ids: np.ndarray, num_sets: int) -> np.ndarray:
    """Cache-set index of each line (pow2 mask fast path)."""
    if num_sets & (num_sets - 1) == 0:
        return line_ids & (num_sets - 1)
    return line_ids % num_sets


def shard_index(
    line_ids: np.ndarray, num_sets: int, num_shards: int
) -> np.ndarray:
    """Round-robin shard owning each line's set."""
    return set_index(line_ids, num_sets) % num_shards


def _line_spans(
    addresses: np.ndarray, sizes: np.ndarray, line_size: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """First line id and per-access span for each reference.

    Returns ``(first, spans)``; ``spans`` is ``None`` when no access
    straddles a line boundary (the overwhelmingly common case, detected
    without a second division on pow2 line sizes).
    """
    line_size = int(line_size)
    if line_size & (line_size - 1) == 0:
        # Power-of-two line size: shifts beat int64 division ~10x, and
        # the straddle test needs no second division at all.
        shift = line_size.bit_length() - 1
        first = addresses >> shift
        within = addresses & (line_size - 1)
        within = within + sizes
        if int(within.max()) <= line_size:
            return first, None
        last = (addresses + sizes - 1) >> shift
    else:
        first = addresses // line_size
        last = (addresses + sizes - 1) // line_size
    spans = last - first
    spans += 1
    if int(spans.max()) == 1:
        return first, None
    return first, spans


def expanded_size(trace, line_size: int) -> int:
    """Expanded line-touch count of ``trace`` without materialising it.

    Exactly ``len(_expand_lines(trace, line_size)[0])``, at the cost of
    the span arithmetic only.
    """
    n = len(trace.addresses)
    if n == 0:
        return 0
    sizes = trace.element_sizes[trace.label_ids]
    _, spans = _line_spans(trace.addresses, sizes, line_size)
    if spans is None:
        return n
    return int(spans.sum())


def _expand_lines(
    trace, line_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand byte accesses into per-line touches.

    Returns ``(line_ids, is_write, label_ids)``, with accesses spanning
    k lines contributing k consecutive entries.  An access's size is its
    label's element size.
    """
    if len(trace.addresses) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool), np.empty(0, dtype=np.int32)
    sizes = trace.element_sizes[trace.label_ids]
    first, spans = _line_spans(trace.addresses, sizes, line_size)
    if spans is None:
        return first, trace.is_write, trace.label_ids
    max_span = int(spans.max())
    if max_span == 2:
        # Common case: only two-line straddles.  Scatter each access to
        # slot i + (#straddles before i); straddles fill the next slot
        # too — cheaper than the generic np.repeat construction.
        straddle = spans == 2
        total = len(spans) + int(np.count_nonzero(straddle))
        slots = np.cumsum(spans) - spans
        line_ids = np.empty(total, dtype=np.int64)
        is_write = np.empty(total, dtype=bool)
        label_ids = np.empty(total, dtype=np.int32)
        line_ids[slots] = first
        is_write[slots] = trace.is_write
        label_ids[slots] = trace.label_ids
        extra = slots[straddle] + 1
        line_ids[extra] = first[straddle] + 1
        is_write[extra] = trace.is_write[straddle]
        label_ids[extra] = trace.label_ids[straddle]
        return line_ids, is_write, label_ids
    total = int(spans.sum())
    # Offsets of each access's first entry in the expanded arrays.
    starts = np.zeros(len(spans), dtype=np.int64)
    np.cumsum(spans[:-1], out=starts[1:])
    line_ids = np.repeat(first, spans)
    # Within-access line offsets: position - start_of_own_access.
    positions = np.arange(total, dtype=np.int64)
    line_ids += positions - np.repeat(starts, spans)
    return line_ids, np.repeat(trace.is_write, spans), np.repeat(
        trace.label_ids, spans
    )


def shard_entry_counts(
    addresses: np.ndarray,
    sizes: np.ndarray,
    line_size: int,
    num_sets: int,
    num_shards: int,
) -> np.ndarray:
    """Exact expanded-entry count per shard, without expanding.

    Lets the parent find the *live* shards (and route single-live
    partitions inline instead of spawning idle workers) from the
    compact columns alone.
    """
    if len(addresses) == 0:
        return np.zeros(num_shards, dtype=np.int64)
    first, spans = _line_spans(addresses, sizes, line_size)
    counts = np.bincount(
        shard_index(first, num_sets, num_shards), minlength=num_shards
    ).astype(np.int64)
    if spans is None:
        return counts
    multi = spans > 1
    extra_first = first[multi] + 1
    extra_spans = spans[multi] - 1
    if int(extra_spans.max()) == 1:
        lines = extra_first
    else:
        total = int(extra_spans.sum())
        starts = np.cumsum(extra_spans) - extra_spans
        lines = np.repeat(extra_first, extra_spans)
        lines += np.arange(total, dtype=np.int64) - np.repeat(
            starts, extra_spans
        )
    counts += np.bincount(
        shard_index(lines, num_sets, num_shards), minlength=num_shards
    )
    return counts


def expand_shard(
    addresses: np.ndarray,
    sizes: np.ndarray,
    is_write: np.ndarray,
    label_ids: np.ndarray,
    line_size: int,
    num_sets: int,
    num_shards: int,
    shard: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand only ``shard``'s partition straight from compact columns.

    Bit-identical to
    ``partition_expanded(*_expand_lines(trace, line_size), ...)[shard]``:
    returns ``(positions, line_ids, is_write, label_ids)`` where
    ``positions`` are the entries' indices in the *full* expanded
    stream (ascending).  This is what each worker runs against the
    shared-memory columns, so no process ever pays for another shard's
    expansion.
    """
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=bool),
        np.empty(0, dtype=np.int32),
    )
    n = len(addresses)
    if n == 0:
        return empty
    first, spans = _line_spans(addresses, sizes, line_size)
    if spans is None:
        sel = shard_index(first, num_sets, num_shards) == shard
        positions = np.flatnonzero(sel)
        return (
            positions,
            first[positions],
            is_write[positions],
            label_ids[positions],
        )
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(spans[:-1], out=starts[1:])
    if int(spans.max()) == 2:
        # First-line entries sit at each access's start slot, straddle
        # second lines one past it; select each family by ownership and
        # interleave back into global-position order.
        straddle = spans == 2
        own_first = shard_index(first, num_sets, num_shards) == shard
        own_second = straddle & (
            shard_index(first + 1, num_sets, num_shards) == shard
        )
        positions = np.concatenate(
            [starts[own_first], starts[own_second] + 1]
        )
        line_ids = np.concatenate([first[own_first], first[own_second] + 1])
        writes = np.concatenate([is_write[own_first], is_write[own_second]])
        labels = np.concatenate([label_ids[own_first], label_ids[own_second]])
        order = np.argsort(positions, kind="stable")
        return (
            positions[order],
            line_ids[order],
            writes[order],
            labels[order],
        )
    # Rare wide-access case (span > 2): materialise the full expansion
    # and filter — exact by construction, and the extra work is bounded
    # by traces this pathological already being small.
    total = int(spans.sum())
    line_ids = np.repeat(first, spans)
    positions = np.arange(total, dtype=np.int64)
    line_ids += positions - np.repeat(starts, spans)
    sel = shard_index(line_ids, num_sets, num_shards) == shard
    return (
        positions[sel],
        line_ids[sel],
        np.repeat(is_write, spans)[sel],
        np.repeat(label_ids, spans)[sel],
    )
