"""Trace diagnostics: reuse-distance histograms and miss-ratio curves.

A recorded trace contains more information than a single miss count;
these analyses expose it:

* :func:`reuse_distance_histogram` — distribution of LRU stack
  distances (in cache blocks) per data structure;
* :func:`miss_ratio_curve` — misses as a function of cache size in one
  pass (Mattson's classic result: a single stack-distance computation
  yields the whole curve for every fully-associative LRU size);
* :func:`footprint_summary` — per-structure footprint/reference stats.

These are exactly the measurements a user needs when deciding which
CGPMAC pattern describes a new application's data structure.

Each analysis accepts either a full :class:`ReferenceTrace` or a *chunk
iterator* (the streaming protocol of
:func:`~repro.trace.reference.iter_chunks`, or the chunks a sink-mode
recorder pushes), so a quick-look never forces materialising a trace
that was collected streamed.  Chunked results are exactly the monolithic ones: stack
distances carry across chunk boundaries through
:class:`~repro.patterns.distance.StackDistanceCounter`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.patterns.distance import StackDistanceCounter, stack_distances
from repro.trace.reference import ReferenceTrace


def _block_ids(trace: ReferenceTrace, line_size: int) -> np.ndarray:
    """First-touched block per reference (analysis granularity)."""
    return (trace.addresses // line_size).astype(np.int64)


def _as_chunks(trace):
    """Normalise a trace-or-chunk-iterator argument to an iterable."""
    return (trace,) if isinstance(trace, ReferenceTrace) else trace


def reuse_distance_histogram(
    trace, line_size: int = 64, label: str | None = None
) -> dict[int, int]:
    """Histogram of LRU stack distances, ``-1`` bucketing cold misses.

    Distances are measured on the *global* block stream (all structures
    interleaved — that is what the cache sees) but can be restricted to
    one structure's references with ``label``.  ``trace`` may be a
    :class:`ReferenceTrace` or a chunk iterator.
    """
    counter = StackDistanceCounter()
    histogram: dict[int, int] = {}
    label_seen = False
    for chunk in _as_chunks(trace):
        blocks = _block_ids(chunk, line_size)
        distances = counter.distances(blocks)
        if label is not None:
            # A streamed label table grows as a prefix, so a label may
            # be absent from early chunks without being an error.
            if label not in chunk.labels:
                continue
            label_seen = True
            distances = distances[
                chunk.label_ids == chunk.labels.index(label)
            ]
        values, counts = np.unique(distances, return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            histogram[int(v)] = histogram.get(int(v), 0) + int(c)
    if label is not None and not label_seen:
        raise KeyError(f"label {label!r} not in trace")
    return histogram


def miss_ratio_curve(
    trace,
    line_size: int = 64,
    sizes: list[int] | None = None,
) -> dict[int, float]:
    """Miss ratio vs fully-associative LRU cache size (in blocks).

    One stack-distance pass serves every size (Mattson inclusion).
    ``sizes`` defaults to powers of two covering the trace's footprint.
    ``trace`` may be a :class:`ReferenceTrace` or a chunk iterator; the
    pass accumulates a distance *histogram* per chunk, so the curve
    needs O(distinct distances) memory, not O(trace).
    """
    counter = StackDistanceCounter()
    finite_hist: dict[int, int] = {}
    cold = 0
    total = 0
    for chunk in _as_chunks(trace):
        blocks = _block_ids(chunk, line_size)
        distances = counter.distances(blocks)
        total += len(blocks)
        cold += int(np.count_nonzero(distances < 0))
        values, counts = np.unique(
            distances[distances >= 0], return_counts=True
        )
        for v, c in zip(values.tolist(), counts.tolist()):
            finite_hist[v] = finite_hist.get(v, 0) + c
    if total == 0:
        return {}
    if sizes is None:
        max_size = max(int(cold), 1)
        sizes = [1 << b for b in range(0, max(max_size.bit_length(), 1) + 1)]
    distance_values = np.array(sorted(finite_hist), dtype=np.int64)
    cumulative = np.cumsum(
        [finite_hist[int(v)] for v in distance_values], dtype=np.int64
    )
    n_finite = int(cumulative[-1]) if len(cumulative) else 0
    out: dict[int, float] = {}
    for size in sizes:
        # Misses: cold + reuses at distance >= size.
        below = int(np.searchsorted(distance_values, size, side="left"))
        hits = int(cumulative[below - 1]) if below else 0
        out[int(size)] = (cold + n_finite - hits) / total
    return out


@dataclass(frozen=True)
class StructureFootprint:
    """Per-structure summary statistics of a trace."""

    label: str
    references: int
    distinct_blocks: int
    write_fraction: float
    bytes_touched: int


def footprint_summary(
    trace, line_size: int = 64
) -> list[StructureFootprint]:
    """Reference counts, distinct blocks and write mix per structure.

    ``trace`` may be a :class:`ReferenceTrace` or a chunk iterator;
    accumulation needs O(footprint) memory (the per-label distinct
    block sets), not O(trace).
    """
    order: list[str] = []
    refs: dict[str, int] = {}
    writes: dict[str, int] = {}
    distinct: dict[str, set[int]] = {}
    for chunk in _as_chunks(trace):
        blocks = _block_ids(chunk, line_size)
        for index, label in enumerate(chunk.labels):
            if label not in refs:
                order.append(label)
                refs[label] = 0
                writes[label] = 0
                distinct[label] = set()
            mask = chunk.label_ids == index
            n = int(np.count_nonzero(mask))
            if n == 0:
                continue
            refs[label] += n
            writes[label] += int(np.count_nonzero(chunk.is_write[mask]))
            distinct[label].update(np.unique(blocks[mask]).tolist())
    out: list[StructureFootprint] = []
    for label in order:
        n = refs[label]
        if n == 0:
            out.append(StructureFootprint(label, 0, 0, 0.0, 0))
            continue
        blocks_touched = len(distinct[label])
        out.append(
            StructureFootprint(
                label=label,
                references=n,
                distinct_blocks=blocks_touched,
                write_fraction=writes[label] / n,
                bytes_touched=blocks_touched * line_size,
            )
        )
    return out


def suggest_pattern(
    trace: ReferenceTrace, label: str, line_size: int = 64
) -> str:
    """Heuristic CGPMAC pattern suggestion for one structure.

    * every block touched ~once -> streaming;
    * regular revisit distances (low variance) -> template;
    * otherwise -> random / reuse.

    A starting point for users writing Aspen models of new codes, not a
    replacement for understanding the algorithm.
    """
    sub = trace.filter_label(label)
    if len(sub) == 0:
        raise ValueError(f"no references to {label!r} in trace")
    blocks = _block_ids(sub, line_size)
    distances = stack_distances(blocks)
    # Distance-0 reuses are spatial locality (consecutive elements in a
    # line); only *positive* distances indicate temporal revisits.
    temporal = distances[distances > 0]
    if len(temporal) < 0.01 * len(blocks):
        return "streaming"
    spread = float(np.std(temporal)) / (float(np.mean(temporal)) + 1e-12)
    return "template" if spread < 0.5 else "random"
