"""Columnar memory-reference traces, whole or as a repeated period."""

from __future__ import annotations

from typing import Iterator

import numpy as np


class ReferenceTrace:
    """An immutable, columnar memory-reference trace.

    Columns are numpy arrays (``int64`` addresses, ``bool`` write flags,
    ``int32`` label ids: 13 bytes per reference) plus a label table of
    names and element sizes (a reference's size is its label's).
    Columnar storage is ~50x smaller than a list of per-reference
    objects and lets the cache simulator and analyses work on whole
    vectors.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        is_write: np.ndarray,
        label_ids: np.ndarray,
        labels: list[str],
        element_sizes: np.ndarray,
    ):
        n = len(addresses)
        if not (len(is_write) == len(label_ids) == n):
            raise ValueError("trace columns must all have the same length")
        self.addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        self.is_write = np.ascontiguousarray(is_write, dtype=bool)
        self.label_ids = np.ascontiguousarray(label_ids, dtype=np.int32)
        self.labels = list(labels)
        self.element_sizes = np.ascontiguousarray(element_sizes, dtype=np.int64)
        if self.element_sizes.shape != (len(self.labels),):
            raise ValueError("element_sizes must hold one size per label")
        if n and (self.label_ids.min() < 0 or self.label_ids.max() >= len(labels)):
            raise ValueError("label id out of range for label table")

    def __len__(self) -> int:
        return len(self.addresses)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def label_id(self, label: str) -> int:
        """Numeric id for a label; raises ``KeyError`` if absent."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(
                f"label {label!r} not in trace (has {self.labels})"
            ) from None

    def filter_label(self, label: str) -> "ReferenceTrace":
        """Sub-trace containing only references to ``label``."""
        lid = self.label_id(label)
        mask = self.label_ids == lid
        return ReferenceTrace(
            self.addresses[mask],
            self.is_write[mask],
            np.zeros(int(mask.sum()), dtype=np.int32),
            [label],
            self.element_sizes[lid : lid + 1],
        )

    def write_fraction(self) -> float:
        """Fraction of references that are stores (0.0 for empty traces)."""
        n = len(self)
        return float(np.count_nonzero(self.is_write)) / n if n else 0.0

    def slice_refs(self, start: int, stop: int) -> "ReferenceTrace":
        """Zero-copy sub-trace of references ``[start, stop)``.

        The returned trace shares the column buffers and the label table
        with ``self`` (numpy slices of contiguous arrays are views), so
        slicing a trace into chunks costs O(1) memory per chunk.
        """
        return ReferenceTrace(
            self.addresses[start:stop],
            self.is_write[start:stop],
            self.label_ids[start:stop],
            self.labels,
            self.element_sizes,
        )


class PeriodicTrace:
    """A trace held as one period and the number of times it repeats.

    The trace it stands for is ``period`` followed by ``repeats - 1``
    identical copies, the shape of an iterative kernel whose every
    iteration issues the same references (CG, PCG).  Recording,
    storing and replaying the period alone costs one iteration, not
    ``repeats``: :meth:`~repro.cachesim.simulator.CacheSimulator.run`
    replays it only until the cache state repeats.  The trace's
    per-reference columns come from :meth:`whole`; ``period`` is named
    for what it holds, so no caller reads it as the trace by mistake.
    """

    __slots__ = ("period", "repeats")

    def __init__(self, period: ReferenceTrace, repeats: int = 1):
        if isinstance(repeats, bool) or int(repeats) != repeats or repeats < 1:
            raise ValueError(f"repeats must be an int >= 1, got {repeats!r}")
        self.period = period
        self.repeats = int(repeats)

    def __len__(self) -> int:
        return len(self.period) * self.repeats

    def whole(self) -> ReferenceTrace:
        """The whole sequence: the period tiled ``repeats`` times."""
        if self.repeats == 1:
            return self.period
        p, r = self.period, self.repeats
        return ReferenceTrace(
            np.tile(p.addresses, r),
            np.tile(p.is_write, r),
            np.tile(p.label_ids, r),
            p.labels,
            p.element_sizes,
        )


def iter_chunks(
    trace: ReferenceTrace, chunk_refs: int
) -> Iterator[ReferenceTrace]:
    """Yield ``trace`` as consecutive chunks of ``chunk_refs`` references.

    Chunks are zero-copy views (:meth:`ReferenceTrace.slice_refs`), all
    exactly ``chunk_refs`` long except a shorter final remainder.  This
    is the pull side of the streaming protocol: ``CacheSimulator.run``
    and the chunk-aware :mod:`repro.trace.analysis` functions consume
    these views exactly like the chunks a sink-mode
    :class:`~repro.trace.recorder.TraceRecorder` pushes.
    """
    if chunk_refs < 1:
        raise ValueError(f"chunk_refs must be >= 1, got {chunk_refs}")
    n = len(trace)
    for start in range(0, n, chunk_refs):
        yield trace.slice_refs(start, min(start + chunk_refs, n))
