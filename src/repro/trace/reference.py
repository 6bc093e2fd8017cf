"""Memory-reference records and columnar trace containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True, slots=True)
class MemoryReference:
    """One memory reference, as Pin would report it.

    Attributes
    ----------
    address:
        Byte address of the access.
    size:
        Access width in bytes.
    is_write:
        True for stores, False for loads.
    label:
        Owning data-structure name.
    """

    address: int
    size: int
    is_write: bool
    label: str


class ReferenceTrace:
    """An immutable, columnar memory-reference trace.

    Columns are numpy arrays (``int64`` addresses/sizes, ``bool`` write
    flags, ``int32`` label ids) plus a label table.  Columnar storage is
    ~50x smaller than a list of per-reference objects and lets the cache
    simulator and analyses work on whole vectors.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        sizes: np.ndarray,
        is_write: np.ndarray,
        label_ids: np.ndarray,
        labels: list[str],
    ):
        n = len(addresses)
        if not (len(sizes) == len(is_write) == len(label_ids) == n):
            raise ValueError("trace columns must all have the same length")
        self.addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        self.sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        self.is_write = np.ascontiguousarray(is_write, dtype=bool)
        self.label_ids = np.ascontiguousarray(label_ids, dtype=np.int32)
        self.labels = list(labels)
        if n and (self.label_ids.min() < 0 or self.label_ids.max() >= len(labels)):
            raise ValueError("label id out of range for label table")

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryReference]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> MemoryReference:
        return MemoryReference(
            address=int(self.addresses[i]),
            size=int(self.sizes[i]),
            is_write=bool(self.is_write[i]),
            label=self.labels[self.label_ids[i]],
        )

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

    def count_for(self, label: str) -> int:
        """Number of references touching ``label``."""
        return int(np.count_nonzero(self.label_ids == self.label_id(label)))

    def filter_label(self, label: str) -> "ReferenceTrace":
        """Sub-trace containing only references to ``label``."""
        mask = self.label_ids == self.label_id(label)
        return ReferenceTrace(
            self.addresses[mask],
            self.sizes[mask],
            self.is_write[mask],
            np.zeros(int(mask.sum()), dtype=np.int32),
            [label],
        )

    def counts_by_label(self) -> dict[str, int]:
        """Reference counts per label."""
        counts = np.bincount(self.label_ids, minlength=len(self.labels))
        return {name: int(counts[i]) for i, name in enumerate(self.labels)}

    def write_fraction(self) -> float:
        """Fraction of references that are stores (0.0 for empty traces)."""
        n = len(self)
        return float(np.count_nonzero(self.is_write)) / n if n else 0.0

    def concat(self, other: "ReferenceTrace") -> "ReferenceTrace":
        """Concatenate two traces, merging label tables."""
        remap = np.empty(len(other.labels), dtype=np.int32)
        labels = list(self.labels)
        for i, name in enumerate(other.labels):
            if name in labels:
                remap[i] = labels.index(name)
            else:
                remap[i] = len(labels)
                labels.append(name)
        return ReferenceTrace(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.sizes, other.sizes]),
            np.concatenate([self.is_write, other.is_write]),
            np.concatenate(
                [self.label_ids, remap[other.label_ids]] if len(other) else
                [self.label_ids, other.label_ids]
            ),
            labels,
        )

    def slice_refs(self, start: int, stop: int) -> "ReferenceTrace":
        """Zero-copy sub-trace of references ``[start, stop)``.

        The returned trace shares the column buffers and the label table
        with ``self`` (numpy slices of contiguous arrays are views), so
        slicing a trace into chunks costs O(1) memory per chunk.
        """
        return ReferenceTrace(
            self.addresses[start:stop],
            self.sizes[start:stop],
            self.is_write[start:stop],
            self.label_ids[start:stop],
            self.labels,
        )

    @staticmethod
    def empty() -> "ReferenceTrace":
        """A zero-length trace."""
        z = np.empty(0, dtype=np.int64)
        return ReferenceTrace(z, z.copy(), np.empty(0, dtype=bool),
                              np.empty(0, dtype=np.int32), [])


def iter_chunks(
    trace: ReferenceTrace, chunk_refs: int
) -> Iterator[ReferenceTrace]:
    """Yield ``trace`` as consecutive chunks of ``chunk_refs`` references.

    Chunks are zero-copy views (:meth:`ReferenceTrace.slice_refs`), all
    exactly ``chunk_refs`` long except a shorter final remainder.  This
    is the pull side of the streaming protocol: anything accepting a
    chunk iterator (``CacheSimulator.run_stream``, the chunk-aware
    :mod:`repro.trace.analysis` functions) consumes these
    views exactly like the chunks a sink-mode
    :class:`~repro.trace.recorder.TraceRecorder` pushes.
    """
    if chunk_refs < 1:
        raise ValueError(f"chunk_refs must be >= 1, got {chunk_refs}")
    n = len(trace)
    for start in range(0, n, chunk_refs):
        yield trace.slice_refs(start, min(start + chunk_refs, n))
