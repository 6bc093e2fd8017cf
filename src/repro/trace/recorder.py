"""Trace recording — the instrumentation entry point for kernels.

Kernels record whole vectorised bursts: a regular sweep (a matrix row),
several streams interleaved the way a loop body issues them, or an
irregular loop's references to several structures, laid out in program
order and labelled per reference.  Each call appends one array per
column; the columns are concatenated once into a columnar
:class:`~repro.trace.reference.ReferenceTrace`, whose label table holds
each label's element size, taken from its segment.

A kernel whose every iteration issues the same references runs its
loop as ``for _ in recorder.periods(iterations)``.  The recorder then
keeps the first pass only and knows the rest repeat it:
:meth:`TraceRecorder.finish_periodic` returns that period with its
repeat count, and :meth:`TraceRecorder.finish` tiles it into the whole
trace.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.trace.address_space import AddressSpace, Segment
from repro.trace.reference import PeriodicTrace, ReferenceTrace


class _Column:
    """One trace column, kept as the list of arrays recorded into it."""

    __slots__ = ("chunks", "dtype")

    def __init__(self, dtype) -> None:
        self.chunks: list[np.ndarray] = []
        self.dtype = dtype

    def push_array(self, values: np.ndarray) -> None:
        self.chunks.append(np.asarray(values, dtype=self.dtype))

    def collect(self) -> np.ndarray:
        if not self.chunks:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(self.chunks)

    def take(self, n: int) -> np.ndarray:
        """Destructively pop the first ``n`` values as one array.

        Consumed storage is released, so a sink-mode recorder keeps the
        column's footprint at O(pending), not O(recorded).
        """
        parts: list[np.ndarray] = []
        got = 0
        while got < n:
            head = self.chunks[0]
            need = n - got
            if len(head) <= need:
                parts.append(head)
                self.chunks.pop(0)
                got += len(head)
            else:
                parts.append(head[:need])
                self.chunks[0] = head[need:]
                got = n
        if len(parts) == 1:
            return np.ascontiguousarray(parts[0])
        return np.concatenate(parts)


class TraceRecorder:
    """Collects labelled memory references from an instrumented kernel.

    Parameters
    ----------
    address_space:
        Optional pre-built :class:`AddressSpace`; a fresh one is created
        by default.
    chunk_refs:
        Sink-mode chunk size (references), the auto-flush threshold;
        given exactly when ``sink`` is.
    sink:
        Optional callable receiving each completed
        :class:`ReferenceTrace` chunk.  With a sink the recorder
        *streams*: whenever ``chunk_refs`` references are pending they
        are drained into the sink mid-recording, so the recorder's
        footprint stays O(chunk_refs) however long the kernel runs.
        Call :meth:`flush_tail` after the kernel to push the final
        partial chunk; :meth:`finish` refuses once anything has been
        streamed (it could only return a partial trace).  A sink-mode
        recorder records every pass of a :meth:`periods` loop, since it
        keeps no pass to repeat.

    Example
    -------
    >>> rec = TraceRecorder()
    >>> seg = rec.allocate("A", num_elements=100, element_size=8)
    >>> rec.record_elements("A", [3, 4], is_write=False)
    >>> trace = rec.finish()
    >>> len(trace)
    2
    """

    def __init__(
        self,
        address_space: AddressSpace | None = None,
        chunk_refs: int | None = None,
        sink=None,
    ):
        if chunk_refs is not None and chunk_refs < 1:
            raise ValueError(f"chunk_refs must be >= 1, got {chunk_refs}")
        if (sink is None) != (chunk_refs is None):
            raise ValueError(
                "sink and chunk_refs (the flush size) go together"
            )
        self.address_space = address_space or AddressSpace()
        self._addr = _Column(np.int64)
        self._write = _Column(bool)
        self._label = _Column(np.int32)
        self._label_ids: dict[str, int] = {}
        self._labels: list[str] = []
        #: Each label's element size, indexed like ``_labels``.
        self._element_sizes: list[int] = []
        self._count = 0
        self._chunk_refs = chunk_refs
        self._sink = sink
        #: References recorded but not yet drained to a chunk/sink.
        self._pending = 0
        #: References already streamed out to the sink.
        self._flushed = 0
        #: Times finish() repeats the recorded references: a periods()
        #: loop's count once the loop is over, when its passes after
        #: the first were not recorded.
        self._repeats = 1
        #: Inside a periods() loop after its first pass: record nothing.
        self._muted = False
        #: A periods() loop has ended; the recording is complete.
        self._sealed = False

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def allocate(self, label: str, num_elements: int, element_size: int) -> Segment:
        """Allocate and register a data structure; see :class:`AddressSpace`."""
        seg = self.address_space.allocate(label, num_elements, element_size)
        self._intern(label)
        return seg

    def _intern(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = len(self._labels)
            self._label_ids[label] = lid
            self._labels.append(label)
            self._element_sizes.append(self.address_space.segment(label).element_size)
        return lid

    def periods(self, repeats: int) -> Iterator[int]:
        """Run a loop whose every pass records the same references.

        Yields ``0 .. repeats - 1``.  The loop must hold the whole
        recording: it starts on an empty recorder, and nothing is
        recorded after it.  Without a sink only the first pass is
        recorded; the recording calls of later passes return at once,
        and :meth:`finish` tiles the first pass ``repeats`` times.  The
        kernel vouches that its passes are identical, as
        ``tests/kernels/test_periodic_traces.py`` checks for CG and PCG
        against a sink-mode recording of every pass.
        """
        if self._count or self._sealed or self._muted:
            raise RuntimeError(
                "a periods() loop must hold the whole recording"
            )
        passes = 0
        try:
            for index in range(repeats):
                if index == 1 and self._sink is None:
                    self._muted = True
                passes += 1
                yield index
        finally:
            if self._muted:
                self._muted = False
                self._repeats = passes
            self._sealed = True

    def _recording(self) -> bool:
        """False inside a muted pass; raises after a periods() loop."""
        if self._sealed:
            raise RuntimeError(
                "nothing may be recorded after a periods() loop"
            )
        return not self._muted

    def _added(self, n: int) -> None:
        """Book ``n`` new references; auto-flush full chunks in sink mode."""
        self._count += n
        self._pending += n
        if self._sink is not None:
            while self._pending >= self._chunk_refs:
                self._sink(self._take_chunk(self._chunk_refs))

    # ------------------------------------------------------------------
    # vectorised recording
    # ------------------------------------------------------------------
    def record_elements(
        self, label: str, indices: np.ndarray, is_write: bool
    ) -> None:
        """Record accesses to many elements of ``label`` in index order."""
        if not self._recording():
            return
        seg = self.address_space.segment(label)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= seg.num_elements:
            raise IndexError(
                f"element indices out of range for {label!r} "
                f"(0..{seg.num_elements - 1})"
            )
        addresses = seg.base + idx * seg.element_size
        n = idx.size
        self._addr.push_array(addresses)
        self._write.push_array(np.full(n, is_write, dtype=bool))
        self._label.push_array(
            np.full(n, self._intern(label), dtype=np.int32)
        )
        self._added(n)

    def record_elements_mixed(
        self, label: str, indices: np.ndarray, writes: np.ndarray
    ) -> None:
        """Record element accesses with a per-access write flag.

        Used by stencil kernels whose templates interleave neighbour
        loads with the centre store.
        """
        if not self._recording():
            return
        seg = self.address_space.segment(label)
        idx = np.asarray(indices, dtype=np.int64)
        flags = np.asarray(writes, dtype=bool)
        if idx.size != flags.size:
            raise ValueError("indices and writes must have equal length")
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= seg.num_elements:
            raise IndexError(f"element indices out of range for {label!r}")
        self._addr.push_array(seg.base + idx * seg.element_size)
        self._write.push_array(flags)
        self._label.push_array(np.full(idx.size, self._intern(label), dtype=np.int32))
        self._added(idx.size)

    def record_stream(
        self,
        label: str,
        start: int,
        count: int,
        stride_elements: int = 1,
        is_write: bool = False,
    ) -> None:
        """Record a strided sweep: ``count`` accesses from element ``start``."""
        indices = start + np.arange(count, dtype=np.int64) * stride_elements
        self.record_elements(label, indices, is_write)

    def record_interleaved(
        self, parts: list[tuple[str, np.ndarray, bool]]
    ) -> None:
        """Record several equal-length element streams, round-robin interleaved.

        This reproduces the instruction-level interleaving of loops like
        ``for j: acc += A[i,j] * p[j]`` where ``A`` and ``p`` references
        alternate — the ordering the cache actually sees.

        Raises :class:`ValueError` on malformed input: a part that is not
        a ``(label, indices, is_write)`` triple, an empty or non-1-D
        index stream, or streams of unequal length.
        """
        if not parts or not self._recording():
            return
        streams = []
        for pos, part in enumerate(parts):
            try:
                label, indices, is_write = part
            except (TypeError, ValueError):
                raise ValueError(
                    f"record_interleaved part {pos} is not a "
                    f"(label, indices, is_write) triple: {part!r}"
                ) from None
            idx = np.asarray(indices, dtype=np.int64)
            if idx.ndim != 1:
                raise ValueError(
                    f"record_interleaved stream {pos} ({label!r}) must be "
                    f"1-D, got shape {idx.shape}"
                )
            if idx.size == 0:
                raise ValueError(
                    f"record_interleaved stream {pos} ({label!r}) is empty"
                )
            streams.append((label, idx, bool(is_write)))
        n = streams[0][1].size
        k = len(streams)
        addresses = np.empty(n * k, dtype=np.int64)
        writes = np.empty(n * k, dtype=bool)
        label_ids = np.empty(n * k, dtype=np.int32)
        for slot, (label, idx, is_write) in enumerate(streams):
            seg = self.address_space.segment(label)
            if idx.size != n:
                raise ValueError(
                    f"all interleaved streams must have equal length "
                    f"(stream 0 has {n}, stream {slot} ({label!r}) has "
                    f"{idx.size})"
                )
            if idx.min() < 0 or idx.max() >= seg.num_elements:
                raise IndexError(f"element indices out of range for {label!r}")
            addresses[slot::k] = seg.base + idx * seg.element_size
            writes[slot::k] = is_write
            label_ids[slot::k] = self._intern(label)
        self._addr.push_array(addresses)
        self._write.push_array(writes)
        self._label.push_array(label_ids)
        self._added(n * k)

    def record_labelled(
        self,
        labels: tuple[str, ...],
        which: np.ndarray,
        indices: np.ndarray,
        is_write: bool,
    ) -> None:
        """Record accesses to several structures in one call.

        Reference ``i`` touches element ``indices[i]`` of
        ``labels[which[i]]``.  The trace is exactly what per-element
        :meth:`record_elements` calls in the same order would record.
        This batches irregular hot loops, such as Monte Carlo's
        binary-search probes each followed by a cross-section row, or
        Barnes-Hut's per-body particle read followed by the tree nodes
        its walk visits.

        Raises :class:`ValueError` when ``which`` and ``indices`` are not
        1-D of one length or ``which`` holds anything but positions in
        ``labels``, and :class:`IndexError` when an index is out of
        range for its label.
        """
        if not self._recording():
            return
        which = np.asarray(which)
        idx = np.asarray(indices, dtype=np.int64)
        if which.ndim != 1 or idx.shape != which.shape:
            raise ValueError(
                f"which and indices must be 1-D of one length, got shapes "
                f"{which.shape} and {idx.shape}"
            )
        if idx.size == 0:
            return
        if which.dtype.kind not in "iu" or not (
            0 <= which.min() and which.max() < len(labels)
        ):
            raise ValueError(
                f"which must hold positions in labels (0..{len(labels) - 1})"
            )
        segs = [self.address_space.segment(label) for label in labels]
        for pos, (label, seg) in enumerate(zip(labels, segs)):
            own = idx[which == pos]
            if own.size and (own.min() < 0 or own.max() >= seg.num_elements):
                raise IndexError(
                    f"element indices out of range for {label!r} "
                    f"(0..{seg.num_elements - 1})"
                )
        base = np.array([seg.base for seg in segs], dtype=np.int64)
        element_size = np.array(
            [seg.element_size for seg in segs], dtype=np.int64
        )
        label_ids = np.array(
            [self._intern(label) for label in labels], dtype=np.int32
        )
        self._addr.push_array(base[which] + idx * element_size[which])
        self._write.push_array(np.full(idx.size, is_write, dtype=bool))
        self._label.push_array(label_ids[which])
        self._added(idx.size)

    # ------------------------------------------------------------------
    # finish
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """References in the whole trace recorded so far."""
        return self._count * self._repeats

    def finish(self) -> ReferenceTrace:
        """Seal the recorder into an immutable columnar trace (the whole one)."""
        return self.finish_periodic().whole()

    def finish_periodic(self) -> PeriodicTrace:
        """Seal the recorder into its period and repeat count.

        The period is everything recorded; it repeats once unless a
        :meth:`periods` loop ran without a sink.
        """
        if self._flushed:
            raise RuntimeError(
                f"{self._flushed} references were already streamed out in "
                f"chunks; finish() would return a partial trace "
                f"(use flush_tail() to drain the rest)"
            )
        period = ReferenceTrace(
            self._addr.collect(),
            self._write.collect(),
            self._label.collect(),
            list(self._labels),
            self._element_sizes,
        )
        return PeriodicTrace(period, self._repeats)

    # ------------------------------------------------------------------
    # streaming (chunked-iterator protocol)
    # ------------------------------------------------------------------
    def _take_chunk(self, n: int) -> ReferenceTrace:
        """Destructively drain the oldest ``n`` pending references."""
        chunk = ReferenceTrace(
            self._addr.take(n),
            self._write.take(n),
            self._label.take(n),
            list(self._labels),
            self._element_sizes,
        )
        self._pending -= n
        self._flushed += n
        return chunk

    def flush_tail(self) -> None:
        """Push the final partial chunk to the sink (sink mode only)."""
        if self._sink is None:
            raise RuntimeError(
                "flush_tail() only applies to sink-mode recorders "
                "(construct with sink=...)"
            )
        if self._pending:
            self._sink(self._take_chunk(self._pending))
