"""Trace (de)serialisation.

Traces persist as ``.npz`` archives: a zip of ``.npy`` members, the
three columns plus the label table (names and element sizes), the
repeat count and the schema version.  This keeps multi-million-reference
traces compact and fast to reload (the paper notes cache simulation over
raw traces is the expensive path; caching traces on disk amortises
collection).  The columns hold one period of the trace
(:class:`~repro.trace.reference.PeriodicTrace`); ``repeats`` says how
many times it repeats.  :func:`load_periodic_trace` returns the two
together and :func:`load_trace` the whole trace.

:func:`save_trace` deflates at zlib level 1, not ``np.savez_compressed``'s
default level 6.  On a 2-CPU x86-64 VM, storing the six verification
traces (49.3 MB of 21-byte columns) took about 1.5 s at level 6, most of a
cold trace-cache fill, and 0.2-0.3 s at level 1; the archives grew from
2.90 to 3.14 MB and load as fast.  Level 1 still shrinks the columns
about 16-fold, so a cache directory stays small.

The label table is stored as a fixed-width unicode array so archives
load without pickle: no pickle deserialisation happens on any trace
read.  Archives written before schema 2 stored labels as an object
array; :func:`load_trace` still reads those (falling back to a pickled
load for that one member), but new archives are always pickle-free.

This module also owns the *in-memory* zero-copy transport used by the
sharded simulator: :func:`trace_to_shm` packs the three columns into one
``multiprocessing.shared_memory`` block and :func:`attach_trace_shm`
maps them back in a worker process — only a small descriptor (name,
length, element sizes) ever crosses the process boundary.
"""

from __future__ import annotations

import os
import tokenize
import zipfile
import zlib
from multiprocessing import shared_memory

import numpy as np

from repro.trace.reference import PeriodicTrace, ReferenceTrace

#: Version of the on-disk archive layout.  Bumped whenever the column
#: set or encoding changes incompatibly; the persistent trace cache
#: (:mod:`repro.trace.cache`) keys on it so stale artifacts are
#: re-collected instead of mis-read.
#:
#: * 1 — four columns + object-dtype (pickled) label table.
#: * 2 — label table as fixed-width unicode (``allow_pickle=False``).
#: * 3 — the columns hold one period; a ``repeats`` member counts its
#:   copies.  Archives of schema 1 and 2 load as a period repeated once.
#: * 4 — ``element_sizes`` (one per label) replaces the ``sizes`` column;
#:   older archives load when their sizes are constant within a label.
TRACE_SCHEMA_VERSION = 4


def save_trace(
    trace: ReferenceTrace | PeriodicTrace, path: str | os.PathLike
) -> None:
    """Write a trace to ``path`` as a deflated ``.npz`` archive.

    A :class:`PeriodicTrace` is stored as its period and repeat count; a
    :class:`ReferenceTrace` as a period repeated once.  Like
    ``np.savez``, a path not ending in ``.npz`` gets that suffix
    appended.
    """
    if isinstance(trace, ReferenceTrace):
        trace = PeriodicTrace(trace)
    period = trace.period
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    members = {
        "schema_version": np.int64(TRACE_SCHEMA_VERSION),
        "repeats": np.int64(trace.repeats),
        "addresses": period.addresses,
        "is_write": period.is_write,
        "label_ids": period.label_ids,
        "labels": np.asarray(period.labels, dtype=np.str_),
        "element_sizes": period.element_sizes,
    }
    with zipfile.ZipFile(
        path, "w", zipfile.ZIP_DEFLATED, compresslevel=1
    ) as archive:
        for name, values in members.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(values))


def _read_member(
    archive: zipfile.ZipFile, name: str, allow_pickle: bool = False
) -> np.ndarray:
    """One array member of ``archive``, its CRC-32 checked."""
    with archive.open(f"{name}.npy") as member:
        values = np.lib.format.read_array(member, allow_pickle=allow_pickle)
        # zipfile checks the CRC-32 only once a read reaches the end of
        # the member, which read_array's last read need not do: without
        # this read a flipped bit in a column could load as a wrong trace.
        if member.read():
            raise ValueError(f"{name}.npy has bytes after its array")
    return values


def _read_labels(archive: zipfile.ZipFile) -> list[str]:
    """Decode the label table, tolerating pre-schema-2 archives."""
    try:
        labels = _read_member(archive, "labels")
    except ValueError:
        # Schema-1 archive: labels were saved as an object array and
        # need pickle.  Only that member is re-read with pickling
        # enabled; every numeric column still loads pickle-free.
        labels = _read_member(archive, "labels", allow_pickle=True)
    return [str(x) for x in labels]


def _read_repeats(archive: zipfile.ZipFile) -> int:
    """The period's repeat count: 1 for archives older than schema 3."""
    names = set(archive.namelist())
    if "repeats.npy" not in names:
        # Keyed on the version, so a schema-3 archive that lost its
        # count is damaged rather than a trace a period long.
        if "schema_version.npy" in names and int(
            _read_member(archive, "schema_version")
        ) >= 3:
            raise KeyError("schema-3 trace archive without repeats.npy")
        return 1
    repeats = _read_member(archive, "repeats")
    if repeats.shape != () or repeats.dtype.kind not in "iu" or repeats < 1:
        raise ValueError(f"invalid repeat count {repeats!r}")
    return int(repeats)


def _read_element_sizes(
    archive: zipfile.ZipFile, label_ids: np.ndarray, n_labels: int
) -> np.ndarray:
    """Each label's element size, from a ``sizes`` column before schema 4.

    An old column must be constant within each label (else
    :class:`ValueError`); a label no reference names gets size 0.
    """
    if "sizes.npy" not in archive.namelist():
        return _read_member(archive, "element_sizes")
    sizes = _read_member(archive, "sizes")
    per_label = np.zeros(n_labels, dtype=np.int64)
    per_label[label_ids] = sizes
    if not np.array_equal(per_label[label_ids], sizes):
        raise ValueError("reference sizes vary within a label")
    return per_label


def load_periodic_trace(path: str | os.PathLike) -> PeriodicTrace:
    """Read a trace written by :func:`save_trace` as its period and count.

    A damaged archive raises :class:`ValueError`,
    :class:`zipfile.BadZipFile`, :class:`KeyError` (a missing member) or
    :class:`EOFError` (a member cut short), never a wrong trace, and the
    file is closed whatever is raised.  So does an older archive whose
    sizes vary within a label, which schema 4 cannot hold.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            label_ids = _read_member(archive, "label_ids")
            labels = _read_labels(archive)
            period = ReferenceTrace(
                _read_member(archive, "addresses"),
                _read_member(archive, "is_write"),
                label_ids,
                labels,
                _read_element_sizes(archive, label_ids, len(labels)),
            )
            return PeriodicTrace(period, _read_repeats(archive))
    except (zlib.error, tokenize.TokenError, RuntimeError, IndexError) as exc:
        # More damage: a corrupt deflate stream, a garbled ``.npy``
        # header, a zip entry whose flags or method zipfile cannot
        # read (an "encrypted" member; NotImplementedError, a
        # RuntimeError, for an unknown method), or a label id past the
        # label table of an older archive.
        raise ValueError(f"damaged trace archive {path}: {exc!r}") from exc


def load_trace(path: str | os.PathLike) -> ReferenceTrace:
    """Read the whole trace written by :func:`save_trace`.

    Raises what :func:`load_periodic_trace` raises for a damaged archive.
    """
    return load_periodic_trace(path).whole()


# ---------------------------------------------------------------------------
# shared-memory transport (sharded simulation)
# ---------------------------------------------------------------------------
# One block holds the three columns back to back, int32 before bool so
# every column starts on its natural alignment:
#
#   offset 0    addresses  int64  8n bytes
#   offset 8n   label_ids  int32  4n bytes
#   offset 12n  is_write   bool    n bytes
#
# 13 bytes per reference.  The per-label element sizes travel in the
# descriptor.
_SHM_BYTES_PER_REF = 13


def trace_shm_bytes(n: int) -> int:
    """Size in bytes of the shared block holding an ``n``-reference trace."""
    return _SHM_BYTES_PER_REF * n


def _shm_columns(
    buf, n: int, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column views over a block sized for ``cap`` refs, first ``n`` used.

    Column offsets are laid out for ``cap`` references so a reusable
    ring block can carry chunks shorter than its capacity without
    repacking offsets.
    """
    addresses = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=0)
    label_ids = np.ndarray((n,), dtype=np.int32, buffer=buf, offset=8 * cap)
    is_write = np.ndarray((n,), dtype=np.bool_, buffer=buf, offset=12 * cap)
    return addresses, is_write, label_ids


def _pack(shm, trace: ReferenceTrace, capacity: int) -> dict:
    """Copy ``trace``'s columns into ``shm``; returns the descriptor."""
    n = len(trace.addresses)
    columns = (trace.addresses, trace.is_write, trace.label_ids)
    for view, values in zip(_shm_columns(shm.buf, n, capacity), columns):
        view[:] = values
    return {"name": shm.name, "n": n, "cap": capacity,
            "element_sizes": trace.element_sizes.tolist()}


def trace_to_shm(
    trace: ReferenceTrace,
) -> tuple[shared_memory.SharedMemory, dict]:
    """Pack the compact trace columns into one shared-memory block.

    Returns ``(shm, descriptor)``.  The descriptor (name, length and
    element sizes) is all a worker needs for :func:`attach_trace_shm`;
    the creator must ``shm.close()`` and ``shm.unlink()`` when every
    consumer is done (the sharded simulator does both in a ``finally``
    so the block is released even if a worker crashes mid-replay).
    """
    n = len(trace.addresses)
    if n == 0:
        raise ValueError("cannot pack an empty trace into shared memory")
    shm = shared_memory.SharedMemory(create=True, size=trace_shm_bytes(n))
    return shm, _pack(shm, trace, n)


def attach_trace_shm(
    descriptor: dict,
) -> tuple[
    shared_memory.SharedMemory,
    tuple[np.ndarray, np.ndarray, np.ndarray],
]:
    """Map a block created by :func:`trace_to_shm` in this process.

    Returns ``(shm, (addresses, is_write, label_ids))`` — the arrays are
    zero-copy views into the block; the element sizes are the
    descriptor's ``element_sizes``.  The caller must drop every view
    (and anything derived from ``shm.buf``) before ``shm.close()``, or
    CPython refuses to release the mapping.

    No resource-tracker workaround is needed here: pool workers share
    the parent's resource tracker (fd inherited under both fork and
    spawn), where REGISTER entries are a set keyed by name — the
    creator's registration and any attacher's collapse into one entry,
    removed exactly once by the creator's ``unlink()``.
    """
    shm = shared_memory.SharedMemory(name=descriptor["name"])
    return shm, _shm_columns(shm.buf, descriptor["n"], descriptor["cap"])


class TraceShmRing:
    """A reusable shared-memory block for streaming chunked traces.

    :func:`trace_to_shm` allocates (and unlinks) one block per replay
    call — fine for a monolithic trace, wasteful when a stream replays
    thousands of fixed-size chunks.  The ring allocates one block sized
    for the largest chunk and repacks each chunk in place; workers
    attach through the same descriptor protocol (``cap`` pins the
    column offsets to the ring's capacity while ``n`` is the current
    chunk's length).

    Reuse is safe because the sharded replay protocol is synchronous
    per chunk: every worker future is resolved before the next chunk is
    packed, so no consumer can observe a half-overwritten block.  The
    owner must :meth:`close` and :meth:`unlink` when the stream ends.
    """

    def __init__(self, capacity_refs: int):
        if capacity_refs < 1:
            raise ValueError(
                f"capacity_refs must be >= 1, got {capacity_refs}"
            )
        self.capacity = int(capacity_refs)
        self._shm = shared_memory.SharedMemory(
            create=True, size=trace_shm_bytes(self.capacity)
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def pack(self, trace: ReferenceTrace) -> dict:
        """Copy ``trace``'s columns into the block; returns a descriptor."""
        n = len(trace.addresses)
        if n == 0:
            raise ValueError("cannot pack an empty trace into the ring")
        if n > self.capacity:
            raise ValueError(
                f"chunk of {n} refs exceeds ring capacity {self.capacity}"
            )
        return _pack(self._shm, trace, self.capacity)

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        self._shm.unlink()
