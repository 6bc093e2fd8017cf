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

The label table is stored as a fixed-width unicode array, so every
member loads with ``allow_pickle=False``: no trace read unpickles
anything.  Only archives of the current schema load; any other schema is
refused like damage, and the trace cache, which keys on the schema,
records the trace again.  Before it allocates a member, the reader checks
that the shape its ``.npy`` header declares accounts for exactly the
member's size in the zip directory, so a damaged header cannot make it
allocate what the header claims.

This module also owns the *in-memory* zero-copy transport used by the
sharded simulator: :func:`trace_to_shm` packs the three columns into one
``multiprocessing.shared_memory`` block per replay and
:func:`attach_trace_shm` maps them back in a worker process — only a
small descriptor (name, length, element sizes) ever crosses the process
boundary.
"""

from __future__ import annotations

import math
import os
import tokenize
import zipfile
import zlib
from multiprocessing import shared_memory

import numpy as np

from repro.trace.reference import PeriodicTrace, ReferenceTrace

#: Version of the on-disk archive layout, the only one that loads.
#: Bumped whenever the member set or encoding changes; the persistent
#: trace cache (:mod:`repro.trace.cache`) keys on it so stale artifacts
#: are re-collected instead of mis-read.
#:
#: * 1 — four columns + object-dtype (pickled) label table.
#: * 2 — label table as fixed-width unicode (``allow_pickle=False``).
#: * 3 — the columns hold one period; a ``repeats`` member counts its
#:   copies.
#: * 4 — ``element_sizes`` (one per label) replaces the ``sizes`` column.
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


#: Readers of the two ``.npy`` header versions :func:`save_trace` writes.
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """One array member of ``archive``, its size and CRC-32 checked."""
    info = archive.getinfo(f"{name}.npy")
    with archive.open(info) as member:
        version = np.lib.format.read_magic(member)
        if version not in _HEADER_READERS:
            raise ValueError(f"{name}.npy has format version {version}")
        shape, _, dtype = _HEADER_READERS[version](member)
        # numpy allocates the header's shape before it reads the data,
        # so a damaged header could ask for petabytes.
        if math.prod(shape) * dtype.itemsize != info.file_size - member.tell():
            raise ValueError(f"{name}.npy header does not match its size")
        member.seek(0)
        values = np.lib.format.read_array(member, allow_pickle=False)
        # zipfile checks the CRC-32 only once a read reaches the end of
        # the member, which read_array's last read need not do: without
        # this read a flipped bit in a column could load as a wrong trace.
        if member.read():
            raise ValueError(f"{name}.npy has bytes after its array")
    return values


def _read_count(archive: zipfile.ZipFile, name: str) -> int:
    """An integer scalar member: the schema version or the repeat count."""
    value = _read_member(archive, name)
    if value.shape != () or value.dtype.kind not in "iu":
        raise ValueError(f"invalid {name} {value!r}")
    return int(value)


def load_periodic_trace(path: str | os.PathLike) -> PeriodicTrace:
    """Read a trace written by :func:`save_trace` as its period and count.

    Only an archive of schema :data:`TRACE_SCHEMA_VERSION` loads.  Any
    other schema raises :class:`ValueError`, and so does damage, or
    :class:`zipfile.BadZipFile`, :class:`KeyError` (a missing member) or
    :class:`EOFError` (a member cut short), never a wrong trace; the
    file is closed whatever is raised.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            schema = _read_count(archive, "schema_version")
            if schema != TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"trace archive {path} has schema {schema}, "
                    f"not {TRACE_SCHEMA_VERSION}"
                )
            period = ReferenceTrace(
                _read_member(archive, "addresses"),
                _read_member(archive, "is_write"),
                _read_member(archive, "label_ids"),
                [str(x) for x in _read_member(archive, "labels")],
                _read_member(archive, "element_sizes"),
            )
            return PeriodicTrace(period, _read_count(archive, "repeats"))
    except (zlib.error, tokenize.TokenError, RuntimeError) as exc:
        # More damage: a corrupt deflate stream, a garbled ``.npy``
        # header, or a zip entry whose flags or method zipfile cannot
        # read (an "encrypted" member; NotImplementedError, a
        # RuntimeError, for an unknown method).
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


def _shm_columns(
    buf, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column views over a block holding ``n`` references."""
    addresses = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=0)
    label_ids = np.ndarray((n,), dtype=np.int32, buffer=buf, offset=8 * n)
    is_write = np.ndarray((n,), dtype=np.bool_, buffer=buf, offset=12 * n)
    return addresses, is_write, label_ids


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
    shm = shared_memory.SharedMemory(create=True, size=_SHM_BYTES_PER_REF * n)
    columns = (trace.addresses, trace.is_write, trace.label_ids)
    for view, values in zip(_shm_columns(shm.buf, n), columns):
        view[:] = values
    return shm, {"name": shm.name, "n": n,
                 "element_sizes": trace.element_sizes.tolist()}


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
    return shm, _shm_columns(shm.buf, descriptor["n"])

