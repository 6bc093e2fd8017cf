"""Persistent, content-addressed trace cache.

Collecting an instrumented trace is the slow half of every
simulation-backed experiment: the kernels run under Python-level
instrumentation, so re-tracing the same (kernel, workload) pair for
every cache geometry — as the Figure 4 sweep otherwise does — multiplies
minutes of work that produces byte-identical artifacts.  This module
amortises collection: traces land as ``.npz`` archives under a cache
directory, keyed by everything that could change their content.

Cache key
---------
``sha256`` over the canonical JSON of:

* the kernel name and class qualname,
* the canonicalised workload parameters (sorted keys, numpy scalars
  unwrapped — the workload's tier *name* is deliberately excluded:
  traces depend on parameters only),
* the trace archive schema version
  (:data:`~repro.trace.io.TRACE_SCHEMA_VERSION`),
* a fingerprint of the source of the module defining the kernel class,
  so editing a kernel or a module-level helper it calls invalidates its
  cached traces automatically.

Layout
------
``<root>/<key>.npz``, one archive per trace and nothing else: an
archive's presence is its entry.  A missing archive is a miss; a
corrupt one is unlinked and counted as a miss, so the caller collects
the trace again.  :meth:`TraceCache.get` writes nothing.
:meth:`TraceCache.put` writes a per-process temp file and renames it
over the key with ``os.replace``, so a reader sees either no archive
or a whole one.  That rename is all the synchronisation processes
sharing one directory need: no shared file is read, changed and
written back, and two writers racing on one key store the same
content, so whichever rename lands last is correct.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import weakref
import zipfile
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.trace.io import TRACE_SCHEMA_VERSION, load_trace, save_trace
from repro.trace.reference import ReferenceTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle (kernels -> trace)
    from repro.kernels.base import Kernel, Workload


def _canonical(obj: Any):
    """Reduce parameter values to stable JSON-encodable primitives."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


#: Source hash per kernel module, so each module is read once per process.
_MODULE_FINGERPRINTS: "weakref.WeakKeyDictionary[ModuleType, str]" = (
    weakref.WeakKeyDictionary()
)


def kernel_fingerprint(kernel: "Kernel") -> str:
    """Hash of the source of the module defining the kernel's class.

    The whole module is hashed, not just the class body, so editing a
    module-level helper (such as Barnes–Hut's tree build) invalidates
    the kernel's cached traces as surely as editing the class.  When
    the source is unavailable (e.g. a class defined in a REPL) the
    qualified name stands in — the cache then cannot detect code edits
    for that kernel, which is the safe-but-weaker behaviour.
    """
    cls = type(kernel)
    module = sys.modules.get(cls.__module__)
    if module not in _MODULE_FINGERPRINTS:
        try:
            source = inspect.getsource(module)
        except (OSError, TypeError):
            return _digest(f"{cls.__module__}.{cls.__qualname__}")
        _MODULE_FINGERPRINTS[module] = _digest(source)
    return _MODULE_FINGERPRINTS[module]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def trace_key(kernel: "Kernel", workload: "Workload") -> str:
    """Content-address for one (kernel, workload) trace artifact."""
    cls = type(kernel)
    payload = json.dumps(
        {
            "kernel": kernel.name,
            "class": f"{cls.__module__}.{cls.__qualname__}",
            "params": _canonical(workload.params),
            "schema": TRACE_SCHEMA_VERSION,
            "code": kernel_fingerprint(kernel),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TraceCache:
    """Directory of content-addressed kernel reference traces.

    Parameters
    ----------
    root:
        Cache directory (created if missing).

    The instance counts ``hits`` / ``misses`` / ``stores`` so pipelines
    can assert cache effectiveness.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # Per-instance memo of already-decoded traces: a sweep that
        # looks the same artifact up once per cache geometry decodes
        # the archive once, not once per cell.  Bounded by the number
        # of distinct workloads the instance touches; traces are
        # treated as immutable by every consumer.
        self._memory: dict[str, ReferenceTrace] = {}

    def get(
        self, kernel: "Kernel", workload: "Workload"
    ) -> ReferenceTrace | None:
        """Cached trace for (kernel, workload), or ``None`` on a miss."""
        key = trace_key(kernel, workload)
        trace = self._memory.get(key)
        if trace is None:
            path = self.root / f"{key}.npz"
            try:
                trace = load_trace(path)
            except (ValueError, KeyError, EOFError, zipfile.BadZipFile):
                # Damaged artifact (what load_trace raises for one):
                # drop it and re-collect.
                path.unlink(missing_ok=True)
                self.misses += 1
                return None
            except OSError:
                # No archive, or one unreadable for now (out of file
                # descriptors, say): a miss that keeps the file.
                self.misses += 1
                return None
            self._memory[key] = trace
        self.hits += 1
        return trace

    def put(
        self, kernel: "Kernel", workload: "Workload", trace: ReferenceTrace
    ) -> Path:
        """Store ``trace`` for (kernel, workload); returns the artifact path."""
        key = trace_key(kernel, workload)
        path = self.root / f"{key}.npz"
        # The temp name must keep the .npz suffix: save_trace appends one
        # to anything else, which would break the atomic rename.  It must
        # also be unique per process: two writers racing on the same key
        # would otherwise truncate/steal each other's temp file.
        tmp = self.root / f"{key}.{os.getpid()}.tmp.npz"
        try:
            save_trace(trace, tmp)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._memory[key] = trace
        self.stores += 1
        return path

    def get_or_trace(
        self, kernel: "Kernel", workload: "Workload"
    ) -> ReferenceTrace:
        """Cached trace if present, else collect, store, and return it."""
        trace = self.get(kernel, workload)
        if trace is not None:
            return trace
        trace = kernel.trace(workload)
        self.put(kernel, workload, trace)
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceCache({str(self.root)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def as_trace_cache(
    cache: "TraceCache | str | os.PathLike | None",
) -> TraceCache | None:
    """Coerce a cache argument: a path becomes a :class:`TraceCache`."""
    if cache is None or isinstance(cache, TraceCache):
        return cache
    return TraceCache(cache)
