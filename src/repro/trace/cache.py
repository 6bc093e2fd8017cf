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

Layout and eviction
-------------------
``<root>/<key>.npz`` plus ``<root>/index.json`` recording, per entry,
the file name, size, and a logical last-use tick (a monotone counter,
not wall time, so eviction order is deterministic).  When ``max_bytes``
is set, storing a new trace evicts least-recently-used entries until
the cache fits; the entry just written is never evicted.  A corrupt or
missing index degrades to an empty one rebuilt from the ``.npz`` files
actually present; a corrupt archive is treated as a miss and dropped.
Writes go through a temp file + ``os.replace`` so concurrent
campaigns sharing one cache directory never observe torn artifacts,
and every read-modify-write of the index runs under an advisory
``fcntl`` file lock (``<root>/.lock``), so two processes sharing a
cache cannot interleave a load/save pair and silently drop each
other's entries.  On platforms without ``fcntl`` the lock degrades to
a no-op — single-process behaviour is unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import os
import sys
import weakref
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Any

import numpy as np

try:  # POSIX only; locking degrades to a no-op elsewhere
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    _fcntl = None

from repro.trace.io import TRACE_SCHEMA_VERSION, load_trace, save_trace
from repro.trace.reference import ReferenceTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle (kernels -> trace)
    from repro.kernels.base import Kernel, Workload

_INDEX_NAME = "index.json"
_INDEX_VERSION = 1
_LOCK_NAME = ".lock"


def canonical_params(params: dict[str, Any]) -> str:
    """Deterministic JSON encoding of workload parameters."""
    return json.dumps(
        _canonical(params), sort_keys=True, separators=(",", ":")
    )


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
    """Directory-backed LRU cache of kernel reference traces.

    Parameters
    ----------
    root:
        Cache directory (created if missing).
    max_bytes:
        Optional size cap over the stored ``.npz`` archives; exceeding
        it evicts least-recently-used entries.  ``None`` means
        unbounded.

    The instance counts ``hits`` / ``misses`` / ``stores`` /
    ``evictions`` so pipelines can assert cache effectiveness.
    """

    def __init__(self, root: str | os.PathLike, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        # Per-instance memo of already-decoded traces: a sweep that
        # looks the same artifact up once per cache geometry decodes
        # the archive once, not once per cell.  Bounded by the number
        # of distinct workloads the instance touches; traces are
        # treated as immutable by every consumer.
        self._memory: dict[str, ReferenceTrace] = {}

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _locked(self):
        """Advisory exclusive lock over index read-modify-write.

        Serialises whole operations (load index → mutate files → save
        index) across processes sharing the cache directory.  Advisory
        by design: readers of the ``.npz`` artifacts themselves stay
        lock-free (writes are atomic renames), and non-POSIX platforms
        fall through without locking.
        """
        if _fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        with (self.root / _LOCK_NAME).open("a") as fh:
            _fcntl.flock(fh, _fcntl.LOCK_EX)
            try:
                yield
            finally:
                _fcntl.flock(fh, _fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # index handling
    # ------------------------------------------------------------------
    @property
    def _index_path(self) -> Path:
        return self.root / _INDEX_NAME

    def _load_index(self) -> dict:
        try:
            index = json.loads(self._index_path.read_text())
            entries = index["entries"]
            if not isinstance(entries, dict) or not isinstance(
                index["tick"], int
            ):
                raise ValueError("malformed index")
        except FileNotFoundError:
            return {"version": _INDEX_VERSION, "tick": 0, "entries": {}}
        except (ValueError, KeyError, TypeError):
            # Corrupt index: rebuild from the archives actually on
            # disk (use-order information is lost; ticks restart at 0).
            entries = {}
            for path in sorted(self.root.glob("*.npz")):
                if path.name.endswith(".tmp.npz"):
                    continue
                try:
                    size = path.stat().st_size
                except FileNotFoundError:
                    continue  # deleted by a peer between glob and stat
                entries[path.stem] = {
                    "file": path.name,
                    "bytes": size,
                    "tick": 0,
                }
            return {"version": _INDEX_VERSION, "tick": 0, "entries": entries}
        return index

    def _save_index(self, index: dict) -> None:
        tmp = self._index_path.with_name(_INDEX_NAME + ".tmp")
        tmp.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self._index_path)

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(
        self, kernel: "Kernel", workload: "Workload"
    ) -> ReferenceTrace | None:
        """Cached trace for (kernel, workload), or ``None`` on a miss."""
        key = trace_key(kernel, workload)
        path = self.root / f"{key}.npz"
        with self._locked():
            index = self._load_index()
            entry = index["entries"].get(key)
            if entry is None or not path.exists():
                self.misses += 1
                return None
            trace = self._memory.get(key)
            if trace is None:
                try:
                    trace = load_trace(path)
                except (OSError, ValueError, KeyError):
                    # Torn or corrupt artifact: drop it and re-collect.
                    index["entries"].pop(key, None)
                    path.unlink(missing_ok=True)
                    self._save_index(index)
                    self.misses += 1
                    return None
                self._memory[key] = trace
            index["tick"] += 1
            entry["tick"] = index["tick"]
            self._save_index(index)
        self.hits += 1
        return trace

    def put(
        self, kernel: "Kernel", workload: "Workload", trace: ReferenceTrace
    ) -> Path:
        """Store ``trace`` for (kernel, workload); returns the artifact path."""
        key = trace_key(kernel, workload)
        path = self.root / f"{key}.npz"
        # The temp name must keep the .npz suffix: np.savez appends one
        # to anything else, which would break the atomic rename.  It must
        # also be unique per process: two writers racing on the same key
        # would otherwise truncate/steal each other's temp file.
        tmp = self.root / f"{key}.{os.getpid()}.tmp.npz"
        save_trace(trace, tmp)  # slow part: outside the lock
        self._memory[key] = trace
        with self._locked():
            os.replace(tmp, path)
            index = self._load_index()
            index["tick"] += 1
            index["entries"][key] = {
                "file": path.name,
                "bytes": path.stat().st_size,
                "tick": index["tick"],
                "kernel": kernel.name,
                "params": canonical_params(workload.params),
            }
            self._evict_over_cap(index, keep=key)
            self._save_index(index)
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

    # ------------------------------------------------------------------
    # eviction / invalidation
    # ------------------------------------------------------------------
    def _evict_over_cap(self, index: dict, keep: str) -> None:
        if self.max_bytes is None:
            return
        entries = index["entries"]
        total = sum(e["bytes"] for e in entries.values())
        while total > self.max_bytes and len(entries) > 1:
            victim = min(
                (k for k in entries if k != keep),
                key=lambda k: entries[k]["tick"],
                default=None,
            )
            if victim is None:
                return
            total -= entries[victim]["bytes"]
            (self.root / entries[victim]["file"]).unlink(missing_ok=True)
            del entries[victim]
            self._memory.pop(victim, None)
            self.evictions += 1

    def invalidate(self, kernel: "Kernel", workload: "Workload") -> bool:
        """Drop the entry for (kernel, workload); True if one existed."""
        key = trace_key(kernel, workload)
        with self._locked():
            index = self._load_index()
            entry = index["entries"].pop(key, None)
            self._memory.pop(key, None)
            (self.root / f"{key}.npz").unlink(missing_ok=True)
            if entry is not None:
                self._save_index(index)
        return entry is not None

    def clear(self) -> int:
        """Drop every cached trace; returns the number removed."""
        with self._locked():
            index = self._load_index()
            removed = 0
            for entry in index["entries"].values():
                (self.root / entry["file"]).unlink(missing_ok=True)
                removed += 1
            self._memory.clear()
            self._save_index(
                {"version": _INDEX_VERSION, "tick": 0, "entries": {}}
            )
        return removed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._load_index()["entries"])

    def total_bytes(self) -> int:
        """Bytes held by the stored archives (per the index)."""
        return sum(
            e["bytes"] for e in self._load_index()["entries"].values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceCache({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def as_trace_cache(
    cache: "TraceCache | str | os.PathLike | None",
) -> TraceCache | None:
    """Coerce a cache argument: a path becomes a :class:`TraceCache`."""
    if cache is None or isinstance(cache, TraceCache):
        return cache
    return TraceCache(cache)
