"""Persistent worker pool for sharded cache simulation.

PR 4 paid ``ProcessPoolExecutor`` construction on *every*
``simulate_trace`` call, which is why its sharded path lost to
single-shard (0.16x on the committed bench).  This module keeps one
module-level pool, spawned lazily on first use and reused across
every sharded :class:`~repro.cachesim.simulator.CacheSimulator` in the
process, so fork cost is paid once per process.

Lifecycle guarantees:

* the pool is created on first :func:`get_pool` call and grown
  (recreated larger) only when a caller needs more workers;
* :func:`shutdown_pool` tears it down deterministically, and an
  ``atexit`` hook does the same at interpreter exit, so pool processes
  never outlive a pytest or CLI run;
* :func:`pool_scope` gives ``with``-style scoping for callers that want
  the workers gone the moment a block ends;
* a pid guard keeps *forked children* (the FI and service subsystems
  fork workers of their own) from driving a pool they merely inherited:
  the handle is silently dropped and a fresh pool is built on demand,
  while the parent's processes stay untouched;
* :func:`discard_pool` forgets a broken pool (after a worker was lost)
  without blocking on dead processes.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

__all__ = [
    "effective_cpus",
    "get_pool",
    "worker_pids",
    "discard_pool",
    "shutdown_pool",
    "pool_scope",
]

_pool: ProcessPoolExecutor | None = None
_pool_size: int = 0
_owner_pid: int = -1


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _forget() -> None:
    global _pool, _pool_size, _owner_pid
    _pool = None
    _pool_size = 0
    _owner_pid = -1


def get_pool(jobs: int) -> ProcessPoolExecutor:
    """Return the shared pool, creating or growing it to ``jobs`` workers.

    Grow-only: a pool with spare capacity is reused as-is; a smaller one
    is shut down and replaced.  Workers are spawned lazily by the
    executor itself, so asking for a large pool costs nothing until
    work is actually submitted.
    """
    global _pool, _pool_size, _owner_pid
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if _pool is not None and _owner_pid != os.getpid():
        # Inherited across a fork: the parent still owns those workers.
        _forget()
    if _pool is None or _pool_size < jobs:
        if _pool is not None:
            _pool.shutdown(wait=True, cancel_futures=True)
        _pool = ProcessPoolExecutor(max_workers=jobs)
        _pool_size = jobs
        _owner_pid = os.getpid()
    return _pool


def worker_pids() -> list[int]:
    """PIDs of the pool's currently-spawned worker processes."""
    if _pool is None or _owner_pid != os.getpid():
        return []
    processes = _pool._processes
    return list(processes) if processes else []


def discard_pool() -> None:
    """Forget the pool without waiting — for after a worker was lost.

    ``BrokenProcessPool`` leaves the executor unusable; this drops the
    handle (reaping whatever is reapable without blocking) so the next
    :func:`get_pool` builds a fresh one.
    """
    global _pool
    pool = _pool
    _forget()
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pool(wait: bool = True) -> None:
    """Tear down the shared pool; safe to call when none exists."""
    pool, owner = _pool, _owner_pid
    _forget()
    if pool is not None and owner == os.getpid():
        pool.shutdown(wait=wait, cancel_futures=True)


@contextmanager
def pool_scope(jobs: int | None = None):
    """Scope the shared pool to a ``with`` block.

    Optionally pre-sizes the pool to ``jobs``; on exit the pool (and
    any pool created inside the block) is shut down.
    """
    if jobs is not None:
        get_pool(jobs)
    try:
        yield
    finally:
        shutdown_pool()


atexit.register(shutdown_pool)
