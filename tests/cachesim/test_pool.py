"""Lifecycle and fault tolerance of the persistent simulation pool.

The pool in :mod:`repro.cachesim.pool` must (a) actually persist —
pooled sharded runs reuse the same worker processes instead of paying a
fork per call; (b) die deterministically — ``shutdown_pool`` and the
interpreter-exit hook leave no orphaned children behind a pytest or CLI
run; and (c) fail soft — a worker SIGKILLed mid-replay degrades to a
bit-identical inline replay, the shared-memory block is unlinked, and
the next pooled call gets a fresh pool.
"""

import os
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.cachesim import pool as simpool
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import CacheSimulator

from test_engine_differential import assert_identical, random_trace

GEOMETRY = CacheGeometry(4, 64, 32)


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends with no shared pool."""
    simpool.shutdown_pool()
    yield
    simpool.shutdown_pool()


def _pooled_sim(shards=4, jobs=2):
    return CacheSimulator(GEOMETRY, engine="array", shards=shards, jobs=jobs)


def _assert_dead(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestPoolLifecycle:
    def test_pool_persists_across_simulations(self):
        rng = np.random.default_rng(3)
        _pooled_sim().run(random_trace(rng, n=900))
        first_pids = simpool.worker_pids()
        assert first_pids  # the pooled path really spawned workers
        pool = simpool.get_pool(2)
        _pooled_sim().run(random_trace(rng, n=900))
        assert simpool.get_pool(2) is pool
        assert simpool.worker_pids() == first_pids

    def test_shutdown_kills_workers_and_next_use_respawns(self):
        pool = simpool.get_pool(1)
        pool.submit(os.getpid).result()
        pids = simpool.worker_pids()
        simpool.shutdown_pool()
        assert simpool.worker_pids() == []
        _assert_dead(pids)
        fresh = simpool.get_pool(1)
        assert fresh is not pool
        assert fresh.submit(os.getpid).result() in simpool.worker_pids()

    def test_pool_grows_but_never_shrinks(self):
        first = simpool.get_pool(1)
        grown = simpool.get_pool(2)
        assert grown is not first
        assert simpool.get_pool(1) is grown  # spare capacity reused

    def test_get_pool_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            simpool.get_pool(0)

    def test_pool_scope_tears_down_on_exit(self):
        with simpool.pool_scope(jobs=2):
            pool = simpool.get_pool(2)
            assert pool.submit(os.getpid).result() != os.getpid()
            pids = simpool.worker_pids()
        assert simpool.worker_pids() == []
        _assert_dead(pids)

    def test_forked_child_does_not_drive_inherited_pool(self):
        # The FI / service subsystems fork children of their own; a
        # child must treat an inherited pool handle as foreign.
        first = simpool.get_pool(1)
        simpool._owner_pid += 1  # simulate being a forked child
        try:
            assert simpool.worker_pids() == []
            second = simpool.get_pool(1)
            assert second is not first
        finally:
            first.shutdown(wait=True, cancel_futures=True)

    def test_interpreter_exit_leaves_no_orphans(self, tmp_path):
        # Regression: pool processes must not outlive the interpreter.
        # A subprocess warms the pool, prints the worker pids, and
        # exits normally; the atexit hook must have reaped them.
        repo = Path(__file__).resolve().parents[2]
        script = textwrap.dedent(
            """
            import os
            import numpy as np
            from repro.cachesim import pool as simpool
            from repro.cachesim.configs import CacheGeometry
            from repro.cachesim.simulator import CacheSimulator
            from repro.trace.reference import ReferenceTrace

            rng = np.random.default_rng(0)
            n = 600
            trace = ReferenceTrace(
                rng.integers(0, 1 << 15, size=n).astype(np.int64),
                rng.random(n) < 0.5,
                np.zeros(n, dtype=np.int32),
                ["x"],
                [24],
            )
            sim = CacheSimulator(
                CacheGeometry(4, 64, 32), engine="array", shards=4, jobs=2
            )
            sim.run(trace)
            pids = simpool.worker_pids()
            assert pids, "pooled run did not spawn workers"
            print(",".join(str(p) for p in pids))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=repo,
        )
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.strip().splitlines()[-1].split(",")]
        _assert_dead(pids)


class TestWorkerCrash:
    def test_sigkilled_worker_falls_back_bit_identical(self):
        rng = np.random.default_rng(29)
        trace = random_trace(rng, n=900)
        base = CacheSimulator(GEOMETRY, engine="array")
        sharded = _pooled_sim(shards=2, jobs=2)
        sharded._array.chaos_kill_shard = 0  # worker dies mid-replay
        base.run(trace)
        sharded.run(trace)
        assert_identical(sharded, base, trace.labels)

    def test_shared_memory_unlinked_after_worker_crash(self):
        rng = np.random.default_rng(31)
        sharded = _pooled_sim(shards=2, jobs=2)
        sharded._array.chaos_kill_shard = 0
        sharded.run(random_trace(rng, n=900))
        transport = sharded._array.last_transport
        assert transport is not None  # the pooled attempt did happen
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=transport["shm_name"])

    def test_shared_memory_unlinked_after_clean_run(self):
        rng = np.random.default_rng(37)
        sharded = _pooled_sim(shards=2, jobs=2)
        sharded.run(random_trace(rng, n=900))
        transport = sharded._array.last_transport
        assert transport["mode"] == "shared_memory"
        assert transport["shm_bytes"] > 0
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=transport["shm_name"])

    def test_pool_recovers_after_crash(self):
        rng = np.random.default_rng(41)
        crashing = _pooled_sim(shards=2, jobs=2)
        crashing._array.chaos_kill_shard = 0
        crashing.run(random_trace(rng, n=900))
        # The broken pool was discarded; a fresh pooled run must work.
        trace = random_trace(rng, n=900)
        base = CacheSimulator(GEOMETRY, engine="array")
        sharded = _pooled_sim(shards=2, jobs=2)
        base.run(trace)
        sharded.run(trace)
        assert simpool.worker_pids()  # new pool, live workers
        assert_identical(sharded, base, trace.labels)
