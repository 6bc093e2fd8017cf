"""Differential tests: set-sharded simulation vs the single-process run.

Sharded replay (K > 1, optionally in worker processes) must be
**bit-identical** to the unsharded array engine — which is itself
bit-identical to the dict oracle — on per-label hits, misses,
writebacks, evictions and resident lines, across geometries, shard
counts, warm multi-run sequences, and the process-pool path.  Sharded
replay does not track residency (each shard numbers steps by its own
clock), so every simulator here is built without it.
"""

import numpy as np
import pytest

import repro.cachesim.simulator as simulator
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.engine import CacheEngineError
from repro.cachesim.expand import (
    _expand_lines,
    expand_shard,
    expanded_size,
    shard_entry_counts,
)
from repro.cachesim.sharding import ShardedLRUSimulator, partition_expanded
from repro.cachesim.simulator import CacheSimulator, simulate_trace
from repro.cachesim.stats import CacheStats
from repro.trace.io import attach_trace_shm, trace_to_shm
from repro.trace.reference import ReferenceTrace

from test_engine_differential import (
    GEOMETRIES,
    assert_identical,
    drain,
    random_trace,
)


def sizes(trace):
    """Each reference's size: its label's element size."""
    return trace.element_sizes[trace.label_ids]


def _empty_trace():
    return ReferenceTrace(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=bool),
        np.empty(0, dtype=np.int32),
        ["x"],
        [8],
    )


def sharded_pair(geometry, shards, jobs=1):
    base = CacheSimulator(geometry, engine="array")
    sharded = CacheSimulator(
        geometry, engine="array", shards=shards, jobs=jobs
    )
    return base, sharded


class TestShardedBitIdentity:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize("shards", [2, 3, 4, 7])
    def test_sharded_matches_single_process(self, geometry, shards):
        rng = np.random.default_rng(
            abs(hash((geometry.num_sets, geometry.associativity, shards)))
            % (1 << 32)
        )
        for trial in range(3):
            trace = random_trace(rng, n=int(rng.integers(1, 1500)))
            base, sharded = sharded_pair(geometry, shards)
            base.run(trace)
            sharded.run(trace)
            assert_identical(sharded, base, trace.labels)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_warm_multi_run_matches(self, shards):
        geometry = CacheGeometry(4, 64, 32)
        rng = np.random.default_rng(17)
        base, sharded = sharded_pair(geometry, shards)
        for _ in range(4):
            trace = random_trace(rng, n=int(rng.integers(100, 800)))
            base.run(trace)
            sharded.run(trace)
            assert_identical(sharded, base, trace.labels)

    def test_drain_matches(self):
        geometry = CacheGeometry(4, 64, 32)
        trace = random_trace(np.random.default_rng(5), n=1200)
        base, sharded = sharded_pair(geometry, 4)
        base.run(trace)
        sharded.run(trace)
        drain(base, sharded)
        assert_identical(sharded, base, trace.labels)

    def test_process_pool_path_matches(self):
        # jobs > 1 routes through ProcessPoolExecutor workers with
        # engine-state round trips; results stay bit-identical.
        geometry = CacheGeometry(4, 64, 32)
        rng = np.random.default_rng(23)
        base, sharded = sharded_pair(geometry, 4, jobs=2)
        for _ in range(2):  # second run exercises warm state shipping
            trace = random_trace(rng, n=900)
            base.run(trace)
            sharded.run(trace)
            assert_identical(sharded, base, trace.labels)

    def test_shards_exceeding_num_sets(self):
        # More shards than sets: the excess shards stay empty.
        geometry = CacheGeometry(4, 8, 32)
        trace = random_trace(np.random.default_rng(7), n=600)
        base, sharded = sharded_pair(geometry, 100)
        base.run(trace)
        sharded.run(trace)
        assert_identical(sharded, base, trace.labels)

    def test_single_shard_matches(self):
        geometry = CacheGeometry(2, 24, 64)  # non-power-of-two sets
        trace = random_trace(np.random.default_rng(9), n=700)
        base = CacheSimulator(geometry, engine="array")
        base.run(trace)
        stats = simulate_trace(trace, geometry, shards=1)
        assert stats.as_dict() == base.stats.as_dict()

    def test_simulate_trace_sharded(self):
        geometry = CacheGeometry(4, 64, 32)
        trace = random_trace(np.random.default_rng(13), n=800)
        plain = simulate_trace(trace, geometry, engine="array")
        sharded = simulate_trace(
            trace, geometry, engine="array", shards=4, jobs=1
        )
        assert plain.as_dict() == sharded.as_dict()


class TestShardedValidation:
    def test_shards_below_one_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            CacheSimulator(CacheGeometry(4, 64, 32), shards=0)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            CacheSimulator(CacheGeometry(4, 64, 32), jobs=0)

    def test_sharded_requires_lru(self):
        with pytest.raises(CacheEngineError, match="LRU"):
            CacheSimulator(
                CacheGeometry(4, 64, 32), policy="fifo", shards=2
            )

    def test_sharded_rejects_reference_engine(self):
        with pytest.raises(CacheEngineError, match="array"):
            CacheSimulator(
                CacheGeometry(4, 64, 32), engine="reference", shards=2
            )

    def test_sharded_auto_forces_array(self):
        sim = CacheSimulator(CacheGeometry(4, 64, 32), shards=2)
        assert sim.engine == "array"
        assert isinstance(sim._array, ShardedLRUSimulator)

    @pytest.mark.parametrize(("cpus", "jobs"), [(1, 1), (2, 2), (8, 3)])
    def test_explicit_shards_build_eagerly(self, monkeypatch, cpus, jobs):
        # jobs="auto" opens one worker per shard, capped by the CPUs.
        monkeypatch.setattr(simulator, "effective_cpus", lambda: cpus)
        sim = CacheSimulator(CacheGeometry(4, 64, 32), shards=3)
        assert isinstance(sim._array, ShardedLRUSimulator)  # eager
        assert (sim.shards, sim.jobs) == (3, jobs)

    @pytest.mark.parametrize("bad", [True, 0, -2, "bogus", 1.5])
    def test_bad_parallelism_args_rejected(self, bad):
        with pytest.raises(ValueError, match="shards"):
            CacheSimulator(CacheGeometry(4, 64, 32), shards=bad)
        with pytest.raises(ValueError, match="jobs"):
            CacheSimulator(CacheGeometry(4, 64, 32), jobs=bad)

    def test_shards_auto_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            CacheSimulator(CacheGeometry(4, 64, 32), shards="auto")

    def test_sharded_rejects_residency_tracking(self):
        # Each shard numbers steps by its own clock, so the shards'
        # residency counters do not add up to one engine's.
        sim = CacheSimulator(CacheGeometry(4, 64, 32), shards=2, jobs=1)
        sim.run(random_trace(np.random.default_rng(1), n=10))
        with pytest.raises(CacheEngineError, match="residency"):
            sim.average_resident_lines("ds0")

    def test_replay_trace_rejects_collect_events(self):
        sharded = ShardedLRUSimulator(CacheGeometry(4, 64, 32), 2)
        trace = random_trace(np.random.default_rng(1), n=10)
        with pytest.raises(CacheEngineError, match="residency"):
            sharded.replay_trace(trace, CacheStats(), collect_events=True)


class TestPartition:
    def test_partition_covers_stream_once(self):
        geometry = CacheGeometry(4, 24, 32)  # non-power-of-two sets
        trace = random_trace(np.random.default_rng(3), n=500)
        line_ids, writes, labels = _expand_lines(trace, geometry.line_size)
        shards = partition_expanded(
            line_ids, writes, labels, geometry.num_sets, 3
        )
        all_positions = np.concatenate([s[0] for s in shards])
        assert sorted(all_positions.tolist()) == list(range(len(line_ids)))
        for shard, (positions, ids, _, _) in enumerate(shards):
            # Positions ascend (order within each set is preserved) and
            # every line in the shard belongs to one of its sets.
            if positions.size:
                assert (np.diff(positions) > 0).all()
            np.testing.assert_array_equal(ids, line_ids[positions])
            assert (ids % geometry.num_sets % 3 == shard).all()


class TestExpandShard:
    """Worker-side expansion vs partitioning the full expansion.

    The zero-copy pooled path trusts ``expand_shard`` to produce, from
    the compact columns alone, exactly the partition that
    ``partition_expanded`` would cut from ``_expand_lines``'s full
    stream — positions, line ids, write flags, and label ids all equal
    to the last element.  ``shard_entry_counts`` must agree on sizes.
    """

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_matches_partitioned_full_expansion(self, geometry, num_shards):
        rng = np.random.default_rng(
            abs(hash((geometry.num_sets, geometry.line_size, num_shards)))
            % (1 << 32)
        )
        for _ in range(3):
            trace = random_trace(rng, n=int(rng.integers(1, 1200)))
            full = _expand_lines(trace, geometry.line_size)
            assert expanded_size(trace, geometry.line_size) == len(full[0])
            want = partition_expanded(
                *full, geometry.num_sets, num_shards
            )
            counts = shard_entry_counts(
                trace.addresses,
                sizes(trace),
                geometry.line_size,
                geometry.num_sets,
                num_shards,
            )
            assert int(counts.sum()) == len(full[0])
            for shard in range(num_shards):
                got = expand_shard(
                    trace.addresses,
                    sizes(trace),
                    trace.is_write,
                    trace.label_ids,
                    geometry.line_size,
                    geometry.num_sets,
                    num_shards,
                    shard,
                )
                assert int(counts[shard]) == want[shard][0].size
                for got_col, want_col in zip(got, want[shard]):
                    np.testing.assert_array_equal(got_col, want_col)

    def test_no_straddle_fast_path(self):
        # Single-byte accesses: no access crosses a line boundary, so
        # the span-free fast path must cover the whole stream.
        geometry = CacheGeometry(4, 64, 32)
        rng = np.random.default_rng(11)
        trace = random_trace(rng, n=400, max_size=1)
        assert expanded_size(trace, geometry.line_size) == 400
        full = _expand_lines(trace, geometry.line_size)
        want = partition_expanded(*full, geometry.num_sets, 3)
        for shard in range(3):
            got = expand_shard(
                trace.addresses,
                sizes(trace),
                trace.is_write,
                trace.label_ids,
                geometry.line_size,
                geometry.num_sets,
                3,
                shard,
            )
            for got_col, want_col in zip(got, want[shard]):
                np.testing.assert_array_equal(got_col, want_col)

    def test_empty_trace(self):
        trace = _empty_trace()
        assert expanded_size(trace, 64) == 0
        counts = shard_entry_counts(
            trace.addresses, sizes(trace), 64, 8, 4
        )
        assert counts.tolist() == [0, 0, 0, 0]
        got = expand_shard(
            trace.addresses,
            sizes(trace),
            trace.is_write,
            trace.label_ids,
            64,
            8,
            4,
            0,
        )
        assert all(col.size == 0 for col in got)


class TestStateDiffs:
    """Workers ship touched-set diffs, not whole shard slices.

    The replay kernel mutates exactly the sets its line stream touches,
    so ``state_diff(unique touched sets)`` applied over the parent's
    engine must reproduce the worker's full state bit-for-bit — the
    invariant the pooled path now rides on.
    """

    def test_diff_reproduces_full_state(self):
        from repro.cachesim.engine import ArrayLRUEngine
        from repro.cachesim.expand import set_index
        from repro.cachesim.stats import CacheStats

        geometry = CacheGeometry(4, 64, 32)
        trace = random_trace(np.random.default_rng(41), n=500)
        line_ids, writes, label_ids = _expand_lines(
            trace, geometry.line_size
        )
        worker = ArrayLRUEngine(geometry)
        worker.replay(line_ids, writes, label_ids, trace.labels, CacheStats())
        touched = np.unique(set_index(line_ids, geometry.num_sets))
        diff = worker.state_diff(touched)
        # Only the touched rows travel (tags are (sets, ways) rows).
        assert diff["tags"].shape[0] == touched.shape[0]
        assert diff["sets"].shape == touched.shape
        parent = ArrayLRUEngine(geometry)
        parent.apply_state_diff(diff)
        np.testing.assert_array_equal(parent._tags, worker._tags)
        np.testing.assert_array_equal(parent._age, worker._age)
        np.testing.assert_array_equal(parent._dirty, worker._dirty)
        np.testing.assert_array_equal(parent._label, worker._label)
        assert parent.clock == worker.clock
        assert parent._labels == worker._labels

    def test_diff_smaller_than_shard_slice(self):
        # A narrow trace touches few sets: the diff must be the touched
        # fraction, not the full 1/num_shards slice.
        from repro.cachesim.engine import ArrayLRUEngine
        from repro.cachesim.expand import set_index
        from repro.cachesim.stats import CacheStats

        geometry = CacheGeometry(4, 256, 32)
        n = 300
        stride = geometry.line_size * geometry.num_sets
        trace = ReferenceTrace(
            (np.arange(n, dtype=np.int64) % 5) * stride,  # set 0 only
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=np.int32),
            ["x"],
            [4],
        )
        line_ids, writes, label_ids = _expand_lines(
            trace, geometry.line_size
        )
        engine = ArrayLRUEngine(geometry)
        engine.replay(line_ids, writes, label_ids, trace.labels, CacheStats())
        touched = np.unique(set_index(line_ids, geometry.num_sets))
        assert touched.tolist() == [0]
        diff = engine.state_diff(touched)
        assert diff["tags"].shape[0] == 1
        assert (
            diff["tags"].nbytes
            < engine.shard_state(0, 4)["tags"].nbytes
        )

    def test_pooled_warm_rerun_round_trips_diffs(self):
        # Two pooled runs on one simulator: the second run's workers
        # start from diff-restored state, so any scatter bug shows up
        # as a stats mismatch against the single-process baseline.
        geometry = CacheGeometry(4, 64, 32)
        rng = np.random.default_rng(43)
        base, sharded = sharded_pair(geometry, 4, jobs=2)
        for _ in range(3):
            trace = random_trace(rng, n=700)
            base.run(trace)
            sharded.run(trace)
            assert_identical(sharded, base, trace.labels)


class TestShmTransport:
    def test_round_trip(self):
        trace = random_trace(np.random.default_rng(2), n=333)
        shm, descriptor = trace_to_shm(trace)
        try:
            assert descriptor["n"] == 333
            assert descriptor["element_sizes"] == trace.element_sizes.tolist()
            attached, columns = attach_trace_shm(descriptor)
            addresses, is_write, label_ids = columns
            np.testing.assert_array_equal(addresses, trace.addresses)
            np.testing.assert_array_equal(is_write, trace.is_write)
            np.testing.assert_array_equal(label_ids, trace.label_ids)
            assert attached.size >= 13 * 333
            del columns, addresses, is_write, label_ids
            attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trace_to_shm(_empty_trace())


class TestDegenerateRouting:
    """Geometry/trace edges must route inline, never to the pool."""

    def test_shard_count_clamped_to_num_sets(self):
        geometry = CacheGeometry(4, 8, 32)
        sim = CacheSimulator(geometry, engine="array", shards=100, jobs=1)
        assert sim.shards == 8
        assert sim._array.num_shards == 8

    def test_single_live_shard_stays_inline(self, monkeypatch):
        # Every access lands in set 0, so only one shard is ever live:
        # the pool must not be consulted even with jobs > 1.
        def _boom(jobs):
            raise AssertionError("pool must not be used for one live shard")

        monkeypatch.setattr("repro.cachesim.pool.get_pool", _boom)
        geometry = CacheGeometry(4, 64, 32)
        stride = geometry.line_size * geometry.num_sets
        n = 60
        addresses = (np.arange(n, dtype=np.int64) % 7) * stride
        trace = ReferenceTrace(
            addresses,
            np.arange(n) % 3 == 0,
            np.zeros(n, dtype=np.int32),
            ["x"],
            [4],
        )
        base, sharded = sharded_pair(geometry, 4, jobs=4)
        base.run(trace)
        sharded.run(trace)
        assert_identical(sharded, base, trace.labels)

    def test_zero_length_trace_sharded(self, monkeypatch):
        def _boom(jobs):
            raise AssertionError("pool must not be used for an empty trace")

        monkeypatch.setattr("repro.cachesim.pool.get_pool", _boom)
        geometry = CacheGeometry(4, 64, 32)
        sim = CacheSimulator(geometry, engine="array", shards=2, jobs=2)
        sim.run(_empty_trace())
        assert sim.stats.total.accesses == 0
