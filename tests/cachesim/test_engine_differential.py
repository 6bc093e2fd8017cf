"""Differential tests: array engine vs the dict-based oracle.

The batched :class:`~repro.cachesim.engine.ArrayLRUEngine` must be
bit-identical to :class:`~repro.cachesim.cache.SetAssociativeCache` —
not approximately equal: per-label hits, misses, writebacks, eviction
counts, residency integrals, and post-flush state all match exactly on
seeded randomized traces across geometries, chunk sizes, and both
in-chunk replay kernels (wave and stack-rank).
"""

import zlib

import numpy as np
import pytest

import repro.cachesim.engine as engine_mod
from repro.cachesim import (
    ArrayLRUEngine,
    CacheEngineError,
    CacheGeometry,
    CacheSimulator,
    check_engine,
)
from repro.trace.reference import ReferenceTrace

#: Geometry grid: ways 1/2/4/6/8/16 (every associativity of paper
#: Table IV, plus direct-mapped), line sizes 32/64/128.  The stack-rank
#: kernel makes ways - 1 passes, so the wide ways matter.
GEOMETRIES = [
    CacheGeometry(1, 16, 32),
    CacheGeometry(2, 64, 64),
    CacheGeometry(4, 64, 32),
    CacheGeometry(8, 32, 128),
    CacheGeometry(16, 4, 32),
    CacheGeometry(6, 16, 64),
    # Degenerate shapes the batching must not mishandle:
    CacheGeometry(4, 1, 64),  # single set — every access conflicts
    CacheGeometry(3, 8, 32),  # non-power-of-two ways
    CacheGeometry(2, 24, 64),  # non-power-of-two sets (%// path)
]


#: ``ADAPTIVE_WAVE_CUTOFF`` that forces each in-chunk replay kernel: 0
#: sends every chunk to the wave kernel, a cutoff above any run count
#: sends every chunk to the stack-rank one, and the default picks per
#: chunk.
KERNEL_CUTOFFS = {
    "wave": 0,
    "stack": 1 << 40,
    "adaptive": engine_mod.ADAPTIVE_WAVE_CUTOFF,
}


def force_kernel(monkeypatch, kernel: str) -> None:
    """Make every array-engine chunk replay through ``kernel``."""
    monkeypatch.setattr(
        engine_mod, "ADAPTIVE_WAVE_CUTOFF", KERNEL_CUTOFFS[kernel]
    )


def straddling_trace(n=64):
    """Every reference spans several 32-byte lines."""
    return ReferenceTrace(
        addresses=np.arange(n, dtype=np.int64) * 48,
        sizes=np.full(n, 100, dtype=np.int64),
        is_write=np.arange(n) % 2 == 0,
        label_ids=(np.arange(n) % 2).astype(np.int32),
        labels=["x", "y"],
    )


def random_trace(rng, n, n_labels=3, addr_space=1 << 15, max_size=192):
    """Mixed read/write multi-label trace with line-straddling accesses."""
    labels = [f"ds{i}" for i in range(n_labels)]
    return ReferenceTrace(
        addresses=rng.integers(0, addr_space, size=n).astype(np.int64),
        sizes=rng.integers(1, max_size + 1, size=n).astype(np.int64),
        is_write=rng.random(n) < 0.4,
        label_ids=rng.integers(0, n_labels, size=n).astype(np.int32),
        labels=labels,
    )


def assert_identical(array_sim, ref_sim, labels):
    """Exact agreement on every observable the oracle exposes.

    Residency is compared only when both simulators track it.
    """
    assert array_sim.stats.as_dict() == ref_sim.stats.as_dict()
    assert array_sim.resident_lines() == ref_sim.resident_lines()
    tracked = array_sim.track_residency and ref_sim.track_residency
    for label in labels:
        assert array_sim.resident_lines_for(label) == (
            ref_sim.resident_lines_for(label)
        )
        assert array_sim.stats.by_label[label].evictions == (
            ref_sim.stats.by_label[label].evictions
        )
        if tracked:
            # Residency integrals must match to the last bit (== on
            # floats).
            assert array_sim.average_resident_lines(
                label
            ) == ref_sim.average_resident_lines(label)


class TestDifferentialRandomized:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize("kernel", list(KERNEL_CUTOFFS))
    def test_randomized_traces_match_oracle(
        self, geometry, kernel, monkeypatch
    ):
        force_kernel(monkeypatch, kernel)
        # Integers only: a str's hash() follows PYTHONHASHSEED, and a
        # failure must replay from its test id alone.
        rng = np.random.default_rng(
            [geometry.associativity, geometry.num_sets,
             zlib.crc32(kernel.encode())]
        )
        for trial in range(4):
            trace = random_trace(rng, n=int(rng.integers(1, 1500)))
            chunk = int(rng.integers(1, 600))
            array_sim = CacheSimulator(
                geometry,
                track_residency=True,
                engine="array",
                chunk_size=chunk,
            )
            ref_sim = CacheSimulator(
                geometry, track_residency=True, engine="reference"
            )
            array_sim.run(trace)
            ref_sim.run(trace)
            assert_identical(array_sim, ref_sim, trace.labels)
            # Flush writes back exactly the same dirty lines.
            assert array_sim.flush() == ref_sim.flush()
            assert array_sim.stats.as_dict() == ref_sim.stats.as_dict()

    def test_warm_cache_across_runs_matches_oracle(self):
        rng = np.random.default_rng(11)
        geometry = CacheGeometry(4, 64, 32)
        array_sim = CacheSimulator(
            geometry, track_residency=True, engine="array", chunk_size=333
        )
        ref_sim = CacheSimulator(
            geometry, track_residency=True, engine="reference"
        )
        labels = set()
        for _ in range(4):
            trace = random_trace(rng, n=int(rng.integers(50, 800)))
            labels.update(trace.labels)
            array_sim.run(trace)
            ref_sim.run(trace)
            assert_identical(array_sim, ref_sim, sorted(labels))

    @pytest.mark.parametrize("kernel", list(KERNEL_CUTOFFS))
    def test_warm_state_first_touch_and_partial_set(self, kernel, monkeypatch):
        # A warm chunk whose first touch in set 0 is that set's most
        # recently used resident line, and whose set 1 is only partly
        # filled: the resident lines the stack-rank kernel puts in
        # front of each set's runs must rank exactly as the oracle's.
        force_kernel(monkeypatch, kernel)
        geometry = CacheGeometry(4, 4, 32)

        def lines_trace(lines, writes, labels):
            n = len(lines)
            return ReferenceTrace(
                addresses=np.asarray(lines, dtype=np.int64) * 32,
                sizes=np.ones(n, dtype=np.int64),
                is_write=np.asarray(writes, dtype=bool),
                label_ids=np.asarray(labels, dtype=np.int32),
                labels=["a", "b"],
            )

        # Set 0 (lines 0, 4, ...) fills and evicts dirty line 0, leaving
        # 4, 8, 12, 16 with 16 most recent; set 1 holds 1 and 5 only.
        warm = lines_trace(
            [0, 4, 8, 12, 16, 1, 5],
            [1, 0, 0, 1, 0, 1, 0],
            [0, 1, 0, 1, 0, 1, 1],
        )
        # 16 and 5 hit (most recent residents), 9 fills set 1's free
        # way, 4 hits (the oldest resident), then 20, 0 and 8 evict 8,
        # dirty 12 and 16 in LRU order.
        chunk = lines_trace(
            [16, 5, 9, 4, 20, 0, 8],
            [0, 1, 0, 1, 1, 0, 0],
            [1, 0, 1, 0, 0, 1, 0],
        )
        array_sim = CacheSimulator(
            geometry, track_residency=True, engine="array"
        )
        ref_sim = CacheSimulator(
            geometry, track_residency=True, engine="reference"
        )
        for trace in (warm, chunk):
            array_sim.run(trace)
            ref_sim.run(trace)
            assert_identical(array_sim, ref_sim, ["a", "b"])
        totals = ref_sim.stats.total
        assert (totals.hits, totals.misses, totals.writebacks) == (3, 11, 2)
        assert array_sim.flush() == ref_sim.flush()
        assert array_sim.stats.as_dict() == ref_sim.stats.as_dict()

    def test_single_access_chunks_match(self):
        # chunk_size=1 degenerates to fully sequential replay; every
        # run straddles a chunk boundary.
        rng = np.random.default_rng(5)
        geometry = CacheGeometry(2, 8, 32)
        trace = random_trace(rng, n=300, addr_space=1 << 10)
        array_sim = CacheSimulator(
            geometry, track_residency=True, engine="array", chunk_size=1
        )
        ref_sim = CacheSimulator(
            geometry, track_residency=True, engine="reference"
        )
        array_sim.run(trace)
        ref_sim.run(trace)
        assert_identical(array_sim, ref_sim, trace.labels)

    @pytest.mark.parametrize("engine", ["array", "reference"])
    @pytest.mark.parametrize("chunk_size", [1, 3])
    def test_run_chunks_smaller_than_trace_match_oracle(
        self, engine, chunk_size
    ):
        # run() cuts the trace into chunk_size-reference chunks.  Every
        # reference here expands to several lines, so the engine's
        # chunk_size-touch batches also end inside a reference.
        geometry = CacheGeometry(2, 8, 32)
        trace = straddling_trace()
        chunked = CacheSimulator(
            geometry,
            track_residency=True,
            engine=engine,
            chunk_size=chunk_size,
        )
        ref_sim = CacheSimulator(
            geometry, track_residency=True, engine="reference"
        )
        chunked.run(trace)
        ref_sim.run(trace)
        assert_identical(chunked, ref_sim, trace.labels)
        assert chunked.flush() == ref_sim.flush()
        assert chunked.stats.as_dict() == ref_sim.stats.as_dict()

    def test_repeated_same_line_hits_fast_path(self, monkeypatch):
        # Long same-line runs exercise the pre-collapse path.
        geometry = CacheGeometry(4, 16, 64)
        n = 500
        trace = ReferenceTrace(
            addresses=np.repeat(np.arange(n // 10, dtype=np.int64) * 64, 10),
            sizes=np.full(n, 8, dtype=np.int64),
            is_write=np.arange(n) % 3 == 0,
            label_ids=np.zeros(n, dtype=np.int32),
            labels=["A"],
        )
        for kernel in ("wave", "stack"):
            force_kernel(monkeypatch, kernel)
            array_sim = CacheSimulator(
                geometry, track_residency=True, engine="array"
            )
            ref_sim = CacheSimulator(
                geometry, track_residency=True, engine="reference"
            )
            array_sim.run(trace)
            ref_sim.run(trace)
            assert_identical(array_sim, ref_sim, trace.labels)


class TestEngineSwitch:
    def test_default_lru_engine_fixed_at_construction(self):
        # The engine comes from the policy alone, before any trace.
        sim = CacheSimulator(CacheGeometry(4, 64, 32))
        assert sim.engine == "array"
        assert isinstance(sim._array, ArrayLRUEngine)
        assert sim.cache is None
        assert (sim.shards, sim.jobs) == (1, 1)
        assert sim.resident_lines() == 0
        assert sim.flush() == 0

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_auto_routes_non_lru_to_reference(self, policy):
        sim = CacheSimulator(CacheGeometry(4, 64, 32), policy=policy)
        assert sim.engine == "reference"
        assert sim.cache is not None

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_explicit_array_with_non_lru_raises(self, policy):
        with pytest.raises(CacheEngineError, match="LRU"):
            CacheSimulator(
                CacheGeometry(4, 64, 32), policy=policy, engine="array"
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(CacheEngineError, match="engine"):
            CacheSimulator(CacheGeometry(4, 64, 32), engine="gpu")

    def test_unknown_policy_still_rejected_first(self):
        with pytest.raises(ValueError, match="policy"):
            CacheSimulator(CacheGeometry(4, 64, 32), policy="mru")

    def test_reference_supports_all_policies(self):
        for policy in ("lru", "fifo", "random"):
            sim = CacheSimulator(
                CacheGeometry(4, 64, 32), policy=policy, engine="reference"
            )
            assert sim.engine == "reference"

    def test_check_engine_resolution(self):
        assert check_engine("auto", "lru") == "array"
        assert check_engine("auto", "fifo") == "reference"
        assert check_engine("reference", "lru") == "reference"
        assert check_engine("array", "lru") == "array"

    def test_reference_engine_lru_matches_array(self):
        # The explicit reference engine walks the dict cache; spot-check
        # it against the array engine.
        rng = np.random.default_rng(3)
        trace = random_trace(rng, n=400)
        geometry = CacheGeometry(4, 64, 32)
        a = CacheSimulator(geometry, engine="array")
        r = CacheSimulator(geometry, engine="reference")
        a.run(trace)
        r.run(trace)
        assert a.stats.as_dict() == r.stats.as_dict()

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            CacheSimulator(
                CacheGeometry(4, 64, 32), engine="array", chunk_size=0
            )
