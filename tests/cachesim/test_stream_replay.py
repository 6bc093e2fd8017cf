"""Differential tests: chunked streaming replay vs monolithic replay.

Streaming a trace chunk by chunk through ``run_chunk`` must be
**bit-identical** to running the whole trace with ``run`` — on
per-label hits/misses/writebacks/evictions, residency integrals
(float ``==``), and the final cache state a drain evicts — across
geometries, chunk sizes (including ``chunk_refs=1``, which splits every
straddling reference's chunk from its successor), engines, and sharded
replay, which packs each chunk into its own shared-memory block.  The
recorder's sink-mode streaming must reproduce ``finish()`` exactly, and
incremental expansion must be a chunking-invariant (hypothesis
property).
"""

from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.expand import _expand_lines
from repro.cachesim.simulator import CacheSimulator
from repro.trace.recorder import TraceRecorder
from repro.trace.reference import ReferenceTrace, iter_chunks

from test_engine_differential import (
    GEOMETRIES,
    assert_identical,
    drain,
    random_trace,
)

CHUNK_SIZES = [1, 3, 97, 4096]


def streamed_pair(geometry, **kwargs):
    mono = CacheSimulator(geometry, **kwargs)
    streamed = CacheSimulator(geometry, **kwargs)
    return mono, streamed


def stream(sim, trace, chunk_refs):
    """Feed ``trace`` to ``sim.run_chunk`` in ``chunk_refs``-reference chunks."""
    for chunk in iter_chunks(trace, chunk_refs):
        sim.run_chunk(chunk)


class TestStreamedBitIdentity:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize("chunk_refs", CHUNK_SIZES)
    def test_chunked_matches_monolithic(self, geometry, chunk_refs):
        rng = np.random.default_rng(
            abs(hash((geometry.num_sets, geometry.line_size, chunk_refs)))
            % (1 << 32)
        )
        trace = random_trace(rng, n=int(rng.integers(50, 1200)))
        mono, streamed = streamed_pair(geometry, engine="array")
        mono.run(trace)
        stream(streamed, trace, chunk_refs)
        assert_identical(streamed, mono, trace.labels)
        drain(mono, streamed)
        assert_identical(streamed, mono, trace.labels)

    def test_run_refuses_a_chunk_iterator(self):
        # Chunks go to run_chunk; run takes a whole trace.
        trace = random_trace(np.random.default_rng(3), n=70)
        sim = CacheSimulator(CacheGeometry(4, 64, 32))
        with pytest.raises(TypeError, match="run_chunk"):
            sim.run(iter_chunks(trace, 53))
        assert sim.stats.total.accesses == 0

    def test_chunk_splitting_a_straddling_reference(self):
        # A reference spanning several lines right at a chunk boundary:
        # its expansion must stay whole inside its own chunk.
        geometry = CacheGeometry(4, 16, 32)
        n = 64
        trace = ReferenceTrace(
            addresses=np.arange(n, dtype=np.int64) * 48,
            is_write=np.arange(n) % 2 == 0,
            label_ids=np.zeros(n, dtype=np.int32),
            labels=["x"],
            element_sizes=[100],  # every ref straddles
        )
        mono, streamed = streamed_pair(geometry, engine="array")
        mono.run(trace)
        stream(streamed, trace, 1)
        assert_identical(streamed, mono, trace.labels)

    def test_reference_engine_streams_too(self):
        geometry = CacheGeometry(4, 16, 32)
        trace = random_trace(np.random.default_rng(11), n=400)
        mono, streamed = streamed_pair(geometry, engine="reference")
        mono.run(trace)
        stream(streamed, trace, 37)
        assert_identical(streamed, mono, trace.labels)

    def test_label_table_growing_across_chunks(self):
        # Streamed label tables grow as a prefix; engines intern by
        # name, so per-label counters must line up with the monolithic
        # run even when early chunks lack later labels.
        geometry = CacheGeometry(4, 16, 32)
        rng = np.random.default_rng(19)
        indices = {
            label: rng.integers(0, 64, size=100) for label in "ABC"
        }
        mono, streamed = streamed_pair(geometry, engine="array")
        tables = []

        def sink(chunk):
            tables.append(list(chunk.labels))
            streamed.run_chunk(chunk)

        rec_a = TraceRecorder()
        rec_b = TraceRecorder(chunk_refs=70, sink=sink)
        for rec in (rec_a, rec_b):
            for label in ("A", "B", "C"):  # labels appear one at a time
                rec.allocate(label, num_elements=64, element_size=8)
                rec.record_elements(label, indices[label], is_write=False)
        rec_b.flush_tail()
        mono.run(rec_a.finish())
        assert tables == [["A"], ["A", "B"]] + [["A", "B", "C"]] * 3
        assert_identical(streamed, mono, ["A", "B", "C"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sharded_streaming_matches(self, jobs):
        # Explicit shards replay each chunk on its own; results stay
        # bit-identical to the plain engine.  Sharded replay does not
        # track residency.
        geometry = CacheGeometry(4, 64, 32)
        rng = np.random.default_rng(29 + jobs)
        trace = random_trace(rng, n=1100)
        mono = CacheSimulator(geometry, engine="array")
        streamed = CacheSimulator(
            geometry, engine="array", shards=2, jobs=jobs
        )
        mono.run(trace)
        stream(streamed, trace, 113)
        assert_identical(streamed, mono, trace.labels)
        if jobs > 1:  # each chunk packed, and unlinked, its own block
            name = streamed._array.last_transport["shm_name"]
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_streaming_auto_resolves_to_array(self):
        # engine="auto" picks the array engine for LRU at construction,
        # so a tiny first chunk cannot route a long stream elsewhere.
        geometry = CacheGeometry(4, 16, 32)
        trace = random_trace(np.random.default_rng(31), n=200)
        sim = CacheSimulator(geometry, engine="auto")
        stream(sim, trace, 5)
        assert sim.engine == "array"
        mono = CacheSimulator(geometry, engine="array")
        mono.run(trace)
        assert sim.stats.as_dict() == mono.stats.as_dict()


class TestIterChunks:
    def test_covers_trace_exactly(self):
        trace = random_trace(np.random.default_rng(1), n=250)
        chunks = list(iter_chunks(trace, 64))
        assert [len(c) for c in chunks] == [64, 64, 64, 58]
        np.testing.assert_array_equal(
            np.concatenate([c.addresses for c in chunks]), trace.addresses
        )
        np.testing.assert_array_equal(
            np.concatenate([c.label_ids for c in chunks]), trace.label_ids
        )
        for chunk in chunks:
            assert chunk.labels == trace.labels

    def test_chunk_refs_below_one_rejected(self):
        trace = random_trace(np.random.default_rng(1), n=10)
        with pytest.raises(ValueError, match="chunk_refs"):
            next(iter_chunks(trace, 0))


class TestIncrementalExpansion:
    """Expansion is per-reference elementwise: chunking is invisible."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        line_size=st.sampled_from([32, 64, 128]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_chunked_expansion_concatenates(self, data, line_size, seed):
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 300))
        trace = random_trace(rng, n=n)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, n), max_size=6, unique=True)
            )
        )
        bounds = [0] + cuts + [n]
        full = _expand_lines(trace, line_size)
        parts = [
            _expand_lines(trace.slice_refs(lo, hi), line_size)
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        for col in range(3):
            np.testing.assert_array_equal(
                np.concatenate([p[col] for p in parts]), full[col]
            )
