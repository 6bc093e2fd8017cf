"""Periodic replay: a period replayed until the cache state repeats.

:meth:`CacheSimulator.run` replays a
:class:`~repro.trace.reference.PeriodicTrace` on the array engine only
until two consecutive end-of-period states are equal, then adds the
remaining periods from the last one's deltas.  Every test here holds it
to a full replay of the whole sequence: the five counters per label
(hits, misses, writebacks, evictions, residency) and the state left
behind.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.configs import PAPER_CACHES, PROFILING_CACHES, CacheGeometry
from repro.cachesim.simulator import CacheSimulator
from repro.core.validation import ground_truth_stats
from repro.experiments.configs import WORKLOADS
from repro.kernels.base import Workload
from repro.kernels.registry import KERNELS
from repro.trace.cache import TraceCache
from repro.trace.reference import PeriodicTrace, ReferenceTrace, iter_chunks

from test_engine_differential import counters, drain

FIXTURE = Path(__file__).parent / "fixtures" / "cg_profiling_stats.json"


def columns(lines, writes, labels, line_size):
    """A trace touching one line per reference."""
    n = len(lines)
    return ReferenceTrace(
        addresses=np.asarray(lines, dtype=np.int64) * line_size,
        is_write=np.asarray(writes, dtype=bool),
        label_ids=np.asarray(labels, dtype=np.int32),
        labels=["A", "B"],
        element_sizes=[1, 1],
    )


def final_state(sim):
    """The array engine's state up to way order: recency view, ages, clock."""
    engine = sim._array
    return (
        *engine.recency_state(),
        np.sort(engine._age, axis=1),
        engine.clock,
    )


def assert_same_state(a, b):
    for left, right in zip(final_state(a), final_state(b)):
        assert np.array_equal(left, right)


def replayed_passes(sim, trace, monkeypatch):
    """Run ``trace`` periodically; returns how many passes were replayed.

    The hand-picked periods fit in one chunk, so a pass is one
    ``run_chunk`` call.
    """
    calls = []
    plain = sim.run_chunk
    monkeypatch.setattr(sim, "run_chunk", lambda c: calls.append(1) or plain(c))
    sim.run(trace)
    monkeypatch.undo()
    return len(calls)


# Hand-picked streams: a cache geometry, a warm-up and a period, each
# as (lines, write flags, labels) on 8-byte lines.
SLOW = (
    CacheGeometry(associativity=2, num_sets=2, line_size=8),
    ([2, 2, 5, 1, 1, 4, 0], [0, 1, 0, 1, 1, 0, 1], [1, 0, 1, 0, 1, 0, 0]),
    ([3, 1, 7, 6], [0, 1, 0, 1], [0, 1, 1, 1]),
)  # the state first repeats after pass 3
FIXED_POINT = (
    CacheGeometry(associativity=3, num_sets=2, line_size=8),
    ([2, 6, 4, 6, 5, 2], [1, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 0]),
    ([2, 2], [0, 1], [0, 1]),
)  # the first pass changes nothing
DIRTY_BITS = (
    CacheGeometry(associativity=2, num_sets=1, line_size=8),
    ([1, 1], [0, 1], [0, 0]),
    ([2, 1, 0], [1, 0, 1], [0, 0, 0]),
)  # pass 2 repeats pass 1's tags and order, not its dirty bits
RECENCY_ORDER = (
    CacheGeometry(associativity=2, num_sets=1, line_size=8),
    ([2, 2, 3, 1], [0, 1, 0, 1], [0, 0, 0, 0]),
    ([0, 0, 1, 3], [1, 0, 0, 0], [0, 0, 0, 0]),
)  # pass 1 keeps the warm-up's lines, in another order


class TestHandPickedStreams:
    @pytest.mark.parametrize("case, repeats, passes", [
        pytest.param(SLOW, 1, 1, id="one-period"),
        pytest.param(SLOW, 2, 2, id="never-repeats"),
        pytest.param(SLOW, 3, 3, id="repeats-at-the-last-period"),
        pytest.param(SLOW, 6, 3, id="repeats-then-extrapolates"),
        pytest.param(FIXED_POINT, 5, 1, id="first-pass-changes-nothing"),
        pytest.param(DIRTY_BITS, 5, 3, id="dirty-bits-count"),
        pytest.param(RECENCY_ORDER, 5, 3, id="recency-order-counts"),
    ])
    def test_matches_full_replay(self, case, repeats, passes, monkeypatch):
        geometry, warm, period = case
        trace = PeriodicTrace(columns(*period, geometry.line_size), repeats)
        fast, full, oracle = (
            CacheSimulator(geometry, engine=engine)
            for engine in ("array", "array", "reference")
        )
        for sim in (fast, full, oracle):
            sim.run(columns(*warm, geometry.line_size))
        assert replayed_passes(fast, trace, monkeypatch) == passes
        full.run(trace.whole())
        oracle.run(trace.whole())
        assert counters(fast.stats) == counters(full.stats)
        assert counters(fast.stats) == counters(oracle.stats)
        # Lines the period never touches keep their ages.
        assert_same_state(fast, full)
        drain(fast, oracle)
        assert counters(fast.stats) == counters(oracle.stats)

    @pytest.mark.parametrize("kwargs", [
        pytest.param({"engine": "reference"}, id="oracle"),
        pytest.param({"shards": 2, "jobs": 1}, id="sharded"),
    ])
    def test_oracle_and_sharded_replay_every_period(self, kwargs, monkeypatch):
        geometry, _, period = SLOW
        trace = PeriodicTrace(columns(*period, geometry.line_size), 6)
        sim = CacheSimulator(geometry, **kwargs)
        assert replayed_passes(sim, trace, monkeypatch) == 6
        full = CacheSimulator(geometry, **kwargs)
        full.run(trace.whole())
        assert counters(sim.stats) == counters(full.stats)


@st.composite
def periodic_streams(draw):
    """A geometry, a warm-up trace and a periodic trace, all random."""
    geometry = CacheGeometry(
        associativity=draw(st.integers(1, 4)),
        num_sets=draw(st.sampled_from([1, 2, 3, 4, 8])),
        line_size=draw(st.sampled_from([8, 16, 32])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = geometry.capacity * draw(st.sampled_from([1, 2, 4]))
    labels = ["t", "u", "v", "x", "y", "z"]

    def random_trace(n):
        # One element size per label, so each trace mixes the straddle
        # widths of a few sizes.
        return ReferenceTrace(
            addresses=rng.integers(0, span, n).astype(np.int64),
            is_write=rng.random(n) < 0.4,
            label_ids=rng.integers(0, len(labels), n).astype(np.int32),
            labels=labels,
            element_sizes=rng.choice([1, 4, 8, 24], len(labels)),
        )

    warm = random_trace(draw(st.integers(0, 40)))
    period = random_trace(draw(st.integers(1, 60)))
    repeats = draw(st.integers(1, 6))
    chunk_refs = draw(st.sampled_from([1, 7, 64, 1 << 18]))
    return geometry, warm, PeriodicTrace(period, repeats), chunk_refs


class TestRandomPeriodicStreams:
    @given(periodic_streams())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_oracle_on_the_tiled_stream(self, case):
        geometry, warm, trace, chunk_refs = case
        fast = CacheSimulator(geometry)
        full = CacheSimulator(geometry)
        oracle = CacheSimulator(geometry, engine="reference")
        for sim in (fast, full, oracle):
            sim.run(warm)
        fast.run(trace, chunk_refs)
        full.run(trace.whole())
        oracle.run(trace.whole())
        assert counters(fast.stats) == counters(oracle.stats)
        assert_same_state(fast, full)
        drain(fast, oracle)
        assert counters(fast.stats) == counters(oracle.stats)


def full_replay(kernel, workload, geometry):
    """Every iteration recorded and streamed through the array engine."""
    sim = CacheSimulator(geometry)
    kernel.trace_stream(workload, 1 << 16, sim.run_chunk)
    return counters(sim.stats)


class TestConjugateGradient:
    @pytest.mark.parametrize("tier", ["test", "verification"])
    @pytest.mark.parametrize("variant", ["cg", "pcg"])
    def test_ground_truth_equals_full_replay(self, tier, variant, tmp_path):
        kernel = KERNELS["CG"]
        base = WORKLOADS[tier]["CG"]
        workload = Workload(base.name, {**base.params, "variant": variant})
        cache = TraceCache(tmp_path)
        for name, geometry in PAPER_CACHES.items():
            expected = full_replay(kernel, workload, geometry)
            for chunk_refs in (1 << 16, 20_000):
                for trace_cache in (None, cache):
                    got = ground_truth_stats(
                        kernel, workload, geometry,
                        trace_cache=trace_cache, chunk_refs=chunk_refs,
                    )
                    assert counters(got) == expected, (
                        name, chunk_refs, trace_cache
                    )
        # The archive and the memo hold one iteration, not the whole.
        (entry,) = cache._memory.values()
        assert entry.repeats == workload["iterations"]
        assert len(entry.period) * entry.repeats == len(entry)

    def test_profiling_tier_matches_the_committed_full_replay(self):
        # fixtures/make_cg_profiling.py streamed all 99 iterations
        # (122,478,048 references) through the array engine on each
        # profiling cache.  On 8MB every sweep of A misses in full:
        # 7,606,368 = 99 x 76,832 lines.
        expected = json.loads(FIXTURE.read_text())
        assert expected["8MB"]["A"][1] == 99 * 76_832
        kernel = KERNELS["CG"]
        workload = WORKLOADS["profiling"]["CG"]
        for name, geometry in PROFILING_CACHES.items():
            stats = ground_truth_stats(kernel, workload, geometry)
            got = {k: list(v) for k, v in counters(stats).items()}
            assert got == expected[name], name

    def test_chunking_of_the_period_does_not_matter(self):
        kernel = KERNELS["CG"]
        trace = kernel.record(WORKLOADS["test"]["CG"])
        geometry = PAPER_CACHES["16KB"]
        results = []
        for chunk_refs in (97, 4096, len(trace.period)):
            sim = CacheSimulator(geometry)
            sim.run(trace, chunk_refs)
            results.append(counters(sim.stats))
        sim = CacheSimulator(geometry)
        for chunk in iter_chunks(trace.whole(), 4096):
            sim.run_chunk(chunk)
        assert results == [counters(sim.stats)] * 3
