"""Sampling-estimator tests: census exactness, CI coverage, invariances.

The cluster-sampling estimator (:mod:`repro.cachesim.estimate`) replays
a subset of cache-set groups exactly, so:

* a census (``sample_fraction=1``) must equal exact replay bit-for-bit
  with every half-width zero;
* a real sample's ``estimate ± halfwidth`` must cover the exact value
  at (at least) the stated confidence across seeded repetitions;
* results must be invariant to how the stream is chunked;
* the statistical helper (:func:`finite_population_total`) must match
  hand-computed expansion totals.
"""

import json

import numpy as np
import pytest

from repro.cachesim import (
    CacheGeometry,
    EstimateResult,
    TraceEstimator,
    estimate_trace,
    simulate_trace,
)
from repro.patterns.base import PatternError
from repro.patterns.random_access import finite_population_total
from repro.trace.reference import iter_chunks

from test_engine_differential import random_trace

GEOMETRY = CacheGeometry(4, 256, 64)


def exact_counts(trace, geometry=GEOMETRY, flush=False):
    stats = simulate_trace(trace, geometry, flush_at_end=flush)
    return {
        name: (c.hits, c.misses, c.writebacks)
        for name, c in stats.by_label.items()
    }


class TestCensus:
    @pytest.mark.parametrize("flush", [False, True])
    def test_census_equals_exact_replay(self, flush):
        trace = random_trace(np.random.default_rng(7), n=4000)
        result = estimate_trace(
            trace, GEOMETRY, flush_at_end=flush, sample_fraction=1.0
        )
        for name, (hits, misses, writebacks) in exact_counts(
            trace, flush=flush
        ).items():
            est = result.label(name)
            assert est.hits == hits
            assert est.misses == misses
            assert est.writebacks == writebacks
            assert est.memory_accesses == misses + writebacks
            assert est.hits_halfwidth == 0.0
            assert est.misses_halfwidth == 0.0
            assert est.memory_accesses_halfwidth == 0.0
        assert result.sample_fraction == 1.0
        assert result.sampled_sets == GEOMETRY.num_sets

    def test_census_on_tiny_cache(self):
        # num_sets < groups: G is capped and the census still works.
        geometry = CacheGeometry(2, 4, 32)
        trace = random_trace(np.random.default_rng(9), n=800)
        result = estimate_trace(trace, geometry, sample_fraction=1.0)
        exact = exact_counts(trace, geometry)
        for name, (hits, misses, _) in exact.items():
            assert result.label(name).misses == misses
        assert result.num_groups == 4


class TestCoverage:
    def test_halfwidths_cover_exact_value(self):
        # Across seeded repetitions the 95% interval must cover the
        # exact per-label miss count at least ~nominal rate; with 20
        # seeds, demand >= 16 covered (P[fail] negligible if honest).
        trace = random_trace(
            np.random.default_rng(123), n=6000, addr_space=1 << 18
        )
        exact = exact_counts(trace)
        covered = 0
        trials = 0
        for seed in range(20):
            result = estimate_trace(
                trace, GEOMETRY, sample_fraction=0.25, seed=seed
            )
            for name, (_, misses, _) in exact.items():
                trials += 1
                est = result.label(name)
                if abs(est.misses - misses) <= est.misses_halfwidth:
                    covered += 1
        assert covered >= 0.8 * trials

    def test_estimate_is_unbiased_on_average(self):
        trace = random_trace(np.random.default_rng(5), n=5000)
        exact = exact_counts(trace)
        name = max(exact, key=lambda k: exact[k][1])
        estimates = [
            estimate_trace(
                trace, GEOMETRY, sample_fraction=0.25, seed=seed
            ).misses(name)
            for seed in range(24)
        ]
        misses = exact[name][1]
        assert abs(np.mean(estimates) - misses) < 0.1 * misses


class TestInvariances:
    def test_chunking_invariance(self):
        trace = random_trace(np.random.default_rng(3), n=3000)
        whole = estimate_trace(
            trace, GEOMETRY, sample_fraction=0.25, seed=2
        )
        for chunk_refs in (1, 257, 4096):
            chunked = estimate_trace(
                iter_chunks(trace, chunk_refs),
                GEOMETRY,
                sample_fraction=0.25,
                seed=2,
            )
            assert chunked.as_dict() == whole.as_dict()

    def test_chunk_refs_argument_matches_iterator(self):
        trace = random_trace(np.random.default_rng(3), n=2000)
        a = estimate_trace(trace, GEOMETRY, seed=1, chunk_refs=97)
        b = estimate_trace(iter_chunks(trace, 97), GEOMETRY, seed=1)
        assert a.as_dict() == b.as_dict()

    def test_push_mode_matches_pull_mode(self):
        trace = random_trace(np.random.default_rng(13), n=1500)
        estimator = TraceEstimator(GEOMETRY, sample_fraction=0.5, seed=4)
        for chunk in iter_chunks(trace, 111):
            estimator.consume(chunk)
        pushed = estimator.finish()
        pulled = estimate_trace(
            trace, GEOMETRY, sample_fraction=0.5, seed=4
        )
        assert pushed.as_dict() == pulled.as_dict()

    def test_sampled_refs_scale_with_fraction(self):
        trace = random_trace(np.random.default_rng(21), n=4000)
        result = estimate_trace(trace, GEOMETRY, sample_fraction=0.25)
        assert result.refs == 4000
        assert 0 < result.sampled_refs < result.refs
        frac = result.sampled_sets / result.num_sets
        assert 0.1 < frac < 0.5


class TestEstimateTrace:
    def test_returns_estimate_result(self):
        trace = random_trace(np.random.default_rng(1), n=1000)
        result = estimate_trace(trace, GEOMETRY, sample_fraction=0.5, seed=0)
        assert isinstance(result, EstimateResult)
        json.dumps(result.as_dict())  # serialisable


class TestEstimatorValidation:
    def test_sample_fraction_bounds(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="sample_fraction"):
                TraceEstimator(GEOMETRY, sample_fraction=bad)

    def test_groups_bound(self):
        with pytest.raises(ValueError, match="groups"):
            TraceEstimator(GEOMETRY, groups=0)

    def test_confidence_bounds(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError, match="confidence"):
                TraceEstimator(GEOMETRY, confidence=bad)

    def test_finish_is_terminal(self):
        trace = random_trace(np.random.default_rng(1), n=100)
        estimator = TraceEstimator(GEOMETRY)
        estimator.consume(trace)
        estimator.finish()
        with pytest.raises(RuntimeError, match="finished"):
            estimator.finish()
        with pytest.raises(RuntimeError, match="finished"):
            estimator.consume(trace)

    def test_unknown_label_reads_as_zero(self):
        trace = random_trace(np.random.default_rng(1), n=100)
        result = estimate_trace(trace, GEOMETRY, sample_fraction=1.0)
        assert result.misses("nope") == 0.0
        assert result.label("nope").memory_accesses == 0.0


class TestFinitePopulationTotal:
    def test_census_is_exact(self):
        total, hw = finite_population_total([3.0, 5.0, 7.0], 3)
        assert total == 15.0
        assert hw == 0.0

    def test_single_cluster_has_infinite_halfwidth(self):
        total, hw = finite_population_total([4.0], 10)
        assert total == 40.0
        assert hw == float("inf")

    def test_expansion_total_and_fpc(self):
        values = [10.0, 14.0, 12.0, 16.0]
        total, hw = finite_population_total(values, 8, confidence=0.95)
        assert total == 8 * 13.0
        # Half-width shrinks with higher sampling fraction (FPC).
        _, hw_half = finite_population_total(values, 5, confidence=0.95)
        assert 0.0 < hw_half < hw

    def test_invalid_inputs(self):
        with pytest.raises(PatternError, match="population_clusters"):
            finite_population_total([1.0], 0)
        with pytest.raises(PatternError, match="confidence"):
            finite_population_total([1.0, 2.0], 4, confidence=1.5)
        with pytest.raises(PatternError, match="sample size"):
            finite_population_total([1.0] * 5, 4)
