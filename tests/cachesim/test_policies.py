"""Tests for the alternative replacement policies (LRU ablation)."""

import numpy as np
import pytest

from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import CacheSimulator, simulate_trace
from repro.trace.recorder import TraceRecorder

SMALL = CacheGeometry(4, 64, 32, "small")


def make_trace(indices, num_elements=4096):
    rec = TraceRecorder()
    rec.allocate("A", num_elements, 8)
    rec.record_elements("A", np.asarray(indices), False)
    return rec.finish()


class TestPolicyBasics:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            SetAssociativeCache(SMALL, policy="plru")

    def test_fifo_hit_does_not_refresh(self):
        cache = SetAssociativeCache(CacheGeometry(2, 1, 32), policy="fifo")
        cache.access_line(0, False, "A")
        cache.access_line(1, False, "A")
        cache.access_line(0, False, "A")  # hit; FIFO order unchanged
        cache.access_line(2, False, "A")  # evicts 0 (oldest insertion)
        assert cache.access_line(0, False, "A") is False

    def test_lru_hit_refreshes(self):
        cache = SetAssociativeCache(CacheGeometry(2, 1, 32), policy="lru")
        cache.access_line(0, False, "A")
        cache.access_line(1, False, "A")
        cache.access_line(0, False, "A")
        cache.access_line(2, False, "A")  # evicts 1, not 0
        assert cache.access_line(0, False, "A") is True

    def test_random_policy_deterministic_given_seed(self):
        trace = make_trace(np.random.default_rng(0).integers(0, 2048, 3000))
        a = simulate_trace(trace, SMALL, policy="random")
        b = simulate_trace(trace, SMALL, policy="random")
        assert a.label("A").misses == b.label("A").misses

    def test_random_policy_capacity_respected(self):
        cache = SetAssociativeCache(CacheGeometry(2, 2, 32), policy="random")
        for line in range(50):
            cache.access_line(line, False, "A")
        resident = cache.stats.total.misses - cache.stats.total.evictions
        assert resident <= 4


class TestPolicyOrdering:
    def test_policies_agree_on_cold_misses(self):
        """A no-reuse stream misses identically under every policy."""
        trace = make_trace(np.arange(0, 4096, 4))
        counts = {
            policy: simulate_trace(trace, SMALL, policy=policy).label("A").misses
            for policy in ("lru", "fifo", "random")
        }
        assert len(set(counts.values())) == 1

    def test_lru_best_on_looping_reuse(self):
        """A working loop slightly over capacity: LRU thrashes it, but
        so do the others; on a skewed mix LRU wins."""
        rng = np.random.default_rng(0)
        hot = rng.integers(0, 128, 4000)        # hot region, fits
        cold = rng.integers(128, 4096, 1000)    # sparse cold traffic
        mix = np.empty(5000, dtype=np.int64)
        mix[0::5] = cold
        for k in range(1, 5):
            mix[k::5] = hot[(k - 1) * 1000 : k * 1000]
        trace = make_trace(mix)
        lru = simulate_trace(trace, SMALL, policy="lru").label("A").misses
        fifo = simulate_trace(trace, SMALL, policy="fifo").label("A").misses
        rand = simulate_trace(trace, SMALL, policy="random").label("A").misses
        assert lru <= fifo
        assert lru <= rand


class TestPolicyResidency:
    def test_residency_identical_without_evictions(self):
        """With nothing evicted, residency cannot depend on the policy.

        Two labels' 512-byte footprints (32 lines) fit the 64-set cache
        without a conflict, so every policy inserts the same lines at
        the same accesses and must report the same integrals.
        """
        rng = np.random.default_rng(3)
        rec = TraceRecorder()
        for label in ("a", "b"):
            rec.allocate(label, 64, 8)
        for label in ("a", "b", "a"):
            rec.record_elements(label, rng.integers(0, 64, 200), False)
        trace = rec.finish()
        sims = {
            policy: CacheSimulator(SMALL, policy=policy)
            for policy in ("lru", "fifo", "random")
        }
        for sim in sims.values():
            sim.run(trace)
        lru = sims["lru"]
        assert lru.stats.total.evictions == 0
        for label in ("a", "b"):
            assert lru.average_resident_lines(label) > 0.0
            for sim in sims.values():
                assert sim.average_resident_lines(
                    label
                ) == lru.average_resident_lines(label)
