"""Unit tests for the set-associative LRU cache."""

import pytest

from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.configs import CacheGeometry


@pytest.fixture
def tiny():
    """2-way, 2-set, 32B lines: 128 bytes total — easy to reason about."""
    return SetAssociativeCache(CacheGeometry(2, 2, 32))


class TestBasicHitsAndMisses:
    def test_first_access_misses(self, tiny):
        assert tiny.access_line(0, False, "A") is False

    def test_second_access_hits(self, tiny):
        tiny.access_line(0, False, "A")
        assert tiny.access_line(0, False, "A") is True

    def test_different_lines_both_miss(self, tiny):
        assert not tiny.access_line(0, False, "A")
        assert not tiny.access_line(1, False, "A")

    def test_stats_accumulate(self, tiny):
        tiny.access_line(0, False, "A")
        tiny.access_line(0, False, "A")
        tiny.access_line(1, False, "A")
        stats = tiny.stats.label("A")
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.accesses == 3

    def test_labels_tracked_separately(self, tiny):
        tiny.access_line(0, False, "A")
        tiny.access_line(1, False, "B")
        assert tiny.stats.label("A").misses == 1
        assert tiny.stats.label("B").misses == 1


class TestLRUEviction:
    def test_lru_victim_chosen(self, tiny):
        # Lines 0, 2, 4 all map to set 0 (num_sets=2, even line ids).
        tiny.access_line(0, False, "A")
        tiny.access_line(2, False, "A")
        tiny.access_line(4, False, "A")  # evicts line 0
        assert tiny.access_line(2, False, "A") is True
        assert tiny.access_line(0, False, "A") is False

    def test_touch_refreshes_lru(self, tiny):
        tiny.access_line(0, False, "A")
        tiny.access_line(2, False, "A")
        tiny.access_line(0, False, "A")  # 0 now MRU
        tiny.access_line(4, False, "A")  # evicts 2, not 0
        assert tiny.access_line(0, False, "A") is True
        assert tiny.access_line(2, False, "A") is False

    def test_sets_are_independent(self, tiny):
        # Odd lines map to set 1; filling set 0 must not evict set 1.
        tiny.access_line(1, False, "A")
        tiny.access_line(0, False, "A")
        tiny.access_line(2, False, "A")
        tiny.access_line(4, False, "A")
        assert tiny.access_line(1, False, "A") is True

    def test_resident_never_exceeds_capacity(self, tiny):
        for line in range(100):
            tiny.access_line(line, False, "A")
        stats = tiny.stats.label("A")
        assert stats.misses - stats.evictions <= tiny.geometry.num_blocks


class TestWritebacks:
    def test_clean_eviction_no_writeback(self, tiny):
        tiny.access_line(0, False, "A")
        tiny.access_line(2, False, "A")
        tiny.access_line(4, False, "A")
        assert tiny.stats.label("A").writebacks == 0

    def test_dirty_eviction_writes_back(self, tiny):
        tiny.access_line(0, True, "A")
        tiny.access_line(2, False, "A")
        tiny.access_line(4, False, "A")  # evicts dirty line 0
        assert tiny.stats.label("A").writebacks == 1

    def test_writeback_charged_to_owner(self, tiny):
        tiny.access_line(0, True, "A")
        tiny.access_line(2, False, "B")
        tiny.access_line(4, False, "B")  # B evicts A's dirty line
        assert tiny.stats.label("A").writebacks == 1
        assert tiny.stats.label("B").writebacks == 0

    def test_write_hit_marks_dirty(self, tiny):
        tiny.access_line(0, False, "A")   # clean load
        tiny.access_line(0, True, "A")    # dirty on hit
        tiny.access_line(2, False, "A")
        tiny.access_line(4, False, "A")   # evicts 0 -> writeback
        assert tiny.stats.label("A").writebacks == 1


class TestByteAccess:
    def test_access_within_line_is_one_access(self, tiny):
        misses = tiny.access(0, 8, False, "A")
        assert misses == 1
        assert tiny.stats.label("A").accesses == 1

    def test_straddling_access_touches_two_lines(self, tiny):
        misses = tiny.access(30, 8, False, "A")
        assert misses == 2
        assert tiny.stats.label("A").accesses == 2


class TestFullyAssociativeBehaviour:
    def test_single_set_acts_fully_associative(self):
        cache = SetAssociativeCache(CacheGeometry(4, 1, 32))
        for line in range(4):
            cache.access_line(line, False, "A")
        for line in range(4):
            assert cache.access_line(line, False, "A") is True
        cache.access_line(4, False, "A")  # evicts LRU = line 0
        assert cache.access_line(0, False, "A") is False

    def test_direct_mapped_conflicts(self):
        cache = SetAssociativeCache(CacheGeometry(1, 4, 32))
        cache.access_line(0, False, "A")
        cache.access_line(4, False, "A")  # same set, evicts 0
        assert cache.access_line(0, False, "A") is False
