"""Tests for cache geometry and the paper's Table IV configurations."""

import pytest

from repro.cachesim.configs import (
    PAPER_CACHES,
    PROFILING_CACHES,
    VERIFICATION_CACHES,
    CacheGeometry,
)


class TestCacheGeometry:
    def test_capacity_is_product(self):
        geo = CacheGeometry(4, 64, 32)
        assert geo.capacity == 4 * 64 * 32

    def test_num_blocks(self):
        geo = CacheGeometry(8, 128, 64)
        assert geo.num_blocks == 8 * 128

    def test_set_index_wraps_on_num_sets(self):
        geo = CacheGeometry(2, 16, 32)
        assert geo.set_index(0) == 0
        assert geo.set_index(32) == 1
        assert geo.set_index(32 * 16) == 0

    def test_tag_distinguishes_aliasing_lines(self):
        geo = CacheGeometry(2, 16, 32)
        a, b = 0, 32 * 16  # same set, different tag
        assert geo.set_index(a) == geo.set_index(b)
        assert geo.tag(a) != geo.tag(b)

    def test_line_id(self):
        geo = CacheGeometry(2, 16, 32)
        assert geo.line_id(0) == 0
        assert geo.line_id(31) == 0
        assert geo.line_id(32) == 1

    def test_lines_touched_single(self):
        geo = CacheGeometry(2, 16, 32)
        assert list(geo.lines_touched(0, 8)) == [0]

    def test_lines_touched_straddling(self):
        geo = CacheGeometry(2, 16, 32)
        assert list(geo.lines_touched(30, 8)) == [0, 1]

    def test_lines_touched_large_access(self):
        geo = CacheGeometry(2, 16, 32)
        assert list(geo.lines_touched(0, 128)) == [0, 1, 2, 3]

    def test_lines_touched_rejects_zero_size(self):
        geo = CacheGeometry(2, 16, 32)
        with pytest.raises(ValueError):
            geo.lines_touched(0, 0)

    @pytest.mark.parametrize("assoc", [0, -1])
    def test_rejects_bad_associativity(self, assoc):
        with pytest.raises(ValueError):
            CacheGeometry(assoc, 16, 32)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            CacheGeometry(2, 16, 48)

    def test_rejects_zero_sets(self):
        with pytest.raises(ValueError):
            CacheGeometry(2, 0, 32)

    def test_describe_mentions_all_fields(self):
        geo = CacheGeometry(4, 64, 32, name="small")
        text = geo.describe()
        assert "small" in text and "CA=4" in text and "NA=64" in text


class TestPaperTable4:
    """The named configurations must match paper Table IV verbatim."""

    def test_small_verification(self):
        geo = VERIFICATION_CACHES["small"]
        assert (geo.associativity, geo.num_sets, geo.line_size) == (4, 64, 32)
        assert geo.capacity == 8 * 1024

    def test_large_verification(self):
        geo = VERIFICATION_CACHES["large"]
        assert (geo.associativity, geo.num_sets, geo.line_size) == (16, 4096, 64)
        assert geo.capacity == 4 * 1024 * 1024

    def test_16kb_profiling(self):
        geo = PROFILING_CACHES["16KB"]
        assert (geo.associativity, geo.num_sets, geo.line_size) == (2, 1024, 8)
        assert geo.capacity == 16 * 1024

    def test_128kb_profiling(self):
        geo = PROFILING_CACHES["128KB"]
        assert (geo.associativity, geo.num_sets, geo.line_size) == (4, 2048, 16)
        assert geo.capacity == 128 * 1024

    def test_1mb_profiling_paper_triple(self):
        geo = PROFILING_CACHES["1MB"]
        assert (geo.associativity, geo.num_sets, geo.line_size) == (6, 4096, 32)

    def test_8mb_profiling_paper_triple(self):
        geo = PROFILING_CACHES["8MB"]
        assert (geo.associativity, geo.num_sets, geo.line_size) == (8, 8192, 64)

    def test_profiling_caches_strictly_increasing_capacity(self):
        caps = [
            PROFILING_CACHES[name].capacity
            for name in ("16KB", "128KB", "1MB", "8MB")
        ]
        assert caps == sorted(caps)
        assert len(set(caps)) == len(caps)

    def test_paper_caches_is_union(self):
        assert set(PAPER_CACHES) == set(VERIFICATION_CACHES) | set(
            PROFILING_CACHES
        )
