"""Tests for the bump-allocator address space."""

import pytest

from repro.trace.address_space import AddressSpace


class TestAllocation:
    def test_first_segment_at_base(self):
        space = AddressSpace()
        seg = space.allocate("A", 10, 8)
        assert seg.base == 0
        assert seg.size == 80

    def test_segments_do_not_overlap(self):
        space = AddressSpace()
        a = space.allocate("A", 10, 8)
        b = space.allocate("B", 10, 8)
        assert b.base >= a.end

    def test_segments_are_aligned(self):
        space = AddressSpace(alignment=64)
        space.allocate("A", 1, 8)
        b = space.allocate("B", 1, 8)
        assert b.base % 64 == 0

    def test_custom_alignment(self):
        space = AddressSpace(alignment=128)
        space.allocate("A", 3, 8)
        b = space.allocate("B", 1, 8)
        assert b.base == 128

    def test_duplicate_label_rejected(self):
        space = AddressSpace()
        space.allocate("A", 10, 8)
        with pytest.raises(ValueError, match="already allocated"):
            space.allocate("A", 10, 8)

    @pytest.mark.parametrize("n,e", [(0, 8), (10, 0), (-1, 8)])
    def test_bad_sizes_rejected(self, n, e):
        with pytest.raises(ValueError):
            AddressSpace().allocate("A", n, e)

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(alignment=48)


class TestSegmentQueries:
    def test_contains(self):
        space = AddressSpace()
        seg = space.allocate("A", 10, 8)
        assert seg.contains(seg.base)
        assert seg.contains(seg.end - 1)
        assert not seg.contains(seg.end)

    def test_label_of(self):
        space = AddressSpace()
        a = space.allocate("A", 10, 8)
        b = space.allocate("B", 10, 8)
        assert space.label_of(a.base + 5) == "A"
        assert space.label_of(b.base) == "B"

    def test_label_of_unmapped_raises(self):
        space = AddressSpace()
        space.allocate("A", 1, 8)
        with pytest.raises(LookupError):
            space.label_of(10**9)

    def test_unknown_segment_lookup(self):
        with pytest.raises(KeyError, match="unknown data structure"):
            AddressSpace().segment("missing")

    def test_total_bytes_excludes_padding(self):
        space = AddressSpace(alignment=64)
        space.allocate("A", 1, 8)
        space.allocate("B", 1, 8)
        assert space.total_bytes() == 16

    def test_num_elements(self):
        seg = AddressSpace().allocate("A", 7, 16)
        assert seg.num_elements == 7
