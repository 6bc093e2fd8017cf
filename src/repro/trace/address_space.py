"""A flat address space assigning byte ranges to named data structures.

CGPMAC reasons about accesses *per data structure*; the cache simulator
needs concrete addresses.  :class:`AddressSpace` bridges the two: each
data structure gets a contiguous, aligned segment, so a kernel can emit
element indices and the recorder translates them to byte addresses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Segment:
    """A named, contiguous byte range.

    Attributes
    ----------
    label:
        Data-structure name (e.g. ``"A"``).
    base:
        First byte address.
    size:
        Length in bytes.
    element_size:
        Size of one element in bytes (for index->address translation).
    """

    label: str
    base: int
    size: int
    element_size: int

    @property
    def end(self) -> int:
        """One past the last byte of the segment."""
        return self.base + self.size

    @property
    def num_elements(self) -> int:
        """Number of whole elements in the segment."""
        return self.size // self.element_size

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this segment."""
        return self.base <= address < self.end


class AddressSpace:
    """Bump allocator laying out data structures in a flat address space.

    Segments are aligned to ``alignment`` bytes (default: a 64-byte cache
    line, so distinct data structures never share a line — matching the
    paper's per-data-structure accounting, which attributes every line to
    exactly one structure).
    """

    def __init__(self, base: int = 0, alignment: int = 64):
        if alignment < 1 or (alignment & (alignment - 1)) != 0:
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        self._next = _align_up(base, alignment)
        self._alignment = alignment
        self._segments: dict[str, Segment] = {}

    @property
    def alignment(self) -> int:
        """Segment alignment in bytes."""
        return self._alignment

    @property
    def segments(self) -> dict[str, Segment]:
        """All allocated segments, keyed by label (read-only view)."""
        return dict(self._segments)

    def allocate(self, label: str, num_elements: int, element_size: int) -> Segment:
        """Allocate a segment for ``num_elements`` items of ``element_size`` bytes."""
        if label in self._segments:
            raise ValueError(f"data structure {label!r} already allocated")
        if num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {num_elements}")
        if element_size < 1:
            raise ValueError(f"element_size must be >= 1, got {element_size}")
        size = num_elements * element_size
        seg = Segment(
            label=label, base=self._next, size=size, element_size=element_size
        )
        self._segments[label] = seg
        self._next = _align_up(seg.end, self._alignment)
        return seg

    def segment(self, label: str) -> Segment:
        """Look up a segment by label."""
        try:
            return self._segments[label]
        except KeyError:
            raise KeyError(
                f"unknown data structure {label!r}; allocated: "
                f"{sorted(self._segments)}"
            ) from None

    def label_of(self, address: int) -> str:
        """Label owning ``address``; raises ``LookupError`` if unmapped."""
        for seg in self._segments.values():
            if seg.contains(address):
                return seg.label
        raise LookupError(f"address {address:#x} not in any segment")

    def total_bytes(self) -> int:
        """Sum of all segment sizes (working-set size, excluding padding)."""
        return sum(seg.size for seg in self._segments.values())


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)
