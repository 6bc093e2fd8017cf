"""Tests for access-order parsing and the composite model."""

import pytest

from repro.cachesim.configs import CacheGeometry
from repro.patterns.base import PatternError
from repro.patterns.composite import CompositeAccessModel, parse_order
from repro.patterns.streaming import StreamingAccess

SMALL = CacheGeometry(4, 64, 32, "small")
LARGE = CacheGeometry(16, 4096, 64, "large")


class TestParseOrder:
    def test_paper_cg_order(self):
        events = parse_order("r(Ap)p(xp)(Ap)r(rp)")
        assert events == [
            ("r",),
            ("A", "p"),
            ("p",),
            ("x", "p"),
            ("A", "p"),
            ("r",),
            ("r", "p"),
        ]

    def test_single_structure(self):
        assert parse_order("A") == [("A",)]

    def test_whitespace_ignored(self):
        assert parse_order("a (b c)") == [("a",), ("b", "c")]

    @pytest.mark.parametrize(
        "bad",
        ["", "(", ")", "(a", "a)", "()", "((a))", "a-b"],
    )
    def test_malformed_orders_rejected(self, bad):
        with pytest.raises(PatternError):
            parse_order(bad)


class TestCompositeModel:
    def _patterns(self, n_a=250000, n_vec=500):
        return {
            "A": StreamingAccess(8, n_a),
            "p": StreamingAccess(8, n_vec),
            "r": StreamingAccess(8, n_vec),
            "x": StreamingAccess(8, n_vec),
        }

    def test_missing_pattern_rejected(self):
        with pytest.raises(PatternError, match="without patterns"):
            CompositeAccessModel({"A": StreamingAccess(8, 10)}, "AB")

    def test_zero_iterations_rejected(self):
        with pytest.raises(PatternError):
            CompositeAccessModel(self._patterns(), "A", iterations=0)

    def test_single_use_is_base_estimate(self):
        model = CompositeAccessModel(self._patterns(), "A", iterations=1)
        estimates = model.estimate_by_structure(SMALL)
        assert estimates["A"] == StreamingAccess(8, 250000).estimate_accesses(SMALL)

    def test_unordered_structures_charged_once(self):
        model = CompositeAccessModel(self._patterns(), "A", iterations=1)
        estimates = model.estimate_by_structure(SMALL)
        # p never appears in the order but is declared: base charge only.
        assert estimates["p"] == StreamingAccess(8, 500).estimate_accesses(SMALL)

    def test_total_is_sum(self):
        model = CompositeAccessModel(self._patterns(), "r(Ap)p", iterations=3)
        by_structure = model.estimate_by_structure(SMALL)
        assert model.estimate_accesses(SMALL) == pytest.approx(
            sum(by_structure.values())
        )

    def test_iterations_increase_accesses_when_thrashing(self):
        one = CompositeAccessModel(self._patterns(), "r(Ap)p(xp)(Ap)r(rp)", 1)
        ten = CompositeAccessModel(self._patterns(), "r(Ap)p(xp)(Ap)r(rp)", 10)
        assert ten.estimate_accesses(SMALL) > one.estimate_accesses(SMALL)

    def test_resident_working_set_insensitive_to_iterations(self):
        # Everything fits in the 4 MB cache: reuse reloads ~nothing.
        patterns = self._patterns(n_a=1000, n_vec=100)
        one = CompositeAccessModel(patterns, "r(Ap)p(xp)(Ap)r(rp)", 1)
        ten = CompositeAccessModel(patterns, "r(Ap)p(xp)(Ap)r(rp)", 10)
        assert ten.estimate_accesses(LARGE) == pytest.approx(
            one.estimate_accesses(LARGE), rel=0.01
        )

    def test_big_matrix_dominates_cg_traffic(self):
        """In CG, the matrix A should dominate main-memory accesses."""
        model = CompositeAccessModel(
            self._patterns(), "r(Ap)p(xp)(Ap)r(rp)", iterations=25
        )
        estimates = model.estimate_by_structure(SMALL)
        assert estimates["A"] > 10 * max(
            estimates["p"], estimates["r"], estimates["x"]
        )

    def test_footprint_is_union(self):
        model = CompositeAccessModel(self._patterns(), "A")
        assert model.footprint_bytes() == 8 * (250000 + 3 * 500)

    def test_interference_window_wraps(self):
        """Wrap-around reuse sees interference from both cycle ends."""
        patterns = {
            "a": StreamingAccess(8, 4096),   # 32 KB, thrashes the 8 KB cache
            "b": StreamingAccess(8, 4096),
        }
        model = CompositeAccessModel(patterns, "ab", iterations=5)
        estimates = model.estimate_by_structure(SMALL)
        # a is reloaded every iteration after b floods the cache.
        base = StreamingAccess(8, 4096).estimate_accesses(SMALL)
        assert estimates["a"] > 4 * base

    def test_explicit_event_list_accepted(self):
        model = CompositeAccessModel(
            self._patterns(), [("r",), ("A", "p")], iterations=2
        )
        assert "A" in model.estimate_by_structure(SMALL)
