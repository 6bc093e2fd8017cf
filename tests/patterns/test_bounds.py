"""Randomized physical-bounds tests for every CGPMAC estimator.

For every pattern class and a grid of cache geometries, seeded random
parameter draws must satisfy the guardrail invariant

    min_accesses  <=  checked estimate  <=  max_accesses  (finite),

where ``min_accesses`` is the touched-block compulsory floor and
``max_accesses`` the worst case ``T*AE`` (every reference missing every
line it can span).
"""

import math
import random

import pytest

from repro.cachesim.configs import CacheGeometry
from repro.diagnostics import DiagnosticSink
from repro.patterns.base import (
    PatternError,
    WorstCaseAccess,
    alignment_probability,
    ceil_div,
)
from repro.patterns.composite import CompositeAccessModel
from repro.patterns.random_access import RandomAccess
from repro.patterns.reuse import ReuseAccess
from repro.patterns.streaming import StreamingAccess
from repro.patterns.template import SweepTemplate, TemplateAccess

GEOMETRIES = (
    CacheGeometry(2, 16, 32, "tiny"),
    CacheGeometry(4, 64, 32, "small"),
    CacheGeometry(8, 1024, 64, "mid"),
    CacheGeometry(16, 4096, 64, "large"),
)

TRIALS = 25


def _draw_streaming(rng):
    return StreamingAccess(
        element_size=rng.choice([1, 4, 8, 16, 64, 96]),
        num_elements=rng.randint(1, 5000),
        stride_elements=rng.randint(1, 8),
        sweeps=rng.randint(1, 4),
        aligned=rng.random() < 0.5,
    )


def _draw_random(rng):
    n = rng.randint(1, 5000)
    return RandomAccess(
        num_elements=n,
        element_size=rng.choice([4, 8, 32]),
        distinct_per_iteration=rng.randint(1, n),
        iterations=rng.randint(1, 20),
        cache_ratio=rng.choice([0.25, 0.5, 1.0]),
    )


def _draw_template(rng):
    refs = [rng.randint(0, 2000) for _ in range(rng.randint(1, 40))]
    return TemplateAccess(
        element_size=rng.choice([2, 8, 16]),
        template=refs,
        repeats=rng.randint(1, 3),
    )


def _draw_sweep_template(rng):
    group = sorted(rng.sample(range(0, 50), rng.randint(1, 4)))
    step = rng.randint(1, 5)
    iters = rng.randint(1, 50)
    sweep = SweepTemplate(
        start=tuple(group),
        step=step,
        end=tuple(g + step * (iters - 1) for g in group),
    )
    return TemplateAccess(element_size=8, template=sweep)


def _draw_reuse(rng):
    return ReuseAccess(
        target_bytes=rng.randint(1, 1 << 18),
        interfering_bytes=rng.randint(0, 1 << 20),
        reuse_count=rng.randint(0, 10),
        scenario=rng.choice(["exclusive", "concurrent", "hypergeometric"]),
        placement=rng.choice(["sequential", "bernoulli"]),
    )


def _draw_composite(rng):
    a = StreamingAccess(8, rng.randint(100, 3000), sweeps=1)
    b = StreamingAccess(8, rng.randint(100, 3000), sweeps=1)
    c = ReuseAccess(
        target_bytes=rng.randint(64, 1 << 14),
        interfering_bytes=rng.randint(0, 1 << 16),
    )
    return CompositeAccessModel(
        patterns={"a": a, "b": b, "c": c},
        order=rng.choice(["a(bc)c", "abc", "(ab)c(ac)", "c(ab)"]),
        iterations=rng.randint(1, 5),
    )


def _draw_worst_case(rng):
    return WorstCaseAccess(
        num_elements=rng.randint(1, 5000),
        element_size=rng.choice([1, 8, 80]),
        total_references=rng.choice([None, float(rng.randint(1, 100000))]),
    )


DRAWS = {
    "streaming": _draw_streaming,
    "random": _draw_random,
    "template": _draw_template,
    "sweep-template": _draw_sweep_template,
    "reuse": _draw_reuse,
    "composite": _draw_composite,
    "worst-case": _draw_worst_case,
}


@pytest.mark.parametrize("family", sorted(DRAWS))
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.name)
def test_bounds_invariant(family, geometry):
    rng = random.Random(f"{family}/{geometry.name}")
    draw = DRAWS[family]
    for _ in range(TRIALS):
        pattern = draw(rng)
        lo = pattern.min_accesses(geometry)
        hi = pattern.max_accesses(geometry)
        sink = DiagnosticSink()
        value, degraded = pattern.estimate_accesses_checked(
            geometry, sink=sink
        )
        assert math.isfinite(value), (pattern, geometry)
        assert not degraded, (pattern, geometry, list(sink))
        assert 0.0 <= lo <= hi, (pattern, geometry)
        assert lo <= value <= hi, (pattern, geometry, value, lo, hi)
        # A healthy estimator stays in bounds on its own: the clamp must
        # not have fired beyond floating-point slack.
        raw = pattern.estimate_accesses(geometry)
        tol = 1e-9 * max(abs(hi), 1.0)
        assert raw <= hi + tol, (pattern, geometry, raw, hi)
        assert raw >= lo - tol, (pattern, geometry, raw, lo)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.name)
def test_strict_checked_matches_raw(geometry):
    rng = random.Random(17)
    for _ in range(TRIALS):
        pattern = _draw_streaming(rng)
        raw = pattern.estimate_accesses(geometry)
        value, degraded = pattern.estimate_accesses_checked(geometry)
        assert not degraded
        assert value == pytest.approx(raw)


class TestWorstCaseAccess:
    def test_estimate_is_ceiling(self):
        g = GEOMETRIES[1]
        p = WorstCaseAccess(num_elements=100, element_size=8)
        assert p.estimate_accesses(g) == p.max_accesses(g)
        # T*AE with T=N=100 and AE=2 (an unaligned 8-byte element can
        # straddle two 32-byte lines); floor is ceil(800/32)=25.
        assert p.estimate_accesses(g) == 200.0

    def test_floor_dominates_tiny_reference_count(self):
        g = GEOMETRIES[1]
        p = WorstCaseAccess(num_elements=1000, element_size=8,
                            total_references=1.0)
        assert p.estimate_accesses(g) == p.footprint_blocks(g)

    def test_rejects_bad_parameters(self):
        with pytest.raises(PatternError):
            WorstCaseAccess(num_elements=0, element_size=8)
        with pytest.raises(PatternError):
            WorstCaseAccess(num_elements=10, element_size=8,
                            total_references=float("nan"))


class TestGuardrailDegradation:
    class _Broken(StreamingAccess):
        def estimate_accesses(self, geometry):
            raise PatternError("synthetic failure")

    class _NonFinite(StreamingAccess):
        def estimate_accesses(self, geometry):
            return float("nan")

    def test_failure_degrades_leniently(self):
        g = GEOMETRIES[0]
        p = self._Broken(8, 100)
        sink = DiagnosticSink()
        value, degraded = p.estimate_accesses_checked(
            g, sink=sink, structure="X"
        )
        assert degraded
        assert value == p.max_accesses(g)
        assert [d.code for d in sink] == ["ASP304"]
        assert sink.errors[0].structure == "X"

    def test_failure_raises_strictly(self):
        with pytest.raises(PatternError, match="synthetic"):
            self._Broken(8, 100).estimate_accesses_checked(GEOMETRIES[0])

    def test_non_finite_degrades_with_warning(self):
        g = GEOMETRIES[0]
        sink = DiagnosticSink()
        value, degraded = self._NonFinite(8, 100).estimate_accesses_checked(
            g, sink=sink
        )
        assert degraded and math.isfinite(value)
        assert [d.code for d in sink] == ["ASP303"]

    def test_non_finite_raises_strictly(self):
        with pytest.raises(PatternError, match="non-finite"):
            self._NonFinite(8, 100).estimate_accesses_checked(GEOMETRIES[0])


class TestValidationSatellites:
    def test_ceil_div_rejects_negative_dividend(self):
        with pytest.raises(PatternError):
            ceil_div(-1, 4)

    def test_ceil_div_rejects_nonpositive_divisor(self):
        with pytest.raises(PatternError):
            ceil_div(4, 0)
        with pytest.raises(PatternError):
            ceil_div(4, -2)

    def test_ceil_div_values(self):
        assert ceil_div(0, 4) == 0
        assert ceil_div(9, 4) == 3

    def test_alignment_probability_rejects_bad_line_size(self):
        with pytest.raises(PatternError):
            alignment_probability(8, 0)
        with pytest.raises(PatternError):
            alignment_probability(8, -64)

    def test_alignment_probability_rejects_bad_element_size(self):
        with pytest.raises(PatternError):
            alignment_probability(0, 64)
