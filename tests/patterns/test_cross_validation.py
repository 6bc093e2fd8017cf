"""Property-based cross-validation: CGPMAC estimators vs the simulator.

Hypothesis generates workload shapes and cache geometries; for each, a
synthetic trace realising the pattern is simulated and compared with
the analytical estimate.  This is Figure 4 turned into a property: the
models must track the ground truth across the whole parameter space,
not only at the paper's chosen sizes.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import simulate_trace
from repro.patterns.random_access import RandomAccess
from repro.patterns.reuse import ReuseAccess
from repro.patterns.streaming import StreamingAccess
from repro.patterns.template import TemplateAccess
from repro.trace.recorder import TraceRecorder

geometries = st.sampled_from(
    [
        CacheGeometry(2, 32, 32),     # 2 KB
        CacheGeometry(4, 64, 32),     # 8 KB (paper small)
        CacheGeometry(8, 64, 64),     # 32 KB
        CacheGeometry(4, 512, 64),    # 128 KB
    ]
)


class TestStreamingProperty:
    @given(
        geometry=geometries,
        num=st.integers(64, 4000),
        stride=st.integers(1, 6),
        element_size=st.sampled_from([4, 8, 16, 32]),
        sweeps=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_streaming_tracks_simulator(
        self, geometry, num, stride, element_size, sweeps
    ):
        pattern = StreamingAccess(
            element_size, num, stride, sweeps=sweeps, aligned=True
        )
        rec = TraceRecorder()
        rec.allocate("A", num, element_size)
        for _ in range(sweeps):
            rec.record_stream(
                "A", 0, pattern.elements_accessed, stride_elements=stride
            )
        simulated = simulate_trace(rec.finish(), geometry).misses("A")
        estimated = pattern.estimate_accesses(geometry)
        # The per-set re-sweep analysis (dense, line-multiple and
        # enumerated irregular strides) is exact, including at the
        # capacity boundary; keep a tiny absolute floor for rounding.
        assert abs(estimated - simulated) <= max(3.0, 0.15 * simulated)


class TestRandomProperty:
    @given(
        geometry=geometries,
        num=st.integers(200, 4000),
        k=st.integers(5, 150),
        iters=st.integers(1, 60),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_random_tracks_simulator(
        self, geometry, num, k, iters, seed
    ):
        assume(k < num)
        pattern = RandomAccess(num, 32, k, iters)
        rng = np.random.default_rng(seed)
        rec = TraceRecorder()
        rec.allocate("T", num, 32)
        rec.record_elements("T", np.arange(num), False)
        for _ in range(iters):
            rec.record_elements("T", rng.choice(num, size=k, replace=False), False)
        simulated = simulate_trace(rec.finish(), geometry).misses("T")
        estimated = pattern.estimate_accesses(geometry)
        assert abs(estimated - simulated) <= max(10.0, 0.25 * simulated)


class TestTemplateProperty:
    @given(
        geometry=geometries,
        num=st.integers(64, 1500),
        repeats=st.integers(1, 4),
        stride=st.integers(1, 3),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_shuffled_sweep_template_tracks_simulator(
        self, geometry, num, repeats, stride, seed
    ):
        rng = np.random.default_rng(seed)
        base = np.arange(0, num, stride, dtype=np.int64)
        rng.shuffle(base)
        pattern = TemplateAccess(16, base, num_elements=num, repeats=repeats)
        rec = TraceRecorder()
        rec.allocate("R", num, 16)
        for _ in range(repeats):
            rec.record_elements("R", base, False)
        simulated = simulate_trace(rec.finish(), geometry).misses("R")
        estimated = pattern.estimate_accesses(geometry)
        # Template stack distance is exact for fully-associative LRU;
        # set conflicts dominate only near capacity.
        assert abs(estimated - simulated) <= max(3.0, 0.30 * simulated)


class TestReuseProperty:
    @given(
        geometry=geometries,
        target_kb=st.integers(1, 32),
        interferer_kb=st.integers(0, 64),
        reuses=st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_exclusive_reuse_tracks_sequential_trace(
        self, geometry, target_kb, interferer_kb, reuses
    ):
        target = target_kb * 1024
        interferer = interferer_kb * 1024
        pattern = ReuseAccess(target, interferer, reuses, scenario="exclusive")
        rec = TraceRecorder()
        n_t = target // 8
        rec.allocate("A", n_t, 8)
        if interferer:
            rec.allocate("B", interferer // 8, 8)
        rec.record_stream("A", 0, n_t)
        for _ in range(reuses):
            if interferer:
                rec.record_stream("B", 0, interferer // 8)
            rec.record_stream("A", 0, n_t)
        simulated = simulate_trace(rec.finish(), geometry).misses("A")
        estimated = pattern.estimate_accesses(geometry)
        # The Bernoulli set model is the coarsest estimator; demand the
        # right order of magnitude everywhere and tightness in the
        # clear regimes (fully resident / fully thrashing).
        footprint = target + interferer
        if footprint < 0.5 * geometry.capacity or (
            interferer > 4 * geometry.capacity
        ):
            # Floor: the Bernoulli placement assumption (Eq. 8) charges
            # a few rare-collision reloads per reuse that a *sequential*
            # layout never incurs (its lines fill sets evenly).
            floor = max(8.0, 0.05 * (target // 64) * reuses)
            assert abs(estimated - simulated) <= max(floor, 0.25 * simulated)
        else:
            floor = max(8.0, 0.05 * (target // 64) * reuses)
            assert abs(estimated - simulated) <= max(floor, 1.0 * simulated)
