"""CG and PCG record one iteration and its count; the rest repeat it.

The kernel vouches that every iteration issues the same references
(``recorder.periods``).  These tests hold it to that at every tier:
``trace_stream`` records and pushes every iteration, and with
one-iteration chunks each chunk must equal the recorded period.
"""

import numpy as np
import pytest

from repro.experiments.configs import WORKLOADS
from repro.kernels.base import Workload
from repro.kernels.conjugate_gradient import (
    _apply_ic,
    build_system,
    incomplete_cholesky,
)
from repro.kernels.registry import KERNELS
from repro.trace.recorder import TraceRecorder

COLUMNS = ("addresses", "is_write", "label_ids", "element_sizes")


def workload(tier, variant):
    base = WORKLOADS[tier]["CG"]
    return Workload(base.name, {**base.params, "variant": variant})


@pytest.mark.parametrize("tier", ["test", "verification", "profiling"])
@pytest.mark.parametrize("variant", ["cg", "pcg"])
def test_full_recording_is_the_period_tiled(tier, variant):
    kernel = KERNELS["CG"]
    wl = workload(tier, variant)
    trace = kernel.record(wl)
    period = trace.period
    assert trace.repeats == wl["iterations"]
    matches = []

    def compare(chunk):
        # Compared as they arrive: the profiling tier's whole trace
        # (122 M references for CG) is never held.
        matches.append(chunk.labels == period.labels and all(
            np.array_equal(getattr(chunk, c), getattr(period, c))
            for c in COLUMNS
        ))

    kernel.trace_stream(wl, len(period), compare)
    assert matches == [True] * trace.repeats


@pytest.mark.parametrize("variant", ["cg", "pcg"])
def test_numeric_result_does_not_depend_on_recording(variant):
    # Recording one pass skips recording calls, never arithmetic: the
    # solution equals every-pass recording's and a plain solver's.
    kernel = KERNELS["CG"]
    wl = workload("test", variant)
    recorded_once = kernel.run_traced(wl, TraceRecorder())
    every_pass = kernel.trace_stream(wl, 1 << 16, lambda chunk: None)
    n, iterations, _, system = kernel._config(wl)
    a, b = build_system(n, system, seed=0)
    lfac = incomplete_cholesky(a) if variant == "pcg" else None
    x, r = np.zeros(a.shape[0]), b.copy()
    z = _apply_ic(lfac, r)
    p, rz = z.copy(), float(r @ z)
    for _ in range(iterations):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = _apply_ic(lfac, r)
        rz_next = float(r @ z)
        p = z + rz_next / rz * p
        rz = rz_next
    assert np.array_equal(recorded_once, every_pass)
    assert np.array_equal(recorded_once, x)
