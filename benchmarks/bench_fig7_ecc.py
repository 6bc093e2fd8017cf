"""Figure 7 benchmark: ECC protection trade-off (§V-B).

Regenerates DVF vs performance degradation (0-30%) for SECDED and
Chipkill on the VM kernel with the largest profiling cache, prints the
series and asserts the paper's observations: protection lowers DVF, the
minimum sits near 5% degradation, and further slowdown raises
vulnerability again.
"""

import pytest

from repro.core.tradeoff import optimal_degradation
from repro.experiments.fig7_ecc import render_fig7, run_fig7


@pytest.fixture(scope="module")
def points():
    return run_fig7()


def test_fig7_full_series(benchmark, points):
    """Regenerate Figure 7 at the paper's sweep resolution."""
    result = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    print()
    print(render_fig7(result))
    assert len(result) == 2 * 31  # 2 schemes x 0..30%


def test_fig7_ecc_reduces_dvf(points):
    """Applying either scheme beats the unprotected baseline."""
    for scheme in ("SECDED", "Chipkill correct"):
        series = [p for p in points if p.scheme == scheme]
        at_zero = min(series, key=lambda p: p.degradation)
        best = optimal_degradation(points, scheme)
        assert best.dvf < at_zero.dvf / 2


def test_fig7_minimum_near_five_percent(points):
    """Paper: "DVF achieves the smallest value when the performance
    degradation is about 5%"."""
    for scheme in ("SECDED", "Chipkill correct"):
        best = optimal_degradation(points, scheme)
        assert 0.03 <= best.degradation <= 0.07


def test_fig7_rises_beyond_minimum(points):
    """Paper: loss beyond the optimum increases vulnerability."""
    for scheme in ("SECDED", "Chipkill correct"):
        series = sorted(
            (p for p in points if p.scheme == scheme),
            key=lambda p: p.degradation,
        )
        tail = [p.dvf for p in series if p.degradation >= 0.05]
        assert tail == sorted(tail)
        assert tail[-1] > tail[0]


def test_fig7_chipkill_strictly_stronger(points):
    """Chipkill's residual FIT (0.02) sits far below SECDED's (1300)."""
    secded = optimal_degradation(points, "SECDED")
    chipkill = optimal_degradation(points, "Chipkill correct")
    assert chipkill.dvf < secded.dvf / 1000


def test_table7_rates_feed_the_sweep(points):
    """The sweep's saturated FIT rates match Table VII."""
    saturated = {
        p.scheme: p.effective_fit
        for p in points
        if p.degradation >= 0.05
    }
    assert saturated["SECDED"] == 1300.0
    assert saturated["Chipkill correct"] == 0.02
