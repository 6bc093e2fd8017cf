"""Figure 6 benchmark: CG vs PCG DVF across problem sizes (§V-A).

Runs both solvers to convergence at every paper problem size (100-800),
computes DVF from the measured iteration counts, prints the series and
asserts the paper's qualitative findings: PCG slightly more vulnerable
at small sizes, clearly less vulnerable at large sizes.
"""

import pytest

from repro.core.tradeoff import crossover_size
from repro.experiments.fig6_cg_pcg import render_fig6, run_fig6


@pytest.fixture(scope="module")
def rows():
    return run_fig6()


def test_fig6_full_series(benchmark, rows):
    """Regenerate Figure 6 at the paper's sizes."""
    result = benchmark.pedantic(run_fig6, rounds=1, iterations=1)
    print()
    print(render_fig6(result))
    assert [r.problem_size for r in result] == [
        100, 200, 300, 400, 500, 600, 700, 800,
    ]


def test_fig6_pcg_close_but_worse_at_smallest(rows):
    """Paper: PCG "more vulnerable than CG (but pretty close)" at n=100."""
    first = rows[0]
    assert not first.pcg_wins
    assert first.pcg_dvf / first.cg_dvf < 1.5


def test_fig6_pcg_wins_at_largest(rows):
    """Paper: PCG clearly better at large problem sizes."""
    last = rows[-1]
    assert last.pcg_wins
    assert last.pcg_dvf / last.cg_dvf < 0.9


def test_fig6_stable_crossover_exists(rows):
    crossover = crossover_size(rows)
    assert crossover is not None
    assert 200 <= crossover <= 700


def test_fig6_iteration_savings_grow(rows):
    """The PCG iteration advantage widens with problem size."""
    first_ratio = rows[0].cg_iterations / rows[0].pcg_iterations
    last_ratio = rows[-1].cg_iterations / rows[-1].pcg_iterations
    assert last_ratio > first_ratio


def test_fig6_dvf_grows_with_problem_size(rows):
    """Both curves rise monotonically with n (log-scale in the paper)."""
    cg = [r.cg_dvf for r in rows]
    pcg = [r.pcg_dvf for r in rows]
    assert cg == sorted(cg)
    assert pcg == sorted(pcg)
