"""Integration tests for the figure/table regeneration drivers.

Everything runs at the reduced 'test' tier so the suite stays fast; the
paper-scale sweeps are exercised by the benchmark harness.
"""

import pytest

from repro.cachesim import CacheGeometry
from repro.experiments.configs import FIG6_CACHE, KERNEL_ORDER
from repro.experiments.fig4_verification import (
    Fig4Row,
    evaluation_cost,
    render_fig4,
    run_fig4,
)
from repro.experiments.fig5_profiling import (
    application_dvf,
    render_fig5,
    run_fig5,
)
from repro.experiments.fig6_cg_pcg import render_fig6, run_fig6
from repro.experiments.fig7_ecc import render_fig7, run_fig7
from repro.experiments import tables
from repro.experiments.runner import main


@pytest.fixture(scope="module")
def fig4_rows():
    return run_fig4(tier="test")


@pytest.fixture(scope="module")
def fig5_cells():
    return run_fig5(tier="test")


class TestFig4:
    def test_covers_all_kernels_and_caches(self, fig4_rows):
        assert {r.kernel for r in fig4_rows} == set(KERNEL_ORDER)
        assert {r.cache for r in fig4_rows} == {"small", "large"}

    def test_paper_accuracy_claim(self, fig4_rows):
        """Estimation error within the paper's envelope on the test tier.

        The paper claims <= 15%; at reduced test sizes a few structures
        sit at capacity knees, so assert <= 25% everywhere and <= 15%
        for at least 85% of the bars.
        """
        errors = [r.relative_error for r in fig4_rows]
        assert max(errors) <= 0.25
        within = sum(1 for e in errors if e <= 0.15)
        assert within / len(errors) >= 0.85

    def test_model_is_cheaper_than_simulation(self, fig4_rows):
        model, simulation = evaluation_cost(fig4_rows)
        assert model < simulation

    def test_render(self, fig4_rows):
        text = render_fig4(fig4_rows)
        assert "Figure 4" in text and "worst error" in text

    def test_evaluation_cost_counts_each_cell_once(self):
        # Both rows carry the same (VM, small) cell's times.
        rows = [
            Fig4Row(
                kernel="VM", cache="small", structure=name, simulated=10.0,
                estimated=10.0, relative_error=0.0, model_seconds=1.0,
                simulation_seconds=10.0,
            )
            for name in ("A", "B")
        ]
        assert evaluation_cost(rows) == (1.0, 10.0)
        assert "model 1.000s vs simulation 10.0s" in render_fig4(rows)


class TestFig5:
    def test_covers_all_kernels_and_caches(self, fig5_cells):
        assert {c.kernel for c in fig5_cells} == set(KERNEL_ORDER)
        assert {c.cache for c in fig5_cells} == {"16KB", "128KB", "1MB", "8MB"}

    def test_all_dvf_positive(self, fig5_cells):
        assert all(c.dvf > 0 for c in fig5_cells)

    def test_vm_structure_a_dominates(self, fig5_cells):
        vm = [c for c in fig5_cells if c.kernel == "VM" and c.cache == "16KB"]
        by_name = {c.structure: c.dvf for c in vm}
        assert by_name["A"] > by_name["B"]
        assert by_name["A"] > by_name["C"]

    def test_smaller_cache_never_lowers_application_dvf(self, fig5_cells):
        """Shrinking the cache can only increase N_ha and hence DVF_a."""
        totals = application_dvf(fig5_cells)
        for kernel in KERNEL_ORDER:
            small = totals[(kernel, "16KB")]
            large = totals[(kernel, "8MB")]
            assert small >= large * 0.99, kernel

    def test_render(self, fig5_cells):
        text = render_fig5(fig5_cells)
        assert "(VM)" in text and "(MC)" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig6(sizes=(100, 300, 600), tol=1e-8)

    def test_iterations_measured(self, rows):
        assert all(r.cg_iterations > r.pcg_iterations for r in rows)

    def test_paper_shape(self, rows):
        assert not rows[0].pcg_wins          # small size: CG wins
        assert rows[-1].pcg_wins             # large size: PCG wins

    def test_dvf_grows_with_problem_size(self, rows):
        dvfs = [r.cg_dvf for r in rows]
        assert dvfs == sorted(dvfs)

    def test_render(self, rows):
        text = render_fig6(rows)
        assert "Figure 6" in text and "PCG" in text


class TestFig7:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig7(tier="test", degradations=(0.0, 0.05, 0.1, 0.3))

    def test_two_schemes(self, points):
        assert {p.scheme for p in points} == {"SECDED", "Chipkill correct"}

    def test_paper_shape_minimum_at_five_percent(self, points):
        from repro.core import optimal_degradation

        for scheme in ("SECDED", "Chipkill correct"):
            assert optimal_degradation(points, scheme).degradation == 0.05

    def test_render(self, points):
        text = render_fig7(points)
        assert "Figure 7" in text and "minimised" in text


class TestTables:
    def test_all_tables_render(self):
        text = tables.render_all_tables()
        for marker in ("Table I", "Table II", "Table III", "Table IV",
                       "Table V", "Table VI", "Table VII"):
            assert marker in text

    def test_table4_matches_paper(self):
        text = tables.render_table4()
        assert "small" in text and "8MB" in text

    def test_table7_rates(self):
        text = tables.render_table7()
        assert "5000" in text and "0.02" in text and "1300" in text


class TestRunnerCLI:
    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table VII" in out

    def test_fig7_test_tier(self, capsys):
        assert main(["fig7", "--tier", "test"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestFig6Cache:
    def test_fig6_cache_holds_pcg_working_set(self):
        """The §V-A study requires PCG's doubled working set resident."""
        assert isinstance(FIG6_CACHE, CacheGeometry)
        largest_pcg_bytes = 2 * (28 * 28) ** 2 * 8  # n=800 -> g=28
        assert FIG6_CACHE.capacity > largest_pcg_bytes
