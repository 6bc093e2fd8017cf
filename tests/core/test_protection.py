"""Tests for the selective-protection planner."""

import pytest

from repro.cachesim.configs import PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.dvf import build_report
from repro.core.machine import MachineModel
from repro.core.protection import greedy_ranking, plan_protection
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS


def make_report(dvfs=None, sizes=None):
    dvfs = dvfs or {"A": 100.0, "B": 10.0, "C": 1.0}
    sizes = sizes or {"A": 8000.0, "B": 4000.0, "C": 2000.0}
    # Reverse-engineer N_ha so build_report lands on the wanted DVFs.
    fit, time_s = 5000.0, 1.0
    from repro.core.dvf import n_error

    nha = {
        name: dvfs[name] / n_error(fit, time_s, sizes[name]) for name in dvfs
    }
    return build_report("app", "m", fit, time_s, sizes, nha)


class TestPlanProtection:
    def test_zero_budget_protects_nothing(self):
        plan = plan_protection(make_report(), budget_bytes=0)
        assert plan.protected == ()
        assert plan.improvement == pytest.approx(1.0)

    def test_unbounded_budget_protects_everything(self):
        plan = plan_protection(make_report(), budget_bytes=1e9)
        assert set(plan.protected) == {"A", "B", "C"}
        assert plan.dvf_after == pytest.approx(0.01 * plan.dvf_before)

    def test_tight_budget_picks_highest_value(self):
        report = make_report()
        # Budget for exactly one structure's overhead (A: 8000*0.125=1000).
        plan = plan_protection(
            report, budget_bytes=1000, granularity=125
        )
        assert plan.protected == ("A",)

    def test_budget_never_exceeded(self):
        report = make_report()
        for budget in (0, 500, 1000, 1500, 5000):
            plan = plan_protection(report, budget, granularity=128)
            assert plan.cost <= budget + 1e-9

    def test_knapsack_beats_greedy_corner_case(self):
        """Two cheap items can beat one expensive slightly-better item."""
        report = make_report(
            dvfs={"big": 10.0, "s1": 6.0, "s2": 6.0},
            sizes={"big": 8000.0, "s1": 4000.0, "s2": 4000.0},
        )
        plan = plan_protection(report, budget_bytes=1000, granularity=100)
        assert set(plan.protected) == {"s1", "s2"}

    def test_improvement_metric(self):
        plan = plan_protection(make_report(), budget_bytes=1e9)
        assert plan.improvement == pytest.approx(100.0, rel=0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(budget_bytes=-1),
            dict(budget_bytes=1, residual_factor=2.0),
            dict(budget_bytes=1, cost_per_byte=0),
            dict(budget_bytes=1, granularity=0),
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            plan_protection(make_report(), **kwargs)

    def test_residual_factor_one_means_no_benefit(self):
        plan = plan_protection(
            make_report(), budget_bytes=1e9, residual_factor=1.0
        )
        assert plan.dvf_after == pytest.approx(plan.dvf_before)


class TestBudgetBeyondEveryStructure:
    """A budget past the cost of protecting everything changes nothing."""

    @pytest.fixture(scope="class")
    def cg_report(self):
        # Four structures costing 10,300 bytes to protect: 10,432 bytes
        # in 64-byte quanta, 24,576 in 4,096-byte ones.
        analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["8MB"]))
        return analyzer.analyze(KERNELS["CG"], TEST_WORKLOADS["CG"])

    def test_infinite_budget_protects_everything(self, cg_report):
        plan = plan_protection(cg_report, budget_bytes=float("inf"))
        assert plan.protected == ("A", "p", "r", "x")
        assert plan.cost == 24576

    def test_large_budget_plans_like_the_exact_cost(self, cg_report):
        exact = plan_protection(cg_report, budget_bytes=10432, granularity=64)
        assert exact.protected == ("A", "p", "r", "x")
        assert plan_protection(
            cg_report, budget_bytes=1e7, granularity=64
        ) == exact

    def test_nan_budget_refused(self, cg_report):
        with pytest.raises(ValueError, match="budget_bytes"):
            plan_protection(cg_report, budget_bytes=float("nan"))


class TestGreedyRanking:
    def test_ranked_by_density(self):
        report = make_report(
            dvfs={"dense": 10.0, "sparse": 10.0},
            sizes={"dense": 100.0, "sparse": 10000.0},
        )
        ranking = greedy_ranking(report)
        assert ranking[0][0] == "dense"

    def test_all_structures_present(self):
        ranking = greedy_ranking(make_report())
        assert {name for name, _ in ranking} == {"A", "B", "C"}
