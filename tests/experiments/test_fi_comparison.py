"""Tests for the DVF-vs-fault-injection comparison experiment."""

import math
import multiprocessing

import pytest

from repro.experiments import fi_comparison
from repro.experiments.fi_comparison import (
    FIComparisonRow,
    render_fi_comparison,
    run_fi_comparison,
)
from repro.experiments.runner import main
from repro.faultinject.compare import rank_agreement
from repro.faultinject.executor import (
    InProcessExecutor,
    ProcessTrialExecutor,
    Worker,
)


@pytest.fixture(scope="module")
def rows():
    # 150+ trials per structure: below that, sampling noise can flip
    # marginal rankings (e.g. VM's strided A, where only 1/4 of the
    # footprint is ever read, sits close to B in empirical
    # vulnerability) — which is precisely the paper's point about the
    # cost of statistically meaningful fault injection.
    return run_fi_comparison(trials=150, seed=0)


class TestComparison:
    def test_covers_injectable_kernels(self, rows):
        assert {r.kernel for r in rows} == {"VM", "CG", "FT", "MC"}

    def test_correlations_meaningful(self, rows):
        for row in rows:
            if len(row.failure_rates) >= 2:
                assert not math.isnan(row.rank_correlation), row.kernel
                assert -1.0 <= row.rank_correlation <= 1.0

    def test_positive_agreement_on_multi_structure_kernels(self, rows):
        multi = [r for r in rows if len(r.failure_rates) >= 2]
        assert multi
        assert all(r.rank_correlation > 0 for r in multi)

    def test_cost_ratio_positive(self, rows):
        for row in rows:
            assert row.cost_ratio > 1, row.kernel

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="no injection adapter"):
            run_fi_comparison(kernels=("MG",), trials=1)

    def test_render(self, rows):
        text = render_fi_comparison(rows)
        assert "rank corr." in text and "cost ratio" in text

    def test_row_properties(self):
        row = FIComparisonRow(
            kernel="X",
            trials=10,
            rank_correlation=1.0,
            failure_rates={"a": 0.5},
            campaign_seconds=2.0,
            model_seconds=0.01,
        )
        assert row.cost_ratio == pytest.approx(200.0)


class TestSharedExecutor:
    """One process executor serves every kernel's campaign."""

    @pytest.fixture
    def forks(self, monkeypatch):
        forks = []
        init = Worker.__init__

        def counting_init(worker, fn):
            forks.append(fn)
            init(worker, fn)

        monkeypatch.setattr(Worker, "__init__", counting_init)
        return forks

    @pytest.fixture
    def new_children(self):
        # Children started by earlier tests (a shard pool) are not ours.
        before = set(multiprocessing.active_children())
        return lambda: [
            p for p in multiprocessing.active_children() if p not in before
        ]

    def test_workers_forked_once_per_comparison(self, forks, new_children):
        rows = run_fi_comparison(trials=20, seed=0, jobs=2, timeout=120)
        assert [r.kernel for r in rows] == ["VM", "CG", "FT", "MC"]
        assert len(forks) == 2
        assert new_children() == []

    def test_interrupted_comparison_closes_the_executor(
        self, forks, new_children, monkeypatch
    ):
        run_batch = ProcessTrialExecutor.run_batch
        calls = []

        def interrupt_third_wave(executor, specs):
            calls.append(specs)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return run_batch(executor, specs)

        monkeypatch.setattr(
            ProcessTrialExecutor, "run_batch", interrupt_third_wave
        )
        rows = run_fi_comparison(trials=20, seed=0, jobs=2, timeout=120)
        assert rows == []  # VM's campaign came back incomplete
        assert len(forks) == 2
        assert new_children() == []


class TestInterrupt:
    """Ctrl-C inside or between campaigns: the finished rows, exit 130."""

    @pytest.fixture
    def interrupt_second_ranking(self, monkeypatch):
        # Ctrl-C after VM's row, once CG's campaign has finished.
        calls = []

        def ranking(campaign, report):
            calls.append(campaign.kernel)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return rank_agreement(campaign, report)

        monkeypatch.setattr(fi_comparison, "rank_agreement", ranking)

    def test_between_campaigns_returns_finished_rows(
        self, interrupt_second_ranking, tmp_path
    ):
        interrupted = tmp_path / "interrupted"
        rows = run_fi_comparison(trials=20, seed=0, checkpoint_dir=interrupted)
        assert [r.kernel for r in rows] == ["VM"]
        resumed = run_fi_comparison(
            trials=20, seed=0, checkpoint_dir=interrupted
        )
        assert [r.kernel for r in resumed] == ["VM", "CG", "FT", "MC"]
        fresh = tmp_path / "fresh"
        run_fi_comparison(trials=20, seed=0, checkpoint_dir=fresh)
        for journal in sorted(fresh.iterdir()):
            assert (interrupted / journal.name).read_bytes() == (
                journal.read_bytes()
            ), journal.name

    def test_runner_exits_130_between_campaigns(
        self, interrupt_second_ranking, capsys
    ):
        assert main(["fi", "--tier", "test"]) == 130
        captured = capsys.readouterr()
        assert "VM" in captured.out and "CG" not in captured.out
        assert "[fi interrupted]" in captured.err

    def test_runner_exits_130_inside_a_campaign(self, monkeypatch, capsys):
        run_batch = InProcessExecutor.run_batch

        def interrupt_cg(executor, specs):
            if specs[0].kernel == "CG":
                raise KeyboardInterrupt
            return run_batch(executor, specs)

        monkeypatch.setattr(InProcessExecutor, "run_batch", interrupt_cg)
        assert main(["fi", "--tier", "test"]) == 130
        captured = capsys.readouterr()
        assert "VM" in captured.out and "CG" not in captured.out
        assert "regenerated" not in captured.out


class TestRunnerIntegration:
    def test_fi_command(self, capsys):
        assert main(["fi", "--tier", "test"]) == 0
        out = capsys.readouterr().out
        assert "fault injection" in out

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "--tier", "test"]) == 0
        out = capsys.readouterr().out
        assert "stability" in out
