"""CLI behavior of the fail-soft pipeline and the checkpoint taxonomy.

The ``dvf-experiments`` entry point must translate the structured
checkpoint errors from PR 1's resumable campaigns into distinct exit
codes with an actionable message, and expose ``--mode`` for the Aspen
batch.
"""

import pytest

from repro.experiments import runner
from repro.faultinject.errors import CheckpointCorrupt, CheckpointMismatch


def _raise_factory(exc):
    def command(args):
        raise exc

    return command


class TestCheckpointExitCodes:
    def test_mismatch_exits_3(self, monkeypatch, capsys):
        monkeypatch.setitem(
            runner._COMMANDS,
            "fi",
            _raise_factory(CheckpointMismatch("config drift detected")),
        )
        code = runner.main(["fi", "--resume", "/tmp/nowhere"])
        assert code == runner.EXIT_CHECKPOINT_MISMATCH == 3
        err = capsys.readouterr().err
        assert "checkpoint mismatch" in err
        assert "config drift detected" in err

    def test_corrupt_exits_4(self, monkeypatch, capsys):
        monkeypatch.setitem(
            runner._COMMANDS,
            "fi",
            _raise_factory(CheckpointCorrupt("truncated journal line 7")),
        )
        code = runner.main(["fi", "--resume", "/tmp/nowhere"])
        assert code == runner.EXIT_CHECKPOINT_CORRUPT == 4
        err = capsys.readouterr().err
        assert "checkpoint corrupt" in err
        assert "truncated journal line 7" in err

    def test_success_exits_0(self, monkeypatch, capsys):
        monkeypatch.setitem(
            runner._COMMANDS, "fi", lambda args: "fi output here"
        )
        assert runner.main(["fi"]) == 0
        assert "fi output here" in capsys.readouterr().out

    def test_unusable_resume_path_exits_3(self, tmp_path, capsys):
        # --resume pointing at an existing *file* can never hold the
        # per-kernel journals; normalized to the mismatch exit code
        # with an actionable message instead of a raw traceback.
        not_a_dir = tmp_path / "journal.jsonl"
        not_a_dir.write_text("{}\n")
        code = runner.main(["fi", "--tier", "test",
                            "--resume", str(not_a_dir)])
        assert code == runner.EXIT_CHECKPOINT_MISMATCH == 3
        err = capsys.readouterr().err
        assert "unusable --resume path" in err
        assert "directory" in err

    def test_resume_error_without_resume_flag_propagates(self, monkeypatch):
        # The normalization is scoped to --resume: an unrelated missing
        # file inside a command must stay a loud failure.
        monkeypatch.setitem(
            runner._COMMANDS,
            "fi",
            _raise_factory(FileNotFoundError("something else entirely")),
        )
        with pytest.raises(FileNotFoundError):
            runner.main(["fi"])


class TestAspenSubcommand:
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_aspen_batch_runs(self, mode, capsys):
        assert runner.main(["aspen", "--tier", "test", "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "batch: 5 models, 0 failed" in out
        assert "DVF report: VM" in out

    def test_bad_mode_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["aspen", "--mode", "sloppy"])
        assert excinfo.value.code == 2


class TestNumericOverrides:
    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"),
        ("--jobs", "-3"),
        ("--jobs", "two"),
        ("--timeout", "-1"),
        ("--timeout", "0"),
        ("--timeout", "nan"),
    ])
    def test_bad_fi_value_is_a_usage_error(self, flag, value, monkeypatch,
                                            capsys):
        # Nothing runs: the campaign command would fail the test.
        monkeypatch.setitem(
            runner._COMMANDS, "fi", _raise_factory(AssertionError("ran"))
        )
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["fi", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_good_fi_values_parse(self, monkeypatch):
        seen = {}

        def command(args):
            seen.update(jobs=args.jobs, timeout=args.timeout)
            return ""

        monkeypatch.setitem(runner._COMMANDS, "fi", command)
        assert runner.main(["fi", "--jobs", "2", "--timeout", "0.5"]) == 0
        assert seen == {"jobs": 2, "timeout": 0.5}
