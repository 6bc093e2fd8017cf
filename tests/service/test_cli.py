"""``repro service`` CLI: exit codes, artifacts, delegation."""

import json
import multiprocessing as mp

import pytest

from repro.service.cli import (
    EXIT_CHECKPOINT_MISMATCH,
    EXIT_JOBS_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from repro.service.journal import load_queue

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)

SCENARIO = {
    "name": "cli-test",
    "service": {
        "jobs": 2,
        "retry": {"max_attempts": 2, "base_delay": 0.01,
                  "max_delay": 0.05, "jitter": 0.0},
    },
    "jobs": [
        {"id": "good", "kind": "probe", "behavior": "ok", "value": 3},
        {"id": "bad", "kind": "probe", "behavior": "error",
         "message": "configured failure"},
    ],
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


class TestSubmitAndStatus:
    def test_submit_is_idempotent(self, scenario_file, tmp_path, capsys):
        state = tmp_path / "state"
        assert main(["submit", "--scenario", str(scenario_file),
                     "--state", str(state)]) == EXIT_OK
        assert "queued 2 new job(s)" in capsys.readouterr().out
        assert main(["submit", "--scenario", str(scenario_file),
                     "--state", str(state)]) == EXIT_OK
        assert "queued 0 new job(s) (2 already queued)" in \
            capsys.readouterr().out

    def test_status_empty_state(self, tmp_path, capsys):
        assert main(["status", "--state", str(tmp_path / "void")]) == EXIT_OK
        assert "queued jobs: 0" in capsys.readouterr().out

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "jobs": []}))
        rc = main(["submit", "--scenario", str(bad),
                   "--state", str(tmp_path / "s")])
        assert rc == EXIT_USAGE
        assert "scenario error" in capsys.readouterr().err


@needs_fork
class TestRunAndResume:
    def test_run_writes_parseable_results(
        self, scenario_file, tmp_path, capsys
    ):
        state = tmp_path / "state"
        rc = main(["run", "--scenario", str(scenario_file),
                   "--state", str(state)])
        assert rc == EXIT_JOBS_FAILED  # 'bad' dead-letters
        out = capsys.readouterr().out
        assert "dead-letter" in out and "succeeded" in out
        results = [
            json.loads(line)
            for line in (state / "results.jsonl").read_text().splitlines()
        ]
        assert [(r["job"], r["outcome"]) for r in results] == [
            ("good", "succeeded"), ("bad", "dead-letter")]
        deadletter = [
            json.loads(line)
            for line in (state / "deadletter.jsonl").read_text().splitlines()
        ]
        assert [r["job"] for r in deadletter] == ["bad"]
        assert deadletter[0]["error_code"] == "ScenarioError"

    def test_resume_without_journal_exits_3(self, tmp_path, capsys):
        rc = main(["resume", "--state", str(tmp_path / "nothing")])
        assert rc == EXIT_CHECKPOINT_MISMATCH
        err = capsys.readouterr().err
        assert "nothing to resume" in err
        assert "service run" in err  # actionable: tells the user what to do

    def test_resume_after_run_is_a_noop_rerun(
        self, scenario_file, tmp_path, capsys
    ):
        state = tmp_path / "state"
        main(["run", "--scenario", str(scenario_file), "--state", str(state)])
        capsys.readouterr()
        rc = main(["resume", "--state", str(state)])
        assert rc == EXIT_JOBS_FAILED  # same outcome, nothing re-executed
        assert "2 job(s) finished" in capsys.readouterr().out

    def test_run_without_queue_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--state", str(tmp_path / "void")])
        assert rc == EXIT_USAGE
        assert "nothing queued" in capsys.readouterr().err

    def test_cli_overrides_scenario_service_config(
        self, scenario_file, tmp_path
    ):
        state = tmp_path / "state"
        rc = main(["run", "--scenario", str(scenario_file),
                   "--state", str(state), "--jobs", "1",
                   "--max-attempts", "1"])
        assert rc == EXIT_JOBS_FAILED
        results = [
            json.loads(line)
            for line in (state / "results.jsonl").read_text().splitlines()
        ]
        assert all(r["attempts"] == 1 for r in results)

    def test_state_from_a_version_with_a_circuit_breaker(
        self, tmp_path, capsys
    ):
        # Such a version stored the breaker's knobs in service.json and
        # marked attempts its degraded route ran in the journal.  The
        # stored knobs are dropped; journaled records stay as written.
        scenario = {**SCENARIO, "jobs": SCENARIO["jobs"] + [
            {"id": "flaky", "kind": "probe", "behavior": "flaky",
             "fail_attempts": 1}]}
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(scenario))
        state = tmp_path / "state"
        assert main(["submit", "--scenario", str(scenario_file),
                     "--state", str(state)]) == EXIT_OK
        config = state / "service.json"
        config.write_text(json.dumps({
            **json.loads(config.read_text()),
            "breaker": {"cooldown": 2, "threshold": 3},
        }))
        hashes = {
            spec.id: spec.content_hash
            for spec in load_queue(state / "queue.jsonl")
        }
        events = [
            {"kind": "dvf-job-journal", "version": 1},
            {"job": "good", "hash": hashes["good"], "event": "done",
             "record": {"job": "good", "kind": "probe",
                        "outcome": "succeeded", "attempts": 1,
                        "degraded_route": False,
                        "payload": {"probe": "ok", "value": 3}}},
            {"job": "flaky", "hash": hashes["flaky"], "event": "attempt",
             "attempt": 1, "error_code": "WorkerLost", "error": "died",
             "degraded": True},
        ]
        (state / "journal.jsonl").write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )
        capsys.readouterr()
        assert main(["status", "--state", str(state), "--json"]) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["counts"] == {"succeeded": 1}
        assert status["in_flight"] == [
            {"job": "flaky", "attempts": 1, "last_error": "WorkerLost"}]
        assert status["pending"] == ["bad"]

        assert main(["resume", "--state", str(state)]) == EXIT_JOBS_FAILED
        results = {
            r["job"]: r
            for r in map(json.loads, (state / "results.jsonl").read_text()
                         .splitlines())
        }
        assert results["good"]["degraded_route"] is False
        assert results["flaky"]["outcome"] == "succeeded"
        assert results["flaky"]["attempts"] == 2
        assert "degraded_route" not in results["flaky"]
        assert results["bad"]["outcome"] == "dead-letter"


class TestExperimentsDelegation:
    def test_runner_delegates_service_subcommand(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        rc = runner_main(["service", "status",
                          "--state", str(tmp_path / "void")])
        assert rc == EXIT_OK
        assert "queued jobs: 0" in capsys.readouterr().out

    @needs_fork
    def test_runner_service_run_end_to_end(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "name": "delegated",
            "jobs": [{"id": "p", "kind": "probe", "behavior": "ok"}],
        }))
        state = tmp_path / "state"
        rc = runner_main(["service", "run", "--scenario", str(scenario),
                          "--state", str(state)])
        assert rc == EXIT_OK
        assert (state / "results.jsonl").exists()


class TestNumericOverrides:
    @pytest.mark.parametrize("command", ["run", "resume"])
    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"),
        ("--max-attempts", "0"),
        ("--timeout", "-1"),
        ("--timeout", "0"),
        ("--chaos-kill", "2"),
        ("--chaos-kill", "-0.5"),
    ])
    def test_bad_value_is_a_usage_error(self, command, flag, value,
                                        tmp_path, capsys):
        state = tmp_path / "state"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--state", str(state), flag, value])
        assert excinfo.value.code == EXIT_USAGE
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not state.exists()

    @needs_fork
    def test_edge_values_run(self, scenario_file, tmp_path, capsys):
        rc = main(["run", "--scenario", str(scenario_file),
                   "--state", str(tmp_path / "s"), "--jobs", "1",
                   "--max-attempts", "1", "--timeout", "30",
                   "--chaos-kill", "0"])
        assert rc == EXIT_JOBS_FAILED  # the scenario's "bad" job
