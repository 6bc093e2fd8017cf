"""Chaos acceptance test: random worker SIGKILLs + supervisor SIGINT.

The service's core promise: a batch of 20+ jobs completes with correct
per-job outcomes while the harness randomly SIGKILLs workers
(``--chaos-kill``) and the supervisor itself is SIGINT-ed mid-run and
resumed — and the final results file is equivalent (same job ids,
payloads and outcome taxonomy) to an undisturbed run's.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.scenario import parse_scenario
from repro.service.supervisor import run_service

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _chaos_scenario() -> dict:
    """21 jobs: healthy, crash-happy, hanging-ish, and broken-by-design."""
    jobs = []
    for i in range(8):
        jobs.append({"id": f"ok-{i}", "kind": "probe", "behavior": "ok",
                     "value": i})
    for i, fail in enumerate((1, 2, 1, 2, 1, 3)):
        jobs.append({"id": f"flaky-{i}", "kind": "probe",
                     "behavior": "flaky", "fail_attempts": fail})
    for i in range(4):
        jobs.append({"id": f"sleep-{i}", "kind": "probe",
                     "behavior": "sleep", "seconds": 0.25})
    for i in range(3):
        jobs.append({"id": f"broken-{i}", "kind": "probe",
                     "behavior": "error",
                     "message": f"deterministic failure {i}"})
    return {
        "name": "chaos",
        "service": {
            "jobs": 2,
            # Budget far above what chaos can consume: exhaustion would
            # make outcomes depend on the kill sequence.
            "retry": {"max_attempts": 25, "base_delay": 0.01,
                      "max_delay": 0.05, "jitter": 0.0},
            # Keep the breaker quiet: degraded routing is tested
            # elsewhere, and here it would depend on kill timing.
            "breaker": {"threshold": 1000, "cooldown": 1},
        },
        "jobs": jobs,
    }


def _stable(record: dict) -> tuple:
    """A record minus fields that legitimately vary under chaos."""
    return (
        record["job"],
        record["kind"],
        record["outcome"],
        json.dumps(record.get("payload"), sort_keys=True),
        record.get("error_code"),
        record.get("error"),
    )


def _read_results(state: Path) -> list[dict]:
    return [
        json.loads(line)
        for line in (state / "results.jsonl").read_text().splitlines()
    ]


def _retry_events(state: Path) -> list[dict]:
    lines = (state / "journal.jsonl").read_text().splitlines()[1:]
    events = []
    for line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue  # the SIGINT kill artifact: a torn final line
        if obj.get("event") == "attempt":
            events.append(obj)
    return events


@needs_fork
class TestChaos:
    def test_chaotic_run_matches_undisturbed_run(self, tmp_path):
        scenario_data = _chaos_scenario()
        scenario_file = tmp_path / "chaos.json"
        scenario_file.write_text(json.dumps(scenario_data))

        # Reference: same scenario, no chaos, in-process.
        undisturbed = tmp_path / "undisturbed"
        reference = run_service(undisturbed, parse_scenario(scenario_data))
        assert reference.complete
        assert reference.exit_code == 1  # the broken-* jobs dead-letter

        # Chaos: workers randomly SIGKILLed, supervisor SIGINT-ed once
        # mid-run, then resumed.
        disturbed = tmp_path / "disturbed"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "run",
             "--scenario", str(scenario_file), "--state", str(disturbed),
             "--chaos-kill", "0.3", "--chaos-seed", "7"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        journal = disturbed / "journal.jsonl"
        deadline = time.monotonic() + 30.0
        # SIGINT only once the run is demonstrably in progress.
        while time.monotonic() < deadline:
            if journal.exists() and journal.stat().st_size > 0 \
                    and proc.poll() is None:
                break
            time.sleep(0.02)
        time.sleep(0.3)  # let a few jobs reach terminal state
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        rc = proc.wait(timeout=60)
        assert rc in (130, 1), proc.communicate()

        resume = subprocess.run(
            [sys.executable, "-m", "repro.service", "resume",
             "--state", str(disturbed),
             "--chaos-kill", "0.3", "--chaos-seed", "8"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert resume.returncode == 1, resume.stderr

        # Final results equivalent to the undisturbed run's: same job
        # ids, payloads, outcome taxonomy (attempt counts may differ).
        assert sorted(_stable(r) for r in _read_results(disturbed)) == \
            sorted(_stable(r) for r in _read_results(undisturbed))

        # Failures the worker reports are never retried: every
        # journaled retry, in both runs, was for a failure the
        # supervisor observed itself.  (A chaos SIGKILL of a broken-*
        # worker surfaces as WorkerLost — the failure was never
        # observed, so retrying is correct.)
        for state in (undisturbed, disturbed):
            for event in _retry_events(state):
                assert event["error_code"] in ("WorkerLost", "JobTimeout"), \
                    event
        # And undisturbed, the broken-* jobs were dead-lettered on
        # their first and only attempt.
        broken_retries = [
            e for e in _retry_events(undisturbed)
            if e["job"].startswith("broken-")
        ]
        assert broken_retries == []
