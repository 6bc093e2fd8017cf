"""``repro service`` CLI: submit / run / resume / status.

Usage::

    python -m repro.experiments service submit --scenario s.yaml --state DIR
    python -m repro.experiments service run    --scenario s.yaml --state DIR
    python -m repro.experiments service resume --state DIR
    python -m repro.experiments service status --state DIR

(also reachable as ``python -m repro.service``.)

``run`` submits the scenario (idempotently), drains the queue on the
supervised worker pool and writes ``results.jsonl`` /
``deadletter.jsonl`` under the state directory.  ``resume`` continues
an interrupted run from the journal — completed jobs are not re-run,
attempt budgets carry over — and refuses (exit 3) when there is
nothing to resume.

Exit codes: 0 all jobs succeeded, 1 some jobs dead-lettered or
exhausted their retries, 2 usage/scenario error, 3 resume against a
missing or mismatched journal, 4 corrupt journal/queue file, 130
interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli_types import positive_int, positive_seconds, probability
from repro.faultinject.errors import CheckpointCorrupt, CheckpointMismatch
from repro.service.scenario import ScenarioError, load_scenario
from repro.service.supervisor import (
    DEADLETTER_FILE,
    JOURNAL_FILE,
    OUTCOME_SUCCEEDED,
    QUEUE_FILE,
    RESULTS_FILE,
    ServiceRun,
    run_service,
    service_status,
    submit_scenario,
)

EXIT_OK = 0
EXIT_JOBS_FAILED = 1
EXIT_USAGE = 2
EXIT_CHECKPOINT_MISMATCH = 3
EXIT_CHECKPOINT_CORRUPT = 4
EXIT_INTERRUPTED = 130


def _add_state(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state",
        required=True,
        metavar="DIR",
        help="durable state directory (queue, journal, results)",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        metavar="N",
        help="worker pool size (overrides the scenario's service.jobs)",
    )
    parser.add_argument(
        "--timeout",
        type=positive_seconds,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock budget (overrides "
        "service.timeout; per-job 'timeout' still wins)",
    )
    parser.add_argument(
        "--max-attempts",
        type=positive_int,
        default=None,
        metavar="N",
        help="retry budget per job (overrides retry.max_attempts)",
    )
    parser.add_argument(
        "--chaos-kill",
        type=probability,
        default=0.0,
        metavar="P",
        help="chaos harness: SIGKILL each freshly launched worker "
        "with probability P (testing the service itself)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed for the --chaos-kill coin flips",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro service",
        description="Fault-tolerant DVF job service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser(
        "submit", help="queue a scenario's jobs without running them"
    )
    p_submit.add_argument(
        "--scenario", required=True, metavar="FILE",
        help="scenario file (.yaml/.yml/.json)",
    )
    _add_state(p_submit)

    p_run = sub.add_parser(
        "run", help="run (or continue) everything queued under --state"
    )
    p_run.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="scenario to submit first (idempotent); optional when "
        "jobs are already queued",
    )
    _add_state(p_run)
    _add_run_flags(p_run)

    p_resume = sub.add_parser(
        "resume",
        help="continue an interrupted run from its journal "
        "(refuses when there is nothing to resume)",
    )
    _add_state(p_resume)
    _add_run_flags(p_resume)

    p_status = sub.add_parser(
        "status", help="queue/journal snapshot without executing anything"
    )
    _add_state(p_status)
    p_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _render_run(state: Path, run: ServiceRun) -> str:
    lines = [
        f"DVF job service: {len(run.records)} job(s) "
        f"{'finished' if run.complete else 'recorded (interrupted)'} "
        f"in {run.wall_seconds:.1f}s"
    ]
    for record in run.records:
        outcome = record["outcome"]
        detail = ""
        if outcome != OUTCOME_SUCCEEDED:
            code = record.get("error_code") or record.get("last_error")
            detail = f" [{code}: {record.get('error', '')[:60]}]"
        lines.append(
            f"  {record['job']:<24} {outcome:<15} "
            f"attempts={record['attempts']}{detail}"
        )
    counts = run.counts
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append(f"  -- {summary or 'no terminal records'}")
    lines.append(f"  results: {state / RESULTS_FILE}")
    if run.failed:
        lines.append(f"  dead letters: {state / DEADLETTER_FILE}")
    return "\n".join(lines)


def _cmd_submit(args) -> int:
    scenario = load_scenario(args.scenario)
    added, skipped = submit_scenario(args.state, scenario)
    print(
        f"queued {added} new job(s) ({skipped} already queued) under "
        f"{Path(args.state) / QUEUE_FILE}"
    )
    return EXIT_OK


def _run_common(args, *, require_journal: bool) -> int:
    state = Path(args.state)
    if require_journal:
        journal = state / JOURNAL_FILE
        if not journal.exists():
            print(
                f"nothing to resume: no journal at {journal}.\n"
                f"Start the run with `service run --scenario FILE "
                f"--state {state}` instead.",
                file=sys.stderr,
            )
            return EXIT_CHECKPOINT_MISMATCH
    scenario = (
        load_scenario(args.scenario)
        if getattr(args, "scenario", None)
        else None
    )
    run = run_service(
        state,
        scenario,
        jobs=args.jobs,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        chaos_kill=args.chaos_kill,
        chaos_seed=args.chaos_seed,
    )
    print(_render_run(state, run))
    if run.exit_code == EXIT_INTERRUPTED:
        print("interrupted — `service resume` continues from the journal")
    return run.exit_code


def _cmd_run(args) -> int:
    return _run_common(args, require_journal=False)


def _cmd_resume(args) -> int:
    return _run_common(args, require_journal=True)


def _cmd_status(args) -> int:
    status = service_status(args.state)
    if args.json:
        print(json.dumps(status, indent=1, sort_keys=True))
        return EXIT_OK
    print(f"queued jobs: {status['jobs']}")
    for outcome, count in sorted(status["counts"].items()):
        print(f"  {outcome}: {count}")
    if status["in_flight"]:
        for entry in status["in_flight"]:
            print(
                f"  retrying: {entry['job']} "
                f"(attempts={entry['attempts']}, "
                f"last_error={entry['last_error']})"
            )
    if status["pending"]:
        print(f"  pending: {', '.join(status['pending'])}")
    return EXIT_OK


_COMMANDS = {
    "submit": _cmd_submit,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "status": _cmd_status,
}


def main(argv: list[str] | None = None) -> int:
    """Run one ``service`` subcommand (``argv`` defaults to
    ``sys.argv[1:]``) and return its exit code (see the module
    docstring)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointMismatch as exc:
        print(
            f"journal mismatch: {exc}\n"
            f"The queue or journal was written against different job "
            f"specs; use a fresh --state directory or restore the "
            f"original scenario.",
            file=sys.stderr,
        )
        return EXIT_CHECKPOINT_MISMATCH
    except CheckpointCorrupt as exc:
        print(
            f"journal corrupt: {exc}\n"
            f"Delete the damaged file (or the whole --state directory) "
            f"to start over.",
            file=sys.stderr,
        )
        return EXIT_CHECKPOINT_CORRUPT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
