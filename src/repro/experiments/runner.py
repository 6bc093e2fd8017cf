"""Command-line entry point regenerating the paper's evaluation.

Usage::

    python -m repro.experiments fig4           # model verification
    python -m repro.experiments fig5           # DVF profiling
    python -m repro.experiments fig6           # CG vs PCG
    python -m repro.experiments fig7           # ECC trade-off
    python -m repro.experiments tables         # Tables I-VII
    python -m repro.experiments aspen          # DSL batch evaluation
    python -m repro.experiments all
    python -m repro.experiments fig4 --tier test   # fast, reduced sizes
    python -m repro.experiments aspen --mode lenient

    python -m repro.experiments service run --scenario s.yaml --state DIR
    python -m repro.experiments service resume --state DIR

(also installed as the ``dvf-experiments`` console script.)

``service ...`` delegates to the fault-tolerant job service CLI
(:mod:`repro.service.cli`): durable scenario queues, a supervised
worker pool with retry/backoff, and journaled resume.

Exit codes: 0 success, 2 argparse usage error, 3 a fault-injection
campaign was resumed against a mismatched checkpoint journal (or an
unusable ``--resume`` path), 4 a checkpoint journal was
unreadable/corrupt, 130 ``fi`` interrupted by Ctrl-C (after printing
the kernels it finished); the service adds 1 (jobs failed) and also
exits 130 when interrupted.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli_types import positive_int, positive_seconds

#: Distinct exit codes for the checkpoint-error taxonomy (satellite of
#: the fail-soft pipeline: a resume gone wrong is diagnosable by code).
EXIT_CHECKPOINT_MISMATCH = 3
EXIT_CHECKPOINT_CORRUPT = 4
EXIT_INTERRUPTED = 130


class _Interrupted(Exception):
    """Ctrl-C stopped a command; ``output`` is what it finished."""

    def __init__(self, output: str):
        super().__init__(output)
        self.output = output


def _fig4(args) -> str:
    from repro.experiments.fig4_verification import render_fig4, run_fig4

    return render_fig4(run_fig4(tier=args.tier, trace_cache=args.trace_cache))


def _fig5(args) -> str:
    from repro.experiments.fig5_profiling import render_fig5, run_fig5

    tier = args.tier if args.tier != "verification" else "profiling"
    return render_fig5(run_fig5(tier=tier))


def _fig6(args) -> str:
    from repro.experiments.configs import FIG6_SIZES
    from repro.experiments.fig6_cg_pcg import render_fig6, run_fig6

    sizes = FIG6_SIZES if args.tier != "test" else (100, 200, 300, 400)
    return render_fig6(run_fig6(sizes=sizes))


def _fig7(args) -> str:
    from repro.experiments.fig7_ecc import render_fig7, run_fig7

    tier = "profiling" if args.tier == "verification" else args.tier
    return render_fig7(run_fig7(tier=tier))


def _fi(args) -> str:
    from repro.experiments.fi_comparison import (
        FI_KERNELS,
        render_fi_comparison,
        run_fi_comparison,
    )

    if args.resume is not None:
        import os

        resume_dir = os.path.abspath(args.resume)
        if os.path.exists(resume_dir) and not os.path.isdir(resume_dir):
            raise NotADirectoryError(resume_dir)
    trials = 200 if args.tier != "test" else 100
    rows = run_fi_comparison(
        tier="test",
        trials=trials,
        jobs=args.jobs,
        timeout=args.timeout,
        checkpoint_dir=args.resume,
    )
    output = render_fi_comparison(rows)
    if len(rows) < len(FI_KERNELS):
        raise _Interrupted(output)
    return output


def _sensitivity(args) -> str:
    from repro.experiments.sensitivity import (
        geometry_sensitivity,
        render_sensitivity,
        weighting_sensitivity,
    )

    return render_sensitivity(
        weighting_sensitivity(tier="test"), geometry_sensitivity(tier="test")
    )


def _tables(args) -> str:
    from repro.experiments.tables import render_all_tables

    return render_all_tables()


def _aspen(args) -> str:
    from repro.experiments.aspen_batch import render_aspen_batch, run_aspen_batch

    tier = "test" if args.tier == "verification" else args.tier
    return render_aspen_batch(run_aspen_batch(tier=tier, mode=args.mode))


_COMMANDS = {
    "aspen": _aspen,
    "fi": _fi,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "sensitivity": _sensitivity,
    "tables": _tables,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "service":
        from repro.service.cli import main as service_main

        return service_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="dvf-experiments",
        description="Regenerate the DVF paper's tables and figures",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--tier",
        choices=("verification", "profiling", "test"),
        default="verification",
        help="workload tier (default: the paper's own sizes; "
        "'test' runs a fast reduced sweep)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        metavar="N",
        help="fi: run trials in a crash-isolated pool of N worker "
        "processes (a crashing trial counts as CRASH instead of "
        "aborting the campaign)",
    )
    parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="fig4: persist kernel traces under DIR keyed by (kernel "
        "module source, workload params, schema), so each kernel is "
        "traced once per workload instead of once per cache cell and "
        "later runs reuse the artifacts",
    )
    parser.add_argument(
        "--timeout",
        type=positive_seconds,
        default=None,
        metavar="SECONDS",
        help="fi: per-trial wall-clock budget; a hung trial is "
        "terminated and counted as TIMEOUT (implies process isolation)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="fi: journal campaigns to DIR/<kernel>.jsonl and resume "
        "from any checkpoints already present (safe across Ctrl-C)",
    )
    parser.add_argument(
        "--mode",
        choices=("strict", "lenient"),
        default="strict",
        help="evaluation mode: 'strict' raises on the first model "
        "error; 'lenient' degrades broken structures to the worst-case "
        "bound and reports coded diagnostics (aspen batch)",
    )
    args = parser.parse_args(argv)
    from repro.faultinject.errors import CheckpointCorrupt, CheckpointMismatch

    names = sorted(_COMMANDS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        try:
            output = _COMMANDS[name](args)
        except _Interrupted as exc:
            print(exc.output)
            print(f"[{name} interrupted]", file=sys.stderr)
            return EXIT_INTERRUPTED
        except CheckpointMismatch as exc:
            print(
                f"checkpoint mismatch: the journal under --resume was "
                f"written by a different campaign configuration.\n  {exc}\n"
                f"Point --resume at a fresh directory or delete the stale "
                f"journal to start over.",
                file=sys.stderr,
            )
            return EXIT_CHECKPOINT_MISMATCH
        except CheckpointCorrupt as exc:
            print(
                f"checkpoint corrupt: the journal under --resume cannot be "
                f"read.\n  {exc}\n"
                f"Delete the damaged journal file to restart that campaign "
                f"from scratch.",
                file=sys.stderr,
            )
            return EXIT_CHECKPOINT_CORRUPT
        except (FileNotFoundError, NotADirectoryError) as exc:
            if getattr(args, "resume", None) is None:
                raise
            print(
                f"unusable --resume path: {args.resume!r} "
                f"({exc.__class__.__name__}: {exc}).\n"
                f"--resume expects a directory for the checkpoint "
                f"journals; point it at a (possibly new) directory, not "
                f"a file.",
                file=sys.stderr,
            )
            return EXIT_CHECKPOINT_MISMATCH
        elapsed = time.perf_counter() - start
        print(output)
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
