"""Fail-soft batch DVF evaluation of Aspen sources.

This is the user-facing end of the lenient pipeline: hand it any number
of Aspen model sources and it returns one entry per model — a full
:class:`~repro.core.dvf.DVFReport` (with degraded structures flagged and
all coded diagnostics attached) whenever anything at all could be
evaluated, or a failure entry carrying the diagnostics when even lenient
compilation found nothing usable, such as a model none of whose
declared data structures could be sized.  In ``strict`` mode the first
error raises, exactly like the rest of the strict pipeline.  The job
service's ``aspen`` workers evaluate one model each through
:func:`evaluate_source`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aspen.builtin import DSL_KERNELS, MACHINE_LIBRARY, builtin_source
from repro.aspen.compiler import check_params, compile_source
from repro.aspen.errors import AspenError, AspenEvalError
from repro.core.dvf import DVFReport
from repro.core.report import render_dvf_report
from repro.diagnostics import Diagnostic, DiagnosticSink, check_mode
from repro.patterns.base import PatternError


@dataclass(frozen=True)
class BatchEntry:
    """Outcome of evaluating one Aspen model in a batch."""

    label: str
    report: DVFReport | None
    error: str | None = None
    diagnostics: tuple[Diagnostic, ...] = ()
    #: Declared data structures left out because they could not be sized.
    dropped: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.report is not None


def evaluate_source(
    label: str,
    source: str,
    machine: str | None = None,
    mode: str = "strict",
    params: dict[str, float] | None = None,
) -> BatchEntry:
    """Evaluate one Aspen source into a :class:`BatchEntry`.

    ``mode`` is checked here and becomes the switch the layers below
    take: lenient evaluation hands :func:`compile_source` a
    :class:`DiagnosticSink`, strict evaluation none.  Strict mode
    propagates the first error; lenient mode always returns an entry —
    degraded report or diagnosed failure, including when the source
    lacks the one model or the named machine it is evaluated on (the
    ``KeyError`` strict mode raises), or when not one of the model's
    declared data structures could be sized (the error names the first
    ASP211, the evaluation failure that left them unsized).  Like an
    unknown ``mode``, ``params`` that are not a mapping raise
    ``ValueError`` in both modes.
    """
    sink = DiagnosticSink() if check_mode(mode) == "lenient" else None
    params = check_params(params)
    try:
        compiled = compile_source(
            source, machine=machine, params=params, sink=sink
        )
        dropped = compiled.dropped
        if dropped and not compiled.sizes:
            cause = next(
                (d for d in sink if d.code == "ASP211"), sink.errors[0]
            )
            raise AspenEvalError(
                f"no data structure could be sized "
                f"({', '.join(dropped)}): [{cause.code}] {cause.message}"
            )
        report = compiled.report(application=label)
    except (AspenError, PatternError, ValueError, KeyError) as exc:
        if sink is None:
            raise
        # str() of a KeyError would quote its message.
        error = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        sink.error(
            "ASP306",
            f"model {label!r} could not be evaluated: {error}",
        )
        return BatchEntry(
            label=label, report=None, error=error, diagnostics=tuple(sink)
        )
    return BatchEntry(
        label=label,
        report=report,
        diagnostics=report.diagnostics,
        dropped=dropped,
    )


def evaluate_batch(
    sources: dict[str, str],
    machine: str | None = None,
    mode: str = "strict",
) -> list[BatchEntry]:
    """Evaluate every source; in lenient mode the batch always completes."""
    return [
        evaluate_source(label, source, machine=machine, mode=mode)
        for label, source in sources.items()
    ]


def run_aspen_batch(
    tier: str = "test", mode: str = "strict", machine: str = "small"
) -> list[BatchEntry]:
    """Evaluate every builtin DSL kernel against one machine.

    Each builtin source is evaluated together with the machine library
    through :func:`evaluate_batch`, in ``DSL_KERNELS`` order.
    """
    return evaluate_batch(
        {
            kernel: builtin_source(kernel, tier) + MACHINE_LIBRARY
            for kernel in DSL_KERNELS
        },
        machine=machine,
        mode=mode,
    )


def render_aspen_batch(entries: list[BatchEntry]) -> str:
    """Text rendering of a batch: one report (or failure) per model."""
    blocks = []
    for entry in entries:
        if entry.report is not None:
            blocks.append(render_dvf_report(entry.report))
        else:
            lines = [f"DVF report: {entry.label} FAILED: {entry.error}"]
            lines.extend(f"  {d}" for d in entry.diagnostics)
            blocks.append("\n".join(lines))
    failed = sum(1 for e in entries if not e.ok)
    degraded = sum(
        1 for e in entries if e.report and e.report.degraded_structures
    )
    dropped = sum(1 for e in entries if e.dropped)
    summary = (
        f"batch: {len(entries)} models, {failed} failed, "
        f"{degraded} with degraded structures"
    )
    if dropped:
        summary += f", {dropped} with dropped structures"
    blocks.append(summary)
    return "\n\n".join(blocks)
