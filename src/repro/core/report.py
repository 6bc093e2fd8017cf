"""Plain-text rendering of DVF reports and experiment tables.

Every experiment driver produces structured rows; these helpers format
them as aligned text tables for the CLI, logs and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.dvf import DVFReport


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned text table with a header separator."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in materialised)
    return "\n".join(out)


def format_quantity(value: float) -> str:
    """Compact numeric formatting for DVF-scale quantities."""
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.3e}"
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"


def render_dvf_report(report: DVFReport) -> str:
    """One DVF report as a text table, most vulnerable structure first.

    Structures evaluated through the worst-case degradation bound are
    marked with a trailing ``*`` and a footnote; collected diagnostics
    are appended as their own section.
    """
    rows = [
        (
            s.name + ("*" if s.degraded else ""),
            f"{s.size_bytes:.0f}",
            format_quantity(s.nha),
            format_quantity(s.n_error),
            format_quantity(s.dvf),
        )
        for s in report.ranked()
    ]
    rows.append(
        (
            f"{report.application} (total)",
            f"{sum(s.size_bytes for s in report.structures):.0f}",
            "",
            "",
            format_quantity(report.dvf_application),
        )
    )
    header = (
        f"DVF report: {report.application} on {report.machine} "
        f"(FIT={report.fit}/Mbit, T={report.time_seconds:.4g}s)\n"
    )
    out = header + format_table(
        ["structure", "bytes", "N_ha", "N_error", "DVF"], rows
    )
    if report.degraded_structures:
        out += (
            "\n* degraded: N_ha is the worst-case bound T*AE, not the "
            "analytical estimate"
        )
    if report.diagnostics:
        out += "\n" + render_report_diagnostics(report)
    return out


def render_report_diagnostics(report: DVFReport) -> str:
    """The diagnostics section of a report, one line per record."""
    if not report.diagnostics:
        return "diagnostics: none"
    lines = [f"diagnostics ({len(report.diagnostics)}):"]
    lines.extend(f"  {d}" for d in report.diagnostics)
    return "\n".join(lines)

