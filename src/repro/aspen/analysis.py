"""Semantic validation of Aspen application models.

:func:`validate` runs cheap consistency checks over an evaluated
:class:`~repro.aspen.appmodel.AppModel` + machine pair and returns a
list of diagnostics — the Aspen philosophy of "correctness checks"
enforced by the DSL (§II).  Errors make compilation fail; warnings are
advisory.
"""

from __future__ import annotations

from repro.aspen.appmodel import AppModel, PATTERN_KINDS
from repro.core.machine import MachineModel
from repro.diagnostics import Diagnostic
from repro.patterns.composite import parse_order


def validate(app: AppModel, machine: MachineModel | None = None) -> list[Diagnostic]:
    """Validate an application model (optionally against a machine)."""
    out: list[Diagnostic] = []

    def error(msg: str, structure: str | None = None) -> None:
        out.append(Diagnostic("error", "ASP209", msg, structure=structure))

    def warn(msg: str, structure: str | None = None) -> None:
        out.append(Diagnostic("warning", "ASP210", msg, structure=structure))

    if not app.data:
        warn(f"model {app.name!r} declares no data structures")
    if not app.kernels:
        error(f"model {app.name!r} declares no kernels")

    for data in app.data.values():
        pattern = data.pattern
        if pattern is None:
            if not data.pattern_invalid:
                # An *invalid* pattern already carries its own error
                # diagnostic and degrades to the worst-case bound.
                warn(
                    f"data {data.name!r} has no access pattern; it will be "
                    f"excluded from N_ha estimation"
                )
            continue
        if pattern.kind == "streaming":
            stride = pattern.properties.get("stride", 1.0)
            if stride < 1:
                error(f"data {data.name!r}: streaming stride must be >= 1", data.name)
        elif pattern.kind == "random":
            for required in ("distinct", "iterations"):
                if required not in pattern.properties:
                    error(
                        f"data {data.name!r}: random pattern missing "
                        f"{required!r}"
                    )
            distinct = pattern.properties.get("distinct", 1.0)
            if distinct > data.num_elements:
                error(
                    f"data {data.name!r}: random 'distinct' ({distinct}) "
                    f"exceeds elements ({data.num_elements})"
                )
            ratio = pattern.properties.get("cache_ratio", 1.0)
            if not 0 < ratio <= 1:
                error(f"data {data.name!r}: cache_ratio must be in (0, 1]", data.name)
        elif pattern.kind == "template":
            if not pattern.sweeps and not pattern.refs:
                error(
                    f"data {data.name!r}: template pattern needs 'refs' "
                    f"and/or 'sweep' blocks"
                )
        elif pattern.kind == "reuse":
            interfering = pattern.properties.get("interfering", 0.0)
            if interfering < 0:
                error(f"data {data.name!r}: 'interfering' must be >= 0", data.name)
        else:  # pragma: no cover - appmodel already rejects unknown kinds
            error(
                f"data {data.name!r}: unknown pattern kind {pattern.kind!r} "
                f"(known: {sorted(PATTERN_KINDS)})"
            )

    for kernel in app.kernels.values():
        if kernel.order is not None:
            try:
                events = parse_order(kernel.order)
            except ValueError as exc:
                error(f"kernel {kernel.name!r}: bad access order: {exc}")
                continue
            names = {name for event in events for name in event}
            unknown = names - set(app.data)
            if unknown:
                error(
                    f"kernel {kernel.name!r}: access order references "
                    f"undeclared data {sorted(unknown)}"
                )
            for name in names & set(app.data):
                if app.data[name].pattern is None:
                    error(
                        f"kernel {kernel.name!r}: data {name!r} appears in "
                        f"the access order but declares no pattern"
                    )
        if (
            kernel.time is None
            and kernel.flops == 0
            and kernel.loads == 0
            and kernel.stores == 0
        ):
            warn(
                f"kernel {kernel.name!r} declares neither 'time' nor any "
                f"flops/loads/stores; execution time will be zero and so "
                f"will DVF"
            )

    if machine is not None:
        working_set = app.working_set_bytes()
        if working_set == 0:
            warn(f"model {app.name!r} has an empty working set")

    return out


def require_valid(app: AppModel, machine: MachineModel | None = None) -> None:
    """Raise :class:`AspenSemanticError` when validation finds errors."""
    from repro.aspen.errors import AspenSemanticError

    diagnostics = validate(app, machine)
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        raise AspenSemanticError(
            "; ".join(d.message for d in errors)
        )
