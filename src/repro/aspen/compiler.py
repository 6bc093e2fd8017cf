"""Lowering Aspen models onto the CGPMAC estimators.

This is the workflow of the paper's Fig. 3: user-supplied application
information (data structures, access patterns, templates, access order)
plus hardware information (cache geometry, FIT) go through the extended
Aspen compiler, producing the number of main-memory accesses per data
structure and, combined with the execution-time model, DVF.

Lowering is the one checker of a model: each fault is found where
lowering acts on it (the pattern constructors refuse bad parameters,
the access order is parsed against the declared data).  A
:class:`DiagnosticSink` is the strict/lenient switch (see
``repro.diagnostics``):

no sink (strict)
    The first fault raises :class:`AspenSemanticError` naming the
    structure or kernel, chained from the underlying error.

a sink (lenient)
    Each fault becomes one coded diagnostic; structures whose pattern
    cannot be built or evaluated degrade to the documented worst-case
    bound ``N_ha = T*AE``
    (:class:`~repro.patterns.base.WorstCaseAccess`) and are reported as
    *degraded*, so a batch over many models always completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.aspen.appmodel import (
    AppModel,
    DataModel,
    KernelModel,
    PatternSpec,
    build_app_model,
)
from repro.aspen.errors import AspenSemanticError, DiagnosticSink
from repro.aspen.machine import from_decl
from repro.aspen.parser import parse, parse_with_diagnostics
from repro.core.dvf import DVFReport, build_report, check_time
from repro.core.machine import MachineModel
from repro.patterns.base import AccessPattern, PatternError, WorstCaseAccess
from repro.patterns.composite import (
    AccessEvent,
    CompositeAccessModel,
    estimate_structures,
    parse_order,
)
from repro.patterns.random_access import RandomAccess
from repro.patterns.reuse import ReuseAccess
from repro.patterns.streaming import StreamingAccess
from repro.patterns.template import SweepTemplate, TemplateAccess


def _whole(key: str, value: float) -> int:
    """A count property's value; a fraction is an error, never truncated."""
    whole = round(value) if math.isfinite(value) else None
    # The same tolerance as integer-valued expressions (``evaluate_int``).
    if whole is None or abs(value - whole) > 1e-9 * max(1.0, abs(value)):
        raise PatternError(
            f"pattern property {key!r} must be a whole number, got {value}"
        )
    return whole


def build_pattern(data: DataModel, spec: PatternSpec) -> AccessPattern:
    """Instantiate the CGPMAC estimator for one data structure."""
    props = spec.properties
    if spec.kind == "streaming":
        return StreamingAccess(
            element_size=data.element_size,
            num_elements=data.num_elements,
            stride_elements=_whole("stride", props.get("stride", 1)),
            sweeps=_whole("sweeps", props.get("sweeps", 1)),
            aligned=bool(props.get("aligned", 0)),
        )
    if spec.kind == "random":
        missing = [key for key in ("distinct", "iterations") if key not in props]
        if missing:
            raise PatternError(
                f"random pattern missing {' and '.join(map(repr, missing))}"
            )
        return RandomAccess(
            num_elements=data.num_elements,
            element_size=data.element_size,
            distinct_per_iteration=props["distinct"],
            iterations=_whole("iterations", props["iterations"]),
            cache_ratio=props.get("cache_ratio", 1.0),
        )
    if spec.kind == "template":
        template: list = list(spec.refs)
        for sweep in spec.sweeps:
            template.append(
                SweepTemplate(start=sweep.start, step=sweep.step, end=sweep.end)
            )
        return TemplateAccess(
            element_size=data.element_size,
            template=template,
            num_elements=data.num_elements,
            repeats=_whole("repeats", props.get("repeats", 1)),
            cache_ratio=props.get("cache_ratio", 1.0),
        )
    if spec.kind == "reuse":
        return ReuseAccess(
            target_bytes=data.size_bytes,
            interfering_bytes=_whole("interfering", props.get("interfering", 0)),
            reuse_count=_whole("reuses", props.get("reuses", 1)),
        )
    raise AspenSemanticError(f"unknown pattern kind {spec.kind!r}")


def _worst_case_references(data: DataModel, spec: PatternSpec | None) -> float:
    """A generous but finite reference count ``T`` for the degraded bound.

    Pulls whatever usable numbers the (broken) pattern declaration
    offers; anything missing or nonsensical falls back pessimistically,
    with one full traversal of the structure as the floor.
    """
    n = float(data.num_elements)
    if spec is None:
        return n
    props = spec.properties

    def _pos(key: str, default: float) -> float:
        try:
            value = float(props[key])
        except (KeyError, TypeError, ValueError):
            return default
        if not math.isfinite(value) or value <= 0:
            return default
        return value

    if spec.kind == "streaming":
        return n * _pos("sweeps", 1.0)
    if spec.kind == "random":
        return n + _pos("iterations", 1.0) * min(_pos("distinct", n), n)
    if spec.kind == "reuse":
        return n * (1.0 + _pos("reuses", 1.0))
    if spec.kind == "template":
        refs = float(len(spec.refs))
        for sweep in spec.sweeps:
            try:
                groups = (sweep.end[0] - sweep.start[0]) // max(sweep.step, 1) + 1
            except IndexError:
                groups = 1
            refs += max(groups, 1) * len(sweep.start)
        return max(refs * _pos("repeats", 1.0), n)
    return n


def degraded_pattern(data: DataModel) -> WorstCaseAccess:
    """Worst-case stand-in for a structure with an unusable estimator."""
    return WorstCaseAccess(
        num_elements=data.num_elements,
        element_size=data.element_size,
        total_references=_worst_case_references(data, data.pattern),
    )


def composite_base_pattern(
    data: DataModel, pattern: AccessPattern
) -> AccessPattern:
    """Base (first-use) pattern for a structure inside an access order.

    Inside a composite, later uses are charged through the reuse model;
    a reuse pattern therefore lowers its *first* use to a cold full load
    (a unit-stride stream), while every other lowered pattern, a
    degraded structure's worst-case bound included, is its own base.
    """
    if isinstance(pattern, ReuseAccess):
        return StreamingAccess(
            element_size=data.element_size, num_elements=data.num_elements
        )
    return pattern


@dataclass(frozen=True)
class CompiledModel:
    """An application model lowered against a machine.

    Produced by :func:`compile_model`; exposes ``N_ha`` per structure
    and the DVF :meth:`report` built from it, plus the raw pattern
    objects for inspection.  ``N_ha`` comes from
    :func:`~repro.patterns.composite.estimate_structures`, the evaluator
    kernel models use too.  ``degraded`` names the structures replaced
    by the worst-case bound at compile time.  A lenient model carries
    its ``sink``: every diagnostic lands there, and estimates are routed
    through the guardrail layer (clamping and runtime degradation).
    """

    app: AppModel
    machine: MachineModel
    kernel: KernelModel
    patterns: dict[str, AccessPattern]
    composite: CompositeAccessModel | None
    degraded: frozenset[str] = frozenset()
    sink: DiagnosticSink | None = None

    # ------------------------------------------------------------------
    @cached_property
    def _estimates(self) -> tuple[dict[str, float], frozenset[str]]:
        """``N_ha`` per structure and the degraded set, evaluated once.

        Caching keeps a lenient evaluation from recording its
        diagnostics in ``sink`` a second time.
        """
        values, degraded = estimate_structures(
            self.patterns, self.composite, self.machine.cache, self.sink
        )
        return values, self.degraded | degraded

    def nha_by_structure(self) -> dict[str, float]:
        """Expected main-memory accesses per data structure."""
        return dict(self._estimates[0])

    def degraded_structures(self) -> frozenset[str]:
        """Structures whose ``N_ha`` is the worst-case degradation bound."""
        return self._estimates[1]

    def nha_total(self) -> float:
        """Total expected main-memory accesses."""
        return sum(self.nha_by_structure().values())

    def report(self, application: str | None = None) -> DVFReport:
        """The model's DVF report on its machine (Eq. 1-2), flags included.

        ``T`` is the kernel's declared ``time`` or else the machine's
        roofline estimate of its flops and bytes; a negative or
        non-finite ``time`` raises ``ValueError`` in both modes.  ``S_d``
        is each modeled structure's footprint.  A lenient report carries
        every diagnostic in ``sink``.
        """
        if self.kernel.time is not None:
            time_seconds = check_time(self.kernel.time)
        else:
            time_seconds = self.machine.roofline_seconds(
                self.kernel.flops, self.kernel.bytes_moved
            )
        return build_report(
            application=application or self.app.name,
            machine=self.machine.name,
            fit=self.machine.fit,
            time_seconds=time_seconds,
            sizes={
                name: float(self.app.data[name].size_bytes)
                for name in self.patterns
            },
            nha=self.nha_by_structure(),
            degraded=self.degraded_structures(),
            sink=self.sink,
        )


def _access_order(
    app: AppModel, kernel: KernelModel, sink: DiagnosticSink | None
) -> list[AccessEvent] | None:
    """The kernel's access order over declared data, or None.

    None when the kernel declares no order, or when the order is
    unusable and lowering is lenient (``ASP212``: the composite model is
    dropped); strict lowering raises instead.
    """
    if kernel.order is None:
        return None
    try:
        events = parse_order(kernel.order)
        undeclared = [
            name
            for name in dict.fromkeys(n for event in events for n in event)
            if name not in app.data
        ]
        if undeclared:
            raise AspenSemanticError(
                f"access order references undeclared data {undeclared[0]!r}"
            )
    except (PatternError, AspenSemanticError) as exc:
        problem = f"kernel {kernel.name!r}: invalid access order ({exc})"
        if sink is None:
            raise AspenSemanticError(problem) from exc
        sink.error(
            "ASP212",
            f"{problem}; composite model dropped, structures are "
            f"estimated independently",
        )
        return None
    return events


def compile_model(
    app: AppModel,
    machine: MachineModel,
    kernel: str | None = None,
    sink: DiagnosticSink | None = None,
) -> CompiledModel:
    """Lower an evaluated app model against a machine.

    Without a ``sink`` the first fault raises :class:`AspenSemanticError`
    naming the structure or kernel.  With one, each fault is recorded
    once and lowering goes on: a structure whose pattern cannot be
    built, or that the access order names but that declares no pattern,
    degrades to the worst-case bound (``ASP304``), and an unusable
    access order drops the composite model (``ASP212``).  ``ASP210``
    warns of a model with no data, a structure left out of ``N_ha`` and
    a kernel whose execution time will be zero.  A model with no kernel
    to evaluate raises either way.
    """
    kernel_model = app.kernel(kernel)  # no kernel at all is fatal
    if sink is not None and not app.data:
        sink.warning("ASP210", f"model {app.name!r} declares no data structures")
    events = _access_order(app, kernel_model, sink)
    ordered = dict.fromkeys(name for event in events or () for name in event)
    patterns: dict[str, AccessPattern] = {}
    degraded: set[str] = set()

    def degrade(data: DataModel, problem: str) -> None:
        fallback = degraded_pattern(data)
        sink.error(
            "ASP304",
            f"{problem}; degraded to the worst-case bound N_ha = T*AE with "
            f"T = {fallback.total_references:g}",
            structure=data.name,
            hint="fix the pattern declaration to restore the "
            "analytical estimate",
        )
        patterns[data.name] = fallback
        degraded.add(data.name)

    for name, data in app.data.items():
        if data.pattern_invalid:  # its own error is already recorded
            patterns[name] = degraded_pattern(data)
            degraded.add(name)
        elif data.pattern is None:
            if name in ordered:
                problem = (
                    f"kernel {kernel_model.name!r}: data {name!r} appears in "
                    f"the access order but declares no pattern"
                )
                if sink is None:
                    raise AspenSemanticError(problem)
                degrade(data, problem)
            elif sink is not None:
                sink.warning(
                    "ASP210",
                    f"data {name!r} has no access pattern; it will be "
                    f"excluded from N_ha estimation",
                )
        else:
            try:
                patterns[name] = build_pattern(data, data.pattern)
            except (PatternError, AspenSemanticError, ArithmeticError,
                    KeyError, TypeError, ValueError) as exc:
                if sink is None:
                    raise AspenSemanticError(f"data {name!r}: {exc}") from exc
                degrade(data, f"pattern for {name!r} could not be built ({exc})")
    if sink is not None and kernel_model.time is None and (
        kernel_model.flops == kernel_model.loads == kernel_model.stores == 0
    ):
        sink.warning(
            "ASP210",
            f"kernel {kernel_model.name!r} declares neither 'time' nor any "
            f"flops/loads/stores; execution time will be zero and so will DVF",
        )
    composite = None
    if events is not None:
        composite = CompositeAccessModel(
            patterns={
                name: composite_base_pattern(app.data[name], patterns[name])
                for name in ordered
            },
            order=events,
            iterations=kernel_model.iterations,
        )
    return CompiledModel(
        app=app,
        machine=machine,
        kernel=kernel_model,
        patterns=patterns,
        composite=composite,
        degraded=frozenset(degraded),
        sink=sink,
    )


def compile_source(
    source: str,
    model: str | None = None,
    machine: str | MachineModel | None = None,
    kernel: str | None = None,
    params: dict[str, float] | None = None,
    sink: DiagnosticSink | None = None,
) -> CompiledModel:
    """Parse, evaluate and lower Aspen source in one step.

    Parameters
    ----------
    source:
        Aspen DSL text containing at least one ``model`` and (unless a
        :class:`MachineModel` is passed) one ``machine``.
    model / machine / kernel:
        Names selecting among multiple declarations; each may be omitted
        when the source declares exactly one.
    params:
        Model parameter overrides (e.g. ``{"n": 800}``).
    sink:
        Omitted (strict), the first error raises.  Given (lenient),
        evaluation recovers, records coded diagnostics here and degrades
        broken structures to the worst-case bound; the sink is
        available afterwards as ``CompiledModel.sink``.
    """
    if sink is None:
        program = parse(source)
    else:
        program, _ = parse_with_diagnostics(source, sink)
    app = build_app_model(program.model(model), overrides=params, sink=sink)
    if isinstance(machine, MachineModel):
        machine_model = machine
    else:
        machine_model = from_decl(program.machine(machine))
    return compile_model(app, machine_model, kernel=kernel, sink=sink)
