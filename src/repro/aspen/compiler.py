"""Lowering Aspen models onto the CGPMAC estimators.

This is the workflow of the paper's Fig. 3: user-supplied application
information (data structures, access patterns, templates, access order)
plus hardware information (cache geometry, FIT) go through the extended
Aspen compiler, producing the number of main-memory accesses per data
structure and, combined with the execution-time model, DVF.

Two evaluation modes are supported (see ``repro.diagnostics``):

``strict``
    The first semantic or estimator error raises — exactly the
    historical behavior.

``lenient``
    Errors become coded diagnostics in a :class:`DiagnosticSink`;
    structures whose pattern cannot be built or evaluated degrade to the
    documented worst-case bound ``N_ha = T*AE``
    (:class:`~repro.patterns.base.WorstCaseAccess`) and are reported as
    *degraded*, so a batch over many models always completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.aspen.analysis import require_valid, validate
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
from repro.diagnostics import check_mode
from repro.patterns.base import AccessPattern, PatternError, WorstCaseAccess
from repro.patterns.composite import (
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


def composite_base_pattern(data: DataModel, spec: PatternSpec) -> AccessPattern:
    """Base (first-use) pattern for a structure inside an access order.

    Inside a composite, later uses are charged through the reuse model;
    a ``reuse``-kind declaration therefore lowers its *first* use to a
    cold full load (a unit-stride stream), while the other kinds keep
    their own estimator.
    """
    if spec.kind == "reuse":
        return StreamingAccess(
            element_size=data.element_size, num_elements=data.num_elements
        )
    return build_pattern(data, spec)


@dataclass(frozen=True)
class CompiledModel:
    """An application model lowered against a machine.

    Produced by :func:`compile_model`; exposes ``N_ha`` per structure
    and the DVF :meth:`report` built from it, plus the raw pattern
    objects for inspection.  ``N_ha`` comes from
    :func:`~repro.patterns.composite.estimate_structures`, the evaluator
    kernel models use too.  In ``lenient`` mode ``degraded`` names the
    structures replaced by the worst-case bound at compile time,
    ``sink`` carries every diagnostic, and estimates are routed through
    the guardrail layer (clamping and runtime degradation).
    """

    app: AppModel
    machine: MachineModel
    kernel: KernelModel
    patterns: dict[str, AccessPattern]
    composite: CompositeAccessModel | None
    mode: str = "strict"
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
        is each modeled structure's footprint.  In ``lenient`` mode the
        report carries every diagnostic in ``sink``.
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
            mode=self.mode,
            sink=self.sink,
        )


def compile_model(
    app: AppModel,
    machine: MachineModel,
    kernel: str | None = None,
    mode: str = "strict",
    sink: DiagnosticSink | None = None,
) -> CompiledModel:
    """Lower an evaluated app model against a machine.

    Both modes lower through the same loop.  ``mode="strict"`` raises
    on the first invalid structure (historical behavior).
    ``mode="lenient"`` records diagnostics in ``sink`` (created if
    omitted), swaps unusable patterns for the worst-case bound and
    keeps going; only model-level failures with nothing left to
    evaluate (no usable kernel) still raise.
    """
    check_mode(mode)
    strict = mode == "strict"
    if strict:
        require_valid(app, machine)
        sink = None
    else:
        sink = sink if sink is not None else DiagnosticSink()
        # Advisory pass: record every validation finding, but drive the
        # actual degradation decisions structurally below.
        sink.extend(validate(app, machine))
    kernel_model = app.kernel(kernel)  # no kernel at all is fatal
    patterns: dict[str, AccessPattern] = {}
    degraded: set[str] = set()
    for name, data in app.data.items():
        if data.pattern_invalid:
            patterns[name] = degraded_pattern(data)
            degraded.add(name)
            continue
        if data.pattern is None:
            continue
        try:
            patterns[name] = build_pattern(data, data.pattern)
        except (PatternError, AspenSemanticError, ArithmeticError,
                KeyError, TypeError, ValueError) as exc:
            if strict:
                raise
            fallback = degraded_pattern(data)
            worst = fallback.total_references
            sink.error(
                "ASP304",
                f"pattern for {name!r} could not be built ({exc}); degraded "
                f"to the worst-case bound N_ha = T*AE with T = {worst:g}",
                structure=name,
                hint="fix the pattern declaration to restore the "
                "analytical estimate",
            )
            patterns[name] = fallback
            degraded.add(name)
    composite = None
    if kernel_model.order is not None:
        try:
            events = parse_order(kernel_model.order)
            names = dict.fromkeys(n for event in events for n in event)
            base = {}
            for name in names:
                data = app.data.get(name)
                if data is None:
                    raise AspenSemanticError(
                        f"access order references undeclared data {name!r}"
                    )
                if name in degraded or data.pattern is None:
                    base[name] = patterns.get(name, degraded_pattern(data))
                else:
                    base[name] = composite_base_pattern(data, data.pattern)
            composite = CompositeAccessModel(
                patterns=base,
                order=events,
                iterations=kernel_model.iterations,
            )
        except (PatternError, AspenSemanticError) as exc:
            if strict:
                raise
            sink.error(
                "ASP212",
                f"kernel {kernel_model.name!r}: invalid access order "
                f"({exc}); composite model dropped, structures are "
                f"estimated independently",
                structure=None,
            )
    return CompiledModel(
        app=app,
        machine=machine,
        kernel=kernel_model,
        patterns=patterns,
        composite=composite,
        mode=mode,
        degraded=frozenset(degraded),
        sink=sink,
    )


def compile_source(
    source: str,
    model: str | None = None,
    machine: str | MachineModel | None = None,
    kernel: str | None = None,
    params: dict[str, float] | None = None,
    mode: str = "strict",
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
    mode:
        ``"strict"`` (default) raises on the first error; ``"lenient"``
        recovers, records coded diagnostics in ``sink`` and degrades
        broken structures to the worst-case bound.
    sink:
        Diagnostic collector for lenient mode; created when omitted and
        available afterwards as ``CompiledModel.sink``.
    """
    check_mode(mode)
    if mode == "strict":
        program = parse(source)
        app = build_app_model(program.model(model), overrides=params)
    else:
        sink = sink if sink is not None else DiagnosticSink()
        program, sink = parse_with_diagnostics(source, sink)
        app = build_app_model(program.model(model), overrides=params, sink=sink)
    if isinstance(machine, MachineModel):
        machine_model = machine
    else:
        machine_model = from_decl(program.machine(machine))
    return compile_model(app, machine_model, kernel=kernel, mode=mode, sink=sink)
