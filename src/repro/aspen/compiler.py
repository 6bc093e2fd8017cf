"""Lowering Aspen models onto the CGPMAC estimators.

This is the workflow of the paper's Fig. 3: user-supplied application
information (data structures, access patterns, templates, access order)
plus hardware information (cache geometry, FIT) go through the extended
Aspen compiler, producing the number of main-memory accesses per data
structure and, combined with the execution-time model, DVF.

:func:`compile_source` is one pass from a parsed ``model`` declaration
to a :class:`CompiledModel`.  It evaluates the params (with overrides),
sizes each data declaration and evaluates the kernels.  It lowers each
sized structure's pattern, evaluating its properties, sweeps and
references and building the estimator in the same step.  Then it takes
the kernel, checks its access order against the declared names and
composes the structures the order names.  So each structure's fate
(sized, dropped or degraded) is decided once, where the pass meets its
fault, and the pattern constructors are the checkers of their
parameters.  A :class:`DiagnosticSink` is the strict/lenient switch
(see ``repro.diagnostics``):

no sink (strict)
    The first fault raises: an evaluation error as it is, a pattern the
    estimator refuses as :class:`AspenSemanticError` naming the
    structure, chained from the underlying error.

a sink (lenient)
    Each fault becomes one coded diagnostic naming what it dropped or
    degraded; structures whose pattern cannot be evaluated or built
    degrade to the documented worst-case bound ``N_ha = T*AE``
    (:class:`~repro.patterns.base.WorstCaseAccess`) and are reported as
    *degraded*, so a batch over many models always completes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from repro.aspen.ast import DataDecl, IndexRef, KernelDecl, ModelDecl
from repro.aspen.errors import AspenEvalError, AspenSemanticError
from repro.aspen.expr import evaluate_int
from repro.aspen.machine import from_decl
from repro.aspen.parser import parse, parse_with_diagnostics
from repro.core.dvf import DVFReport, build_report, check_time
from repro.core.machine import MachineModel
from repro.diagnostics import DiagnosticSink, SourceSpan
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

_KINDS = ("random", "reuse", "streaming", "template")  # pattern kinds
_KERNEL_PROPS = frozenset({"iterations", "flops", "loads", "stores", "time"})


@dataclass(frozen=True, slots=True)
class DataModel:
    """A sized data declaration.

    ``dims`` is None when lenient evaluation could not use the declared
    ``dims`` (``ASP203``); that error then also stands for a pattern
    that cannot be evaluated without them.
    """

    decl: DataDecl
    num_elements: int
    element_size: int
    dims: tuple[int, ...] | None = ()

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def size_bytes(self) -> int:
        """Footprint ``S_d = N * E`` in bytes."""
        return self.num_elements * self.element_size


@dataclass(frozen=True, slots=True)
class KernelModel:
    """An evaluated kernel declaration."""

    name: str
    iterations: int = 1
    order: str | None = None
    flops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    time: float | None = None


def _whole(key: str, value: float) -> int:
    """A count property's value; a fraction is an error, never truncated."""
    whole = round(value) if math.isfinite(value) else None
    # The same tolerance as integer-valued expressions (``evaluate_int``).
    if whole is None or abs(value - whole) > 1e-9 * max(1.0, abs(value)):
        raise PatternError(
            f"pattern property {key!r} must be a whole number, got {value}"
        )
    return whole


def _worst_case_references(
    data: DataModel, kind: str | None, props: dict[str, float], template: list
) -> float:
    """A generous but finite reference count ``T`` for the degraded bound.

    Pulls whatever usable numbers the (broken) pattern declaration
    offers; anything missing or nonsensical falls back pessimistically,
    with one full traversal of the structure as the floor.
    """
    n = float(data.num_elements)

    def _pos(key: str, default: float) -> float:
        value = props.get(key, default)
        return value if math.isfinite(value) and value > 0 else default

    if kind == "streaming":
        return n * _pos("sweeps", 1.0)
    if kind == "random":
        return n + _pos("iterations", 1.0) * min(_pos("distinct", n), n)
    if kind == "reuse":
        return n * (1.0 + _pos("reuses", 1.0))
    if kind == "template":
        refs = 0.0
        for item in template:
            if isinstance(item, int):
                refs += 1
                continue
            start, step, end = item
            try:
                groups = (end[0] - start[0]) // max(step, 1) + 1
            except IndexError:
                groups = 1
            refs += max(groups, 1) * len(start)
        return max(refs * _pos("repeats", 1.0), n)
    return n


def degraded_pattern(
    data: DataModel,
    kind: str | None = None,
    props: dict[str, float] | None = None,
    template: list | tuple = (),
) -> WorstCaseAccess:
    """Worst-case stand-in for a structure with an unusable estimator.

    ``T`` is one traversal of the structure when its pattern was never
    evaluated (no ``kind``), else drawn from the evaluated declaration.
    """
    return WorstCaseAccess(
        num_elements=data.num_elements,
        element_size=data.element_size,
        total_references=_worst_case_references(data, kind, props or {}, template),
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

    Produced by :func:`compile_source`; exposes ``N_ha`` per structure
    and the DVF :meth:`report` built from it, plus the raw pattern
    objects for inspection.  ``N_ha`` comes from
    :func:`~repro.patterns.composite.estimate_structures`, the evaluator
    kernel models use too.  ``sizes`` holds each sized structure's
    footprint and ``dropped`` the declared structures that could not be
    sized.  A lenient model carries its ``sink``: every diagnostic lands
    there, and estimates are routed through the guardrail layer
    (clamping and runtime degradation).
    """

    name: str
    machine: MachineModel
    kernel: KernelModel
    sizes: dict[str, int]
    patterns: dict[str, AccessPattern]
    composite: CompositeAccessModel | None
    dropped: tuple[str, ...] = ()
    sink: DiagnosticSink | None = None

    # ------------------------------------------------------------------
    @cached_property
    def _estimates(self) -> tuple[dict[str, float], frozenset[str]]:
        """``N_ha`` per structure and the degraded set, evaluated once.

        A structure lowered to the worst-case bound is degraded, as is
        one whose estimate the guardrails replace at run time.  Caching
        keeps a lenient evaluation from recording its diagnostics in
        ``sink`` a second time.
        """
        values, degraded = estimate_structures(
            self.patterns, self.composite, self.machine.cache, self.sink
        )
        lowered = {name for name, pattern in self.patterns.items()
                   if isinstance(pattern, WorstCaseAccess)}
        return values, degraded | lowered

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
                self.kernel.flops, self.kernel.loads + self.kernel.stores
            )
        return build_report(
            application=application or self.name,
            machine=self.machine.name,
            fit=self.machine.fit,
            time_seconds=time_seconds,
            sizes={name: float(self.sizes[name]) for name in self.patterns},
            nha=self.nha_by_structure(),
            degraded=self.degraded_structures(),
            sink=self.sink,
        )


def _fault(
    sink: DiagnosticSink | None, code: str, message: str,
    error: Exception | None = None, **where,
) -> None:
    """Strict, raise ``error`` (else ``message`` as a semantic error);
    lenient, record ``message`` as ``code``."""
    if sink is None:
        raise error or AspenSemanticError(message)
    sink.error(code, message, **where)


def check_params(params) -> dict:
    """Overrides as a dict; like an unknown mode, a non-mapping is the
    caller's error, not the model's, so it raises ``ValueError``."""
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise ValueError(
            f"params must map parameter names to numbers, got {params!r}"
        )
    return dict(params)


def _evaluate_params(
    decl: ModelDecl, overrides: dict, sink: DiagnosticSink | None
) -> dict[str, float]:
    """The parameter environment, overrides applied in declaration order.

    An override replaces its param's expression, so derived params see
    it and its default never runs.  An unknown name, or a value that is
    not a finite number as written (a bool or a string is not), is
    ``ASP208``; lenient evaluation keeps the declared default.
    """
    unknown = set(overrides) - {param.name for param in decl.params}
    if unknown:
        _fault(sink, "ASP208", f"model {decl.name!r} has no parameters "
               f"{sorted(unknown, key=str)}")
    env: dict[str, float] = {}
    for param in decl.params:
        span = SourceSpan(param.line, 0)
        if param.name in overrides:
            value = overrides[param.name]
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or too large
                finite = False
            if finite:
                env[param.name] = value
                continue
            _fault(sink, "ASP208", f"model {decl.name!r}: param "
                   f"{param.name!r} must be a finite number, got {value!r}",
                   span=span)
        try:
            env[param.name] = param.value.evaluate(env)
        except AspenEvalError as exc:
            _fault(sink, "ASP211", f"model {decl.name!r}: param "
                   f"{param.name!r}: {exc}", exc, span=span)
    return env


def _size(
    decl: DataDecl,
    env: dict[str, float],
    model: str,
    sink: DiagnosticSink | None,
) -> DataModel | None:
    """Size one data declaration; None when a lenient pass drops it."""
    where = {"span": SourceSpan(decl.line, 0), "structure": decl.name}
    for key in ("elements", "element_size"):
        if key not in decl.properties:
            _fault(sink, "ASP201", f"model {model!r}: data {decl.name!r} "
                   f"missing {key!r}", **where)
            return None
    try:
        num_elements, element_size = (
            evaluate_int(decl.properties[key], env, f"{decl.name}.{key}")
            for key in ("elements", "element_size")
        )
    except AspenEvalError as exc:
        _fault(sink, "ASP211", f"model {model!r}: data {decl.name!r} "
               f"cannot be sized: {exc}", exc, **where)
        return None
    if num_elements < 1 or element_size < 1:
        _fault(sink, "ASP202", f"model {model!r}: data {decl.name!r} must "
               f"have positive elements and element_size", **where)
        return None
    try:
        dims = tuple(
            evaluate_int(d, env, f"{decl.name}.dims") for d in decl.dims
        )
        if dims and math.prod(dims) != num_elements:
            raise AspenSemanticError(
                f"model {model!r}: data {decl.name!r} dims {dims} do not "
                f"multiply to elements={num_elements}"
            )
    except (AspenEvalError, AspenSemanticError) as exc:
        _fault(sink, "ASP203", str(exc), exc, **where)
        dims = None
    return DataModel(decl, num_elements, element_size, dims)


def _evaluate_kernel(
    decl: KernelDecl,
    env: dict[str, float],
    model: str,
    sink: DiagnosticSink | None,
) -> KernelModel | None:
    """Evaluate a kernel declaration; None when a lenient pass drops it.

    A kernel whose ``iterations`` is not a whole number >= 1 is dropped
    with ``ASP207``, one with an unknown or unevaluable property with
    ``ASP206``.
    """
    props = decl.properties
    code = "ASP206"
    try:
        unknown = set(props) - _KERNEL_PROPS
        if unknown:
            raise AspenSemanticError(
                f"model {model!r}: kernel {decl.name!r} has unknown "
                f"properties {sorted(unknown)} (known: {sorted(_KERNEL_PROPS)})"
            )
        code = "ASP207"
        iterations = (
            evaluate_int(props["iterations"], env, "kernel iterations")
            if "iterations" in props
            else 1
        )
        if iterations < 1:
            raise AspenSemanticError(
                f"model {model!r}: kernel {decl.name!r} iterations must be >= 1"
            )
        code = "ASP206"
        resources = {
            key: props[key].evaluate(env)
            for key in ("flops", "loads", "stores", "time") if key in props
        }
        return KernelModel(decl.name, iterations, decl.order, **resources)
    except (AspenSemanticError, AspenEvalError) as exc:
        _fault(sink, code, f"kernel {decl.name!r} dropped: {exc}", exc,
               span=SourceSpan(decl.line, 0))
        return None


def _access_order(
    kernel: KernelModel,
    sized: dict[str, DataModel],
    dropped: list[str],
    sink: DiagnosticSink | None,
) -> list[AccessEvent] | None:
    """The kernel's access order over the sized data, or None.

    None when the kernel declares no order, or when the order is
    unusable and the pass is lenient (``ASP212``, which tells a name
    never declared from one the pass dropped); strict raises instead.
    """
    if kernel.order is None:
        return None
    try:
        events = parse_order(kernel.order)
        for name in dict.fromkeys(n for event in events for n in event):
            if name in sized:
                continue
            raise AspenSemanticError(
                f"access order references data {name!r}, which was "
                f"dropped because it could not be sized"
                if name in dropped
                else f"access order references undeclared data {name!r}"
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


def _flatten_ref(
    ref: IndexRef, env: dict[str, float], data: DataModel, model: str
) -> int:
    """Flatten a multi-dim reference row-major over ``dims`` (0-based)."""
    if ref.data != data.name:
        raise AspenSemanticError(
            f"model {model!r}: template for {data.name!r} references "
            f"{ref.data!r}"
        )
    indices = [evaluate_int(e, env, f"{data.name} index") for e in ref.indices]
    if len(indices) == 1 and not data.dims:
        return indices[0]
    if not data.dims:
        raise AspenSemanticError(
            f"model {model!r}: data {data.name!r} needs 'dims' for "
            f"multi-dimensional template references"
        )
    if len(indices) != len(data.dims):
        raise AspenSemanticError(
            f"model {model!r}: reference {ref.data}{list(indices)} has "
            f"{len(indices)} indices but dims has {len(data.dims)}"
        )
    flat = 0
    for idx, dim in zip(indices, data.dims):
        if not 0 <= idx < dim:
            raise AspenSemanticError(
                f"model {model!r}: index {idx} out of range [0, {dim}) in "
                f"template reference for {data.name!r}"
            )
        flat = flat * dim + idx
    return flat


def _estimator(
    data: DataModel, kind: str, props: dict[str, float], template: list
) -> AccessPattern:
    """Instantiate the CGPMAC estimator for one evaluated pattern."""
    if kind == "streaming":
        return StreamingAccess(
            element_size=data.element_size,
            num_elements=data.num_elements,
            stride_elements=_whole("stride", props.get("stride", 1)),
            sweeps=_whole("sweeps", props.get("sweeps", 1)),
            aligned=bool(props.get("aligned", 0)),
        )
    if kind == "random":
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
    if kind == "template":
        return TemplateAccess(
            element_size=data.element_size,
            template=[
                item if isinstance(item, int) else SweepTemplate(*item)
                for item in template
            ],
            num_elements=data.num_elements,
            repeats=_whole("repeats", props.get("repeats", 1)),
            cache_ratio=props.get("cache_ratio", 1.0),
        )
    return ReuseAccess(
        target_bytes=data.size_bytes,
        interfering_bytes=_whole("interfering", props.get("interfering", 0)),
        reuse_count=_whole("reuses", props.get("reuses", 1)),
    )


def _degrade(
    sink: DiagnosticSink, data: DataModel, problem: str, *evaluated
) -> WorstCaseAccess:
    """Record ``ASP304`` for ``data`` and stand its worst case in for it."""
    fallback = degraded_pattern(data, *evaluated)
    sink.error(
        "ASP304",
        f"{problem}; degraded to the worst-case bound N_ha = T*AE with "
        f"T = {fallback.total_references:g}",
        structure=data.name,
        hint="fix the pattern declaration to restore the analytical estimate",
    )
    return fallback


def _lower(
    data: DataModel,
    env: dict[str, float],
    model: str,
    sink: DiagnosticSink | None,
) -> AccessPattern:
    """Evaluate a sized structure's pattern and build its estimator.

    The evaluated template lists each reference's flat index, then each
    sweep as ``(start, step, end)``.  Lenient, a pattern that cannot be
    evaluated is ``ASP204`` (unknown kind) or ``ASP205`` and degrades
    with ``T = N``; one the estimator refuses is ``ASP304`` and degrades
    with ``T`` drawn from its evaluated properties.
    """
    pattern = data.decl.pattern
    try:
        if pattern.kind not in _KINDS:
            raise AspenSemanticError(
                f"model {model!r}: unknown pattern kind {pattern.kind!r} for "
                f"data {data.name!r}; known: {list(_KINDS)}"
            )
        props = {key: e.evaluate(env) for key, e in pattern.properties.items()}
        sweeps = []
        for sweep in pattern.sweeps:
            start = tuple(_flatten_ref(r, env, data, model) for r in sweep.start)
            end = tuple(_flatten_ref(r, env, data, model) for r in sweep.end)
            step = evaluate_int(sweep.step, env, "sweep step")
            sweeps.append((start, step, end))
        template = [_flatten_ref(r, env, data, model) for r in pattern.refs]
    except (AspenEvalError, AspenSemanticError) as exc:
        if sink is None:
            raise
        if data.dims is not None:  # else its ASP203 names the fault
            code = "ASP205" if pattern.kind in _KINDS else "ASP204"
            sink.error(
                code, str(exc), span=SourceSpan(data.decl.line, 0),
                structure=data.name,
            )
        return degraded_pattern(data)
    template += sweeps
    try:
        return _estimator(data, pattern.kind, props, template)
    except (PatternError, ArithmeticError, KeyError, TypeError,
            ValueError) as exc:
        if sink is None:
            raise AspenSemanticError(f"data {data.name!r}: {exc}") from exc
        return _degrade(
            sink, data, f"pattern for {data.name!r} could not be built ({exc})",
            pattern.kind, props, template,
        )


def compile_source(
    source: str,
    model: str | None = None,
    machine: str | MachineModel | None = None,
    kernel: str | None = None,
    params: dict[str, float] | None = None,
    sink: DiagnosticSink | None = None,
) -> CompiledModel:
    """Parse, evaluate and lower Aspen source in one pass.

    Parameters
    ----------
    source:
        Aspen DSL text containing at least one ``model`` and (unless a
        :class:`MachineModel` is passed) one ``machine``.
    model / machine / kernel:
        Names selecting among multiple declarations; each may be omitted
        when the source declares exactly one.
    params:
        Model parameter overrides (e.g. ``{"n": 800}``), each a finite
        int or float; a non-mapping raises ``ValueError``.
    sink:
        Omitted (strict), the first error raises.  Given (lenient),
        evaluation recovers, records coded diagnostics here, drops a
        structure it cannot size and degrades one whose pattern it
        cannot lower to the worst-case bound; the sink is available
        afterwards as ``CompiledModel.sink``.  A model with no kernel
        to evaluate raises either way.
    """
    overrides = check_params(params)
    if sink is None:
        program = parse(source)
    else:
        program, _ = parse_with_diagnostics(source, sink)
    decl = program.model(model)
    env = _evaluate_params(decl, overrides, sink)
    sized: dict[str, DataModel] = {}
    dropped: list[str] = []
    for data_decl in decl.data:
        data = _size(data_decl, env, decl.name, sink)
        if data is None:
            dropped.append(data_decl.name)
        else:
            sized[data.name] = data
    kernels: dict[str, KernelModel] = {}
    for kernel_decl in decl.kernels:
        evaluated = _evaluate_kernel(kernel_decl, env, decl.name, sink)
        if evaluated is not None:
            kernels[evaluated.name] = evaluated
    if not isinstance(machine, MachineModel):
        machine = from_decl(program.machine(machine))
    patterns = {
        name: _lower(data, env, decl.name, sink)
        for name, data in sized.items()
        if data.decl.pattern is not None
    }
    if kernel is None and len(kernels) == 1:
        (kernel,) = kernels
    if kernel not in kernels:  # no kernel to evaluate is fatal in both modes
        raise AspenSemanticError(
            f"model {decl.name!r}: expected exactly one kernel, found "
            f"{sorted(kernels)}" if kernel is None
            else f"model {decl.name!r} has no kernel {kernel!r}"
        )
    kernel_model = kernels[kernel]
    if sink is not None and not sized:
        sink.warning("ASP210", f"model {decl.name!r} declares no data structures")
    events = _access_order(kernel_model, sized, dropped, sink)
    ordered = dict.fromkeys(name for event in events or () for name in event)
    for name, data in sized.items():
        if data.decl.pattern is not None:
            continue
        if name in ordered:
            problem = (
                f"kernel {kernel_model.name!r}: data {name!r} appears in "
                f"the access order but declares no pattern"
            )
            if sink is None:
                raise AspenSemanticError(problem)
            patterns[name] = _degrade(sink, data, problem)
        elif sink is not None:
            sink.warning(
                "ASP210",
                f"data {name!r} has no access pattern; it will be "
                f"excluded from N_ha estimation",
            )
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
                name: composite_base_pattern(sized[name], patterns[name])
                for name in ordered
            },
            order=events,
            iterations=kernel_model.iterations,
        )
    return CompiledModel(
        name=decl.name,
        machine=machine,
        kernel=kernel_model,
        sizes={name: data.size_bytes for name, data in sized.items()},
        patterns=patterns,
        composite=composite,
        dropped=tuple(dropped),
        sink=sink,
    )
