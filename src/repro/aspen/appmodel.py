"""Application-model semantics: evaluated data/kernel declarations.

This layer resolves parameters and turns the raw AST into typed model
objects the compiler can lower onto the CGPMAC pattern estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aspen.ast import (
    DataDecl,
    IndexRef,
    KernelDecl,
    ModelDecl,
    PatternDecl,
    SweepDecl,
)
from repro.aspen.errors import (
    AspenEvalError,
    AspenSemanticError,
    DiagnosticSink,
    SourceSpan,
)
from repro.aspen.expr import evaluate_int

#: Pattern kinds understood by the compiler and their single-letter codes.
PATTERN_KINDS = {
    "streaming": "s",
    "random": "r",
    "template": "t",
    "reuse": "u",
}


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """An evaluated sweep: flat start/end indices and the step."""

    start: tuple[int, ...]
    step: int
    end: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class PatternSpec:
    """An evaluated pattern declaration."""

    kind: str
    properties: dict[str, float]
    sweeps: tuple[SweepSpec, ...] = ()
    refs: tuple[int, ...] = ()

    @property
    def code(self) -> str:
        """Single-letter pattern code ('s', 'r', 't', 'u')."""
        return PATTERN_KINDS[self.kind]


@dataclass(frozen=True, slots=True)
class DataModel:
    """An evaluated data structure declaration.

    ``pattern_invalid`` marks a structure whose pattern declaration
    could not be evaluated in lenient mode: it is sized (``elements`` /
    ``element_size`` are good) but has no usable estimator, so the
    compiler degrades it to the worst-case bound instead of excluding
    it from ``N_ha``.
    """

    name: str
    num_elements: int
    element_size: int
    dims: tuple[int, ...] = ()
    pattern: PatternSpec | None = None
    pattern_invalid: bool = False

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

    @property
    def bytes_moved(self) -> float:
        """Total bytes exchanged with memory (roofline input)."""
        return self.loads + self.stores


@dataclass(frozen=True, slots=True)
class AppModel:
    """An evaluated application model."""

    name: str
    params: dict[str, float]
    data: dict[str, DataModel]
    kernels: dict[str, KernelModel]
    #: Data declarations a lenient build could not size, so left out.
    dropped: tuple[str, ...] = ()

    def kernel(self, name: str | None = None) -> KernelModel:
        """The named kernel, or the only kernel when ``name`` is None."""
        if name is None:
            if len(self.kernels) != 1:
                raise AspenSemanticError(
                    f"model {self.name!r}: expected exactly one kernel, "
                    f"found {sorted(self.kernels)}"
                )
            return next(iter(self.kernels.values()))
        try:
            return self.kernels[name]
        except KeyError:
            raise AspenSemanticError(
                f"model {self.name!r} has no kernel {name!r}"
            ) from None

    def working_set_bytes(self) -> int:
        """Combined footprint of all declared data structures."""
        return sum(d.size_bytes for d in self.data.values())


# ----------------------------------------------------------------------
# evaluation from the AST
# ----------------------------------------------------------------------
def build_app_model(
    decl: ModelDecl,
    overrides: dict[str, float] | None = None,
    sink: DiagnosticSink | None = None,
) -> AppModel:
    """Evaluate a parsed model declaration into an :class:`AppModel`.

    ``overrides`` replace same-named ``param`` values, enabling sweeps
    (problem sizes, iteration counts) without editing source text.

    With ``sink=None`` (strict) the first semantic error raises
    :class:`AspenSemanticError` / :class:`AspenEvalError` exactly as
    before.  With a :class:`DiagnosticSink` the build is *lenient*: all
    errors are recorded as coded diagnostics, unsizable structures and
    broken kernels are dropped, and structures whose pattern cannot be
    evaluated are kept with ``pattern_invalid=True`` so the compiler can
    degrade them to the worst-case bound.
    """
    lenient = sink is not None
    overrides = overrides or {}
    unknown = set(overrides) - {param.name for param in decl.params}
    if unknown:
        message = f"model {decl.name!r} has no parameters {sorted(unknown)}"
        if not lenient:
            raise AspenSemanticError(message)
        sink.error("ASP208", message)
    # One pass in declaration order: an override replaces its param's
    # expression, so derived params see it and its default never runs.
    env: dict[str, float] = {}
    for param in decl.params:
        if param.name in overrides:
            env[param.name] = overrides[param.name]
            continue
        try:
            env[param.name] = param.value.evaluate(env)
        except AspenEvalError as exc:
            if not lenient:
                raise
            sink.error(
                "ASP211",
                f"model {decl.name!r}: param {param.name!r}: {exc}",
                span=SourceSpan(param.line, 0),
            )

    data: dict[str, DataModel] = {}
    dropped: list[str] = []
    for d in decl.data:
        built = _build_data(d, env, decl.name, sink)
        if built is None:
            dropped.append(d.name)
        else:
            data[d.name] = built
    kernels: dict[str, KernelModel] = {}
    for k in decl.kernels:
        built = _build_kernel(k, env, decl.name, sink)
        if built is not None:
            kernels[k.name] = built
    return AppModel(
        name=decl.name,
        params=dict(env),
        data=data,
        kernels=kernels,
        dropped=tuple(dropped),
    )


def _build_data(
    decl: DataDecl,
    env: dict[str, float],
    model: str,
    sink: DiagnosticSink | None = None,
) -> DataModel | None:
    lenient = sink is not None
    span = SourceSpan(decl.line, 0)
    props = decl.properties
    for key in ("elements", "element_size"):
        if key not in props:
            message = f"model {model!r}: data {decl.name!r} missing {key!r}"
            if not lenient:
                raise AspenSemanticError(message)
            sink.error("ASP201", message, span=span, structure=decl.name)
            return None
    try:
        num_elements = evaluate_int(
            props["elements"], env, f"{decl.name}.elements"
        )
        element_size = evaluate_int(
            props["element_size"], env, f"{decl.name}.element_size"
        )
    except (AspenEvalError, AspenSemanticError) as exc:
        if not lenient:
            raise
        sink.error(
            "ASP211",
            f"model {model!r}: data {decl.name!r} cannot be sized: {exc}",
            span=span,
            structure=decl.name,
        )
        return None
    if num_elements < 1 or element_size < 1:
        message = (
            f"model {model!r}: data {decl.name!r} must have positive "
            f"elements and element_size"
        )
        if not lenient:
            raise AspenSemanticError(message)
        sink.error("ASP202", message, span=span, structure=decl.name)
        return None
    try:
        dims = tuple(
            evaluate_int(d, env, f"{decl.name}.dims") for d in decl.dims
        )
        if dims and int(np.prod(dims)) != num_elements:
            raise AspenSemanticError(
                f"model {model!r}: data {decl.name!r} dims {dims} do not "
                f"multiply to elements={num_elements}"
            )
    except (AspenEvalError, AspenSemanticError) as exc:
        if not lenient:
            raise
        sink.error("ASP203", str(exc), span=span, structure=decl.name)
        dims = ()
    pattern: PatternSpec | None = None
    pattern_invalid = False
    if decl.pattern is not None:
        try:
            pattern = _build_pattern(decl.pattern, env, dims, decl.name, model)
        except (AspenEvalError, AspenSemanticError) as exc:
            if not lenient:
                raise
            code = "ASP204" if "unknown pattern kind" in str(exc) else "ASP205"
            sink.error(code, str(exc), span=span, structure=decl.name)
            pattern_invalid = True
    return DataModel(
        name=decl.name,
        num_elements=num_elements,
        element_size=element_size,
        dims=dims,
        pattern=pattern,
        pattern_invalid=pattern_invalid,
    )


def _flatten_ref(
    ref: IndexRef, env: dict[str, float], dims: tuple[int, ...],
    data_name: str, model: str,
) -> int:
    """Flatten a multi-dim reference row-major over ``dims`` (0-based)."""
    if ref.data != data_name:
        raise AspenSemanticError(
            f"model {model!r}: template for {data_name!r} references "
            f"{ref.data!r}"
        )
    indices = [evaluate_int(e, env, f"{data_name} index") for e in ref.indices]
    if len(indices) == 1 and not dims:
        return indices[0]
    if not dims:
        raise AspenSemanticError(
            f"model {model!r}: data {data_name!r} needs 'dims' for "
            f"multi-dimensional template references"
        )
    if len(indices) != len(dims):
        raise AspenSemanticError(
            f"model {model!r}: reference {ref.data}{list(indices)} has "
            f"{len(indices)} indices but dims has {len(dims)}"
        )
    flat = 0
    for idx, dim in zip(indices, dims):
        if not 0 <= idx < dim:
            raise AspenSemanticError(
                f"model {model!r}: index {idx} out of range [0, {dim}) in "
                f"template reference for {data_name!r}"
            )
        flat = flat * dim + idx
    return flat


def _build_pattern(
    decl: PatternDecl,
    env: dict[str, float],
    dims: tuple[int, ...],
    data_name: str,
    model: str,
) -> PatternSpec:
    if decl.kind not in PATTERN_KINDS:
        raise AspenSemanticError(
            f"model {model!r}: unknown pattern kind {decl.kind!r} for data "
            f"{data_name!r}; known: {sorted(PATTERN_KINDS)}"
        )
    properties = {
        key: expr.evaluate(env) for key, expr in decl.properties.items()
    }
    sweeps = tuple(
        _build_sweep(s, env, dims, data_name, model) for s in decl.sweeps
    )
    refs = tuple(
        _flatten_ref(r, env, dims, data_name, model) for r in decl.refs
    )
    return PatternSpec(
        kind=decl.kind, properties=properties, sweeps=sweeps, refs=refs
    )


def _build_sweep(
    decl: SweepDecl,
    env: dict[str, float],
    dims: tuple[int, ...],
    data_name: str,
    model: str,
) -> SweepSpec:
    start = tuple(_flatten_ref(r, env, dims, data_name, model) for r in decl.start)
    end = tuple(_flatten_ref(r, env, dims, data_name, model) for r in decl.end)
    step = evaluate_int(decl.step, env, "sweep step")
    return SweepSpec(start=start, step=step, end=end)


_KERNEL_PROPS = frozenset({"iterations", "flops", "loads", "stores", "time"})


def _build_kernel(
    decl: KernelDecl,
    env: dict[str, float],
    model: str,
    sink: DiagnosticSink | None = None,
) -> KernelModel | None:
    """Evaluate a kernel declaration; None when a lenient build drops it.

    Without a ``sink`` the first error raises.  With one, a kernel whose
    ``iterations`` is not a whole number >= 1 is dropped with ``ASP207``
    and one with an unknown or unevaluable property with ``ASP206``.
    """

    def evalf(key: str, default: float) -> float:
        expr = decl.properties.get(key)
        return expr.evaluate(env) if expr is not None else default

    code = "ASP206"
    try:
        unknown = set(decl.properties) - _KERNEL_PROPS
        if unknown:
            raise AspenSemanticError(
                f"model {model!r}: kernel {decl.name!r} has unknown "
                f"properties {sorted(unknown)} (known: {sorted(_KERNEL_PROPS)})"
            )
        code = "ASP207"
        iterations = (
            evaluate_int(decl.properties["iterations"], env, "kernel iterations")
            if "iterations" in decl.properties
            else 1
        )
        if iterations < 1:
            raise AspenSemanticError(
                f"model {model!r}: kernel {decl.name!r} iterations must be >= 1"
            )
        code = "ASP206"
        time_expr = decl.properties.get("time")
        return KernelModel(
            name=decl.name,
            iterations=iterations,
            order=decl.order,
            flops=evalf("flops", 0.0),
            loads=evalf("loads", 0.0),
            stores=evalf("stores", 0.0),
            time=time_expr.evaluate(env) if time_expr is not None else None,
        )
    except (AspenSemanticError, AspenEvalError) as exc:
        if sink is None:
            raise
        sink.error(
            code,
            f"kernel {decl.name!r} dropped: {exc}",
            span=SourceSpan(decl.line, 0),
        )
        return None
