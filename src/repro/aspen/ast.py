"""AST node definitions for Aspen DSL declarations.

The expression nodes live in :mod:`repro.aspen.expr`; this module holds
the declaration-level nodes produced by the parser.  They are plain
data: semantics (parameter resolution, pattern construction) happen in
:mod:`repro.aspen.compiler`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aspen.expr import Expr


@dataclass(frozen=True, slots=True)
class ParamDecl:
    """``param name = expr``"""

    name: str
    value: Expr
    line: int = 0


@dataclass(frozen=True, slots=True)
class IndexRef:
    """A multi-dimensional element reference ``D[i, j, k]`` in a template."""

    data: str
    indices: tuple[Expr, ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class SweepDecl:
    """``sweep { start: (...), step: expr, end: (...) }``"""

    start: tuple[IndexRef, ...]
    step: Expr
    end: tuple[IndexRef, ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class PatternDecl:
    """``pattern kind { prop: expr, ..., sweep {...} }``"""

    kind: str
    properties: dict[str, Expr]
    sweeps: tuple[SweepDecl, ...] = ()
    refs: tuple[IndexRef, ...] = ()
    line: int = 0


@dataclass(frozen=True, slots=True)
class DataDecl:
    """``data name { elements: expr, element_size: expr, dims: (...), pattern ... }``"""

    name: str
    properties: dict[str, Expr]
    dims: tuple[Expr, ...] = ()
    pattern: PatternDecl | None = None
    line: int = 0


@dataclass(frozen=True, slots=True)
class KernelDecl:
    """``kernel name { iterations: expr, order: "...", flops: expr, ... }``"""

    name: str
    properties: dict[str, Expr]
    order: str | None = None
    line: int = 0


@dataclass(frozen=True, slots=True)
class ModelDecl:
    """``model name { param..., data..., kernel... }``"""

    name: str
    params: tuple[ParamDecl, ...]
    data: tuple[DataDecl, ...]
    kernels: tuple[KernelDecl, ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class MachineDecl:
    """``machine name { cache {...}, memory {...}, core {...} }``"""

    name: str
    sections: dict[str, dict[str, Expr]]
    params: tuple[ParamDecl, ...] = ()
    line: int = 0


@dataclass(frozen=True, slots=True)
class Program:
    """A parsed source file: any number of models and machines."""

    models: tuple[ModelDecl, ...] = ()
    machines: tuple[MachineDecl, ...] = ()

    def model(self, name: str | None = None) -> ModelDecl:
        """The named model, or the only model when ``name`` is None."""
        if name is None:
            if len(self.models) != 1:
                raise KeyError(
                    f"expected exactly one model, found "
                    f"{[m.name for m in self.models]}"
                )
            return self.models[0]
        for m in self.models:
            if m.name == name:
                return m
        raise KeyError(f"no model named {name!r}")

    def machine(self, name: str | None = None) -> MachineDecl:
        """The named machine, or the only machine when ``name`` is None."""
        if name is None:
            if len(self.machines) != 1:
                raise KeyError(
                    f"expected exactly one machine, found "
                    f"{[m.name for m in self.machines]}"
                )
            return self.machines[0]
        for m in self.machines:
            if m.name == name:
                return m
        raise KeyError(f"no machine named {name!r}")
