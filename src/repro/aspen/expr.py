"""Arithmetic expression sub-language of the Aspen DSL.

Expressions appear everywhere a numeric value is expected (parameter
definitions, pattern properties, resource counts, template indices) and
may reference model parameters, use ``+ - * / % ^`` (with ``^`` as
exponentiation, like the original Aspen) and call a small library of
mathematical functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.aspen.errors import AspenEvalError

#: Functions callable from Aspen expressions.
FUNCTIONS = {
    "ceil": math.ceil,
    "floor": math.floor,
    "sqrt": math.sqrt,
    "log": math.log,
    "log2": math.log2,
    "abs": abs,
    "min": min,
    "max": max,
    "pow": pow,
}


class Expr:
    """Base class for expression nodes."""

    def evaluate(self, env: Mapping[str, float]) -> float:
        """Evaluate under parameter environment ``env``."""
        raise NotImplementedError

    def free_names(self) -> set[str]:
        """Parameter names this expression references."""
        return set()


@dataclass(frozen=True, slots=True)
class Num(Expr):
    """A numeric literal."""

    value: float

    def evaluate(self, env: Mapping[str, float]) -> float:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    """A parameter reference."""

    name: str

    def evaluate(self, env: Mapping[str, float]) -> float:
        try:
            return float(env[self.name])
        except KeyError:
            raise AspenEvalError(
                f"unknown parameter {self.name!r}; defined: {sorted(env)}"
            ) from None

    def free_names(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    """Unary negation."""

    op: str
    operand: Expr

    def evaluate(self, env: Mapping[str, float]) -> float:
        value = self.operand.evaluate(env)
        if self.op == "-":
            return -value
        if self.op == "+":
            return value
        raise AspenEvalError(f"unknown unary operator {self.op!r}")

    def free_names(self) -> set[str]:
        return self.operand.free_names()

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    """A binary arithmetic operation."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, env: Mapping[str, float]) -> float:
        lhs = self.left.evaluate(env)
        rhs = self.right.evaluate(env)
        if self.op == "+":
            return lhs + rhs
        if self.op == "-":
            return lhs - rhs
        if self.op == "*":
            return lhs * rhs
        if self.op == "/":
            if rhs == 0:
                raise AspenEvalError(f"division by zero in {self}")
            return lhs / rhs
        if self.op == "%":
            if rhs == 0:
                raise AspenEvalError(f"modulo by zero in {self}")
            return math.fmod(lhs, rhs)
        if self.op == "^":
            try:
                value = lhs**rhs
            except OverflowError:
                raise AspenEvalError(f"overflow in {self}") from None
            except ZeroDivisionError:
                raise AspenEvalError(
                    f"zero to a negative power in {self}"
                ) from None
            if isinstance(value, complex):
                raise AspenEvalError(f"complex result in {self}")
            return value
        raise AspenEvalError(f"unknown operator {self.op!r}")

    def free_names(self) -> set[str]:
        return self.left.free_names() | self.right.free_names()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class Call(Expr):
    """A call to one of the :data:`FUNCTIONS`."""

    func: str
    args: tuple[Expr, ...]

    def evaluate(self, env: Mapping[str, float]) -> float:
        fn = FUNCTIONS.get(self.func)
        if fn is None:
            raise AspenEvalError(
                f"unknown function {self.func!r}; available: {sorted(FUNCTIONS)}"
            )
        values = [arg.evaluate(env) for arg in self.args]
        try:
            return float(fn(*values))
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise AspenEvalError(f"bad call {self}: {exc}") from None

    def free_names(self) -> set[str]:
        names: set[str] = set()
        for arg in self.args:
            names |= arg.free_names()
        return names

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


def evaluate_int(expr: Expr, env: Mapping[str, float], what: str = "value") -> int:
    """Evaluate an expression that must come out a (near-)integer."""
    value = expr.evaluate(env)
    if not math.isfinite(value):
        raise AspenEvalError(f"{what} must be finite, got {value} from {expr}")
    rounded = round(value)
    if abs(value - rounded) > 1e-9 * max(1.0, abs(value)):
        raise AspenEvalError(f"{what} must be an integer, got {value} from {expr}")
    return int(rounded)
