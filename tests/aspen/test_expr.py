"""Tests for the Aspen expression sub-language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aspen.errors import AspenEvalError, AspenSyntaxError
from repro.aspen.expr import BinOp, Call, Num, Unary, Var, evaluate_int
from repro.aspen.lexer import tokenize
from repro.aspen.parser import _ParsePanic, _Parser
from repro.diagnostics import DiagnosticSink


def parse_expr(text):
    """Parse one expression; the first diagnostic raises, as ``parse`` does."""
    sink = DiagnosticSink()
    try:
        expr = _Parser(tokenize(text, sink), sink).parse_expr()
    except _ParsePanic:
        pass
    if sink.has_errors:
        raise AspenSyntaxError.from_diagnostic(sink.errors[0])
    return expr


def evaluate(text, **env):
    return parse_expr(text).evaluate(env)


class TestEvaluation:
    def test_literal(self):
        assert evaluate("42") == 42.0

    def test_arithmetic_precedence(self):
        assert evaluate("2 + 3 * 4") == 14.0

    def test_parentheses(self):
        assert evaluate("(2 + 3) * 4") == 20.0

    def test_unary_minus(self):
        assert evaluate("-3 + 5") == 2.0

    def test_double_negation(self):
        assert evaluate("--3") == 3.0

    def test_power_right_associative(self):
        assert evaluate("2 ^ 3 ^ 2") == 512.0

    def test_power_binds_tighter_than_mul(self):
        assert evaluate("2 * 3 ^ 2") == 18.0

    def test_division(self):
        assert evaluate("7 / 2") == 3.5

    def test_modulo(self):
        assert evaluate("7 % 3") == 1.0

    def test_variables(self):
        assert evaluate("n * n", n=5) == 25.0

    def test_unknown_variable(self):
        with pytest.raises(AspenEvalError, match="unknown parameter"):
            evaluate("n + 1")

    def test_division_by_zero(self):
        with pytest.raises(AspenEvalError, match="division by zero"):
            evaluate("1 / 0")

    def test_modulo_by_zero(self):
        with pytest.raises(AspenEvalError):
            evaluate("1 % 0")

    @pytest.mark.parametrize("text", ["2 ^ 2000", "0 ^ -1", "(-8) ^ 0.5"])
    def test_power_failure_names_the_expression(self, text):
        # Overflow, a zero base with a negative exponent and a complex
        # result would otherwise escape as OverflowError,
        # ZeroDivisionError or a complex number.
        with pytest.raises(AspenEvalError, match=r"\^"):
            evaluate(text)


class TestFunctions:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ceil(3.2)", 4.0),
            ("floor(3.8)", 3.0),
            ("sqrt(16)", 4.0),
            ("log2(8)", 3.0),
            ("abs(-5)", 5.0),
            ("min(3, 7)", 3.0),
            ("max(3, 7)", 7.0),
            ("pow(2, 10)", 1024.0),
        ],
    )
    def test_builtin_functions(self, text, expected):
        assert evaluate(text) == expected

    def test_unknown_function(self):
        with pytest.raises(AspenEvalError, match="unknown function"):
            evaluate("mystery(1)")

    def test_nested_calls(self):
        assert evaluate("max(ceil(1.1), floor(5.9))") == 5.0

    def test_wrong_arity_reports(self):
        with pytest.raises(AspenEvalError):
            evaluate("sqrt(1, 2)")

    @pytest.mark.parametrize(
        "text", ["pow(2, 2000)", "ceil(1e400)", "sqrt(-1)", "log(0)"]
    )
    def test_arithmetic_failure_names_the_call(self, text):
        with pytest.raises(AspenEvalError, match=text.split("(")[0]):
            evaluate(text)


class TestFreeNames:
    def test_collects_variables(self):
        expr = parse_expr("a * b + ceil(c / a)")
        assert expr.free_names() == {"a", "b", "c"}

    def test_literal_has_no_free_names(self):
        assert parse_expr("1 + 2").free_names() == set()


class TestEvaluateInt:
    def test_accepts_integral_float(self):
        assert evaluate_int(parse_expr("6 / 2"), {}) == 3

    def test_rejects_fractional(self):
        with pytest.raises(AspenEvalError, match="must be an integer"):
            evaluate_int(parse_expr("7 / 2"), {}, "elements")

    def test_large_integer_tolerance(self):
        assert evaluate_int(parse_expr("1e6"), {}) == 1_000_000

    @pytest.mark.parametrize("text", ["1e400", "1e400 - 1e400"])
    def test_rejects_non_finite(self, text):
        # round() would raise OverflowError on inf, ValueError on nan.
        with pytest.raises(AspenEvalError, match="elements must be finite"):
            evaluate_int(parse_expr(text), {}, "elements")


class TestStructuralEquality:
    def test_nodes_are_value_types(self):
        assert parse_expr("a + 1") == BinOp("+", Var("a"), Num(1.0))

    def test_call_structure(self):
        assert parse_expr("min(a, 2)") == Call("min", (Var("a"), Num(2.0)))

    def test_unary_structure(self):
        assert parse_expr("-a") == Unary("-", Var("a"))


class TestRandomExpressions:
    @given(
        a=st.integers(-100, 100),
        b=st.integers(-100, 100),
        c=st.integers(1, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_python_semantics(self, a, b, c):
        got = evaluate("a * b + a / c - b", a=a, b=b, c=c)
        assert got == pytest.approx(a * b + a / c - b)
