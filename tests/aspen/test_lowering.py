"""Lowering is the one checker of an Aspen model: one fault, one diagnostic.

``compile_source`` finds each fault where it acts on it.  Strict
evaluation raises ``AspenSemanticError`` naming the structure or
kernel; lenient evaluation records exactly one error, naming what it
degraded or dropped.  A derandomized slice of one-lexeme mutations of
the builtin sources (ROADMAP item 13) checks that lenient evaluation
never raises, uses only live diagnostic codes and names no structure
in two errors, and that strict evaluation fails only in ways a service
worker reports as a final record.
"""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import diagnostics
from repro.aspen.builtin import DSL_KERNELS, MACHINE_LIBRARY, builtin_source
from repro.aspen.compiler import compile_source
from repro.aspen.errors import AspenSemanticError
from repro.aspen.parser import parse_with_diagnostics
from repro.diagnostics import DiagnosticSink
from repro.experiments.aspen_batch import evaluate_source
from repro.service.worker import DETERMINISTIC_EXCEPTIONS
from test_parse_cache import _mutate

MACHINE = """
machine box {
  cache { associativity: 8, sets: 64, line_size: 64 }
  memory { fit: 5000, bandwidth: 12.8e9 }
  core { flops: 2.0e9 }
}
"""

HEALTHY = """
model m {
  param n = 512
  data A { elements: n, element_size: 8, pattern streaming { } }
  data B { elements: n, element_size: 8, pattern streaming { } }
  kernel k { order: "AB", flops: n, loads: 16*n }
}
"""

A_PATTERN = "data A { elements: n, element_size: 8, pattern streaming { } }"

#: One fault each: the source, and the structure or kernel its one
#: error names.
ONE_FAULT = {
    "stride-zero": (
        HEALTHY.replace("streaming { }", "streaming { stride: 0 }", 1), "A"
    ),
    "random-without-properties": (
        HEALTHY.replace("streaming { }", "random { }", 1), "A"
    ),
    "empty-template": (
        HEALTHY.replace("streaming { }", "template { }", 1), "A"
    ),
    "unterminated-order": (HEALTHY.replace('"AB"', '"A("'), "k"),
    "undeclared-in-order": (HEALTHY.replace('"AB"', '"AZ"'), "Z"),
    "patternless-in-order": (
        HEALTHY.replace(A_PATTERN, "data A { elements: n, element_size: 8 }"),
        "A",
    ),
}


def test_healthy_model_lowers_cleanly():
    entry = evaluate_source("m", HEALTHY + MACHINE, mode="lenient")
    assert entry.ok and entry.diagnostics == ()
    assert [s.name for s in entry.report.structures] == ["A", "B"]


class TestOneFaultOneDiagnostic:
    @pytest.mark.parametrize("case", sorted(ONE_FAULT))
    def test_lenient_records_one_error_naming_it(self, case):
        source, name = ONE_FAULT[case]
        entry = evaluate_source("m", source + MACHINE, mode="lenient")
        assert entry.ok
        (error,) = [d for d in entry.diagnostics if d.is_error]
        assert f"'{name}'" in error.message
        if error.code == "ASP304":
            assert error.structure == name
            assert entry.report.structure(name).degraded
        else:
            assert error.code == "ASP212"

    @pytest.mark.parametrize("case", sorted(ONE_FAULT))
    def test_strict_raises_naming_it(self, case):
        source, name = ONE_FAULT[case]
        with pytest.raises(AspenSemanticError, match=f"'{name}'"):
            evaluate_source("m", source + MACHINE, mode="strict")

    def test_patternless_structure_in_the_order_keeps_its_row(self):
        source, _ = ONE_FAULT["patternless-in-order"]
        sink = DiagnosticSink()
        compiled = compile_source(source + MACHINE, sink=sink)
        report = compiled.report()
        assert [s.name for s in report.structures] == ["A", "B"]
        assert report.degraded_structures == ("A",)
        # The worst-case base pattern is what the composite charges A.
        bound = compiled.composite.patterns["A"].max_accesses(
            compiled.machine.cache
        )
        assert report.structure("A").nha >= bound
        assert not report.structure("B").degraded

    def test_patternless_structure_outside_the_order_is_left_out(self):
        source = HEALTHY.replace(
            A_PATTERN, "data A { elements: n, element_size: 8 }"
        ).replace('"AB"', '"B"')
        entry = evaluate_source("m", source + MACHINE, mode="lenient")
        assert [s.name for s in entry.report.structures] == ["B"]
        assert [(d.severity, d.code) for d in entry.diagnostics] == [
            ("warning", "ASP210")
        ]
        strict = evaluate_source("m", source + MACHINE, mode="strict")
        assert [s.name for s in strict.report.structures] == ["B"]

    def test_order_naming_a_dropped_structure_says_dropped(self):
        # A declares no elements, so the pass drops it; the order still
        # names it.
        source = """
        model m {
          param n = 64
          data A { element_size: 8, pattern streaming { } }
          data p { elements: n, element_size: 8, pattern reuse { } }
          kernel k { iterations: 2, order: "(Ap)p", flops: n }
        }
        """ + MACHINE
        entry = evaluate_source("m", source, mode="lenient")
        assert entry.ok and entry.dropped == ("A",)
        first, order = [d for d in entry.diagnostics if d.is_error]
        assert (first.code, first.structure) == ("ASP201", "A")
        assert order.code == "ASP212"
        assert "data 'A', which was dropped because it could not be sized" in (
            order.message
        )
        assert "undeclared" not in order.message
        with pytest.raises(AspenSemanticError, match="'A' missing 'elements'"):
            evaluate_source("m", source, mode="strict")

    def test_dims_mismatch_is_one_error_on_the_structure(self):
        # dims (n, n) cannot hold n*n*n elements; the template needs them.
        source = """
        model m {
          param n = 8
          data R {
            elements: n*n*n, element_size: 8, dims: (n, n)
            pattern template { refs: (R[1, 1, 1], R[2, 2, 2]) }
          }
          kernel k { flops: n }
        }
        """ + MACHINE
        sink = DiagnosticSink()
        compiled = compile_source(source, sink=sink)
        assert [(d.code, d.structure) for d in sink.errors] == [("ASP203", "R")]
        assert compiled.degraded_structures() == {"R"}
        # Degraded as when the template could not be evaluated: T = N.
        assert compiled.patterns["R"].total_references == 8**3
        with pytest.raises(AspenSemanticError, match="do not multiply"):
            compile_source(source)

    @pytest.mark.parametrize("iterations", ["0", "2.5", "-3"])
    def test_bad_kernel_iterations_is_asp207(self, iterations):
        source = HEALTHY.replace("flops: n,", f"iterations: {iterations}, flops: n,")
        sink = DiagnosticSink()
        with pytest.raises(AspenSemanticError, match="kernel"):
            compile_source(source + MACHINE, sink=sink)
        assert [d.code for d in sink.errors] == ["ASP207"]

    def test_unknown_kernel_property_is_asp206(self):
        source = HEALTHY.replace("flops: n,", "jiggles: 3, flops: n,")
        sink = DiagnosticSink()
        with pytest.raises(AspenSemanticError, match="kernel"):
            compile_source(source + MACHINE, sink=sink)
        assert [d.code for d in sink.errors] == ["ASP206"]


def _table() -> dict[str, str]:
    """``repro.diagnostics``' code table: code -> description."""
    text = ast.get_docstring(ast.parse(Path(diagnostics.__file__).read_text()))
    return dict(re.findall(r"^(ASP\d{3})\s+(.+)$", text, re.MULTILINE))


def live_codes() -> set[str]:
    """Codes the table documents as emitted (not retired)."""
    return {c for c, text in _table().items() if not text.startswith("retired")}


def test_table_lists_exactly_the_codes_src_emits():
    emitted = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"ASP\d{3}", node.value):
                    emitted.add(node.value)
    assert emitted == live_codes()
    assert _table()["ASP209"].startswith("retired")


class TestMutatedSources:
    """Drop, swap or duplicate one lexeme of a builtin source."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        kernel=st.sampled_from(DSL_KERNELS),
        op=st.sampled_from(("drop", "swap", "duplicate")),
        index=st.integers(min_value=0, max_value=10_000),
    )
    def test_lenient_completes_and_strict_fails_finally(self, kernel, op, index):
        source = _mutate(builtin_source(kernel, "test"), op, index)
        source += MACHINE_LIBRARY
        entry = evaluate_source(kernel, source, machine="small", mode="lenient")
        assert {d.code for d in entry.diagnostics} <= live_codes()
        named = [d.structure for d in entry.diagnostics if d.is_error]
        named = [name for name in named if name is not None]
        assert len(named) == len(set(named)), entry.diagnostics
        program, _ = parse_with_diagnostics(source)
        declared = {d.name for m in program.models for d in m.data}
        for d in entry.diagnostics:
            undeclared = re.search(r"undeclared data '(\w+)'", d.message)
            if d.code == "ASP212" and undeclared:
                assert undeclared.group(1) not in declared, d
        assert entry.ok is (entry.report is not None)
        if entry.ok:
            assert entry.diagnostics == entry.report.diagnostics
        else:
            assert entry.error and entry.diagnostics[-1].code == "ASP306"
        try:
            strict = evaluate_source(kernel, source, machine="small")
        except DETERMINISTIC_EXCEPTIONS:
            return
        assert strict.ok
