"""Strict vs lenient evaluation through the Aspen pipeline.

The acceptance behavior: a batch over many models always completes in
lenient mode — invalid structures degrade to the worst-case bound
``N_ha = T*AE`` and are marked ``degraded=True`` in the report — while
strict mode still raises on the first error.  Below ``evaluate_source``
a ``DiagnosticSink`` is the switch: given, evaluation is lenient.
"""

import math

import pytest

from repro.aspen.compiler import compile_source
from repro.aspen.errors import (
    AspenEvalError,
    AspenSemanticError,
    AspenSyntaxError,
)
from repro.diagnostics import DiagnosticSink
from repro.experiments.aspen_batch import (
    evaluate_batch,
    evaluate_source,
    render_aspen_batch,
    run_aspen_batch,
)
from repro.patterns.base import PatternError

MACHINE = """
machine box {
  cache { associativity: 8, sets: 64, line_size: 64 }
  memory { fit: 5000, bandwidth: 12.8e9 }
  core { flops: 2.0e9 }
}
"""

BROKEN_MODEL = """
model damaged {
  param n = 1000
  data A { elements: n, element_size: 8,
           pattern streaming { stride: 0 } }
  data B { elements: n, element_size: 8,
           pattern nonsense { } }
  data C { elements: n, element_size: 8,
           pattern streaming { } }
  kernel k { iterations: 4, time: 2.0 }
}
""" + MACHINE

VALID_MODEL = """
model fine {
  param n = 500
  data X { elements: n, element_size: 8,
           pattern streaming { } }
  kernel k { iterations: 1, time: 1.0 }
}
""" + MACHINE


class TestStrictVsLenient:
    def test_strict_raises_first_error(self):
        with pytest.raises(AspenSemanticError):
            compile_source(BROKEN_MODEL)

    def test_lenient_compiles_and_degrades(self):
        sink = DiagnosticSink()
        compiled = compile_source(BROKEN_MODEL, sink=sink)
        assert compiled.sink is sink
        degraded = compiled.degraded_structures()
        assert degraded == {"A", "B"}
        nha = compiled.nha_by_structure()
        assert set(nha) == {"A", "B", "C"}
        for value in nha.values():
            assert math.isfinite(value) and value >= 0

    def test_degraded_bound_is_worst_case(self):
        compiled = compile_source(BROKEN_MODEL, sink=DiagnosticSink())
        nha = compiled.nha_by_structure()
        # A: T = n = 1000 references, AE = 1 for aligned-size 8B/64B
        # elements... but unaligned AE_max is 2; the bound is T*AE.
        pattern = compiled.patterns["A"]
        assert nha["A"] == pattern.max_accesses(compiled.machine.cache)
        # The healthy structure keeps its analytical estimate: a dense
        # sweep of 1000 8-byte elements through 64-byte lines.
        assert nha["C"] == pytest.approx(1000 * 8 / 64)

    def test_lenient_diagnostics_have_stable_codes(self):
        compiled = compile_source(BROKEN_MODEL, sink=DiagnosticSink())
        codes = {d.code for d in compiled.sink}
        assert "ASP204" in codes  # unknown pattern kind
        assert "ASP304" in codes  # degraded to worst case
        assert any(d.structure == "A" for d in compiled.sink.errors)

    def test_lenient_matches_strict_on_valid_model(self):
        strict = compile_source(VALID_MODEL)
        lenient = compile_source(VALID_MODEL, sink=DiagnosticSink())
        assert lenient.degraded_structures() == frozenset()
        assert strict.nha_by_structure() == pytest.approx(
            lenient.nha_by_structure()
        )
        assert strict.report().dvf_application == pytest.approx(
            lenient.report().dvf_application
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            evaluate_source("fine", VALID_MODEL, mode="tolerant")

    def test_lenient_recovers_from_syntax_errors_too(self):
        source = BROKEN_MODEL.replace("param n = 1000", "param n = $1000")
        with pytest.raises(AspenSyntaxError):
            compile_source(source)
        compiled = compile_source(source, sink=DiagnosticSink())
        assert any(d.code == "ASP001" for d in compiled.sink)
        assert set(compiled.nha_by_structure()) == {"A", "B", "C"}


def _count_model(pattern: str) -> str:
    return f"""
model counts {{
  param n = 256
  data A {{ elements: n, element_size: 8, pattern {pattern} }}
  kernel k {{ iterations: 1, time: 1.0 }}
}}
""" + MACHINE


#: Count property -> (pattern declaring it as a fraction, its value).
FRACTIONAL_COUNTS = {
    "stride": ("streaming { stride: 1.5 }", "1.5"),
    "sweeps": ("streaming { sweeps: 5/2 }", "2.5"),
    "iterations": ("random { distinct: 4, iterations: 10.5 }", "10.5"),
    "repeats": ("template { repeats: 2.5, refs: (A[0], A[9]) }", "2.5"),
    "interfering": ("reuse { interfering: 100.5 }", "100.5"),
    "reuses": ("reuse { reuses: 1.5 }", "1.5"),
}


class TestFractionalCounts:
    """A count written as a fraction is an error, never truncated."""

    @pytest.mark.parametrize("prop", sorted(FRACTIONAL_COUNTS))
    def test_strict_raises_naming_the_value(self, prop):
        pattern, value = FRACTIONAL_COUNTS[prop]
        # Lowering names the structure; the constructor's error is the
        # cause.
        with pytest.raises(
            AspenSemanticError, match=f"^data 'A': .*'{prop}'.*got {value}$"
        ) as excinfo:
            compile_source(_count_model(pattern))
        assert isinstance(excinfo.value.__cause__, PatternError)
        assert str(excinfo.value.__cause__).endswith(f"got {value}")

    @pytest.mark.parametrize("prop", sorted(FRACTIONAL_COUNTS))
    def test_lenient_degrades_with_asp304(self, prop):
        pattern, _ = FRACTIONAL_COUNTS[prop]
        compiled = compile_source(_count_model(pattern), sink=DiagnosticSink())
        assert compiled.degraded_structures() == {"A"}
        (diagnostic,) = [d for d in compiled.sink if d.code == "ASP304"]
        assert diagnostic.structure == "A" and repr(prop) in diagnostic.message

    def test_fraction_below_one_names_the_value_written(self):
        with pytest.raises(AspenSemanticError, match="got 0.5$") as excinfo:
            compile_source(
                _count_model("template { repeats: 0.5, refs: (A[0], A[9]) }")
            )
        assert isinstance(excinfo.value.__cause__, PatternError)

    def test_whole_number_floats_stay_valid(self):
        def nha(repeats):
            return compile_source(
                _count_model(f"template {{ repeats: {repeats}, refs: (A[0]) }}")
            ).nha_by_structure()

        assert nha("6/3") == nha("2.0") == nha("2")


class TestReportFlags:
    def test_report_marks_degraded_structures(self):
        compiled = compile_source(BROKEN_MODEL, sink=DiagnosticSink())
        report = compiled.report()
        assert set(report.degraded_structures) == {"A", "B"}
        assert report.structure("A").degraded
        assert not report.structure("C").degraded
        assert math.isfinite(report.dvf_application)

    def test_report_payload_is_machine_readable(self):
        compiled = compile_source(BROKEN_MODEL, sink=DiagnosticSink())
        payload = compiled.report().to_payload()
        assert payload["structures"][0].keys() >= {"name", "nha", "degraded"}
        assert payload["diagnostics"], "diagnostics section must be present"
        assert all("code" in d for d in payload["diagnostics"])

    def test_rendered_report_footnotes_degradation(self):
        from repro.core.report import render_dvf_report

        compiled = compile_source(BROKEN_MODEL, sink=DiagnosticSink())
        text = render_dvf_report(compiled.report())
        assert "A*" in text
        assert "degraded" in text
        assert "diagnostics" in text


class TestBatch:
    def test_lenient_batch_always_completes(self):
        sources = {
            "ok": VALID_MODEL,
            "damaged": BROKEN_MODEL,
            "hopeless": "model h { } " + MACHINE,
        }
        entries = evaluate_batch(sources, mode="lenient")
        assert [e.label for e in entries] == ["ok", "damaged", "hopeless"]
        assert entries[0].ok and entries[0].report.degraded_structures == ()
        assert entries[1].ok and set(
            entries[1].report.degraded_structures
        ) == {"A", "B"}
        # No kernels at all: nothing to evaluate, but the batch entry
        # still exists and carries the diagnostics.
        assert not entries[2].ok
        assert entries[2].diagnostics

    def test_strict_batch_raises(self):
        with pytest.raises(AspenSemanticError):
            evaluate_batch({"damaged": BROKEN_MODEL}, mode="strict")

    def test_builtin_batch_is_clean_in_both_modes(self):
        strict = run_aspen_batch(tier="test", mode="strict")
        lenient = run_aspen_batch(tier="test", mode="lenient")
        assert all(e.ok for e in strict)
        assert all(e.ok for e in lenient)
        for s, l in zip(strict, lenient):
            assert l.report.degraded_structures == ()
            assert s.report.dvf_application == pytest.approx(
                l.report.dvf_application
            )
        assert render_aspen_batch(strict) == render_aspen_batch(lenient)

    def test_render_batch_summary_line(self):
        entries = evaluate_batch(
            {"ok": VALID_MODEL, "damaged": BROKEN_MODEL}, mode="lenient"
        )
        text = render_aspen_batch(entries)
        assert "2 models, 0 failed, 1 with degraded structures" in text


def overflowing_model(n):
    return f"""
model huge {{
  param n = {n}
  data A {{ elements: n, element_size: 8, pattern streaming {{ }} }}
  kernel k {{ iterations: 1, time: 1.0 }}
}}
""" + MACHINE


class TestInputErrors:
    """Inputs that are errors in strict mode and entries in lenient mode."""

    @pytest.mark.parametrize("n", ["1e400", "2 ^ 2000"])
    def test_overflow_is_an_eval_error(self, n):
        with pytest.raises(AspenEvalError):
            evaluate_source("huge", overflowing_model(n), mode="strict")
        entry = evaluate_source("huge", overflowing_model(n), mode="lenient")
        assert "ASP211" in {d.code for d in entry.diagnostics}

    @pytest.mark.parametrize("source, machine, message", [
        pytest.param(VALID_MODEL, "nowhere", "no machine named 'nowhere'",
                     id="unknown-machine"),
        pytest.param(MACHINE, None, "exactly one model", id="no-model"),
        pytest.param(VALID_MODEL + VALID_MODEL.replace("fine", "other"),
                     None, "exactly one model", id="two-models"),
    ])
    def test_lookup_failure(self, source, machine, message):
        with pytest.raises(KeyError, match=message):
            evaluate_source("x", source, machine=machine, mode="strict")
        entry = evaluate_source("x", source, machine=machine, mode="lenient")
        assert not entry.ok
        assert message in entry.error
        assert [d.code for d in entry.diagnostics] == ["ASP306"]


class TestSinkSharing:
    def test_caller_sink_collects_everything(self):
        sink = DiagnosticSink()
        compiled = compile_source(BROKEN_MODEL, sink=sink)
        assert compiled.sink is sink
        assert sink.has_errors
        payload = sink.to_payload()
        assert {"severity", "code", "message"} <= payload[0].keys()


def nested_parentheses(levels):
    return "(" * levels + "500" + ")" * levels


def flat_sum(terms):
    return " + ".join(["1"] * terms)


def deep_model(expression):
    return f"""
model deep {{
  param n = {expression}
  param k = 500
  data A {{ elements: k, element_size: 8, pattern streaming {{ }} }}
  kernel k {{ iterations: 1, time: 1.0 }}
}}
""" + MACHINE


class TestExpressionDepth:
    """Expressions deeper than MAX_EXPR_DEPTH are ASP109, not a crash."""

    SHAPES = [
        pytest.param(nested_parentheses(400), id="400-parentheses"),
        pytest.param(flat_sum(2000), id="2000-term-sum"),
        pytest.param("-" * 400 + "1", id="400-negations"),
        pytest.param(" ^ ".join(["1"] * 400), id="400-powers"),
        pytest.param("sqrt(" * 400 + "1" + ")" * 400, id="400-calls"),
    ]

    @pytest.mark.parametrize("expression", SHAPES)
    def test_strict_raises_a_syntax_error_with_a_span(self, expression):
        with pytest.raises(AspenSyntaxError) as excinfo:
            evaluate_source("deep", deep_model(expression), mode="strict")
        assert excinfo.value.code == "ASP109"
        assert excinfo.value.span.line == 3

    @pytest.mark.parametrize("expression", SHAPES)
    def test_lenient_reports_and_goes_on(self, expression):
        entry = evaluate_source("deep", deep_model(expression), mode="lenient")
        assert "ASP109" in {d.code for d in entry.diagnostics}
        # The rest of the model parsed: A is sized by k.
        assert entry.ok
        assert [s.name for s in entry.report.structures] == ["A"]

    @pytest.mark.parametrize("fits, too_deep", [
        pytest.param(nested_parentheses(100), nested_parentheses(101),
                     id="parentheses"),
        pytest.param(flat_sum(100), flat_sum(101), id="sum"),
        # A literal under 99 negations is a 100-level tree.
        pytest.param("-" * 99 + "1", "-" * 100 + "1", id="negations"),
    ])
    def test_limit_is_100_levels(self, fits, too_deep):
        compile_source(deep_model(fits))
        with pytest.raises(AspenSyntaxError, match="100 levels"):
            compile_source(deep_model(too_deep))


UNSIZABLE_MODEL = """
model huge {
  param n = 8/0
  data A { elements: n, element_size: 8, pattern streaming { } }
  data B { elements: 2*n, element_size: 8, pattern streaming { } }
  kernel k { iterations: 1, time: 1.0 }
}
""" + MACHINE


class TestUnsizableModel:
    """A lenient entry with no sizable structure is a failure, not DVF 0."""

    def test_every_structure_unsized_fails_the_entry(self):
        entry = evaluate_source("huge", UNSIZABLE_MODEL, mode="lenient")
        assert not entry.ok and entry.report is None
        assert "[ASP211]" in entry.error
        assert "division by zero" in entry.error
        codes = [d.code for d in entry.diagnostics]
        assert codes.count("ASP211") == 3 and codes[-1] == "ASP306"
        text = render_aspen_batch([entry])
        assert "1 models, 1 failed, 0 with degraded structures" in text

    def test_some_structures_unsized_is_not_clean(self):
        source = UNSIZABLE_MODEL.replace("elements: 2*n", "elements: 64")
        entry = evaluate_source("half", source, mode="lenient")
        assert entry.ok and entry.dropped == ("A",)
        text = render_aspen_batch([entry])
        assert text.endswith(
            "batch: 1 models, 0 failed, 0 with degraded structures, "
            "1 with dropped structures"
        )

    def test_strict_still_raises(self):
        with pytest.raises(AspenEvalError):
            evaluate_source("huge", UNSIZABLE_MODEL, mode="strict")
