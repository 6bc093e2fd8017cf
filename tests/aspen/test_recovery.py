"""Multi-error diagnostics: panic-mode recovery in one parsing pass.

Acceptance criterion of the fail-soft pipeline: a single parse of a
source containing several distinct errors yields one diagnostic per
error — with stable codes and source spans — in one pass, while
``parse()`` (strict) still raises on the first of them.
"""

import pytest

from repro.aspen.errors import AspenSyntaxError
from repro.aspen.lexer import tokenize
from repro.aspen.parser import parse, parse_with_diagnostics
from repro.diagnostics import DiagnosticSink, SourceSpan, render_diagnostics

MULTI_ERROR_SOURCE = """\
model broken {
  param n = $100
  data A { elements: n, element_size: }
  data B { elements: n element_size: 8 }
  kernel k { iterations: 10 }
}
junk
model second {
  data C { elements: 5, element_size: 8 }
  kernel k2 { iterations: 1 }
}
"""


class TestMultiErrorRecovery:
    def test_one_pass_reports_at_least_three_diagnostics(self):
        program, sink = parse_with_diagnostics(MULTI_ERROR_SOURCE)
        errors = sink.errors
        assert len(errors) >= 3
        codes = {d.code for d in errors}
        # Stable codes: lexer (ASP001), parser expression/expectation
        # (ASP108/ASP101), top-level junk (ASP102).
        assert "ASP001" in codes
        assert "ASP102" in codes
        assert codes & {"ASP101", "ASP108"}
        # At least three *distinct* codes from one pass.
        assert len(codes) >= 3

    def test_every_diagnostic_carries_a_span(self):
        _, sink = parse_with_diagnostics(MULTI_ERROR_SOURCE)
        for diagnostic in sink.errors:
            assert diagnostic.span is not None
            assert diagnostic.span.known
            assert diagnostic.span.line >= 1

    def test_partial_ast_survives(self):
        program, _ = parse_with_diagnostics(MULTI_ERROR_SOURCE)
        names = [m.name for m in program.models]
        assert "broken" in names
        assert "second" in names
        second = program.model("second")
        assert [d.name for d in second.data] == ["C"]
        assert [k.name for k in second.kernels] == ["k2"]

    def test_caret_rendering_points_into_source(self):
        _, sink = parse_with_diagnostics(MULTI_ERROR_SOURCE)
        rendered = render_diagnostics(list(sink), MULTI_ERROR_SOURCE)
        assert "^" in rendered
        assert "ASP001" in rendered

    def test_strict_parse_raises_first_error(self):
        with pytest.raises(AspenSyntaxError) as excinfo:
            parse(MULTI_ERROR_SOURCE)
        # The first error is the lexer's bad character on line 2.
        assert excinfo.value.code == "ASP001"
        assert excinfo.value.span.line == 2

    def test_shared_sink_accumulates_across_sources(self):
        sink = DiagnosticSink()
        parse_with_diagnostics("model a { data D } garbage", sink)
        first = len(sink)
        parse_with_diagnostics("model b { kernel k { } } ??", sink)
        assert len(sink) > first


class TestKeywordOutOfPlace:
    """A keyword no enclosing block takes is skipped, not stopped at.

    Recovery stops at keywords so that an outer block can take them;
    one that no block here takes must still be consumed, or the block
    fails on it again and again without end.
    """

    @pytest.mark.parametrize("source,keyword", [
        # `data A` lost its `{`, so `pattern` lands in the model body.
        ("model m {\n  data A  elements: 1, pattern streaming { stride: 1 } }\n"
         "  kernel k { time: 1 }\n}\n", "pattern"),
        ("model m {\n  kernel k { sweep { step: 1 } }\n}\n", "sweep"),
        ("model m {\n  data A { elements: 1, element_size: 8,\n"
         "    pattern template { pattern x } }\n}\n", "pattern"),
        ("model m {\n  data A { elements: 1, element_size: 8, pattern t {\n"
         "    sweep { sweep { step: 1 } } } }\n}\n", "sweep"),
        ("machine m {\n  data { x: 1 }\n}\n", "data"),
    ])
    def test_recovery_moves_past_it(self, source, keyword):
        _, sink = parse_with_diagnostics(source)
        found = [d for d in sink.errors if f"found {keyword!r}" in d.message]
        assert len(found) == 1
        assert len(sink.errors) < 10
        with pytest.raises(AspenSyntaxError):
            parse(source)


class TestLexerRecovery:
    def test_unexpected_character_skipped(self):
        sink = DiagnosticSink()
        tokens = tokenize("param x = 1 $ param y = 2", sink)
        assert [d.code for d in sink] == ["ASP001"]
        names = [t.value for t in tokens if t.type.name == "IDENT"]
        assert "y" in names

    def test_unterminated_string_reported(self):
        sink = DiagnosticSink()
        tokenize('model m { order: "abc \n }', sink)
        assert any(d.code == "ASP002" for d in sink)

    def test_strict_tokenize_still_raises(self):
        with pytest.raises(AspenSyntaxError):
            tokenize("model $ m")


class TestSyntaxErrorSpan:
    def test_span_is_programmatic(self):
        err = AspenSyntaxError("bad token", line=3, column=7)
        assert err.span == SourceSpan(3, 7)
        assert err.line == 3 and err.column == 7
        assert "line 3, column 7" in str(err)

    def test_column_only_span_is_not_dropped(self):
        err = AspenSyntaxError("bad token", line=0, column=5)
        assert err.span.column == 5
        assert "column 5" in str(err)

    def test_unknown_span(self):
        err = AspenSyntaxError("bad token")
        assert not err.span.known
        assert str(err) == "bad token"

    def test_code_and_hint_attached(self):
        err = AspenSyntaxError("oops", 1, 2, code="ASP104", hint="drop it")
        assert err.code == "ASP104"
        assert err.hint == "drop it"
