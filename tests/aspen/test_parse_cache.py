"""The per-process parse cache: one parse per source text, shared safely.

``parse`` and ``parse_with_diagnostics`` share one lex-and-parse per
distinct text (``repro.aspen.parser._parse_source``).  These tests pin
that a repeat costs no parse, that a refused source is refused the same
way every time, and that sharing one program across machines, modes and
parameter overrides changes no result.  Tests that count parses use
text no other test uses, so test order cannot change what they see.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aspen import parser as parser_mod
from repro.aspen.builtin import DSL_KERNELS, MACHINE_LIBRARY, builtin_source
from repro.aspen.compiler import compile_source
from repro.aspen.errors import AspenSyntaxError
from repro.aspen.parser import _parse_source, parse, parse_with_diagnostics
from repro.diagnostics import EVAL_MODES, DiagnosticSink
from repro.experiments.aspen_batch import evaluate_source

MACHINES = tuple(m.name for m in parse(MACHINE_LIBRARY).machines)

BROKEN = "model broken {\n  data A { elements: }\n  kernel k { time: ) }\n}\n"


def _fresh(source: str, tag: str) -> str:
    """``source`` made distinct from every other test's text."""
    return f"// {__name__}: {tag}\n{source}"


def test_library_has_the_six_machines():
    assert len(MACHINES) == 6


class TestOneParsePerText:
    def test_every_machine_shares_one_tokenize(self, monkeypatch):
        calls = []
        real = parser_mod.tokenize

        def counting(source, sink=None):
            calls.append(source)
            return real(source, sink)

        monkeypatch.setattr(parser_mod, "tokenize", counting)
        source = _fresh(builtin_source("VM", "test") + MACHINE_LIBRARY, "count")
        for machine in MACHINES:
            assert evaluate_source("vm", source, machine=machine).ok
        assert calls == [source]

    def test_strict_refusal_replays(self):
        source = _fresh(BROKEN, "strict refusal")
        raised = []
        for _ in range(2):
            with pytest.raises(AspenSyntaxError) as info:
                parse(source)
            raised.append(info.value)
        first, second = raised
        assert str(first) == str(second)
        assert (first.code, first.span, first.hint) == (
            second.code, second.span, second.hint
        )

    def test_lenient_diagnostics_replay(self):
        source = _fresh(BROKEN, "lenient refusal")
        (_, first), (_, second) = (
            parse_with_diagnostics(source) for _ in range(2)
        )
        assert first.diagnostics
        assert first.diagnostics == second.diagnostics

    def test_diagnostics_land_after_what_the_sink_holds(self):
        source = _fresh(BROKEN, "sink order")
        _, expected = parse_with_diagnostics(source)
        sink = DiagnosticSink()
        sink.warning("ASP210", "held before the parse")
        _, same = parse_with_diagnostics(source, sink)
        assert same is sink
        assert sink.diagnostics[0].message == "held before the parse"
        assert sink.diagnostics[1:] == expected.diagnostics


class TestSharingChangesNothing:
    def test_no_cross_talk_between_machines_modes_and_params(self):
        source = _fresh(builtin_source("VM", "test") + MACHINE_LIBRARY, "share")
        cases = [
            (machine, mode, params)
            for machine in MACHINES
            for mode in EVAL_MODES
            for params in (None, {"n": 800, "ja": 2})
        ]

        def report(machine, mode, params):
            sink = DiagnosticSink() if mode == "lenient" else None
            compiled = compile_source(
                source, machine=machine, params=params, sink=sink
            )
            return compiled.report(application="vm").to_payload()

        shared = [report(*case) for case in cases]
        assert _parse_source(source) == _parse_source.__wrapped__(source)
        cold = []
        for case in cases:
            _parse_source.cache_clear()
            cold.append(report(*case))
        assert shared == cold


#: Lexemes of Aspen text: strings, comments, names, numbers, punctuation.
_LEXEME = re.compile(
    r'"[^"\n]*"|//[^\n]*|#[^\n]*|[A-Za-z_]\w*'
    r"|\d+\.?\d*(?:[eE][+-]?\d+)?|\S"
)


def _mutate(source: str, op: str, index: int) -> str:
    """Drop, swap with its successor, or duplicate one lexeme."""
    spans = [m.span() for m in _LEXEME.finditer(source)]
    i = index % (len(spans) - 1)
    start, end = spans[i]
    if op == "drop":
        return source[:start] + source[end:]
    if op == "duplicate":
        return source[:end] + " " + source[start:end] + source[end:]
    next_start, next_end = spans[i + 1]
    return (
        source[:start] + source[next_start:next_end]
        + source[end:next_start] + source[start:end] + source[next_end:]
    )


class TestMutatedSources:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        kernel=st.sampled_from(DSL_KERNELS),
        op=st.sampled_from(("drop", "swap", "duplicate")),
        index=st.integers(min_value=0, max_value=10_000),
    )
    def test_cache_matches_an_uncached_parse(self, kernel, op, index):
        source = _mutate(builtin_source(kernel, "test"), op, index)
        uncached = _parse_source.__wrapped__(source)
        for _ in range(2):
            program, sink = parse_with_diagnostics(source)
            assert (program, tuple(sink.diagnostics)) == uncached
