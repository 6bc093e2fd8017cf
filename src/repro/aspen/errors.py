"""Error types for the Aspen DSL with source-position reporting.

The structured-diagnostics engine (``Diagnostic``, ``DiagnosticSink``,
``SourceSpan``) lives in :mod:`repro.diagnostics` so the core evaluation
layer can share it.
"""

from __future__ import annotations

from repro.diagnostics import Diagnostic, SourceSpan


class AspenError(Exception):
    """Base class for all Aspen DSL errors."""


class AspenSyntaxError(AspenError):
    """Lexing or parsing failure, carrying the offending source span.

    The span is always carried and exposed programmatically via
    :attr:`span` (``line``/``column`` are kept as plain attributes for
    backward compatibility); the message is prefixed with the position
    whenever any of it is known — a known column is not dropped just
    because the line is unknown.
    """

    def __init__(
        self,
        message: str,
        line: int = 0,
        column: int = 0,
        *,
        code: str = "ASP101",
        hint: str | None = None,
    ):
        self.line = line
        self.column = column
        self.span = SourceSpan(line, column)
        self.code = code
        self.hint = hint
        if self.span.known:
            message = f"{self.span}: {message}"
        super().__init__(message)

    @classmethod
    def from_diagnostic(cls, diagnostic: Diagnostic) -> "AspenSyntaxError":
        """Build the strict-mode exception for one diagnostic."""
        span = diagnostic.span or SourceSpan()
        return cls(
            diagnostic.message,
            span.line,
            span.column,
            code=diagnostic.code,
            hint=diagnostic.hint,
        )


class AspenSemanticError(AspenError):
    """A well-formed model that is semantically invalid."""


class AspenEvalError(AspenError):
    """Expression evaluation failure (unknown parameter, bad call, ...)."""
