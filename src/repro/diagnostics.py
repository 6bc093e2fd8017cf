"""Structured diagnostics for the fail-soft evaluation pipeline.

Every layer of the evaluation path — the Aspen lexer/parser, the
semantic model builder, the lowering onto the CGPMAC estimators, the
estimator guardrails and the DVF assembly — can report problems as
:class:`Diagnostic` records collected in a :class:`DiagnosticSink`
instead of raising on the first error.  A batch over many models
therefore always finishes with a complete result set plus a
machine-readable list of everything that went wrong, which is what
downstream consumers (rankers, ML pipelines, services) need.

Stable error codes
------------------

Codes are stable across releases so callers can match on them.  A
retired code is no longer emitted and is never reused.

=======  ==============================================================
ASP001   unexpected character (lexer)
ASP002   unterminated string literal (lexer)
ASP101   expected token (parser)
ASP102   expected top-level 'model' or 'machine' declaration
ASP103   expected 'param', 'data' or 'kernel' inside a model
ASP104   data structure declares multiple patterns
ASP105   unknown sweep property
ASP106   sweep missing 'start'/'end' group
ASP107   machine repeats a section
ASP108   expected an expression
ASP109   expression nested more than ``MAX_EXPR_DEPTH`` (100) levels deep
ASP201   data declaration missing a required property
ASP202   non-positive data dimensions
ASP203   'dims' product disagrees with 'elements'
ASP204   unknown pattern kind
ASP205   invalid template reference
ASP206   kernel dropped (unknown or unevaluable property)
ASP207   kernel dropped (iterations not a whole number >= 1)
ASP208   parameter override unknown, or not a finite number
ASP209   retired (was: semantic validation error)
ASP210   model warning (no data, structure left out of N_ha, zero time)
ASP211   expression evaluation failed
ASP212   invalid access order; composite model dropped
ASP301   estimate below the physical floor (clamped up)
ASP302   estimate above the physical ceiling (clamped down)
ASP303   non-finite estimate (degraded to the worst-case bound)
ASP304   structure degraded to ``N_ha = T*AE`` (pattern or estimator unusable)
ASP305   non-finite value reached the DVF computation
ASP306   model could not be evaluated
=======  ==============================================================

Evaluation modes
----------------

A user names a mode (``strict`` or ``lenient``) at the edges: the
``aspen --mode`` flag, a service job's ``mode`` and
:func:`~repro.experiments.aspen_batch.evaluate_source`.  Below them a
``sink=`` argument is the only switch:

no sink (``strict``)
    The first error raises immediately (historical behavior).
a sink (``lenient``)
    Errors become diagnostics in the sink; invalid structures degrade
    to the documented worst-case bound ``N_ha = T*AE`` and are marked
    ``degraded`` in reports, so a batch always completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Recognised evaluation modes.
EVAL_MODES = ("strict", "lenient")

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


def check_mode(mode: str) -> str:
    """Validate and return an evaluation-mode string."""
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A 1-based source position (``line``/``column``); 0 means unknown."""

    line: int = 0
    column: int = 0

    @property
    def known(self) -> bool:
        return self.line > 0 or self.column > 0

    def __str__(self) -> str:
        if not self.known:
            return "<unknown position>"
        if self.line <= 0:
            return f"column {self.column}"
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One structured finding from any stage of the pipeline.

    Attributes
    ----------
    severity:
        ``"error"`` or ``"warning"``.
    code:
        Stable machine-matchable code (``ASPnnn``; see module docstring).
    message:
        Human-readable description.
    span:
        Source position for front-end diagnostics; None for model- or
        estimator-level findings with no source text.
    structure:
        Data-structure name the finding is about, when applicable.
    hint:
        Optional one-line suggestion for fixing the problem.
    """

    severity: str
    code: str
    message: str
    span: SourceSpan | None = None
    structure: str | None = None
    hint: str | None = None

    @property
    def is_error(self) -> bool:
        return self.severity == SEVERITY_ERROR

    def to_dict(self) -> dict:
        """JSON-ready representation (the machine-readable section)."""
        out: dict = {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }
        if self.span is not None and self.span.known:
            out["line"] = self.span.line
            out["column"] = self.span.column
        if self.structure is not None:
            out["structure"] = self.structure
        if self.hint is not None:
            out["hint"] = self.hint
        return out

    def __str__(self) -> str:
        prefix = f"{self.span}: " if self.span is not None and self.span.known else ""
        where = f" [{self.structure}]" if self.structure else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{prefix}{self.severity}[{self.code}]{where}: {self.message}{hint}"


@dataclass
class DiagnosticSink:
    """Collects diagnostics across an evaluation pass."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- recording -----------------------------------------------------
    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def error(
        self,
        code: str,
        message: str,
        span: SourceSpan | None = None,
        structure: str | None = None,
        hint: str | None = None,
    ) -> Diagnostic:
        return self.emit(
            Diagnostic(SEVERITY_ERROR, code, message, span, structure, hint)
        )

    def warning(
        self,
        code: str,
        message: str,
        span: SourceSpan | None = None,
        structure: str | None = None,
        hint: str | None = None,
    ) -> Diagnostic:
        return self.emit(
            Diagnostic(SEVERITY_WARNING, code, message, span, structure, hint)
        )

    def extend(self, diagnostics) -> None:
        for d in diagnostics:
            self.emit(d)

    # -- inspection ----------------------------------------------------
    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self.diagnostics)

    def to_payload(self) -> list[dict]:
        """The machine-readable diagnostics section."""
        return [d.to_dict() for d in self.diagnostics]

    def render(self, source: str | None = None) -> str:
        """Render all diagnostics, with caret context when ``source`` given."""
        return render_diagnostics(self.diagnostics, source)


def render_diagnostics(diagnostics, source: str | None = None) -> str:
    """Format diagnostics one per block, adding source carets if possible."""
    lines = source.splitlines() if source is not None else None
    out: list[str] = []
    for d in diagnostics:
        out.append(str(d))
        span = d.span
        if (
            lines is not None
            and span is not None
            and 1 <= span.line <= len(lines)
            and span.column >= 1
        ):
            text = lines[span.line - 1]
            out.append(f"    {text}")
            out.append("    " + " " * (span.column - 1) + "^")
    return "\n".join(out)
