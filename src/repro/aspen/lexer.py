"""Hand-written lexer for the Aspen DSL.

Supports ``//`` and ``#`` line comments, double-quoted strings (used for
access-order specifications), decimal/scientific numbers, identifiers
and the punctuation of :mod:`repro.aspen.tokens`.  Newlines are emitted
as tokens because they terminate property declarations (commas work as
an alternative separator).

With a :class:`~repro.diagnostics.DiagnosticSink` the lexer *recovers*
from lexical errors instead of raising: an unexpected character is
reported (``ASP001``) and skipped, an unterminated string (``ASP002``)
is closed at the end of the line, and lexing continues so one pass
reports every lexical problem in the source.
"""

from __future__ import annotations

from repro.aspen.errors import AspenSyntaxError
from repro.aspen.tokens import KEYWORDS, PUNCTUATION, Token, TokenType
from repro.diagnostics import DiagnosticSink, SourceSpan


def tokenize(source: str, sink: DiagnosticSink | None = None) -> list[Token]:
    """Lex ``source`` into a token list ending with an EOF token.

    Without a ``sink`` the first lexical error raises
    :class:`AspenSyntaxError` (strict mode).  With a ``sink``, errors
    are recorded as diagnostics and lexing continues past them.
    """

    def report(code: str, message: str, line: int, col: int, hint: str | None = None):
        if sink is None:
            raise AspenSyntaxError(message, line, col, code=code, hint=hint)
        sink.error(code, message, SourceSpan(line, col), hint=hint)

    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        # -- whitespace (not newline) --------------------------------
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        # -- newline --------------------------------------------------
        if ch == "\n":
            if tokens and tokens[-1].type not in (
                TokenType.NEWLINE,
                TokenType.LBRACE,
                TokenType.COMMA,
            ):
                tokens.append(Token(TokenType.NEWLINE, "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        # -- comments -------------------------------------------------
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        # -- strings --------------------------------------------------
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            chars: list[str] = []
            while i < n and source[i] not in ('"', "\n"):
                chars.append(source[i])
                i += 1
                col += 1
            if i >= n or source[i] == "\n":
                report(
                    "ASP002",
                    "unterminated string literal",
                    start_line,
                    start_col,
                    hint='close the string with `"` before the end of the line',
                )
                # Recovery: treat the collected characters as the string
                # and resume at the newline / EOF.
            else:
                i += 1  # closing quote
                col += 1
            tokens.append(
                Token(TokenType.STRING, "".join(chars), start_line, start_col)
            )
            continue
        # -- numbers --------------------------------------------------
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start_col = col
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = source[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    # Lookahead: exponent must be followed by digits or sign+digit.
                    k = j + 1
                    if k < n and source[k] in "+-":
                        k += 1
                    if k < n and source[k].isdigit():
                        seen_exp = True
                        j = k
                    else:
                        break
                else:
                    break
            text = source[i:j]
            col += j - i
            i = j
            tokens.append(Token(TokenType.NUMBER, text, line, start_col))
            continue
        # -- identifiers / keywords ------------------------------------
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            col += j - i
            i = j
            ttype = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
            tokens.append(Token(ttype, text, line, start_col))
            continue
        # -- punctuation ------------------------------------------------
        ttype = PUNCTUATION.get(ch)
        if ttype is not None:
            tokens.append(Token(ttype, ch, line, col))
            i += 1
            col += 1
            continue
        report("ASP001", f"unexpected character {ch!r}", line, col)
        i += 1  # recovery: skip the offending character
        col += 1
    tokens.append(Token(TokenType.EOF, "", line, col))
    return tokens
