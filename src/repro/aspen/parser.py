"""Recursive-descent parser for the Aspen DSL with panic-mode recovery.

Grammar (EBNF, newline/comma both separate properties)::

    program     := (model | machine)*
    model       := "model" IDENT "{" model_item* "}"
    model_item  := param | data | kernel
    param       := "param" IDENT "=" expr
    data        := "data" IDENT "{" data_item* "}"
    data_item   := property | dims | pattern
    dims        := "dims" ":" "(" expr ("," expr)* ")"
    pattern     := "pattern" IDENT "{" pattern_item* "}"
    pattern_item:= property | sweep | refs
    sweep       := "sweep" "{" sweep_item* "}"
    sweep_item  := ("start"|"end") ":" "(" indexref ("," indexref)* ")"
                 | "step" ":" expr
    refs        := "refs" ":" "(" indexref ("," indexref)* ")"
    indexref    := IDENT "[" expr ("," expr)* "]"
    kernel      := "kernel" IDENT "{" kernel_item* "}"
    kernel_item := "order" ":" STRING | property
    machine     := "machine" IDENT "{" (param | section)* "}"
    section     := IDENT "{" property* "}"
    property    := IDENT ":" expr
    expr        := additive with * / % binding tighter, ^ tightest,
                   unary +/-, calls f(a, b), parentheses

Notable: ``refs``/``start``/``end`` groups contain multi-dimensional
element references like ``R[2, 1, 1]`` (0-based, row-major over the
data declaration's ``dims``).

Error handling
--------------

Every syntax problem is recorded as a coded
:class:`~repro.diagnostics.Diagnostic` in a
:class:`~repro.diagnostics.DiagnosticSink`, after which the parser
*synchronizes* — it skips tokens until a statement boundary (newline,
closing brace, or a declaration keyword like ``data`` / ``kernel`` /
``machine``) and resumes — so a single pass reports *all* syntax errors
in the source, not just the first.  :func:`parse` keeps the historical
strict contract (raise :class:`AspenSyntaxError` for the first error);
:func:`parse_with_diagnostics` exposes the fail-soft path, returning the
partial :class:`Program` together with the sink.  An expression nested
more than :data:`MAX_EXPR_DEPTH` levels deep is an error (ASP109), not
a ``RecursionError`` in the parser or in its evaluation.

Both entry points parse each source text once per process: the last 32
distinct texts keep their program and diagnostics, so a service worker
that evaluates one model on many machines lexes and parses it once.
"""

from __future__ import annotations

import functools

from repro.aspen.ast import (
    DataDecl,
    IndexRef,
    KernelDecl,
    MachineDecl,
    ModelDecl,
    ParamDecl,
    PatternDecl,
    Program,
    SweepDecl,
)
from repro.aspen.errors import AspenSyntaxError
from repro.aspen.expr import BinOp, Call, Expr, Num, Unary, Var
from repro.aspen.lexer import tokenize
from repro.aspen.tokens import Token, TokenType
from repro.diagnostics import Diagnostic, DiagnosticSink, SourceSpan

_T = TokenType

#: Keywords that open a top-level declaration.
_TOP_KEYWORDS = ("model", "machine")
#: Keywords that open an item inside a model body.
_MODEL_ITEM_KEYWORDS = ("param", "data", "kernel")

#: Deepest expression the parser accepts (ASP109).  Parsing and
#: evaluating recurse once per level, so this keeps both far below the
#: interpreter's recursion limit, and far above any builtin model's
#: depth (5).
MAX_EXPR_DEPTH = 100


class _ParsePanic(Exception):
    """Internal control flow: unwind to the nearest recovery point."""


class _Parser:
    def __init__(self, tokens: list[Token], sink: DiagnosticSink):
        self.tokens = tokens
        self.pos = 0
        self.sink = sink
        #: Sub-expressions open around the current token.
        self.nesting = 0

    # -- token helpers -------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _T.EOF:
            self.pos += 1
        return token

    def check(self, ttype: TokenType, value: str | None = None) -> bool:
        token = self.peek()
        return token.type is ttype and (value is None or token.value == value)

    def at_keyword(self, *values: str) -> bool:
        token = self.peek()
        return token.type is _T.KEYWORD and token.value in values

    def match(self, ttype: TokenType, value: str | None = None) -> Token | None:
        if self.check(ttype, value):
            return self.advance()
        return None

    def expect(
        self,
        ttype: TokenType,
        what: str,
        value: str | None = None,
        code: str = "ASP101",
    ) -> Token:
        token = self.peek()
        if token.type is ttype and (value is None or token.value == value):
            return self.advance()
        self.panic(code, f"expected {what}, found {token.value!r}", token)

    def skip_newlines(self) -> None:
        while self.match(_T.NEWLINE) or self.match(_T.COMMA):
            pass

    # -- diagnostics and recovery --------------------------------------
    def report(
        self, code: str, message: str, token: Token, hint: str | None = None
    ) -> None:
        """Record a diagnostic without unwinding (recoverable in place)."""
        self.sink.error(
            code, message, SourceSpan(token.line, token.column), hint=hint
        )

    def panic(
        self, code: str, message: str, token: Token, hint: str | None = None
    ):
        """Record a diagnostic and unwind to the nearest recovery point."""
        self.report(code, message, token, hint=hint)
        raise _ParsePanic()

    def synchronize_statement(self, first: int) -> None:
        """Panic-mode recovery inside a block: resume at the next boundary.

        Skips tokens (stepping over balanced nested braces) until a
        newline separator, a closing brace of the current block, any
        declaration keyword, or EOF.  A statement that failed on its
        first token (at ``first``) always loses that token: a keyword no
        enclosing block takes, such as ``pattern`` in a model body,
        would otherwise stop recovery where the statement began, and
        the block would fail on it forever.
        """
        depth = 0
        while not self.check(_T.EOF):
            token = self.peek()
            if depth == 0:
                if token.type in (_T.NEWLINE, _T.COMMA):
                    self.advance()
                    return
                if token.type in (_T.RBRACE, _T.KEYWORD):
                    break
            if token.type is _T.LBRACE:
                depth += 1
            elif token.type is _T.RBRACE:
                depth -= 1
            self.advance()
        if self.pos == first:
            self.advance()

    def synchronize_top(self) -> None:
        """Panic-mode recovery at program level: resume at model/machine."""
        depth = 0
        while not self.check(_T.EOF):
            token = self.peek()
            if depth == 0 and token.type is _T.KEYWORD and (
                token.value in _TOP_KEYWORDS
            ):
                return
            if token.type is _T.LBRACE:
                depth += 1
            elif token.type is _T.RBRACE:
                depth = max(depth - 1, 0)
            self.advance()

    def at_block_end(self, *outer_keywords: str) -> bool:
        """True at a block close or a keyword belonging to an outer scope."""
        if self.check(_T.RBRACE) or self.check(_T.EOF):
            return True
        return self.at_keyword(*outer_keywords) if outer_keywords else False

    def close_block(self, what: str) -> None:
        """Consume the closing '}' of a block, reporting (not raising) if absent."""
        if self.match(_T.RBRACE) is None:
            token = self.peek()
            self.report(
                "ASP101",
                f"expected '}}' to close {what}, found {token.value!r}",
                token,
            )

    # -- program ---------------------------------------------------------
    def parse_program(self) -> Program:
        models: list[ModelDecl] = []
        machines: list[MachineDecl] = []
        self.skip_newlines()
        while not self.check(_T.EOF):
            try:
                if self.check(_T.KEYWORD, "model"):
                    models.append(self.parse_model())
                elif self.check(_T.KEYWORD, "machine"):
                    machines.append(self.parse_machine())
                else:
                    token = self.peek()
                    self.panic(
                        "ASP102",
                        f"expected 'model' or 'machine', found {token.value!r}",
                        token,
                    )
            except _ParsePanic:
                self.synchronize_top()
            self.skip_newlines()
        return Program(models=tuple(models), machines=tuple(machines))

    # -- model -----------------------------------------------------------
    def parse_model(self) -> ModelDecl:
        keyword = self.expect(_T.KEYWORD, "'model'", "model")
        name = self.expect(_T.IDENT, "model name").value
        self.expect(_T.LBRACE, "'{'")
        params: list[ParamDecl] = []
        data: list[DataDecl] = []
        kernels: list[KernelDecl] = []
        self.skip_newlines()
        while not self.at_block_end(*_TOP_KEYWORDS):
            first = self.pos
            try:
                if self.check(_T.KEYWORD, "param"):
                    params.append(self.parse_param())
                elif self.check(_T.KEYWORD, "data"):
                    data.append(self.parse_data())
                elif self.check(_T.KEYWORD, "kernel"):
                    kernels.append(self.parse_kernel())
                else:
                    token = self.peek()
                    self.panic(
                        "ASP103",
                        f"expected 'param', 'data' or 'kernel', "
                        f"found {token.value!r}",
                        token,
                    )
            except _ParsePanic:
                self.synchronize_statement(first)
            self.skip_newlines()
        self.close_block(f"model {name!r}")
        return ModelDecl(
            name=name,
            params=tuple(params),
            data=tuple(data),
            kernels=tuple(kernels),
            line=keyword.line,
        )

    def parse_param(self) -> ParamDecl:
        keyword = self.expect(_T.KEYWORD, "'param'", "param")
        name = self.expect(_T.IDENT, "parameter name").value
        self.expect(_T.EQUALS, "'='")
        value = self.parse_expr()
        return ParamDecl(name=name, value=value, line=keyword.line)

    # -- data -------------------------------------------------------------
    def parse_data(self) -> DataDecl:
        keyword = self.expect(_T.KEYWORD, "'data'", "data")
        name = self.expect(_T.IDENT, "data-structure name").value
        self.expect(_T.LBRACE, "'{'")
        properties: dict[str, Expr] = {}
        dims: tuple[Expr, ...] = ()
        pattern: PatternDecl | None = None
        self.skip_newlines()
        while not self.at_block_end(*_MODEL_ITEM_KEYWORDS, *_TOP_KEYWORDS):
            first = self.pos
            try:
                if self.check(_T.KEYWORD, "pattern"):
                    if pattern is not None:
                        token = self.peek()
                        self.report(
                            "ASP104",
                            f"data {name!r} declares multiple patterns",
                            token,
                            hint="a data structure takes exactly one "
                            "'pattern' block; remove the extras",
                        )
                        self.parse_pattern()  # parse and discard
                    else:
                        pattern = self.parse_pattern()
                else:
                    prop = self.expect(_T.IDENT, "property name").value
                    self.expect(_T.COLON, "':'")
                    if prop == "dims":
                        dims = tuple(self.parse_expr_group())
                    else:
                        properties[prop] = self.parse_expr()
            except _ParsePanic:
                self.synchronize_statement(first)
            self.skip_newlines()
        self.close_block(f"data {name!r}")
        return DataDecl(
            name=name,
            properties=properties,
            dims=dims,
            pattern=pattern,
            line=keyword.line,
        )

    def parse_pattern(self) -> PatternDecl:
        keyword = self.expect(_T.KEYWORD, "'pattern'", "pattern")
        kind = self.expect(_T.IDENT, "pattern kind").value
        properties: dict[str, Expr] = {}
        sweeps: list[SweepDecl] = []
        refs: list[IndexRef] = []
        if self.match(_T.LBRACE):
            self.skip_newlines()
            while not self.at_block_end(*_MODEL_ITEM_KEYWORDS, *_TOP_KEYWORDS):
                first = self.pos
                try:
                    if self.check(_T.KEYWORD, "sweep"):
                        sweeps.append(self.parse_sweep())
                    else:
                        prop = self.expect(_T.IDENT, "property name").value
                        self.expect(_T.COLON, "':'")
                        if prop == "refs":
                            refs.extend(self.parse_indexref_group())
                        else:
                            properties[prop] = self.parse_expr()
                except _ParsePanic:
                    self.synchronize_statement(first)
                self.skip_newlines()
            self.close_block(f"pattern {kind!r}")
        return PatternDecl(
            kind=kind,
            properties=properties,
            sweeps=tuple(sweeps),
            refs=tuple(refs),
            line=keyword.line,
        )

    def parse_sweep(self) -> SweepDecl:
        keyword = self.expect(_T.KEYWORD, "'sweep'", "sweep")
        self.expect(_T.LBRACE, "'{'")
        start: tuple[IndexRef, ...] | None = None
        end: tuple[IndexRef, ...] | None = None
        step: Expr | None = None
        self.skip_newlines()
        while not self.at_block_end(*_MODEL_ITEM_KEYWORDS, *_TOP_KEYWORDS):
            first = self.pos
            try:
                prop_token = self.peek()
                prop = self.expect(_T.IDENT, "'start', 'step' or 'end'").value
                self.expect(_T.COLON, "':'")
                if prop == "start":
                    start = tuple(self.parse_indexref_group())
                elif prop == "end":
                    end = tuple(self.parse_indexref_group())
                elif prop == "step":
                    step = self.parse_expr()
                else:
                    self.panic(
                        "ASP105",
                        f"unknown sweep property {prop!r}",
                        prop_token,
                        hint="sweeps take 'start', 'step' and 'end'",
                    )
            except _ParsePanic:
                self.synchronize_statement(first)
            self.skip_newlines()
        self.close_block("sweep")
        if start is None or end is None:
            self.report(
                "ASP106",
                "sweep requires 'start' and 'end' groups",
                Token(_T.KEYWORD, "sweep", keyword.line, keyword.column),
            )
            start = start if start is not None else ()
            end = end if end is not None else ()
        return SweepDecl(
            start=start,
            step=step if step is not None else Num(1.0),
            end=end,
            line=keyword.line,
        )

    def parse_indexref_group(self) -> list[IndexRef]:
        self.expect(_T.LPAREN, "'('")
        refs = [self.parse_indexref()]
        while self.match(_T.COMMA):
            self.skip_newlines()
            refs.append(self.parse_indexref())
        self.expect(_T.RPAREN, "')'")
        return refs

    def parse_indexref(self) -> IndexRef:
        self.skip_newlines()
        name_token = self.expect(_T.IDENT, "data-structure name")
        self.expect(_T.LBRACKET, "'['")
        indices = [self.parse_expr()]
        while self.match(_T.COMMA):
            indices.append(self.parse_expr())
        self.expect(_T.RBRACKET, "']'")
        return IndexRef(
            data=name_token.value,
            indices=tuple(indices),
            line=name_token.line,
        )

    def parse_expr_group(self) -> list[Expr]:
        self.expect(_T.LPAREN, "'('")
        exprs = [self.parse_expr()]
        while self.match(_T.COMMA):
            exprs.append(self.parse_expr())
        self.expect(_T.RPAREN, "')'")
        return exprs

    # -- kernel -------------------------------------------------------------
    def parse_kernel(self) -> KernelDecl:
        keyword = self.expect(_T.KEYWORD, "'kernel'", "kernel")
        name = self.expect(_T.IDENT, "kernel name").value
        self.expect(_T.LBRACE, "'{'")
        properties: dict[str, Expr] = {}
        order: str | None = None
        self.skip_newlines()
        while not self.at_block_end(*_MODEL_ITEM_KEYWORDS, *_TOP_KEYWORDS):
            first = self.pos
            try:
                prop = self.expect(_T.IDENT, "property name").value
                self.expect(_T.COLON, "':'")
                if prop == "order":
                    order = self.expect(_T.STRING, "order string").value
                else:
                    properties[prop] = self.parse_expr()
            except _ParsePanic:
                self.synchronize_statement(first)
            self.skip_newlines()
        self.close_block(f"kernel {name!r}")
        return KernelDecl(
            name=name, properties=properties, order=order, line=keyword.line
        )

    # -- machine -------------------------------------------------------------
    def parse_machine(self) -> MachineDecl:
        keyword = self.expect(_T.KEYWORD, "'machine'", "machine")
        name = self.expect(_T.IDENT, "machine name").value
        self.expect(_T.LBRACE, "'{'")
        sections: dict[str, dict[str, Expr]] = {}
        params: list[ParamDecl] = []
        self.skip_newlines()
        while not self.at_block_end(*_TOP_KEYWORDS):
            first = self.pos
            try:
                if self.check(_T.KEYWORD, "param"):
                    params.append(self.parse_param())
                    self.skip_newlines()
                    continue
                section_token = self.peek()
                section = self.expect(_T.IDENT, "section name").value
                self.expect(_T.LBRACE, "'{'")
                props: dict[str, Expr] = {}
                self.skip_newlines()
                while not self.at_block_end(*_TOP_KEYWORDS):
                    prop = self.expect(_T.IDENT, "property name").value
                    self.expect(_T.COLON, "':'")
                    props[prop] = self.parse_expr()
                    self.skip_newlines()
                self.close_block(f"section {section!r}")
                if section in sections:
                    self.report(
                        "ASP107",
                        f"machine {name!r} repeats section {section!r}",
                        section_token,
                        hint="merge the duplicate sections into one",
                    )
                else:
                    sections[section] = props
            except _ParsePanic:
                self.synchronize_statement(first)
            self.skip_newlines()
        self.close_block(f"machine {name!r}")
        return MachineDecl(
            name=name, sections=sections, params=tuple(params), line=keyword.line
        )

    # -- expressions -----------------------------------------------------
    def too_deep(self, token: Token):
        self.panic(
            "ASP109",
            f"expression nested more than {MAX_EXPR_DEPTH} levels deep",
            token,
        )

    def nested(self, parse) -> Expr:
        """Parse a sub-expression one level deeper, at most MAX_EXPR_DEPTH.

        Parentheses, call arguments, unary operators and ``^`` recurse
        through here, so their nesting can never exhaust the stack.
        """
        if self.nesting >= MAX_EXPR_DEPTH:
            self.too_deep(self.peek())
        self.nesting += 1
        try:
            return parse()
        finally:
            self.nesting -= 1

    def parse_expr(self) -> Expr:
        start = self.peek()
        expr = self.parse_additive()
        # A long chain of left-associative operators builds a deep tree
        # without recursing here; evaluating it would recurse.
        if self.nesting == 0 and _height(expr) > MAX_EXPR_DEPTH:
            self.too_deep(start)
        return expr

    def parse_additive(self) -> Expr:
        expr = self.parse_multiplicative()
        while True:
            if self.match(_T.PLUS):
                expr = BinOp("+", expr, self.parse_multiplicative())
            elif self.match(_T.MINUS):
                expr = BinOp("-", expr, self.parse_multiplicative())
            else:
                return expr

    def parse_multiplicative(self) -> Expr:
        expr = self.parse_power()
        while True:
            if self.match(_T.STAR):
                expr = BinOp("*", expr, self.parse_power())
            elif self.match(_T.SLASH):
                expr = BinOp("/", expr, self.parse_power())
            elif self.match(_T.PERCENT):
                expr = BinOp("%", expr, self.parse_power())
            else:
                return expr

    def parse_power(self) -> Expr:
        base = self.parse_unary()
        if self.match(_T.CARET):
            # Right-associative exponentiation.
            return BinOp("^", base, self.nested(self.parse_power))
        return base

    def parse_unary(self) -> Expr:
        if self.match(_T.MINUS):
            return Unary("-", self.nested(self.parse_unary))
        if self.match(_T.PLUS):
            return Unary("+", self.nested(self.parse_unary))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        token = self.peek()
        if token.type is _T.NUMBER:
            self.advance()
            return Num(float(token.value))
        if token.type is _T.IDENT:
            self.advance()
            if self.match(_T.LPAREN):
                args: list[Expr] = []
                if not self.check(_T.RPAREN):
                    args.append(self.nested(self.parse_expr))
                    while self.match(_T.COMMA):
                        args.append(self.nested(self.parse_expr))
                self.expect(_T.RPAREN, "')'")
                return Call(token.value, tuple(args))
            return Var(token.value)
        if token.type is _T.LPAREN:
            self.advance()
            expr = self.nested(self.parse_expr)
            self.expect(_T.RPAREN, "')'")
            return expr
        self.panic(
            "ASP108",
            f"expected an expression, found {token.value!r}",
            token,
        )


def _height(expr: Expr) -> int:
    """Levels in an expression tree, counted without recursion."""
    height, stack = 0, [(expr, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, BinOp):
            children: tuple[Expr, ...] = (node.left, node.right)
        elif isinstance(node, Unary):
            children = (node.operand,)
        elif isinstance(node, Call):
            children = node.args
        else:
            children = ()
        stack.extend((child, level + 1) for child in children)
    return height


@functools.lru_cache(maxsize=32)
def _parse_source(source: str) -> tuple[Program, tuple[Diagnostic, ...]]:
    """Lex and parse ``source`` once per process, keyed by its text.

    The program and diagnostics are shared by every caller that parses
    the same text, which is safe because both are immutable: the AST is
    frozen dataclasses and tuples, and its ``properties`` and
    ``sections`` dicts are written only while parsing.  An unexpected
    exception is not cached.
    """
    sink = DiagnosticSink()
    tokens = tokenize(source, sink)
    program = _Parser(tokens, sink).parse_program()
    return program, tuple(sink.diagnostics)


def parse_with_diagnostics(
    source: str, sink: DiagnosticSink | None = None
) -> tuple[Program, DiagnosticSink]:
    """Parse with panic-mode recovery, reporting *all* errors in one pass.

    Returns the (possibly partial) :class:`Program` together with the
    sink holding every lexical and syntactic diagnostic.  Declarations
    the parser could not repair are simply absent from the program; the
    caller decides whether the collected errors are fatal.
    """
    if sink is None:
        sink = DiagnosticSink()
    program, diagnostics = _parse_source(source)
    sink.extend(diagnostics)
    return program, sink


def parse(source: str) -> Program:
    """Parse Aspen DSL source text into a :class:`Program` (strict).

    The historical contract: the first lexical or syntax error raises
    :class:`AspenSyntaxError` (built from the first diagnostic, so the
    message and source span match the fail-soft path exactly).
    """
    program, sink = parse_with_diagnostics(source)
    if sink.has_errors:
        raise AspenSyntaxError.from_diagnostic(sink.errors[0])
    return program
