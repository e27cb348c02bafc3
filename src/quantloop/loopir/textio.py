"""Line-oriented textual form of the loop IR (``.dir`` files).

Grammar (one construct per line, ``#`` starts a comment, blank lines are
ignored, indentation is cosmetic)::

    program   := { decl } { func }
    decl      := "buffer" NAME "[" INT { "," INT } "]" [ "quantized" ]
               | "param" NAME
    func      := "func" NAME "{" { stmt } "}"
    stmt      := "for" NAME "in" expr ".." expr "{" { stmt } "}"
               | "load" NAME "=" NAME "[" expr { "," expr } "]"
               | "store" NAME "[" expr { "," expr } "]" "=" operand
               | "let" NAME "=" operand ("*" | "+") operand
               | "let" NAME "=" "fma" "(" operand "," operand "," operand ")"
               | "acc" NAME "=" FLOAT
               | "update" NAME "+=" operand "*" operand
               | "call" NAME "(" [ arg { "," arg } ] ")"
    expr      := term { "+" term }          (affine; each iv at most once)
    term      := INT | NAME | INT "*" NAME | NAME "*" INT | NAME "*" NAME
    operand   := NAME | FLOAT
    arg       := NAME | INT | FLOAT

Loops nest at most :data:`MAX_LOOP_DEPTH` deep; a deeper ``for`` is a parse
error, which keeps every recursive walk of a parsed program (validation,
the GEMV pass, printing, interpretation) far from Python's recursion limit.

In ``expr`` a NAME is an enclosing induction variable or a declared
parameter.  A product of two induction variables (or any other non-affine
form) is a parse error, as is a subscript on an undeclared buffer.  In
``NAME "*" NAME`` exactly one side must be an induction variable; the other
becomes a symbolic (parameter) coefficient, e.g. a leading dimension passed
in at interpretation time.

Printing is canonical (2-space indentation, floats via ``repr``), so
``parse(print(p))`` reproduces ``p`` exactly and printing is deterministic.
"""

from __future__ import annotations

import re

from .nodes import (
    AccumInit,
    AccumUpdate,
    AffineExpr,
    BinOp,
    BufferDecl,
    Function,
    IndexExpr,
    IntrinsicCall,
    Load,
    Loop,
    LoopProgram,
    NonAffineExpr,
    Operand,
    Stmt,
    Store,
)

__all__ = ["MAX_LOOP_DEPTH", "ParseError", "parse_program", "print_program"]

#: Deepest loop nest the parser accepts.
MAX_LOOP_DEPTH = 64


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<float>-?(?:\d+\.(?!\.)\d*|\.\d+)(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+)
  | (?P<int>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<dotdot>\.\.)
  | (?P<pluseq>\+=)
  | (?P<sym>[{}\[\](),=+*])
    """,
    re.VERBOSE,
)


def _tokenize(text: str, line_no: int) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _LineCursor:
    def __init__(self, tokens: list[tuple[str, str, int]], line_no: int) -> None:
        self.tokens = tokens
        self.line = line_no
        self.ix = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.ix] if self.ix < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            last_col = self.tokens[-1][2] if self.tokens else 1
            raise ParseError("unexpected end of line", self.line, last_col)
        self.ix += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, got {tok[1]!r}", self.line, tok[2])
        return tok

    def accept(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        if tok is not None and tok[0] == kind and (text is None or tok[1] == text):
            self.ix += 1
            return True
        return False

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing tokens starting at {tok[1]!r}", self.line, tok[2])


class _Parser:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.ix = 0
        self.buffers: list[BufferDecl] = []
        self.params: list[str] = []
        self.functions: list[Function] = []

    def _next_cursor(self) -> _LineCursor | None:
        while self.ix < len(self.lines):
            line_no = self.ix + 1
            tokens = _tokenize(self.lines[self.ix], line_no)
            self.ix += 1
            if tokens:
                return _LineCursor(tokens, line_no)
        return None

    def parse(self) -> LoopProgram:
        while True:
            cur = self._next_cursor()
            if cur is None:
                break
            kind, text, col = cur.next()
            if kind != "name":
                raise ParseError(f"expected a declaration or func, got {text!r}", cur.line, col)
            if text == "buffer":
                self._parse_buffer(cur)
            elif text == "param":
                name = cur.expect("name")[1]
                if name in self.params:
                    raise ParseError(f"duplicate param {name!r}", cur.line, col)
                self.params.append(name)
                cur.done()
            elif text == "func":
                self._parse_func(cur)
            else:
                raise ParseError(
                    f"expected 'buffer', 'param' or 'func', got {text!r}", cur.line, col
                )
        return LoopProgram(
            buffers=tuple(self.buffers),
            params=tuple(self.params),
            functions=tuple(self.functions),
        )

    def _parse_buffer(self, cur: _LineCursor) -> None:
        name_tok = cur.expect("name")
        cur.expect("sym", "[")
        extents = [self._expect_positive_int(cur)]
        while cur.accept("sym", ","):
            extents.append(self._expect_positive_int(cur))
        cur.expect("sym", "]")
        quantized = False
        if cur.accept("name", "quantized"):
            quantized = True
        cur.done()
        if any(d.name == name_tok[1] for d in self.buffers):
            raise ParseError(f"duplicate buffer {name_tok[1]!r}", cur.line, name_tok[2])
        try:
            self.buffers.append(
                BufferDecl(name=name_tok[1], extents=tuple(extents), quantized=quantized)
            )
        except ValueError as exc:
            raise ParseError(str(exc), cur.line, name_tok[2]) from None

    def _expect_positive_int(self, cur: _LineCursor) -> int:
        tok = cur.expect("int")
        return int(tok[1])

    def _parse_func(self, cur: _LineCursor) -> None:
        name = cur.expect("name")[1]
        cur.expect("sym", "{")
        cur.done()
        body = self._parse_block(ivs=())
        self.functions.append(Function(name=name, body=tuple(body)))

    def _parse_block(self, ivs: tuple[str, ...]) -> list[Stmt]:
        body: list[Stmt] = []
        while True:
            cur = self._next_cursor()
            if cur is None:
                raise ParseError("unexpected end of input inside a block", len(self.lines), 1)
            if cur.accept("sym", "}"):
                cur.done()
                return body
            body.append(self._parse_stmt(cur, ivs))

    def _parse_stmt(self, cur: _LineCursor, ivs: tuple[str, ...]) -> Stmt:
        kind, text, col = cur.next()
        if kind != "name":
            raise ParseError(f"expected a statement keyword, got {text!r}", cur.line, col)
        if text == "for":
            if len(ivs) == MAX_LOOP_DEPTH:
                raise ParseError(
                    f"loops nest deeper than {MAX_LOOP_DEPTH} levels", cur.line, col
                )
            iv = cur.expect("name")[1]
            cur.expect("name", "in")
            lower = self._parse_affine(cur, ivs, stop={".."})
            cur.expect("dotdot")
            upper = self._parse_affine(cur, ivs, stop={"{"})
            cur.expect("sym", "{")
            cur.done()
            inner = self._parse_block(ivs + (iv,))
            return Loop(iv=iv, lower=lower, upper=upper, body=tuple(inner))
        if text == "load":
            dest = cur.expect("name")[1]
            cur.expect("sym", "=")
            buf, index = self._parse_access(cur, ivs)
            cur.done()
            return Load(dest=dest, buffer=buf, index=index)
        if text == "store":
            buf_tok = cur.expect("name")
            self._check_buffer(buf_tok, cur)
            cur.expect("sym", "[")
            index = self._parse_index_list(cur, ivs)
            cur.expect("sym", "=")
            value = self._parse_operand(cur)
            cur.done()
            return Store(buffer=buf_tok[1], index=index, value=value)
        if text == "let":
            dest = cur.expect("name")[1]
            cur.expect("sym", "=")
            nxt = cur.peek()
            if nxt is not None and nxt[0] == "name" and nxt[1] == "fma":
                cur.next()
                cur.expect("sym", "(")
                a = self._parse_operand(cur)
                cur.expect("sym", ",")
                b = self._parse_operand(cur)
                cur.expect("sym", ",")
                c = self._parse_operand(cur)
                cur.expect("sym", ")")
                cur.done()
                return BinOp(dest=dest, op="fma", a=a, b=b, c=c)
            a = self._parse_operand(cur)
            op_tok = cur.next()
            if op_tok[1] == "*":
                op = "mul"
            elif op_tok[1] == "+":
                op = "add"
            else:
                raise ParseError(f"expected '*' or '+', got {op_tok[1]!r}", cur.line, op_tok[2])
            b = self._parse_operand(cur)
            cur.done()
            return BinOp(dest=dest, op=op, a=a, b=b)
        if text == "acc":
            name = cur.expect("name")[1]
            cur.expect("sym", "=")
            value_tok = cur.expect("float")
            cur.done()
            return AccumInit(name=name, value=float(value_tok[1]))
        if text == "update":
            name = cur.expect("name")[1]
            cur.expect("pluseq")
            a = self._parse_operand(cur)
            cur.expect("sym", "*")
            b = self._parse_operand(cur)
            cur.done()
            return AccumUpdate(name=name, a=a, b=b)
        if text == "call":
            name = cur.expect("name")[1]
            cur.expect("sym", "(")
            args: list[str | int | float] = []
            if not cur.accept("sym", ")"):
                while True:
                    tok = cur.next()
                    if tok[0] == "name":
                        args.append(tok[1])
                    elif tok[0] == "int":
                        args.append(int(tok[1]))
                    elif tok[0] == "float":
                        args.append(float(tok[1]))
                    else:
                        raise ParseError(f"bad call argument {tok[1]!r}", cur.line, tok[2])
                    if cur.accept("sym", ")"):
                        break
                    cur.expect("sym", ",")
            cur.done()
            return IntrinsicCall(name=name, args=tuple(args))
        raise ParseError(f"unknown statement keyword {text!r}", cur.line, col)

    def _check_buffer(self, tok: tuple[str, str, int], cur: _LineCursor) -> None:
        if not any(d.name == tok[1] for d in self.buffers):
            raise ParseError(f"use of undeclared buffer {tok[1]!r}", cur.line, tok[2])

    def _parse_access(self, cur: _LineCursor, ivs: tuple[str, ...]):
        buf_tok = cur.expect("name")
        self._check_buffer(buf_tok, cur)
        cur.expect("sym", "[")
        index = self._parse_index_list(cur, ivs)
        return buf_tok[1], index

    def _parse_index_list(self, cur: _LineCursor, ivs: tuple[str, ...]) -> tuple[IndexExpr, ...]:
        index = [self._parse_affine(cur, ivs, stop={",", "]"})]
        while cur.accept("sym", ","):
            index.append(self._parse_affine(cur, ivs, stop={",", "]"}))
        cur.expect("sym", "]")
        return tuple(index)

    def _parse_operand(self, cur: _LineCursor) -> Operand:
        tok = cur.next()
        if tok[0] == "name":
            return tok[1]
        if tok[0] == "float":
            return float(tok[1])
        raise ParseError(
            f"expected a scalar name or float literal, got {tok[1]!r}", cur.line, tok[2]
        )

    def _parse_affine(self, cur: _LineCursor, ivs: tuple[str, ...], stop: set) -> AffineExpr:
        terms: list[tuple[str, int | str]] = []
        offset = 0
        while True:
            tok = cur.next()
            if tok[0] == "int":
                value = int(tok[1])
                if cur.accept("sym", "*"):
                    name_tok = cur.expect("name")
                    self._classify_iv(name_tok, ivs, cur)
                    terms.append((name_tok[1], value))
                else:
                    offset += value
            elif tok[0] == "name":
                first = tok
                if cur.accept("sym", "*"):
                    second = cur.next()
                    if second[0] == "int":
                        self._classify_iv(first, ivs, cur)
                        terms.append((first[1], int(second[1])))
                    elif second[0] == "name":
                        first_is_iv = first[1] in ivs
                        second_is_iv = second[1] in ivs
                        if first_is_iv and second_is_iv:
                            raise ParseError(
                                f"non-affine index expression: product of induction "
                                f"variables {first[1]!r} and {second[1]!r}",
                                cur.line,
                                first[2],
                            )
                        if not first_is_iv and not second_is_iv:
                            raise ParseError(
                                f"non-affine index expression: neither {first[1]!r} nor "
                                f"{second[1]!r} is an enclosing induction variable",
                                cur.line,
                                first[2],
                            )
                        iv_tok, coeff_tok = (first, second) if first_is_iv else (second, first)
                        self._classify_param(coeff_tok, cur)
                        terms.append((iv_tok[1], coeff_tok[1]))
                    else:
                        raise ParseError(
                            f"bad coefficient {second[1]!r}", cur.line, second[2]
                        )
                else:
                    if first[1] not in ivs and first[1] not in self.params:
                        raise ParseError(
                            f"{first[1]!r} is neither an enclosing induction "
                            f"variable nor a declared param",
                            cur.line,
                            first[2],
                        )
                    terms.append((first[1], 1))
            else:
                raise ParseError(f"bad index term {tok[1]!r}", cur.line, tok[2])
            nxt = cur.peek()
            if nxt is not None and nxt[1] == "+":
                cur.next()
                continue
            if nxt is None or nxt[1] in stop:
                break
            raise ParseError(f"unexpected token {nxt[1]!r} in expression", cur.line, nxt[2])
        try:
            return AffineExpr(terms=tuple(terms), offset=offset)
        except ValueError as exc:
            last_col = cur.tokens[cur.ix - 1][2] if cur.ix else 1
            raise ParseError(str(exc), cur.line, last_col) from None

    def _classify_iv(self, tok: tuple[str, str, int], ivs: tuple[str, ...], cur: _LineCursor):
        if tok[1] not in ivs:
            raise ParseError(
                f"{tok[1]!r} is not an enclosing induction variable", cur.line, tok[2]
            )

    def _classify_param(self, tok: tuple[str, str, int], cur: _LineCursor):
        if tok[1] not in self.params:
            raise ParseError(
                f"coefficient {tok[1]!r} is not a declared param", cur.line, tok[2]
            )


def parse_program(text: str) -> LoopProgram:
    """Parse ``.dir`` text into a :class:`LoopProgram`.

    Raises:
        ParseError: on syntax errors, undeclared buffers, or non-affine
            index expressions; the exception carries line and column.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _fmt_expr(e: IndexExpr) -> str:
    if isinstance(e, NonAffineExpr):
        return e.text
    parts = []
    for iv, coeff in e.terms:
        if coeff == 1:
            parts.append(iv)
        else:
            parts.append(f"{iv} * {coeff}")
    if e.offset or not parts:
        parts.append(str(e.offset))
    return " + ".join(parts)


def _fmt_operand(op: Operand) -> str:
    return repr(op) if isinstance(op, float) else op


def _fmt_arg(arg) -> str:
    if isinstance(arg, float):
        return repr(arg)
    return str(arg)


def _print_stmt(s: Stmt, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    if isinstance(s, Loop):
        out.append(f"{pad}for {s.iv} in {_fmt_expr(s.lower)}..{_fmt_expr(s.upper)} {{")
        for inner in s.body:
            _print_stmt(inner, depth + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, Load):
        ix = ", ".join(_fmt_expr(e) for e in s.index)
        out.append(f"{pad}load {s.dest} = {s.buffer}[{ix}]")
    elif isinstance(s, Store):
        ix = ", ".join(_fmt_expr(e) for e in s.index)
        out.append(f"{pad}store {s.buffer}[{ix}] = {_fmt_operand(s.value)}")
    elif isinstance(s, BinOp):
        if s.op == "fma":
            out.append(
                f"{pad}let {s.dest} = fma({_fmt_operand(s.a)}, {_fmt_operand(s.b)}, "
                f"{_fmt_operand(s.c)})"
            )
        else:
            sym = "*" if s.op == "mul" else "+"
            out.append(f"{pad}let {s.dest} = {_fmt_operand(s.a)} {sym} {_fmt_operand(s.b)}")
    elif isinstance(s, AccumInit):
        out.append(f"{pad}acc {s.name} = {repr(s.value)}")
    elif isinstance(s, AccumUpdate):
        out.append(f"{pad}update {s.name} += {_fmt_operand(s.a)} * {_fmt_operand(s.b)}")
    elif isinstance(s, IntrinsicCall):
        args = ", ".join(_fmt_arg(a) for a in s.args)
        out.append(f"{pad}call {s.name}({args})")
    else:  # pragma: no cover - exhaustive over Stmt
        raise TypeError(f"cannot print {type(s).__name__}")


def print_program(p: LoopProgram) -> str:
    """Render a program in canonical textual form (see module docstring)."""
    out: list[str] = []
    for decl in p.buffers:
        extents = ", ".join(str(e) for e in decl.extents)
        suffix = " quantized" if decl.quantized else ""
        out.append(f"buffer {decl.name}[{extents}]{suffix}")
    for param in p.params:
        out.append(f"param {param}")
    for fn in p.functions:
        if out:
            out.append("")
        out.append(f"func {fn.name} {{")
        for s in fn.body:
            _print_stmt(s, 1, out)
        out.append("}")
    return "\n".join(out) + "\n"
