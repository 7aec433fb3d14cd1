"""Tiny expression DSL for naming corpus groups.

Grammar: expr := IDENT "(" [expr ("," expr)*] ")" | INT | IDENT.
Whitespace-insensitive; every node carries its source position and parse
errors report line:column plus the expected-token set.  Calls nest at most
MAX_DEPTH deep, so a 4 KiB input cannot exhaust the Python stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError

MAX_INPUT = 4096
MAX_DEPTH = 64


@dataclass(frozen=True)
class IntLiteral:
    value: int
    line: int = field(default=1, compare=False)
    col: int = field(default=1, compare=False)


@dataclass(frozen=True)
class Symbol:
    name: str
    line: int = field(default=1, compare=False)
    col: int = field(default=1, compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    line: int = field(default=1, compare=False)
    col: int = field(default=1, compare=False)


@dataclass
class _Tokenizer:
    text: str
    pos: int = 0
    line: int = 1
    col: int = 1
    tokens: list = field(default_factory=list)

    def run(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance()
                continue
            if ch.isdigit():
                start, sl, sc = self.pos, self.line, self.col
                while self.pos < len(text) and text[self.pos].isdigit():
                    self._advance()
                self.tokens.append(("INT", text[start:self.pos], sl, sc))
                continue
            if ch.isalpha() or ch == "_":
                start, sl, sc = self.pos, self.line, self.col
                while self.pos < len(text) and (text[self.pos].isalnum()
                                                or text[self.pos] == "_"):
                    self._advance()
                self.tokens.append(("IDENT", text[start:self.pos], sl, sc))
                continue
            if ch in "(),":
                self.tokens.append((ch, ch, self.line, self.col))
                self._advance()
                continue
            raise ParseError(f"unexpected character {ch!r}",
                             self.line, self.col,
                             expected=("IDENT", "INT", "(", ")", ","))
        self.tokens.append(("EOF", "", self.line, self.col))
        return self.tokens

    def _advance(self):
        if self.text[self.pos] == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        self.pos += 1


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end'!r}",
                             tok[2], tok[3], expected=(kind,))
        self.i += 1
        return tok

    def expr(self, depth=0):
        kind, value, line, col = self.peek()
        if kind == "INT":
            self.take()
            return IntLiteral(int(value), line, col)
        if kind == "IDENT":
            self.take()
            if self.peek()[0] != "(":
                return Symbol(value, line, col)
            if depth == MAX_DEPTH:
                raise ParseError(f"calls nest deeper than {MAX_DEPTH}",
                                 line, col)
            self.take("(")
            args = []
            if self.peek()[0] != ")":
                args.append(self.expr(depth + 1))
                while True:
                    k, _, tl, tc = self.peek()
                    if k == ",":
                        self.take()
                        args.append(self.expr(depth + 1))
                    elif k == ")":
                        break
                    else:
                        raise ParseError(
                            f"expected ')' or ',', found "
                            f"{self.peek()[1] or 'end'!r}",
                            tl, tc, expected=(")", ","))
            self.take(")")
            return Call(value, tuple(args), line, col)
        raise ParseError(f"expected an expression, found {value or 'end'!r}",
                         line, col, expected=("IDENT", "INT"))


def parse_spec(text):
    if len(text.encode()) > MAX_INPUT:
        raise ParseError("input exceeds 4 KiB", 1, 1)
    tokens = _Tokenizer(text).run()
    p = _Parser(tokens)
    ast = p.expr()
    kind, value, line, col = p.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {value!r}", line, col,
                         expected=("EOF",))
    return ast


def render(ast):
    """Canonical source form; render(parse(s)) reparses to the same AST."""
    if isinstance(ast, IntLiteral):
        return str(ast.value)
    if isinstance(ast, Symbol):
        return ast.name
    if isinstance(ast, Call):
        return f"{ast.name}({','.join(render(a) for a in ast.args)})"
    raise TypeError(f"not an AST node: {ast!r}")

