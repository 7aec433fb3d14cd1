"""Tiny expression DSL for naming corpus groups.

Grammar, over ASCII text:
    expr  := IDENT "(" [expr ("," expr)*] ")" | INT | IDENT
    INT   := [0-9]+
    IDENT := [A-Za-z_][A-Za-z0-9_]*
Spaces, tabs, CR and LF separate tokens; any other character, ASCII or
not, is an error.  Every node carries its source position and parse
errors report line:column plus the expected-token set.  Calls nest at most
MAX_DEPTH deep, so a 4 KiB input cannot exhaust the Python stack.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import ParseError

MAX_INPUT = 4096
MAX_DEPTH = 64

# whitespace, then one token: INT, IDENT, punctuation, or any other
# character (an error) or the end of the text (EOF)
_TOKEN = re.compile(r"[ \t\r\n]*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)"
                    r"|([(),])|(.|\Z))", re.ASCII | re.DOTALL)


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


def _tokens(text):
    """(kind, text, line, col) for each token, ending with EOF; kind is
    INT, IDENT, or the punctuation character itself."""
    # offsets of the newlines, after a sentinel for the first line's start
    breaks = [-1] + [m.start() for m in re.finditer("\n", text)]
    out = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        value, start = m[group], m.start(group)
        line = bisect_left(breaks, start)
        col = start - breaks[line - 1]
        if group == 4:
            if value:
                raise ParseError(f"unexpected character {value!r}", line, col,
                                 expected=("IDENT", "INT", "(", ")", ","))
            out.append(("EOF", "", line, col))
            return out
        out.append((("INT", "IDENT", value)[group - 1], value, line, col))


def _expr(tokens, i, depth):
    """The expression starting at tokens[i], and the index after it."""
    kind, value, line, col = tokens[i]
    if kind == "INT":
        return IntLiteral(int(value), line, col), i + 1
    if kind != "IDENT":
        raise ParseError(f"expected an expression, found {value or 'end'!r}",
                         line, col, expected=("IDENT", "INT"))
    if tokens[i + 1][0] != "(":
        return Symbol(value, line, col), i + 1
    if depth == MAX_DEPTH:
        raise ParseError(f"calls nest deeper than {MAX_DEPTH}", line, col)
    args, i = [], i + 2
    if tokens[i][0] != ")":
        while True:
            arg, i = _expr(tokens, i, depth + 1)
            args.append(arg)
            k, v, tl, tc = tokens[i]
            if k == ")":
                break
            if k != ",":
                raise ParseError(f"expected ')' or ',', found {v or 'end'!r}",
                                 tl, tc, expected=(")", ","))
            i += 1
    return Call(value, tuple(args), line, col), i + 1


def parse_spec(text):
    if len(text.encode("utf-8", "surrogatepass")) > MAX_INPUT:
        raise ParseError("input exceeds 4 KiB", 1, 1)
    tokens = _tokens(text)
    ast, i = _expr(tokens, 0, 0)
    kind, value, line, col = tokens[i]
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
