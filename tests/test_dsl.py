"""Expression DSL: parsing, rendering, positioned errors."""

import pytest
from hypothesis import given, settings, strategies as st

from solvlen.dsl import (MAX_DEPTH, Call, IntLiteral, Symbol, ast_equal,
                         parse_spec, render)
from solvlen.errors import ParseError

DOCUMENTED = [
    "cyclic(1)",
    "cyclic(2)",
    "metacyclic(2,3)",
    "natsd(s3mat(5),2)",
    "gl(2,3)",
    "qutrit(7)",
    "gsp(gl(2,3),3,1)",
    "prop8(7)",
    "d8()",
    "wr(sym(4),sym(4))",
    "direct(cyclic(2),cyclic(3))",
    "extraspecial(3,1)",
    "extraspecial(2,2,minus)",
    "extraspecial(2,2,plus)",
    "natsd(gl(2,3),2)",
    "regular(metacyclic(2,3))",
    "ut(3,3)",
    "sl(2,7)",
    "bo()",
    "extsq(3)",
]


def test_documented_forms_round_trip():
    for text in DOCUMENTED:
        ast = parse_spec(text)
        assert render(ast) == text
        assert ast_equal(parse_spec(render(ast)), ast)


def test_parse_structure():
    ast = parse_spec("wr(sym(4),sym(4))")
    assert isinstance(ast, Call) and ast.name == "wr"
    assert len(ast.args) == 2
    inner = ast.args[0]
    assert isinstance(inner, Call) and inner.name == "sym"
    assert isinstance(inner.args[0], IntLiteral)
    assert inner.args[0].value == 4
    sym_ast = parse_spec("extraspecial(2,2,minus)")
    assert isinstance(sym_ast.args[2], Symbol)
    assert sym_ast.args[2].name == "minus"


def test_whitespace_insensitive():
    a = parse_spec("gl(2,3)")
    b = parse_spec("  gl ( 2 ,\n 3 ) ")
    assert ast_equal(a, b)
    assert render(a) == render(b)


def test_positions_recorded():
    ast = parse_spec("wr(sym(4),sym(4))")
    assert (ast.line, ast.col) == (1, 1)
    assert (ast.args[1].line, ast.args[1].col) == (1, 11)


def test_malformed_unclosed_call():
    with pytest.raises(ParseError) as exc:
        parse_spec("wr(sym(4)")
    assert exc.value.line == 1 and exc.value.col == 10
    assert set(exc.value.expected) == {")", ","}


def test_malformed_missing_comma():
    with pytest.raises(ParseError) as exc:
        parse_spec("gl(2 3)")
    assert exc.value.line == 1 and exc.value.col == 6
    assert set(exc.value.expected) == {")", ","}


def test_malformed_bad_character():
    with pytest.raises(ParseError) as exc:
        parse_spec("gl(2,@)")
    assert exc.value.line == 1 and exc.value.col == 6


def test_malformed_trailing_input():
    with pytest.raises(ParseError) as exc:
        parse_spec("gl(2,3) junk")
    assert exc.value.col == 9
    assert exc.value.expected == ("EOF",)


def test_multiline_positions():
    with pytest.raises(ParseError) as exc:
        parse_spec("wr(\n  sym(4)\n  %")
    assert exc.value.line == 3 and exc.value.col == 3


def test_input_size_limit():
    with pytest.raises(ParseError):
        parse_spec("cyclic(" + "1" * 5000 + ")")


def test_nesting_depth_limit():
    # 3.9 KiB of open calls, under the size cap, must not reach the
    # Python recursion limit; the error points at the first call too deep
    with pytest.raises(ParseError) as exc:
        parse_spec("wr(" * 1300)
    assert (exc.value.line, exc.value.col) == (1, 3 * MAX_DEPTH + 1)
    deepest = "f(" * MAX_DEPTH + ")" * MAX_DEPTH
    assert render(parse_spec(deepest)) == deepest
    with pytest.raises(ParseError) as exc:
        parse_spec("f(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1))
    assert exc.value.col == 2 * MAX_DEPTH + 1


def _asts(depth):
    if depth == 0:
        return st.one_of(
            st.integers(0, 99).map(IntLiteral),
            st.sampled_from(["plus", "minus", "foo"]).map(Symbol))
    sub = _asts(depth - 1)
    return st.one_of(
        st.integers(0, 99).map(IntLiteral),
        st.sampled_from(["plus", "minus"]).map(Symbol),
        st.builds(lambda n, args: Call(n, tuple(args)),
                  st.sampled_from(["wr", "gl", "f", "a1"]),
                  st.lists(sub, min_size=0, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(_asts(3))
def test_render_parse_round_trip_random(ast):
    text = render(ast)
    if isinstance(ast, (IntLiteral, Symbol)) or len(text.encode()) > 4096:
        return  # bare literals are valid exprs; keep within the size cap
    assert ast_equal(parse_spec(text), ast)
