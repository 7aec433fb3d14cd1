"""CLI surface: reports, schema, exit codes, verify-table."""

import hashlib
import json
import time

import jsonschema
import pytest

from solvlen import bounds as boundsmod
from solvlen.cli import (REPORT_KEYS, REPORT_SCHEMA, WITNESSES, build_report,
                         evaluate, run_command)
from solvlen.dsl import parse_spec
from solvlen.errors import BadArity, UnknownBuilder


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evaluate_dispatch():
    h = evaluate(parse_spec("gsp(gl(2,3),3,1)"))
    assert h.order() == 1296
    h = evaluate(parse_spec("extraspecial(2,2,minus)"))
    assert h.order() == 32
    with pytest.raises(UnknownBuilder):
        evaluate(parse_spec("nonsense(3)"))
    with pytest.raises(UnknownBuilder) as exc:
        evaluate(parse_spec("wr(sym(3),oops)"))
    assert "1:11" in str(exc.value)
    with pytest.raises(BadArity):
        evaluate(parse_spec("gl(2)"))
    with pytest.raises(BadArity):
        evaluate(parse_spec("gl(2,3,5)"))
    with pytest.raises(BadArity):
        evaluate(parse_spec("gl(sym(3),3)"))
    with pytest.raises(BadArity):
        evaluate(parse_spec("7"))


def test_report_schema_and_key_order():
    for spec in ("metacyclic(2,3)", "gl(2,3)", "qutrit(7)",
                 "wr(sym(4),sym(4))"):
        report, _ = build_report(spec)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert tuple(report.keys()) == REPORT_KEYS
        prod = 1
        for p, e in report["order_factored"]:
            prod *= p ** e
        assert prod == report["order"]
        if report["solvable"]:
            assert report["c"] == sum(report["n"])


def test_eval_json_output(capsys):
    code, out, err = run(capsys, "eval", "metacyclic(2,3)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["c"] == 2 and payload["d"] == 2
    assert payload["n"] == [1, 1]
    assert list(payload.keys()) == list(REPORT_KEYS)
    jsonschema.validate(payload, REPORT_SCHEMA)


def test_prop8_report_says_split(capsys):
    # the d = 7 row's orders are certified on the chains of its factors
    code, out, err = run(capsys, "eval", "prop8(7)", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["engine"] == "split"
    assert payload["d"] == 7 and payload["c"] == 13


def test_eval_text_output(capsys):
    code, out, err = run(capsys, "eval", "gl(2,3)")
    assert code == 0
    assert "order:    48" in out
    assert "d(G):     4" in out


def test_series_and_check_subcommands(capsys):
    code, out, _ = run(capsys, "series", "gl(2,3)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["derived_orders"] == [48, 24, 8, 2, 1]
    code, out, _ = run(capsys, "check", "gl(2,3)")
    assert code == 0
    assert "c-weak" in out and "pass" in out


def test_bounds_subcommand(capsys):
    code, out, _ = run(capsys, "bounds", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 17 and payload["upper"] == 63
    assert payload["annotation"] == [18, 24]
    code, out, _ = run(capsys, "bounds", "10", "--nilpotent", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lower"], payload["upper"]) == (532, 1022)
    code, out, _ = run(capsys, "bounds", "4")
    assert code == 0
    assert "[5, 5]" in out


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "eval", "wr(sym(4)")
    assert code == 2
    assert "1:10" in err
    assert "expected" in err


def test_construction_error_exit_code(capsys):
    code, out, err = run(capsys, "eval", "qutrit(5)")
    assert code == 2
    assert "BadCongruence" in err
    code, out, err = run(capsys, "eval", "nonsense(3)")
    assert code == 2
    # a modulus that is no prime is named as such, before any congruence
    for spec in ("qutrit(4)", "prop8(4)", "prop8(1)"):
        code, out, err = run(capsys, "series", spec)
        assert code == 2
        assert "not a prime" in err and err.count("\n") == 1


def test_verify_table_small(capsys):
    code, out, _ = run(capsys, "verify-table", "--max-d", "4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 5
    assert all(ln.startswith("PASS") for ln in lines)


def test_verify_table_deterministic(capsys):
    _, out1, _ = run(capsys, "series", "gsp(gl(2,3),3,1)", "--json")
    _, out2, _ = run(capsys, "series", "gsp(gl(2,3),3,1)", "--json")
    assert out1 == out2


def test_verify_table_reports_mismatch(capsys, monkeypatch):
    # force a wrong expected value to exercise the failure exit path
    monkeypatch.setattr(boundsmod, "CS_TABLE", (0, 1, 99, 4, 5, 7, 8, 13, 15))
    code, out, _ = run(capsys, "verify-table", "--max-d", "2")
    assert code == 1
    assert "FAIL" in out


def test_witness_designations():
    assert WITNESSES == {0: "cyclic(1)", 1: "cyclic(2)",
                         2: "metacyclic(2,3)", 3: "natsd(s3mat(5),2)",
                         4: "gl(2,3)", 5: "qutrit(7)",
                         6: "gsp(gl(2,3),3,1)", 7: "prop8(7)", 8: "d8()"}


@pytest.mark.parametrize("var, argv, value, message", [
    pytest.param("GRP_MAX_ELEMENTS", ("eval", "gl(2,3)"), "abc",
                 "GRP_MAX_ELEMENTS='abc' is not an integer",
                 id="GRP_MAX_ELEMENTS-argv0"),
    # a cap below 1 would never be hit, so it is refused, not ignored
    pytest.param("GRP_MAX_ELEMENTS", ("eval", "gl(2,3)"), "0",
                 "GRP_MAX_ELEMENTS=0 is below 1", id="GRP_MAX_ELEMENTS-0"),
    pytest.param("GRP_MAX_ELEMENTS", ("eval", "gl(2,3)"), "-5",
                 "GRP_MAX_ELEMENTS=-5 is below 1", id="GRP_MAX_ELEMENTS--5"),
])
def test_malformed_env_value_exit_code(capsys, monkeypatch, var, argv, value,
                                       message):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: BadParameter: {message}"]


def test_env_element_cap(monkeypatch):
    monkeypatch.setenv("GRP_MAX_ELEMENTS", "10")
    from solvlen import atlas
    from solvlen.errors import CapExceeded
    h = atlas.metacyclic(2, 7)  # order 14 > cap
    with pytest.raises(CapExceeded):
        h.elements()


def test_big_matrix_spec_stops_at_the_degree_guard(capsys, monkeypatch):
    # gl(7,7) would grow its basis orbits toward 823,542 points; only the
    # guard runs here, on gl(3,3)'s 26 points against a lowered limit
    from solvlen import perm
    monkeypatch.setattr(perm, "MAX_DEGREE", 20)
    code, out, err = run(capsys, "eval", "gl(3,3)")
    assert code == 2
    assert err.splitlines() == [
        "error: CapExceeded: basis orbits pass 20 points"]


def test_big_perm_spec_stops_at_the_degree_guard(capsys, monkeypatch):
    from solvlen import perm
    monkeypatch.setattr(perm, "MAX_DEGREE", 30)
    code, out, err = run(capsys, "eval", "wr(sym(6),sym(6))")
    assert code == 2
    assert err.splitlines() == [
        "error: CapExceeded: degree 36 exceeds 30"]


# one handle of each kind (perm, matrix, model, split) in every builder
# that takes a group
KINDS = ("sym(3)", "gl(2,3)", "extsq(3)", "prop8(7)")
COMPOSERS = ("regular({})", "natsd({},2)", "gsp({},3,1)", "wr({},cyclic(2))",
             "wr(cyclic(2),{})", "direct({},cyclic(2))",
             "direct(cyclic(2),{})")


@pytest.mark.parametrize("spec", [c.format(k) for c in COMPOSERS
                                  for k in KINDS])
def test_every_builder_takes_or_refuses_every_kind(capsys, spec):
    # a handle of the wrong kind is refused in one line, and the split
    # handle, which has no permutation image, never starts a chain
    t0 = time.monotonic()
    code, out, err = run(capsys, "series", spec)
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if "prop8" in spec:
        assert code == 2 and time.monotonic() - t0 < 5


def test_deep_nesting_exit_code(capsys):
    code, out, err = run(capsys, "eval", "wr(" * 1300)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines()[0] == \
        "parse error: 1:193: calls nest deeper than 64"


# the eval-mix corpus of the benchmark: rows d = 0..6, matrix and model
# groups, and small-degree permutation groups with deep chains
EVAL_MIX = (
    "cyclic(1)", "cyclic(2)", "metacyclic(2,3)", "natsd(s3mat(5),2)",
    "gl(2,3)", "qutrit(7)", "gsp(gl(2,3),3,1)",
    "ut(4,3)", "ut(3,5)", "gl(3,3)", "extsq(7)", "qutrit(13)", "bo()",
    "extraspecial(3,1)", "extraspecial(5,1)", "extraspecial(2,2,minus)",
    "sl(2,5)",
    "wr(sym(3),wr(sym(3),sym(3)))", "wr(sym(4),sym(4))", "wr(sym(3),sym(3))",
    "sym(7)", "sym(4)", "direct(sym(3),sym(4))", "regular(gl(2,3))",
    "natsd(gl(2,3),2)",
)


def test_eval_mix_reports_are_pinned():
    # full reports with checks, all through the BSGS engine; the digest
    # covers every key but engine and elapsed_ms
    reports = [build_report(spec)[0] for spec in EVAL_MIX]
    assert all(r["engine"] == "bsgs" for r in reports)
    stripped = [{k: v for k, v in r.items()
                 if k not in ("engine", "elapsed_ms")} for r in reports]
    digest = hashlib.sha256(json.dumps(stripped).encode()).hexdigest()
    assert digest == ("d2fe0bb35a25fc178242de4fb84c53c9"
                      "01140f415ca10196f20aca3cb84403a3")
