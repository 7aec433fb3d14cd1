"""CLI surface: reports, schema, exit codes, verify-table."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import EVAL_MIX
from solvlen import bounds as boundsmod
from solvlen import perm as permmod
from solvlen.cli import (REPORT_KEYS, REPORT_SCHEMA, WITNESSES, _builder_table,
                         build_report, evaluate, run_command)
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


def test_d8_report_says_split(capsys):
    # the d = 8 row's orders come from P's table and K's index sets; its
    # checks read chains built on first use, and every one passes
    code, out, err = run(capsys, "eval", "d8()", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["engine"] == "split"
    assert (payload["order"], payload["d"], payload["c"]) == (165888, 8, 15)
    assert [c["status"] for c in payload["checks"]] == [
        "pass", "pass", "not-applicable", "pass", "pass"]


def test_start_up_loads_no_mpmath():
    # mpmath is imported only by the bounds past the exact table, so the
    # CLI and verify-table start without it; `grp bounds 10` loads it
    code = ("import sys\nfrom solvlen import cli\n"
            "seen = ['mpmath' in sys.modules]\n"
            "for argv in (['verify-table', '--max-d', '8'], ['bounds', '10']):\n"
            "    seen += [cli.run_command(argv), 'mpmath' in sys.modules]\n"
            "print(*seen, file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(boundsmod.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.stderr.split() == ["False", "0", "False", "0", "True"]


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


def test_chain_tables_past_the_budget_exit_2(capsys, monkeypatch):
    # cyclic(64)'s one level tabulates 64 rows of 64 points
    monkeypatch.setattr(permmod, "MEMORY_BUDGET", 64 * 63)
    code, out, err = run(capsys, "eval", "cyclic(64)")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: CapExceeded:") and "MEMORY_BUDGET" in err


def test_long_cycle_chain_is_quick(capsys):
    # one orbit of 1,000 points, one Schreier generator off the tree
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "cyclic(1000)", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["order"] == 1000


def test_verify_table_small(capsys):
    code, out, _ = run(capsys, "verify-table", "--max-d", "4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 5
    assert all(ln.startswith("PASS") for ln in lines)


def test_verify_table_builds_no_chain_past_row_5(capsys, monkeypatch):
    # rows 6 and 8 are R(P)<A> and row 7 is P |x K, each with split orders:
    # their verdicts build no chain, and gsp's chains are built when read
    from solvlen import cli, lift
    specs, built = [], []
    init, report = permmod.BSGS.__init__, cli.build_report

    def recording(self, degree):
        built.append(specs[-1])
        init(self, degree)

    def reporting(spec_text, run_checks=True):
        specs.append(spec_text)
        return report(spec_text, run_checks)
    monkeypatch.setattr(permmod.BSGS, "__init__", recording)
    monkeypatch.setattr(cli, "build_report", reporting)
    monkeypatch.setattr(lift, "_D8_CACHE", {})
    code, out, _ = run(capsys, "verify-table", "--max-d", "8")
    assert code == 0 and specs == list(WITNESSES.values())
    assert all(ln.startswith("PASS") and ln.endswith(" ms)")
               for ln in out.splitlines())
    assert WITNESSES[4] in built
    assert not set(built) & {WITNESSES[6], WITNESSES[7], WITNESSES[8]}
    series = reporting(WITNESSES[6], run_checks=False)[1]
    assert specs[-1] not in built
    assert series.subgroups[5]._bsgs.order() == 3
    assert built.count(specs[-1]) == len(series.subgroups)


def test_verify_table_deterministic(capsys):
    # two runs print the same table, apart from each row's elapsed_ms
    outs = [run(capsys, "verify-table", "--max-d", "8") for _ in range(2)]
    masked = [re.sub(r"\(\d+ ms\)$", "(ms)", out, flags=re.M)
              for _, out, _ in outs]
    assert [code for code, _, _ in outs] == [0, 0]
    assert masked[0] == masked[1] and masked[0].count("(ms)") == 9


def test_verify_table_reports_mismatch(capsys, monkeypatch):
    # force a wrong expected value to exercise the failure exit path
    monkeypatch.setattr(boundsmod, "CS_TABLE", (0, 1, 99, 4, 5, 7, 8, 13, 15))
    code, out, _ = run(capsys, "verify-table", "--max-d", "2")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("max_d", ["9", "-1"])
def test_verify_table_takes_only_rows_of_the_table(capsys, max_d):
    code, out, err = run(capsys, "verify-table", "--max-d", max_d)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("usage: grp verify-table")
    assert f"invalid choice: {max_d}" in err


@pytest.mark.parametrize("nilpotent", [False, True])
@pytest.mark.parametrize("as_json", [False, True])
def test_bounds_stop_at_max_d(capsys, nilpotent, as_json):
    flags = ["--nilpotent"] * nilpotent + ["--json"] * as_json
    code, out, err = run(capsys, "bounds", str(boundsmod.MAX_D), *flags)
    upper = (boundsmod.cn_bounds(boundsmod.MAX_D)[1] if nilpotent
             else boundsmod.cs_bounds(boundsmod.MAX_D).upper)
    assert code == 0 and err == ""
    assert json.loads(out)["upper"] == upper if as_json else str(upper) in out
    code, out, err = run(capsys, "bounds", str(boundsmod.MAX_D + 1), *flags)
    assert code == 2 and out == ""
    assert err == (f"error: BadParameter: d = {boundsmod.MAX_D + 1} outside "
                   f"[0, {boundsmod.MAX_D}]\n")


@pytest.mark.parametrize("value", [-1, 0, 8, 9, boundsmod.MAX_D,
                                   boundsmod.MAX_D + 1, 10 ** 6])
@pytest.mark.parametrize("command", ["verify-table", "bounds"])
def test_boundary_arguments_end_in_a_documented_exit_code(capsys, command,
                                                          value):
    # an exception escaping run_command fails the test; verify-table takes
    # the rows 0..8 and bounds the d in 0..MAX_D
    if command == "verify-table":
        argv, top = [command, "--max-d", str(value)], max(WITNESSES)
    else:
        argv, top = [command, str(value)], boundsmod.MAX_D
    assert run_command(argv) == (0 if 0 <= value <= top else 2)
    capsys.readouterr()


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


def test_env_cap_stops_an_enumeration_in_one_line(capsys, monkeypatch):
    # regular(ut(3,5)) enumerates ut(3,5)'s 8,000 elements; the cap is
    # tested once per slice, and a slice past it ends in the one line
    monkeypatch.setenv("GRP_MAX_ELEMENTS", "1000")
    code, out, err = run(capsys, "eval", "regular(ut(3,5))")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: CapExceeded: closure exceeded cap 1000"]
    # prop8(7) enumerates only Kbar, under its own cap of 648 elements,
    # and never K's 648, so a lower GRP_MAX_ELEMENTS leaves it alone
    monkeypatch.setenv("GRP_MAX_ELEMENTS", "647")
    assert run(capsys, "series", "prop8(7)")[0] == 0
    # so does gsp(gl(2,3),3,1), on K = GL(2,3)'s 48 elements
    monkeypatch.setenv("GRP_MAX_ELEMENTS", "47")
    code, out, err = run(capsys, "series", "gsp(gl(2,3),3,1)")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: CapExceeded: closure exceeded cap 47"]
    monkeypatch.setenv("GRP_MAX_ELEMENTS", "48")
    assert run(capsys, "series", "gsp(gl(2,3),3,1)")[0] == 0


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


@pytest.mark.parametrize("spec", ["ut(16,2)", "ut(16,3)"])
def test_oversized_ut_is_refused_before_growing_points(capsys, spec):
    # ut(16,2)'s 65,535 points pass the degree limit, but a chain's table of
    # e_0's 2^15 points on all of them does not fit MEMORY_BUDGET; ut(16,3)
    # has 3^16 - 1 points.  Neither grows a point before it is refused.
    start = time.perf_counter()
    code, out, err = run(capsys, "series", spec)
    assert time.perf_counter() - start < 0.2
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: CapExceeded:")


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


def test_eval_mix_reports_are_pinned():
    # full reports with checks, all through the BSGS engine but the split
    # R(P)<A> of gsp; the digest covers every key but engine and elapsed_ms
    reports = [build_report(spec)[0] for spec in EVAL_MIX]
    assert [r["spec"] for r in reports if r["engine"] != "bsgs"] == [
        "gsp(gl(2,3),3,1)"]
    stripped = [{k: v for k, v in r.items()
                 if k not in ("engine", "elapsed_ms")} for r in reports]
    digest = hashlib.sha256(json.dumps(stripped).encode()).hexdigest()
    assert digest == ("d2fe0bb35a25fc178242de4fb84c53c9"
                      "01140f415ca10196f20aca3cb84403a3")


def _calls(depth):
    """Builder calls nesting at most depth + 1 deep: arguments of the
    builder's kinds, integers in 0..40 and plus/minus, or of any kind."""
    ints = st.one_of(st.sampled_from([1, 2, 3, 7]),
                     st.integers(0, 40)).map(str)
    signs = st.sampled_from(["plus", "minus"])
    groups = _calls(depth - 1) if depth else st.just("cyclic(2)")
    kind = {"i": ints, "s": signs, "g": groups}
    calls = [st.tuples(st.just(name), st.tuples(
        *(kind[k] for k in kinds.replace("?", ""))))
        for name, (_, kinds) in _builder_table().items()]
    calls.append(st.tuples(st.sampled_from(sorted(_builder_table())),
                           st.lists(st.one_of(ints, signs, groups),
                                    max_size=3)))
    return st.one_of(calls).map(lambda c: f"{c[0]}({','.join(c[1])})")


@settings(max_examples=300, deadline=None, derandomize=True)
@example("eval", "cyclic(²)", None)
@example("eval", "cyclic(٣)", None)
@given(st.sampled_from(["eval", "series"]),
       st.one_of(_calls(2), st.text(max_size=64)),
       st.one_of(st.none(), st.integers(-2, 10 ** 6).map(str),
                 st.text(st.characters(exclude_characters="\x00"),
                         max_size=8)))
def test_any_input_ends_in_a_documented_exit_code(command, spec, cap):
    # small degree and memory limits keep every case light; a traceback
    # would leave run_command as an exception
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permmod, "MAX_DEGREE", 32)
        mp.setattr(permmod, "MEMORY_BUDGET", 10 ** 5)
        if cap is None:
            mp.delenv("GRP_MAX_ELEMENTS", raising=False)
        else:
            mp.setenv("GRP_MAX_ELEMENTS", cap)
        start = time.perf_counter()
        code = run_command([command, spec])
        took = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert took < 2.0


@pytest.mark.parametrize("spec, col", [
    ("cyclic(²)", 8), ("cyclic(٣)", 8), ("cyclic(１２)", 8), ("ſym(3)", 1),
    ("\udcff", 1)])
def test_non_ascii_characters_are_parse_errors(capsys, spec, col):
    # str.isdigit and str.isalpha would read the first four as digits and
    # letters; a lone surrogate, as an undecodable argv byte arrives, has
    # no UTF-8 encoding
    code, out, err = run(capsys, "series", spec)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"parse error: 1:{col}: unexpected character {spec[col - 1]!r}",
        "  expected: IDENT, INT, (, ), ,"]
