"""Command-line surface: eval / series / check / bounds / verify-table.

Reports use a fixed key order so JSON output is stable for golden-file
comparison; exit codes are 0 (all checks pass), 1 (a verification
failed), 2 (usage or construction error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import atlas, bounds as boundsmod
from .dsl import IntLiteral, Symbol, parse_spec, render
from .errors import BadArity, GroupError, ParseError, UnknownBuilder
from .grp import _env_cap, check_lemmas, derived_series, factorize

REPORT_KEYS = ("spec", "order", "order_factored", "solvable", "c", "d", "n",
               "derived_orders", "checks", "engine", "elapsed_ms")

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "spec": {"type": "string"},
        "order": {"type": "integer", "minimum": 1},
        "order_factored": {
            "type": "array",
            "items": {"type": "array",
                      "items": {"type": "integer", "minimum": 1},
                      "minItems": 2, "maxItems": 2},
        },
        "solvable": {"type": "boolean"},
        "c": {"type": ["integer", "null"]},
        "d": {"type": ["integer", "null"]},
        "n": {"type": "array", "items": {"type": "integer"}},
        "derived_orders": {"type": "array",
                           "items": {"type": "integer", "minimum": 1}},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "not-applicable",
                                        "skipped"]},
                    "detail": {"type": "string"},
                },
                "required": ["name", "status"],
            },
        },
        "engine": {"enum": ["bsgs", "split"]},
        "elapsed_ms": {"type": "number", "minimum": 0},
    },
    "required": list(REPORT_KEYS),
    "additionalProperties": False,
}

WITNESSES = {
    0: "cyclic(1)",
    1: "cyclic(2)",
    2: "metacyclic(2,3)",
    3: "natsd(s3mat(5),2)",
    4: "gl(2,3)",
    5: "qutrit(7)",
    6: "gsp(gl(2,3),3,1)",
    7: "prop8(7)",
    8: "d8()",
}


def _builder_table():
    def d8_handle():
        from .lift import d8_group
        return d8_group()[0]

    # name -> (callable, argument kinds); "g" = group handle, "i" = int,
    # "s" = symbol
    return {
        "cyclic": (atlas.cyclic, "i"),
        "sym": (atlas.sym, "i"),
        "gl": (atlas.gl, "ii"),
        "sl": (atlas.sl, "ii"),
        "ut": (atlas.upper_triangular, "ii"),
        "regular": (atlas.regular, "g"),
        "metacyclic": (atlas.metacyclic, "ii"),
        "extraspecial": (atlas.extraspecial, "ii?s"),
        "bo": (atlas.binary_octahedral, ""),
        "s3mat": (atlas.s3mat, "i"),
        "natsd": (atlas.natural_semidirect, "gi"),
        "gsp": (atlas.gsp_extension, "gii"),
        "qutrit": (atlas.qutrit_normalizer, "i"),
        "extsq": (atlas.exterior_square_group, "i"),
        "prop8": (atlas.prop8_group, "i"),
        "wr": (atlas.wreath, "gg"),
        "direct": (atlas.direct, "gg"),
        "d8": (d8_handle, ""),
    }


SYMBOL_VALUES = {"plus": "+", "minus": "-"}


def evaluate(ast):
    """Dispatch an AST to the documented builder vocabulary."""
    table = _builder_table()
    if isinstance(ast, IntLiteral):
        raise BadArity(f"{ast.line}:{ast.col}: bare integer is not a group")
    if isinstance(ast, Symbol):
        raise UnknownBuilder(
            f"{ast.line}:{ast.col}: bare name {ast.name!r} is not a group; "
            f"did you mean {ast.name}(...)?")
    if ast.name not in table:
        raise UnknownBuilder(f"{ast.line}:{ast.col}: unknown builder "
                             f"{ast.name!r}")
    fn, kinds = table[ast.name]
    base_kinds = kinds.replace("?", "")
    required = len(base_kinds)
    min_args = required - kinds.count("?")
    if not min_args <= len(ast.args) <= required:
        raise BadArity(f"{ast.line}:{ast.col}: {ast.name} takes "
                       f"{min_args}..{required} arguments, got "
                       f"{len(ast.args)}")
    args = []
    for arg, kind in zip(ast.args, base_kinds):
        if kind == "i":
            if not isinstance(arg, IntLiteral):
                raise BadArity(f"{arg.line}:{arg.col}: expected an integer")
            args.append(arg.value)
        elif kind == "s":
            if not isinstance(arg, Symbol) or arg.name not in SYMBOL_VALUES:
                raise BadArity(f"{arg.line}:{arg.col}: expected plus/minus")
            args.append(SYMBOL_VALUES[arg.name])
        else:
            args.append(evaluate(arg))
    return fn(*args)


def build_report(spec_text, run_checks=True):
    t0 = time.monotonic()
    ast = parse_spec(spec_text)
    _env_cap()  # a bad GRP_MAX_ELEMENTS exits 2, enumeration or not
    handle = evaluate(ast)
    series = derived_series(handle)
    checks = [{"name": f.name, "status": f.status, "detail": f.detail}
              for f in check_lemmas(handle, series)] if run_checks else []
    elapsed = (time.monotonic() - t0) * 1000.0
    order = series.orders[0]
    report = {
        "spec": render(ast),
        "order": order,
        "order_factored": [[p, e] for p, e in factorize(order)],
        "solvable": series.solvable,
        "c": series.c,
        "d": series.d,
        "n": list(series.n),
        "derived_orders": list(series.orders),
        "checks": checks,
        "engine": series.engine,
        "elapsed_ms": round(elapsed, 3),
    }
    return report, series


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2))
        return
    print(f"spec:     {report['spec']}")
    fact = " * ".join(f"{p}^{e}" if e > 1 else str(p)
                      for p, e in report["order_factored"]) or "1"
    print(f"order:    {report['order']} = {fact}")
    print(f"solvable: {report['solvable']}")
    if report["solvable"]:
        print(f"c(G):     {report['c']}")
        print(f"d(G):     {report['d']}")
        print(f"n(G):     {tuple(report['n'])}")
    print(f"series:   {tuple(report['derived_orders'])}")
    for chk in report["checks"]:
        print(f"  check {chk['name']:8s} {chk['status']:15s} {chk['detail']}")
    print(f"engine:   {report['engine']}  ({report['elapsed_ms']:.0f} ms)")


def _cmd_eval(args):
    report, _ = build_report(args.expr)
    _print_report(report, args.json)
    return 1 if any(c["status"] == "fail" for c in report["checks"]) else 0


def _cmd_series(args):
    report, series = build_report(args.expr, run_checks=False)
    if args.json:
        print(json.dumps({"spec": report["spec"],
                          "derived_orders": report["derived_orders"],
                          "n": report["n"]}, indent=2))
    else:
        print(f"derived orders: {tuple(report['derived_orders'])}")
        print(f"n(G): {tuple(report['n'])}")
    return 0


def _cmd_check(args):
    report, _ = build_report(args.expr)
    for chk in report["checks"]:
        print(f"{chk['name']:8s} {chk['status']:15s} {chk['detail']}")
    return 1 if any(c["status"] == "fail" for c in report["checks"]) else 0


def _cmd_bounds(args):
    d = args.d
    if args.nilpotent:
        lo, hi = boundsmod.cn_bounds(d)
        payload = {"kind": "nilpotent", "d": d, "lower": lo, "upper": hi}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"nilpotent, derived length {d}: "
                  f"composition length in [{lo}, {hi}]")
        return 0
    res = boundsmod.cs_bounds(d)
    payload = {"kind": "solvable", "d": d, "lower": res.lower,
               "upper": res.upper, "provenance": list(res.provenance)}
    if res.annotation:
        payload["annotation"] = list(res.annotation)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"solvable, derived length {d}: "
              f"composition length in [{res.lower}, {res.upper}]")
        for line in res.provenance:
            print(f"  - {line}")
        if res.annotation:
            print(f"  annotation: {res.annotation[0]} <= value <= "
                  f"{res.annotation[1]}")
    return 0


def _cmd_verify_table(args):
    table = boundsmod.CS_TABLE
    reports = [build_report(WITNESSES[d], run_checks=False)[0]
               for d in range(args.max_d + 1)]
    ok = [r["d"] == d and r["c"] == table[d] for d, r in enumerate(reports)]
    for d, r in enumerate(reports):
        print(f"{'PASS' if ok[d] else 'FAIL'} d={d} {WITNESSES[d]:20s} "
              f"d(G)={r['d']} c(G)={r['c']} expected c={table[d]} "
              f"({r['elapsed_ms']:.0f} ms)")
    return 0 if all(ok) else 1


def make_parser():
    p = argparse.ArgumentParser(
        prog="grp",
        description="Construct solvable witness groups and verify the "
                    "minimal composition-length table.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="full report for a group expression")
    pe.add_argument("expr")
    pe.add_argument("--json", action="store_true")
    pe.add_argument("--text", dest="json", action="store_false")
    pe.set_defaults(func=_cmd_eval, json=False)

    ps = sub.add_parser("series", help="derived chain orders and n(G)")
    ps.add_argument("expr")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=_cmd_series)

    pc = sub.add_parser("check", help="structural lemma findings")
    pc.add_argument("expr")
    pc.set_defaults(func=_cmd_check)

    pb = sub.add_parser("bounds", help="composition-length bounds for a "
                                       "derived length")
    pb.add_argument("d", type=int)
    pb.add_argument("--nilpotent", action="store_true")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=_cmd_bounds)

    pv = sub.add_parser("verify-table", help="reconstruct the witness table")
    pv.add_argument("--max-d", type=int, default=8, dest="max_d",
                    choices=sorted(WITNESSES))
    pv.set_defaults(func=_cmd_verify_table)
    return p


def run_command(argv):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        if e.expected:
            print(f"  expected: {', '.join(e.expected)}", file=sys.stderr)
        return 2
    except GroupError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
