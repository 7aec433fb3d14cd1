"""Structural findings along the derived series.

check_lemmas verifies, per group: no two consecutive cyclic derived
quotients, coprime fixed-point-free action of cyclic prime sections, and
extraspecial p^3 sections at n_i = 2 over n_{i+1} = 1 steps.  The
section checks are orders of
normal closures on the chains of the derived terms, and `e` is order
arithmetic, so nothing is enumerated: the d = 8 witness, 165,888 elements,
is built with its series and checks in about 0.15 s.  Past ENUMERABLE_LIMIT the two closure checks report
"skipped" to bound their time.
"""

from solvlen import atlas, grp
from solvlen.lift import d8_group


def show(label, handle, assert_cs=False):
    rep = grp.derived_series(handle)
    print(f"{label} (order {rep.orders[0]}):")
    for f in grp.check_lemmas(handle, rep, assert_cs=assert_cs):
        print(f"  {f.name:8s} {f.status:15s} {f.detail}")


def main():
    show("gl(2,3)", atlas.gl(2, 3), assert_cs=True)
    show("natsd(s3mat(5),2)", atlas.natural_semidirect(atlas.s3mat(5), 2))
    show("gsp(gl(2,3),3,1)", atlas.gsp_extension(atlas.gl(2, 3), 3, 1))
    show("wr(sym(4),sym(4))", atlas.wreath(atlas.sym(4), atlas.sym(4)))
    show("d8()", d8_group()[0])


if __name__ == "__main__":
    main()
