"""The derived series on the Schreier-Sims engine.

Every series runs on a BSGS chain: a permutation group's own, or for a
matrix group the chain of its action on the orbits of the basis vectors.
S4 shows its derived sections S4/A4, A4/V4 and V4, and A5 a series that
stops at once.  The wreath product wr(S4,S4) of order 24^5 shows the
closed-form checks c(G) = c(H)(4^r - 1)/3 and d(G) = 3r for r = 2, and
GL(2,3) a matrix group whose derived terms come back as matrices.
"""

from solvlen import atlas, grp


def show(label, handle):
    rep = grp.derived_series(handle)
    print(f"{label}:")
    print(f"  engine {rep.engine}, orders {rep.orders}")
    if rep.solvable:
        print(f"  c = {rep.c}, d = {rep.d}, n = {rep.n}")
    else:
        print("  not solvable")
    return rep


def main():
    rep = show("S4", atlas.sym(4))
    sections = [a // b for a, b in zip(rep.orders, rep.orders[1:])]
    print(f"  derived sections of orders {sections} "
          "(S4/A4, A4/V4 and V4)")

    show("A5", atlas.perm_handle([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5, "a5"))

    w = atlas.wreath(atlas.sym(4), atlas.sym(4))
    rep = show("wr(S4,S4)", w)
    r, ch = 2, 4  # two wreathings of S4, c(S4) = 4
    assert rep.c == ch * (4 ** r - 1) // 3
    assert rep.d == 3 * r
    print(f"  formulas: c = {ch}(4^{r}-1)/3 = {rep.c}, d = 3*{r} = {rep.d}")

    gl23 = atlas.gl(2, 3)
    rep = show("GL(2,3) on the 8 nonzero vectors of F_3^2", gl23)
    print(f"  G^(3) is generated by {rep.subgroups[3].generators[0]}")


if __name__ == "__main__":
    main()
