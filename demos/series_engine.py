"""Derived and lower central series on the Schreier-Sims engine.

Every series runs on a BSGS chain: a permutation group's own, or for a
matrix group the chain of its action on the orbits of the basis vectors.
The wreath product wr(S4,S4) of order 24^5 shows the closed-form checks
c(G) = c(H)(4^r - 1)/3 and d(G) = 3r for r = 2, and GL(2,3) a matrix
group whose derived terms come back as matrices.
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
    show("S4", atlas.sym(4))
    s4 = atlas.sym(4)
    gammas = grp.lower_central_series(s4)
    print(f"  lower central orders {[g.order for g in gammas]} "
          "(stabilizes at A4: S4 is not nilpotent)")

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

    v4 = grp.minimal_normal_subgroups(atlas.sym(4))[0]
    q = grp.quotient_on_cosets(atlas.sym(4), v4)
    print(f"S4 / V4: order {q.order()}, "
          f"cyclic = {grp.is_cyclic(q)} (it is S3)")


if __name__ == "__main__":
    main()
