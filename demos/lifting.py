"""Walk through the extraspecial lifting pipeline behind the d = 8 witness.

A matrix group acting on F_2^6 lifts to automorphisms of an extraspecial
group 2^{1+6} only if it preserves the squaring form of the chosen
cocycle; the obstruction is quadratic and the correction, when it exists,
is again a quadratic form.  Stages:

  i.   build the order-1296 linear group over F_2^6
  ii.  reduce it to two generators: the first pair, by element order,
       whose closure is the whole group (~0.05s)
  iii. find the invariant quadratic form (Arf invariant 1: minus type);
       its upper table is the cocycle of 2^{1+6}_-, so its squaring form
       is the invariant form
  iv.  lift the two generators to automorphism pairs generating a split
       copy: the offsets enter each lift affinely over F_2, so one
       enumeration of the 1,296 matrices gives the Schreier relators of
       its spanning tree, and the first offsets under which every relator
       lifts to the identity are taken
  v.   form the holomorph as a degree-128 permutation group: each lifted
       automorphism enters as its images (e_i A, q(e_i)) of the six
       generators (e_i, 0), is extended over the group along its
       enumeration tree, and is checked against the group law

Run with --small to only demonstrate the correction law on a tiny example.
"""

import sys

from solvlen.atlas import holomorph_perm, model_handle
from solvlen.errors import NotOrthogonal
from solvlen.fpmat import FpMatrix
from solvlen.lift import (Extraspecial2Model, d8_group,
                          quadratic_correction)


def small_demo():
    model = Extraspecial2Model(1, "+")
    # the swap on F_2^2 preserves the plus-type squaring form xy
    swap = FpMatrix.from_rows([[0, 1], [1, 0]], 2)
    pair = quadratic_correction(swap, model)
    print(f"swap on F_2^2: correction q has coeffs {pair.q.coeffs}")
    # holomorph_perm extends the generator images to the whole group and
    # raises NotAutomorphism unless the extension obeys the law
    print(f"images of the generators (e_i, 0): {pair.images()}")
    hol = holomorph_perm(model_handle(model, "2^(1+2)+"), [pair.images()])
    print(f"the corrected swap is an automorphism: holomorph of order "
          f"{hol.order()}")
    # a transvection sends xy to xy + x: no correction exists
    t = FpMatrix.from_rows([[1, 1], [0, 1]], 2)
    try:
        quadratic_correction(t, model)
    except NotOrthogonal as e:
        print(f"transvection: {e}")


def main():
    small_demo()
    if "--small" in sys.argv:
        return
    print("\nrunning the full degree-128 pipeline (a few seconds)...")
    handle, report = d8_group()
    print(f"order {handle.order()} = 2^11 * 3^4")
    print(f"derived orders {report.orders}")
    print(f"d = {report.d}, c = {report.c}, n = {report.n}")


if __name__ == "__main__":
    main()
