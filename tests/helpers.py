"""Shared corpus builders and fingerprints for the test-suite."""

import hashlib

import numpy as np

from solvlen import atlas, grp, perm
from solvlen.errors import Singular
from solvlen.fpmat import mat_invert


def corpus_perm_groups():
    """Permutation groups of order <= 10^5 with independently known orders.

    Used for the BFS-vs-BSGS oracle and the lemma sweep; each entry is
    (label, handle, expected order).
    """
    c2, c3 = atlas.cyclic(2), atlas.cyclic(3)
    s3, s4 = atlas.sym(3), atlas.sym(4)
    groups = [
        ("cyclic(2)", atlas.cyclic(2), 2),
        ("cyclic(3)", atlas.cyclic(3), 3),
        ("cyclic(6)", atlas.cyclic(6), 6),
        ("cyclic(12)", atlas.cyclic(12), 12),
        ("sym(3)", atlas.sym(3), 6),
        ("sym(4)", atlas.sym(4), 24),
        ("sym(5)", atlas.sym(5), 120),
        ("sym(6)", atlas.sym(6), 720),
        ("sym(7)", atlas.sym(7), 5040),
        ("metacyclic(2,3)", atlas.metacyclic(2, 3), 6),
        ("metacyclic(2,5)", atlas.metacyclic(2, 5), 10),
        ("metacyclic(2,7)", atlas.metacyclic(2, 7), 14),
        ("metacyclic(3,7)", atlas.metacyclic(3, 7), 21),
        ("metacyclic(3,13)", atlas.metacyclic(3, 13), 39),
        ("metacyclic(5,11)", atlas.metacyclic(5, 11), 55),
        ("wr(c2,c3)", atlas.wreath(c2, c3), 24),
        ("wr(c3,c3)", atlas.wreath(c3, c3), 81),
        ("wr(s3,c2)", atlas.wreath(s3, c2), 72),
        ("wr(c2,s4)", atlas.wreath(c2, s4), 2 ** 4 * 24),
        ("wr(s4,c2)", atlas.wreath(s4, c2), 24 ** 2 * 2),
        ("direct(s4,c5)", atlas.direct(s4, atlas.cyclic(5)), 120),
        ("regular(metacyclic(2,3))", atlas.regular(atlas.metacyclic(2, 3)), 6),
        ("natsd(s3mat(5),2)", atlas.natural_semidirect(atlas.s3mat(5), 2), 150),
        ("gsp(gl(2,3),3,1)", atlas.gsp_extension(atlas.gl(2, 3), 3, 1), 1296),
    ]
    return groups


# matrix and model handles, each with its permutation image: (label, builder)
IMAGE_SPECS = [("gl(2,3)", lambda: atlas.gl(2, 3)),
               ("ut(3,3)", lambda: atlas.upper_triangular(3, 3)),
               ("bo()", atlas.binary_octahedral),
               ("extsq(3)", lambda: atlas.exterior_square_group(3)),
               ("extraspecial(3,1)", lambda: atlas.extraspecial(3, 1)),
               ("extraspecial(2,2,minus)",
                lambda: atlas.extraspecial(2, 2, "-"))]


def chain_fingerprint(b):
    """sha256 over base, BFS order, Schreier vectors and strong generators
    of every level of a chain."""
    h = hashlib.sha256(b"%d:%d" % (b.degree, len(b.levels)))
    for lv in b.levels:
        h.update(b"%d:%d:%d" % (lv.base, len(lv.order_list), len(lv.gens)))
        h.update(np.asarray(lv.order_list, dtype=np.int64).tobytes())
        h.update(bytes(lv.parent))
        h.update(bytes(lv.label))
        for g in lv.gens:
            h.update(np.asarray(g, dtype=np.int32).tobytes())
    return h.hexdigest()[:16]


def element_order_by_products(handle, x):
    """Order of x by repeated multiplication in the handle's own type."""
    y, n = x, 1
    while y != handle.identity:
        y, n = handle.mul(y, x), n + 1
    return n


def minimal_normal_subgroups_by_elements(handle):
    """The former per-element search for minimal normal subgroups: over
    elements() in order, the normal closure of each prime-order element
    whose conjugacy class of cyclic subgroups is new, with tuple, matrix
    or model products throughout."""
    processed, family = set(), []
    for x in handle.elements():
        if x == handle.identity or x in processed:
            continue
        n = element_order_by_products(handle, x)
        if n < 2 or grp.factorize(n) != [(n, 1)]:
            processed.add(x)
            continue
        orbit, oset = [x], {x}
        for y in orbit:
            for g in handle.generators:
                z = handle.conj(y, g)
                if z not in oset:
                    oset.add(z)
                    orbit.append(z)
        for y in orbit:
            w = y
            for _ in range(n - 1):
                processed.add(w)
                w = handle.mul(w, y)
        closure = grp.normal_closure(handle, [x])
        if not any(f.order == closure.order and f.contains_subgroup(closure)
                   for f in family):
            family.append(closure)
    minimal = [c for c in family
               if not any(o.order < c.order and c.contains_subgroup(o)
                          for o in family)]
    return sorted(minimal, key=lambda s: s.order)


def is_cyclic(handle):
    """Whether some element's order is the group's, on the image rows."""
    orders = perm.perm_order_of(handle.rows())
    return bool((orders == handle.order()).any())


def as_handle(sub, name=""):
    """A subgroup as a handle of its own, on the subgroup's chain."""
    h = grp.GroupHandle(sub.parent.identity, list(sub.generators),
                        sub.parent.mul, sub.parent.inv,
                        name=name or f"subgroup of {sub.parent.name}",
                        kind=sub.parent.kind, degree=sub.parent.degree,
                        cap=sub.parent.cap, action=sub.parent.action)
    if sub._bsgs is not None:
        h._bsgs = sub._bsgs
    return h


def mat_det(a):
    """Determinant mod p: mat_invert's, or 0 for a singular matrix."""
    try:
        return mat_invert(a)[1]
    except Singular:
        return 0
