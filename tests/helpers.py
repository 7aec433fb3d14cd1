"""Shared corpus builders and fingerprints for the test-suite."""

import hashlib
import itertools
import math
from functools import partial

import numpy as np

from solvlen import atlas, grp, perm
from solvlen.atlas import (Extraspecial2Model, ExtraspecialOddModel,
                           ExtSqModel, matrix_handle, model_handle)
from solvlen.errors import (BadParameter, CapExceeded, SearchExhausted,
                            SearchFailed, Singular)
from solvlen.fpmat import (FpMatrix, QuadraticFormF2, all_f2_vectors,
                           row_space, wedge_vec)
from solvlen.grp import _translations, _walk
from solvlen.lift import AutPair, _image_index, quadratic_correction
from solvlen import perm as permmod  # as the pair oracle's body reads it


# ---------------------------------------------------------------------------
# element laws: the handles carry none, so these are the oracles for every
# product the engine takes on image rows, index tables or chains


def tuple_mul(a, b):
    """Product of image tuples: apply a, then b."""
    return tuple(b[x] for x in a)


def tuple_inv(a):
    """Inverse of an image tuple."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def mat_mul(self, other):
    """Product of two FpMatrix values, entry by entry (FpMatrix's former
    __mul__, its body unchanged)."""
    if not isinstance(other, FpMatrix):
        return NotImplemented
    if other.p != self.p or other.n != self.n:
        raise BadParameter("incompatible matrices")
    p, n = self.p, self.n
    a, b = self.entries, other.entries
    cols = tuple(zip(*b))
    return FpMatrix(p, tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
        for row in a))


def mat_transpose(self):
    """The transpose of an FpMatrix (FpMatrix's former method)."""
    return FpMatrix(self.p, tuple(zip(*self.entries)))


def form_value(self, v):
    """q(v) for a QuadraticFormF2, pointwise over the coefficient table:
    the oracle for its vectorised values() (its former __call__, the body
    unchanged)."""
    s = 0
    for i in range(self.dim):
        if v[i]:
            row = self.coeffs[i]
            s ^= sum(row[j] & v[j] for j in range(i, self.dim)) & 1
    return s


def mat_invert(a: FpMatrix):
    """The inverse, read off the reduced echelon form of [A | I].

    Raises Singular when det = 0, i.e. when the last pivot falls in the
    I half and so leaves entry (n - 1, n - 1) zero.
    """
    p, n = a.p, a.n
    rows = row_space(np.hstack([a.entries, np.eye(n, dtype=np.int64)]), p)
    if not rows[n - 1, n - 1]:
        raise Singular(f"matrix is singular over F_{p}")
    return FpMatrix(p, tuple(map(tuple, rows[:, n:].tolist())))


def odd_pair(model, v1, v2):
    """The standard symplectic form of ExtraspecialOddModel."""
    n = model.n
    return sum(v1[i] * v2[n + i] - v1[n + i] * v2[i]
               for i in range(n)) % model.p


def odd_mul(model, a, b):
    """ExtraspecialOddModel's product: z twisted by h <v1, v2>."""
    p, n = model.p, model.n
    v = tuple((a[i] + b[i]) % p for i in range(2 * n))
    z = (a[-1] + b[-1] + model.half * odd_pair(model, a[:-1], b[:-1])) % p
    return v + (z,)


def negate(model, a):
    """The inverse in ExtraspecialOddModel and ExtSqModel."""
    p = model.p
    return tuple(-x % p for x in a)


def bform(model, v1, v2):
    """Extraspecial2Model's cocycle B(v1, v2) = v1 C v2^T."""
    s = 0
    for i, row in enumerate(model.cocycle):
        if v1[i]:
            s ^= sum(row[j] & v2[j] for j in range(len(row))) & 1
    return s


def squaring(model, v):
    """Extraspecial2Model's squaring form B(v, v)."""
    return bform(model, v, v)


def ext2_mul(model, a, b):
    """Extraspecial2Model's product: z twisted by B(v1, v2)."""
    dim = 2 * model.n
    v = tuple(a[i] ^ b[i] for i in range(dim))
    z = a[-1] ^ b[-1] ^ bform(model, a[:-1], b[:-1])
    return v + (z,)


def ext2_inv(model, a):
    # (v,z)^-1 = (v, z + B(v,v))
    return a[:-1] + (a[-1] ^ squaring(model, a[:-1]),)


def extsq_mul(model, a, b):
    """ExtSqModel's product: the Lambda^2 part twisted by v1 ^ v2."""
    p = model.p
    v1, w1, v2, w2 = a[:3], a[3:], b[:3], b[3:]
    wedge = wedge_vec(v1, v2, p)
    return (tuple((x + y) % p for x, y in zip(v1, v2))
            + tuple((x + y + t) % p for x, y, t in zip(w1, w2, wedge)))


MODEL_LAWS = {ExtraspecialOddModel: (odd_mul, negate),
              Extraspecial2Model: (ext2_mul, ext2_inv),
              ExtSqModel: (extsq_mul, negate)}


def law(handle):
    """(mul, inv) on a handle's own elements: image tuples, FpMatrix, or
    the coordinates of the model whose matrix map the handle's action
    holds."""
    if handle.kind == "perm":
        return tuple_mul, tuple_inv
    if handle.kind == "matrix":
        return mat_mul, mat_invert
    model = handle.action.to_matrix.__self__
    return tuple(partial(f, model) for f in MODEL_LAWS[type(model)])


def mul(handle, a, b):
    return law(handle)[0](a, b)


def inv(handle, a):
    return law(handle)[1](a)


def conj(handle, x, g):
    """g^-1 x g."""
    return mul(handle, mul(handle, inv(handle, g), x), g)


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

# matrix and model handles, each with its permutation image: (label, builder)
IMAGE_SPECS = [("gl(2,3)", lambda: atlas.gl(2, 3)),
               ("ut(3,3)", lambda: atlas.upper_triangular(3, 3)),
               ("bo()", atlas.binary_octahedral),
               ("extsq(3)", lambda: atlas.exterior_square_group(3)),
               ("extraspecial(3,1)", lambda: atlas.extraspecial(3, 1)),
               ("extraspecial(2,2,minus)",
                lambda: atlas.extraspecial(2, 2, "-"))]


def chain_corpus():
    """(label, handle) for the permutation corpus and the image specs."""
    return [(label, h) for label, h, _ in corpus_perm_groups()] + \
        [(label, build()) for label, build in IMAGE_SPECS]


def random_gl33(seed, count):
    """The subgroup of GL(3,3) generated by `count` invertible matrices,
    drawn with a fixed seed."""
    rng, gens = np.random.default_rng(seed), []
    while len(gens) < count:
        a = FpMatrix.from_rows(rng.integers(0, 3, (3, 3)).tolist(), 3)
        if round(np.linalg.det(np.array(a.entries))) % 3:
            gens.append(a)
    return atlas.matrix_handle(gens, f"rand({seed},{count})")


# subgroups K of GL(3,3), the K of P |x K in the split-series oracles
SPLIT_ORACLE = {
    # permutation matrices of S3 move only the augmentation subspace of V
    "s3perm": lambda: atlas.matrix_handle(
        [FpMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3),
         FpMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 3)], "s3perm"),
    "ut(3,3)": lambda: atlas.upper_triangular(3, 3),
    "sl(3,3)": lambda: atlas.sl(3, 3),  # not solvable: P |x K is perfect
    "diag(2,1,1)": lambda: atlas.matrix_handle(
        [FpMatrix.diagonal([2, 1, 1], 3)], "diag(2,1,1)"),
    # most seeded pairs generate SL(3,3) or GL(3,3); these seeds give
    # proper subgroups of orders 6, 54 and 24, of derived length 1, 2, 3
    "rand(2,1)": lambda: random_gl33(2, 1),
    "rand(48,2)": lambda: random_gl33(48, 2),
    "rand(57,2)": lambda: random_gl33(57, 2),
}


def k_series_by_enumeration(k_handle):
    """K's derived orders and one (m, 3, 3) stack of generators of each
    term, from K's own enumeration: the oracle for the K series that
    atlas.semidirect_series_orders takes (its former reading of K, the
    body unchanged)."""
    k_orders, k_gens = grp.derived_orders(k_handle.columns())
    rows = k_handle.rows()
    return k_orders, [k_handle.action.matrices(rows[np.array(g, int)])
                      for g in k_gens]


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


# the former grp._closure, its body unchanged: one fancy-index step per
# slice and a Python loop over the images, the oracle for the rows, the
# columns and the cap of the closure that numbers them in C


def closure_oracle(read, identity, gens, cap):
    k, n = gens.shape
    room = perm.MEMORY_BUDGET // max(n, 1)
    index = {identity.tobytes(): 0}
    keys = list(index)
    which = np.arange(k)[None, :, None]
    cols, done = [], 0
    while done < len(keys):
        step = max(1, (room - len(keys)) // max(2 * k, 1))
        part = np.frombuffer(b"".join(keys[done:done + step]),
                             identity.dtype).reshape(-1, n)
        done += len(part)
        images = grp._keys(gens[which, part[:, None, :]])
        for key in images:
            i = index.setdefault(key, len(keys))
            if i == len(keys):
                if i == cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                keys.append(key)
            cols.append(i)
        del part, images  # free this slice before the next is built
    rows = np.frombuffer(b"".join(keys), identity.dtype).reshape(-1, n)
    del index, keys  # read() sees one copy of the rows
    return read(rows), np.array(cols, np.int32).reshape(len(rows), k).T.copy()


# the former first-edge tree of grp._translations and pair loop of
# lift.two_generator_reduction, their bodies unchanged: a sort over every
# edge (np.unique) and one Python step per ranked i1, the oracles for the
# scatter-min tree and the signature search (lift._first_free)


def translations_oracle(cols, images=None):
    """(parent, gen, column) of a breadth-first enumeration with right-
    translation columns cols (k x order): for i > 0, parent[i] * gen[i] = i
    is i's first edge in (element, generator) order, from the layer before
    i, and column(i)[x], the index of x * i, one gather per edge, cached;
    or i's image, for images the index maps of the generators' images."""
    first = np.unique(cols.T.ravel(), return_index=True)[1]
    parent, gen = first // len(cols), first % len(cols)
    images = cols if images is None else images
    known = {0: np.arange(len(images.T))}

    def column(i):  # from the nearest cached ancestor down, no recursion
        path = [int(i)]
        while path[-1] not in known:
            path.append(int(parent[path[-1]]))
        for j in reversed(path[:-1]):
            known[j] = images[gen[j]][known[parent[j]]]
        return known[path[0]]
    return parent, gen, column


def pair_search_oracle(handle, order):
    """The first generating pair and its winning walk, as
    lift.two_generator_reduction returns them, on grp's _translations
    and _walk."""
    rows = handle.rows()
    if len(rows) != order:
        raise SearchFailed(f"group has order {len(rows)}, wanted {order}")
    ranked = np.argsort(-permmod.element_orders(rows, handle.base()),
                        kind="stable")
    column = _translations(handle.columns())[2]
    subs = np.zeros((0, order), bool)
    for i1 in ranked.tolist():
        free = ~subs[subs[:, i1]].any(axis=0)
        while len(left := ranked[free[ranked]]):
            pair, sub = [column(i1), column(left[0])], np.arange(order) == 0
            found = _walk(pair, sub)
            if sub.all():
                gens = handle.from_perms(rows[[i1, left[0]]])
                pos = np.argsort(found).astype(np.int32)  # -> walk index
                return gens, pos[np.array(pair)[:, found]]
            free &= ~sub
            subs = np.vstack([subs, sub])
    raise SearchFailed("no 2-element generating set found")


# the former one-permutation helpers of perm, their bodies unchanged: the
# oracles for the stack gathers (perm.commutators, perm.powers,
# BSGS.contains) that replace them


def perm_mul(a, b):
    """Apply a, then b."""
    return b[a]


def perm_inv(a):
    inv = np.empty_like(a)
    inv[a] = np.arange(len(a), dtype=np.int32)
    return inv


def perm_power(a, k):
    """a to the k-th power (k >= 0), by repeated squaring."""
    out = np.arange(len(a), dtype=np.int32)
    while k:
        if k & 1:
            out = a[out]
        a, k = a[a], k >> 1
    return out


def is_identity(a):
    # bytes against the identity of a's own dtype: cheaper than array_equal
    return a.tobytes() == np.arange(len(a), dtype=a.dtype).tobytes()


def sift(b, g):
    """Strip g through the chain b: (residual, level) as in strip (the
    former BSGS.sift)."""
    return b.strip(g[None])[1:3]


def sift_insert_oracle(b, h):
    """The former perm._sift_insert, its body unchanged but for reading
    three of strip's values: the rows after an insertion are stripped
    again from level 0 on the grown chain."""
    while len(h):
        k, res, lev = b.strip(h)[:3]
        if k == len(h):
            return
        b._insert_generator(res, lev)
        h = h[k + 1:]


def cycle_walk_order(g):
    """Scalar oracle: walk each cycle once, lcm of the lengths."""
    seen, out = set(), 1
    for i in range(len(g)):
        length, j = 0, i
        while j not in seen:
            seen.add(j)
            j, length = g[j], length + 1
        out = math.lcm(out, max(length, 1))
    return out


# the former perm.perm_order_of, the oracle for perm.element_orders:
# the order of a permutation from all of its cycles, by pointer doubling


def perm_order_of(g):
    """Order of a permutation (an int), or of each row of a 2-D stack of
    them (an array): the lcm of its cycle lengths.  Rows go in chunks of
    at most MAX_DEGREE points, each one flat permutation (_chunk_orders).
    """
    g = np.asarray(g)
    rows = g if g.ndim == 2 else g[None]
    step = max(1, perm.MAX_DEGREE // max(rows.shape[1], 1))
    orders = np.concatenate([np.ones(0, np.int64)] + [
        _chunk_orders(rows[i:i + step]) for i in range(0, len(rows), step)])
    return orders if g.ndim == 2 else int(orders[0])


def _chunk_orders(rows):
    """Pointer doubling labels each point with the least point of its
    cycle, in log2(degree) rounds of two 1-D gathers; a cycle's length is
    the count of its label, and a row's order the lcm of its distinct
    cycle lengths, in Python integers if their product may pass int64."""
    r, n = rows.shape
    if n == 0:
        return np.ones(r, np.int64)
    jump = (rows + np.arange(0, r * n, n)[:, None]).ravel()
    low, reach = np.arange(r * n), 1
    while reach < n:  # low[x] = least of x, ..., x g^(2 reach - 1)
        low, jump, reach = np.minimum(low, low[jump]), jump[jump], 2 * reach
    count = np.bincount(low)
    least = np.flatnonzero(count)  # one point per cycle, grouped by row
    key = np.unique(least // n * (n + 1) + count[least],
                    return_index=True)[0]  # no numpy.ma import
    lens = key % (n + 1)
    starts = np.flatnonzero(np.diff(key // (n + 1), prepend=-1))
    if np.add.reduceat(np.log2(lens), starts).max() >= 63:
        lens = lens.astype(object)
    return np.lcm.reduceat(lens, starts)


def element_order_by_products(handle, x):
    """Order of x by repeated multiplication in the handle's own type."""
    y, n = x, 1
    while y != handle.identity:
        y, n = mul(handle, y, x), n + 1
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
                z = conj(handle, y, g)
                if z not in oset:
                    oset.add(z)
                    orbit.append(z)
        for y in orbit:
            w = y
            for _ in range(n - 1):
                processed.add(w)
                w = mul(handle, w, y)
        closure = grp.normal_closure(handle, [x])
        if not any(f.order == closure.order and f.contains_subgroup(closure)
                   for f in family):
            family.append(closure)
    minimal = [c for c in family
               if not any(o.order < c.order and c.contains_subgroup(o)
                          for o in family)]
    return sorted(minimal, key=lambda s: s.order)


def chain_subgroup(handle, gens):
    """The subgroup generated by elements of a handle, on its own chain."""
    b = perm.schreier_sims([handle.to_perm(x)
                            for x in [handle.identity, *gens]])
    return grp.SubgroupHandle(handle, b.order(), b)


def contains(sub, x):
    """Whether an element of sub's parent handle sifts in sub's chain."""
    g = sub.parent.to_perm(x)
    return g is not None and sub._bsgs.contains([g])


def is_normal_by_elements(handle, sub):
    """Whether each conjugate of a generator of sub by a generator of the
    handle lies in sub's element set, by the handle's element law."""
    members = sub.element_set()
    return all(conj(handle, s, g) in members
               for s in sub.generators for g in handle.generators)


def is_cyclic(handle):
    """Whether some element's order is the group's, on the image rows."""
    orders = perm_order_of(handle.rows())
    return bool((orders == handle.order()).any())


def as_handle(sub, name=""):
    """A subgroup as a handle of its own, on the subgroup's chain."""
    return grp.GroupHandle(sub.parent.identity, sub.generators,
                           name=name or f"subgroup of {sub.parent.name}",
                           kind=sub.parent.kind,
                           action=sub.parent.action,
                           _bsgs=sub._bsgs)


def mat_det(a):
    """Determinant mod p by the Leibniz formula, the independent oracle."""
    n, p = a.n, a.p
    total = 0
    for sigma in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= a.entries[i][sigma[i]]
        total += term
    return total % p


def mat_apply(a, v):
    """Row vector v times the matrix a, entry by entry: the oracle for the
    row arithmetic of the F_p code."""
    p = a.p
    cols = tuple(zip(*a.entries))
    return tuple(sum(x * y for x, y in zip(v, col)) % p for col in cols)


def pair_map(pair):
    """The map (v, z) -> (vA, z + q(v)) of an AutPair, element by element:
    a lookup in a table built from the indices of the vA and the values
    q(v)."""
    vecs = all_f2_vectors(pair.q.dim)
    return {v + (z,): vecs[w] + (z ^ b,) for v, w, b in zip(
        vecs, _image_index(pair.a).tolist(), pair.q.values().tolist())
        for z in (0, 1)}.__getitem__


def lift_cols(mats):
    """Right-translation columns of <mats> by mats, from one enumeration:
    a spanning tree for lift.lift_generators."""
    lin = matrix_handle(list(mats), "lift target")
    return lin.closure([lin.to_perm(a) for a in mats])[1]


def wedge_square(a):
    """Action of a on the exterior square of F_p^3, relative to the basis
    e2^e3, e3^e1, e1^e2: its rows are (e_i ^ e_j)A = (e_i A) ^ (e_j A)."""
    if a.n != 3:
        raise BadParameter("wedge_square is defined for 3x3 matrices")
    r = a.entries
    return FpMatrix(a.p, tuple(wedge_vec(r[i], r[j], a.p)
                               for i, j in ((1, 2), (2, 0), (0, 1))))


def wedge_automorphism(a):
    """diag(A, wedge^2(A)), the automorphism (v, w) -> (vA, w wedge^2(A))
    of the exterior-square group: (vA1) ^ (vA2) = (v1 ^ v2) wedge^2(A)."""
    z = (0,) * 3
    return FpMatrix(a.p, tuple(r + z for r in a.entries)
                    + tuple(z + r for r in wedge_square(a).entries))


def echelon(vectors, p):
    """Reduced row echelon form of the span of vectors over F_p, as
    {pivot column: row}: each row is 1 at its pivot and 0 at every other
    pivot column.  A Python-list oracle for fpmat.row_space."""
    rows = {}
    for v in vectors:
        v = [x % p for x in v]
        for col, row in rows.items():
            if v[col]:
                f = v[col]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], p - 2, p)
        v = [x * inv % p for x in v]
        for col, row in rows.items():
            if row[lead]:
                f = row[lead]
                rows[col] = [(x - f * y) % p for x, y in zip(row, v)]
        rows[lead] = v
    return rows


def algebra_dimension(gens):
    """Dimension of the F_p-span of all products of the matrices gens,
    the identity included: the span is spun up from the identity by right
    multiplication with each generator until it stops growing.  By
    Burnside's theorem it is n^2 exactly when gens act absolutely
    irreducibly on F_p^n."""
    p, n = gens[0].p, gens[0].n
    ident = FpMatrix.identity(n, p)
    basis, frontier = echelon([sum(ident.entries, ())], p), [ident]
    while frontier:
        m = frontier.pop()
        for g in gens:
            w = mat_mul(m, g)
            grown = echelon([*basis.values(), sum(w.entries, ())], p)
            if len(grown) > len(basis):
                basis = grown
                frontier.append(w)
    return len(basis)


def f2_nullspace(rows, ncols):
    """Basis of the right nullspace of the F_2 matrix given by rows.

    Maintains reduced row echelon form so each pivot row is supported on
    its pivot column and free columns only; nullspace vectors then read
    off directly.
    """
    pivots = {}  # pivot column -> row
    for row in rows:
        row = list(row)
        for col, prow in pivots.items():
            if row[col]:
                row = [a ^ b for a, b in zip(row, prow)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            for col, prow in list(pivots.items()):
                if prow[lead]:
                    pivots[col] = [a ^ b for a, b in zip(prow, row)]
            pivots[lead] = row
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for col, prow in pivots.items():
            vec[col] = prow[f]
        basis.append(vec)
    return basis


def offset_perms(pair, elems, index):
    """Index permutations of the model elements under pair offset by every
    linear functional: row lam sends element i to the index of its image
    under (v, z) -> (vA, z + q(v) + lam . v).

    The offset only adds lam . v to z, so row lam is the image under pair
    itself with z flipped where lam . v is odd; pair is applied once per
    element.
    """
    apply = pair_map(pair)
    img = np.array([index[apply(e)] for e in elems], dtype=np.int32)
    zflip = np.array([index[e[:-1] + (e[-1] ^ 1,)] for e in elems],
                     dtype=np.int32)
    dim = pair.q.dim
    lam = np.arange(2 ** dim)[:, None] >> np.arange(dim) & 1
    odd = lam @ np.array([e[:-1] for e in elems]).T & 1
    return np.where(odd == 1, zflip[img], img)


def lift_by_closure(mats, model: Extraspecial2Model):
    """The oracle for lift.lift_generators, by one capped closure per
    offset choice: lift a 1- or 2-element matrix generating set to
    AutPairs generating a split copy of the linear group inside
    Aut(2^{1+2n}).

    Offsets by linear functionals keep each pair an automorphism.  The
    lifts of one offset per matrix generate a group that maps onto
    <mats> with a kernel of offsets alone, so they split exactly when
    their enumeration, capped at |<mats>| elements, closes at that many
    (CapExceeded otherwise).  A split maps each lift isomorphically, so
    per matrix only the offsets whose lift has the matrix's order are
    kept; their combinations are scanned in ascending order and the first
    that closes is returned.
    """
    if not 1 <= len(mats) <= 2:
        raise BadParameter(f"need one or two matrices, got {len(mats)}")
    lin = matrix_handle(list(mats), "lift target")
    want = len(lin.rows())
    base = [quadratic_correction(a, model) for a in mats]
    elems = model_handle(model, "lift base").elements()
    index = {e: i for i, e in enumerate(elems)}
    kept = []
    for b in base:
        rows = offset_perms(b, elems, index)
        lams = np.flatnonzero(perm_order_of(rows)
                              == perm_order_of(lin.to_perm(b.a)))
        kept.append([(lam, rows[lam]) for lam in lams.tolist()])
    for choice in itertools.product(*kept):
        gens = np.array([row for _, row in choice])
        try:
            closed = len(grp._closure(lambda r: r, np.arange(
                len(elems), dtype=gens.dtype), gens, want)[0]) == want
        except CapExceeded:  # a kernel of offsets: not split
            continue
        if closed:  # lam . v = sum of lam_i v_i^2: flip q's diagonal
            return [AutPair(b.a, QuadraticFormF2.from_upper(
                [[c ^ (i == j and lam >> i & 1) for j, c in enumerate(row)]
                 for i, row in enumerate(b.q.coeffs)]))
                for b, (lam, _) in zip(base, choice)]
    raise SearchExhausted(f"no offsets give a split lift of order {want}")
