"""Named constructions of the witness groups.

Every builder returns a GroupHandle whose elements are plain hashable
values: image tuples for permutation groups, FpMatrix for matrix groups,
and coordinate tuples for the extraspecial / exterior-square models.
Matrix and model handles carry a BasisOrbitAction, their faithful
permutation image.  Construction-time checks verify the cheap invariants (orders, centers);
the expensive series invariants live in the test-suite.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from . import perm as permmod
from .errors import (BadCongruence, BadParameter, CapExceeded, KindMismatch,
                     NotAutomorphism, ScalarSearchFailed, SearchFailed)
from .fpmat import (FpMatrix, SymplecticForm, check_prime, mat_invert,
                    similitude_factor, spin_all_lines, wedge_square, wedge_vec)
from .grp import (GroupHandle, _row_index, center, factorize, tuple_inv,
                  tuple_mul)


# ---------------------------------------------------------------------------
# handle constructors


def perm_handle(gens, degree, name=""):
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens if tuple(g) != ident]
    return GroupHandle(ident, gens, tuple_mul, tuple_inv,
                       name=name, kind="perm", degree=degree)


class BasisOrbitAction:
    """Faithful permutation action of a matrix group on the union of the
    orbits of the standard basis vectors, v -> vA (FpMatrix.apply).

    A matrix is determined by its images of a basis, so the action is
    faithful; the first n points are e_0..e_{n-1}, and a permutation reads
    back as the matrix whose row i is the image of e_i.  A model acts
    through a faithful matrix representation, to_matrix, and its inverse
    from_matrix.  The points are found on first use, breadth-first from
    the basis, and growth stops with CapExceeded once it passes
    perm.MAX_DEGREE.
    """

    def __init__(self, identity, gens, to_matrix=None, from_matrix=None):
        self.to_matrix = to_matrix or (lambda x: x)
        self.from_matrix = from_matrix or (lambda m: m)
        one = self.to_matrix(identity)
        self.p, self.n = one.p, one.n
        self._gens = gens  # the points are grown from these on first use

    def _matrix(self, x):
        return np.array(self.to_matrix(x).entries, dtype=np.int64)

    @cached_property
    def _points(self):
        """(points, their keys sorted, the point index of each sorted key);
        a point's key is its base-p number."""
        p, mats = self.p, [self._matrix(g) for g in self._gens]
        if p ** self.n >= 2 ** 62:
            raise CapExceeded(f"F_{p}^{self.n} is too large to index")
        self.weights = p ** np.arange(self.n, dtype=np.int64)
        layer = np.eye(self.n, dtype=np.int64)
        layers, keys = [layer], layer @ self.weights
        while len(layer) and mats:
            imgs = np.stack([layer @ a % p for a in mats], axis=1)
            imgs = imgs.reshape(-1, self.n)
            k = imgs @ self.weights
            fresh = np.flatnonzero(~np.isin(k, keys))
            _, first = np.unique(k[fresh], return_index=True)
            layer = imgs[fresh[np.sort(first)]]
            layers.append(layer)
            keys = np.concatenate([keys, layer @ self.weights])
            if len(keys) > permmod.MAX_DEGREE:
                raise CapExceeded(
                    f"basis orbits pass {permmod.MAX_DEGREE} points")
        order = np.argsort(keys)
        return np.concatenate(layers), keys[order], order.astype(np.int32)

    def perm(self, x):
        """Image array of x, or None when x moves a point off the orbits
        (x is then outside the group)."""
        points, keys, order = self._points
        k = points @ self._matrix(x) % self.p @ self.weights
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return order[pos] if np.array_equal(keys[pos], k) else None

    def elements(self, rows):
        """The elements whose image rows are the rows of a 2-D array: the
        matrix of a row has the points it sends e_0..e_{n-1} to as rows."""
        mats = self._points[0][rows[:, :self.n]].tolist()
        return [self.from_matrix(FpMatrix(self.p, tuple(map(tuple, m))))
                for m in mats]


def matrix_handle(gens, name=""):
    if not gens:
        raise BadParameter("matrix handle needs at least one generator")
    p, n = gens[0].p, gens[0].n
    for g in gens:
        if g.p != p or g.n != n:
            raise BadParameter("mixed matrix dimensions")
        mat_invert(g)
    ident = FpMatrix.identity(n, p)
    gens = [g for g in gens if g != ident]

    def inv(a):
        return mat_invert(a)[0]

    return GroupHandle(ident, gens, lambda a, b: a * b, inv, name=name,
                       kind="matrix", action=BasisOrbitAction(ident, gens))


# ---------------------------------------------------------------------------
# extraspecial and exterior-square models


def _unit_vectors(count, length):
    return [tuple(int(i == j) for j in range(length)) for i in range(count)]


class ExtraspecialOddModel:
    """p^{1+2n} of exponent p, p odd.

    Elements are tuples (v_0..v_{2n-1}, z); the product twists z by
    h * <v1, v2> with h = (p+1)/2 and <,> the standard symplectic form.
    The half element makes (v, z) -> (vA, lam*z) an automorphism exactly
    when A is a lam-similitude.
    """

    def __init__(self, p, n):
        check_prime(p)
        if p == 2:
            raise BadParameter("odd model needs p odd")
        self.p = p
        self.n = n
        self.half = (p + 1) // 2
        self.identity = (0,) * (2 * n + 1)

    def pair(self, v1, v2):
        n = self.n
        return sum(v1[i] * v2[n + i] - v1[n + i] * v2[i]
                   for i in range(n)) % self.p

    def mul(self, a, b):
        p, n = self.p, self.n
        v = tuple((a[i] + b[i]) % p for i in range(2 * n))
        z = (a[-1] + b[-1] + self.half * self.pair(a[:-1], b[:-1])) % p
        return v + (z,)

    def inv(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def generators(self):
        return _unit_vectors(2 * self.n, 2 * self.n + 1)

    def matrix(self, a):
        """[[1, x, c], [0, I, y^T], [0, 0, 1]] for v = (x, y): the Heisenberg
        coordinate c = z + h x.y multiplies as c1 + c2 + x1.y2, as 2h = 1
        mod p.  Its basis orbits have p^{n+1} + np + 1 points."""
        p, n = self.p, self.n
        x, y = a[:n], a[n:2 * n]
        c = (a[-1] + self.half * sum(s * t for s, t in zip(x, y))) % p
        rows = [(1,) + x + (c,)]
        rows += [(0,) + u + (y[i],)
                 for i, u in enumerate(_unit_vectors(n, n))]
        rows.append((0,) * (n + 1) + (1,))
        return FpMatrix.from_rows(rows, p)

    def from_matrix(self, m):
        p, n, rows = self.p, self.n, m.entries
        x = rows[0][1:n + 1]
        y = tuple(rows[i][n + 1] for i in range(1, n + 1))
        z = rows[0][n + 1] - self.half * sum(s * t for s, t in zip(x, y))
        return x + y + (z % p,)


class Extraspecial2Model:
    """2^{1+2n} of type eps via an upper-triangular cocycle over F_2.

    The cocycle is B(v, w) = v C w^T with C upper triangular; its
    symmetrization is the standard alternating form, and the squaring map
    v -> B(v, v) is a quadratic form whose Arf invariant selects the type
    (eps = '-' iff Arf 1).
    """

    def __init__(self, n, eps, cocycle=None):
        if eps not in ("+", "-"):
            raise BadParameter("eps must be '+' or '-'")
        self.n = n
        self.eps = eps
        dim = 2 * n
        if cocycle is None:
            c = [[0] * dim for _ in range(dim)]
            for i in range(n):
                c[i][n + i] = 1
            if eps == "-":
                c[0][0] = 1
                c[n][n] = 1
            cocycle = tuple(tuple(row) for row in c)
        self.cocycle = cocycle
        self.identity = (0,) * (dim + 1)

    def bform(self, v1, v2):
        s = 0
        for i, row in enumerate(self.cocycle):
            if v1[i]:
                s ^= sum(row[j] & v2[j] for j in range(len(row))) & 1
        return s

    def squaring(self, v):
        return self.bform(v, v)

    def mul(self, a, b):
        dim = 2 * self.n
        v = tuple(a[i] ^ b[i] for i in range(dim))
        z = a[-1] ^ b[-1] ^ self.bform(a[:-1], b[:-1])
        return v + (z,)

    def inv(self, a):
        # (v,z)^-1 = (v, z + B(v,v))
        return a[:-1] + (a[-1] ^ self.squaring(a[:-1]),)

    def generators(self):
        return _unit_vectors(2 * self.n, 2 * self.n + 1)

    def matrix(self, a):
        """[[1, 0, 0], [v^T, I, 0], [z, vC, 1]], the corner multiplying as
        z1 + z2 + v1 C v2^T.  Its basis orbits have 1 + 4n + 2^{1+rank C}
        points; in [[1, v, z], [0, I, C v^T], [0, 0, 1]] e_0 alone has
        2^{2n+1}."""
        v, dim = a[:-1], 2 * self.n
        vc = tuple(sum(v[i] & self.cocycle[i][j] for i in range(dim)) & 1
                   for j in range(dim))
        rows = [(1,) + (0,) * (dim + 1)]
        rows += [(v[i],) + u + (0,) for i, u in
                 enumerate(_unit_vectors(dim, dim))]
        rows.append((a[-1],) + vc + (1,))
        return FpMatrix.from_rows(rows, 2)

    def from_matrix(self, m):
        return tuple(row[0] for row in m.entries[1:])


class ExtSqModel:
    """P = V x Lambda^2 V for V = F_p^3, product twisting by v1 ^ v2."""

    def __init__(self, p):
        check_prime(p)
        if p == 2:
            raise BadParameter("exterior-square model needs p odd")
        self.p = p
        self.identity = (0,) * 6

    def mul(self, a, b):
        p = self.p
        v1, w1, v2, w2 = a[:3], a[3:], b[:3], b[3:]
        wedge = wedge_vec(v1, v2, p)
        return (tuple((x + y) % p for x, y in zip(v1, v2))
                + tuple((x + y + t) % p for x, y, t in zip(w1, w2, wedge)))

    def inv(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def generators(self):
        return _unit_vectors(6, 6)

    def matrix(self, a):
        """[[1, 0, 0], [v^T, I, 0], [w^T, K(v), I]], K(v) u^T = v ^ u, the
        corner multiplying as w1 + w2 + v1 ^ v2.  Its basis orbits have
        1 + 3p + 3p^3 points; in the transposed layout e_0 alone has p^6."""
        p, v, w = self.p, a[:3], a[3:]
        cols = [wedge_vec(v, u, p) for u in _unit_vectors(3, 3)]
        rows = [(1,) + (0,) * 6]
        rows += [(v[i],) + u + (0,) * 3 for i, u in
                 enumerate(_unit_vectors(3, 3))]
        rows += [(w[i],) + tuple(c[i] for c in cols) + u for i, u in
                 enumerate(_unit_vectors(3, 3))]
        return FpMatrix.from_rows(rows, p)

    def from_matrix(self, m):
        return tuple(row[0] for row in m.entries[1:])


def model_handle(model, name=""):
    action = BasisOrbitAction(model.identity, model.generators(),
                              model.matrix, model.from_matrix)
    return GroupHandle(model.identity, model.generators(), model.mul,
                       model.inv, name=name, kind="model", action=action)


# ---------------------------------------------------------------------------
# basic groups


def _primitive_root(p):
    # the order of a unit g mod p is that of x -> gx on Z/p
    return next(g for g in range(1, p)
                if permmod.perm_order_of(np.arange(p) * g % p) == p - 1)


def cyclic(n):
    if n < 1:
        raise BadParameter("cyclic(n) needs n >= 1")
    permmod.check_degree(n)
    if n == 1:
        return perm_handle([], 1, "cyclic(1)")
    rot = tuple((i + 1) % n for i in range(n))
    return perm_handle([rot], n, f"cyclic({n})")


def sym(n):
    if n < 1:
        raise BadParameter("sym(n) needs n >= 1")
    permmod.check_degree(n)
    if n == 1:
        return perm_handle([], 1, "sym(1)")
    swap = tuple([1, 0] + list(range(2, n)))
    rot = tuple((i + 1) % n for i in range(n))
    gens = [swap] if n == 2 else [swap, rot]
    return perm_handle(gens, n, f"sym({n})")


def gl(n, p):
    check_prime(p)
    if n < 1:
        raise BadParameter("gl needs n >= 1")
    gens = [FpMatrix.diagonal([_primitive_root(p)] + [1] * (n - 1), p)]
    if n >= 2:
        cyc = [[0] * n for _ in range(n)]
        for i in range(n):
            cyc[i][(i + 1) % n] = 1
        gens.append(FpMatrix.from_rows(cyc, p))
        tv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        tv[0][1] = 1
        gens.append(FpMatrix.from_rows(tv, p))
    return matrix_handle(gens, f"gl({n},{p})")


def gl_order(n, p):
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


def sl(n, p):
    check_prime(p)
    if n < 1:
        raise BadParameter("sl needs n >= 1")
    if n == 1:
        return matrix_handle([FpMatrix.identity(1, p)], f"sl(1,{p})")
    gens = []
    tv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    tv[0][1] = 1
    gens.append(FpMatrix.from_rows(tv, p))
    cyc = [[0] * n for _ in range(n)]
    for i in range(n):
        cyc[i][(i + 1) % n] = 1
    cyc[n - 1][0] = (-1) ** (n - 1) % p
    gens.append(FpMatrix.from_rows(cyc, p))
    return matrix_handle(gens, f"sl({n},{p})")


def upper_triangular(n, p):
    check_prime(p)
    zeta = _primitive_root(p)
    gens = [FpMatrix.diagonal([zeta if i == k else 1 for i in range(n)], p)
            for k in range(n)]
    for i in range(n - 1):
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][i + 1] = 1
        gens.append(FpMatrix.from_rows(e, p))
    return matrix_handle(gens, f"ut({n},{p})")


def regular(handle):
    """Right-regular permutation representation of an enumerable handle:
    its generators are the handle's right-translation columns."""
    if handle.enum_cap() > permmod.MAX_DEGREE:
        # below that, rows() stops first; and order() would need the
        # chain of a group of large degree, not bounded in time
        permmod.check_degree(handle.order())
    return perm_handle(handle.columns().tolist(), len(handle.rows()),
                       f"regular({handle.name})")


def s3mat(p):
    """The standard 2-dimensional S3 matrices over F_p."""
    check_prime(p)
    a = FpMatrix.from_rows([[0, p - 1], [1, p - 1]], p)
    b = FpMatrix.from_rows([[0, 1], [1, 0]], p)
    return matrix_handle([a, b], f"s3mat({p})")


# ---------------------------------------------------------------------------
# metacyclic, extraspecial, wreath, direct


def metacyclic(p, q):
    check_prime(p)
    check_prime(q)
    if q % p != 1:
        raise BadCongruence(f"metacyclic({p},{q}) needs q = 1 mod p")
    k = next(k for k in range(2, q)
             if permmod.perm_order_of(np.arange(q) * k % q) == p)
    b = tuple((x + 1) % q for x in range(q))
    a = tuple(x * k % q for x in range(q))
    return perm_handle([a, b], q, f"metacyclic({p},{q})")


def extraspecial(p, n, eps=None):
    check_prime(p)
    if n < 1:
        raise BadParameter("extraspecial needs n >= 1")
    if p != 2 and eps is not None:
        raise BadParameter(f"extraspecial({p}, n) takes no eps: for odd p "
                           "it builds the exponent-p group")
    if p == 2:
        if eps not in ("+", "-"):
            raise BadParameter("extraspecial(2, n, eps) needs eps '+' or '-'")
        model = Extraspecial2Model(n, eps)
        h = model_handle(model, f"extraspecial(2,{n},{eps})")
    else:
        model = ExtraspecialOddModel(p, n)
        h = model_handle(model, f"extraspecial({p},{n})")
    if p ** (1 + 2 * n) <= 2 ** 14:
        _check_extraspecial(h, model, p, n)
    return h


def _check_extraspecial(handle, model, p, n):
    rows = handle.rows()
    assert len(rows) == p ** (1 + 2 * n)
    assert center(handle).order == p
    if p > 2:  # exponent p
        assert set(permmod.perm_order_of(rows).tolist()) <= {1, p}


def wreath(h, k):
    """Imprimitive wreath product: base h^deg(k) permuted by the top k."""
    if not h.kind == k.kind == "perm":
        raise KindMismatch("wreath needs two permutation handles")
    m, n = h.degree, k.degree
    permmod.check_degree(m * n)
    gens = []
    for g in h.generators:
        img = list(range(m * n))
        for j in range(m):
            img[j] = g[j]
        gens.append(tuple(img))
    for g in k.generators:
        gens.append(tuple(g[i // m] * m + (i % m) for i in range(m * n)))
    return perm_handle(gens, m * n, f"wr({h.name},{k.name})")


def direct(h, k):
    if not h.kind == k.kind == "perm":
        raise KindMismatch("direct needs two permutation handles")
    m, n = h.degree, k.degree
    permmod.check_degree(m + n)
    gens = [tuple(list(g) + list(range(m, m + n))) for g in h.generators]
    gens += [tuple(list(range(m)) + [m + x for x in g]) for g in k.generators]
    return perm_handle(gens, m + n, f"direct({h.name},{k.name})")


# ---------------------------------------------------------------------------
# semidirect products and holomorph embeddings


def holomorph_perm(p_handle, auts):
    """Faithful permutation group on the elements of P generated by right
    translations and the given automorphism maps.

    Each map a is checked on the generators S of P: a(1) = 1 (checked
    outright, as S is empty for trivial P) and a(x g) = a(x) a(g) for all
    x in P, g in S.  That suffices since elements() is the closure of S:
    every y in P is a word in S (a finite group needs no inverses), and
    induction on its length gives a(x y) = a(x) a(y).  With
    col_g[x] = index of x g (P's own columns for its generators) and
    amap[x] = index of a(x), the law for g is
    amap[col_g] == col_{a(g)}[amap], with col_{a(g)} read off P's image
    rows in one gather per generator, so the check is complete at every
    size, with no sampling for large P.  A failure raises NotAutomorphism
    with the first offending (x, g), or with (x, a(x)) when a(x) leaves P
    or x = 1 moves.
    """
    permmod.check_degree(p_handle.order())
    elems = p_handle.elements()
    index = {e: i for i, e in enumerate(elems)}
    rows, cols = p_handle.rows(), list(p_handle.columns())
    find = _row_index(rows)
    amaps = []
    for a in auts:
        amap = np.empty(len(elems), dtype=np.int32)
        for i, x in enumerate(elems):
            amap[i] = index.get(a(x), -1)
            if amap[i] < 0:
                raise NotAutomorphism("map leaves the group",
                                      witness=(x, a(x)))
        one = index[p_handle.identity]
        if amap[one] != one:
            raise NotAutomorphism("map moves the identity",
                                  witness=(elems[one], elems[amap[one]]))
        for g, col in zip(p_handle.generators, cols):
            col_ag = np.array(find(rows[amap[col[one]]][rows]))  # x a(g)
            bad = np.flatnonzero(amap[col] != col_ag[amap])
            if len(bad):
                raise NotAutomorphism("map breaks multiplication",
                                      witness=(elems[bad[0]], g))
        amaps.append(amap)
    gens = [tuple(c.tolist()) for c in cols + amaps]
    return perm_handle(gens, len(elems), f"hol({p_handle.name})")


def natural_semidirect(m_handle, n):
    """Affine group: matrix group m_handle acting on F_p^n by x -> xA + t."""
    if m_handle.kind != "matrix":
        raise KindMismatch("natural_semidirect needs a matrix handle")
    p, dim = m_handle.identity.p, m_handle.identity.n
    if dim != n:
        raise BadParameter(f"matrix dimension {dim} != {n}")
    npts = permmod.check_degree(p ** n)
    weights = p ** np.arange(n, dtype=np.int64)
    pts = np.arange(npts, dtype=np.int64)[:, None] // weights % p  # digits
    images = [pts @ np.array(a.entries, dtype=np.int64)
              for a in m_handle.generators]
    images += [pts + np.eye(n, dtype=np.int64)[i] for i in range(n)]
    gens = [tuple((img % p @ weights).tolist()) for img in images]
    return perm_handle(gens, npts, f"natsd({m_handle.name},{n})")


def gsp_extension(s_handle, p, n):
    """GSp-type split extension acting on the odd extraspecial p^{1+2n}."""
    if s_handle.kind != "matrix":
        raise KindMismatch("gsp_extension needs a matrix handle")
    if p == 2:
        raise BadParameter("gsp_extension needs p odd")
    if s_handle.identity.n != 2 * n:
        raise BadParameter(
            f"matrix dimension {s_handle.identity.n} != {2 * n}")
    form = SymplecticForm.standard(2 * n, p)
    lams = {}
    for a in s_handle.generators:
        lams[a] = similitude_factor(a, form)  # raises NotSimilitude
    model = ExtraspecialOddModel(p, n)
    ph = model_handle(model, f"E_{p}^(1+{2*n})")

    def make_aut(a, lam):
        def aut(e):
            v = a.apply(e[:-1])
            return v + (e[-1] * lam % p,)
        return aut

    auts = [make_aut(a, lam) for a, lam in lams.items()]
    h = holomorph_perm(ph, auts)
    h.name = f"gsp({s_handle.name},{p},{n})"
    return h


# ---------------------------------------------------------------------------
# the qutrit normalizer (Sp2(3) x| E_3 inside GL_3(p))


def smallest_cube_root(p):
    for w in range(2, p):
        if w * w * w % p == 1:
            return w
    raise BadCongruence(f"no nontrivial cube root of unity mod {p}")


def qutrit_generator_candidates(p):
    """X, Z, the diagonal phase gate, and the un-normalized Fourier matrix."""
    w = smallest_cube_root(p)
    x = FpMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]], p)
    z = FpMatrix.diagonal([1, w, w * w], p)
    s = FpMatrix.diagonal([1, 1, w], p)
    m = FpMatrix.from_rows([[pow(w, j * k, p) for k in range(3)]
                            for j in range(3)], p)
    return x, z, s, m


def qutrit_normalizer(p):
    check_prime(p)
    if p % 3 != 1:
        raise BadCongruence(f"qutrit_normalizer needs p = 1 mod 3, got {p}")
    if p > 31:
        raise BadParameter("qutrit_normalizer limited to p <= 31")
    x, z, s, m = qutrit_generator_candidates(p)
    achieved = []
    for c in range(1, p):
        gens = [x, z, s, m.scale(c)]
        h = matrix_handle(gens, f"qutrit({p})")
        order = h.order()
        achieved.append((c, order))
        if order == 648:
            if p <= 7:  # exhaustive spinning is a decision procedure here
                irr, _ = spin_all_lines(gens)
                if not irr:
                    raise ScalarSearchFailed(
                        f"order 648 reached at c={c} but action is reducible")
            return h
    raise ScalarSearchFailed(
        f"no scalar correction gives order 648 mod {p}: {achieved}")


# ---------------------------------------------------------------------------
# the binary octahedral group inside SL_2(7)


def binary_octahedral():
    """Order-48 double cover of S4 found deterministically inside SL_2(7).

    Unlike GL_2(3) (the other order-48 extension of SL_2(3)) it has a
    single involution; each step of the search Q8 < SL_2(3) < 2.S4
    verifies that count.
    """
    ambient = sl(2, 7)
    orders = dict(zip(ambient.elements(),
                      permmod.perm_order_of(ambient.rows()).tolist()))
    elems = sorted(orders, key=lambda m: m.packed())

    def extend(gens, k, order, cap):
        """First <gens, t>, t of order k, of the given order with a single
        involution, by a closure capped at cap elements."""
        for t in elems:
            if orders[t] != k:
                continue
            h = matrix_handle(gens + [t], "bo()")
            h.cap = cap
            try:
                rows = h.rows()
            except CapExceeded:
                continue
            if len(rows) == order and np.count_nonzero(
                    permmod.perm_order_of(rows) == 2) == 1:
                return h
        return None

    quat = next(filter(None, (extend([i], 4, 8, 20) for i in elems
                              if orders[i] == 4)), None)
    sl23 = quat and extend(quat.generators, 3, 24, 60)
    bo = sl23 and extend(sl23.generators, 8, 48, 100)
    if bo is None:
        raise SearchFailed("no chain Q8 < SL_2(3) < 2.S4 found in SL_2(7)")
    return bo


# ---------------------------------------------------------------------------
# exterior-square group and its similitude extension


def exterior_square_group(p):
    """The p^6 group V x Lambda^2 V with commutator v1 ^ v2."""
    return model_handle(ExtSqModel(p), f"extsq({p})")


def wedge_automorphism(a):
    """The automorphism (v, w) -> (vA, w wedge^2(A)) of the exterior-square
    group, for A in GL(3, p): it sends v1 ^ v2 to vA1 ^ vA2, which is
    (v1 ^ v2) wedge^2(A)."""
    wa = wedge_square(a)
    return lambda x: a.apply(x[:3]) + wa.apply(x[3:])


def semidirect_series_orders(k_handle, p):
    """Certified orders of the derived series of G = P |x K, for P the
    exterior-square group over F_p and K <= GL(3, p) acting by
    wedge_automorphism.

    K^(i) <= G^(i) and G^(i)P/P = K^(i), so G^(i) = M_i |x K^(i) with
    M_i = G^(i) n P.  Let N be the normal closure in P of [a, a'] and
    [a, k] = a^-1 a^k, for a, a' strong generators of M_(i-1) and k
    generators of K^(i-1); N <= M_i, as G^(i) is normal in G.  Since
    [xy, k] = [x, k]^y [y, k], [M_(i-1), k] <= N, so N is normal in
    G^(i-1) and M_(i-1) is central modulo N.  Hence G^(i) = N K^(i) and
    M_i = N.

    |K^(i)| comes from K's own chain, taking the last term of its series
    past its end (K need not be solvable).  M_i is N on P's chain,
    stopped at |M_(i-1)|, a proven upper bound.  Every chain here acts on
    K's or P's basis orbits (72 and 1,051 points for qutrit(7) and
    extsq(7)), none on G's p^6 points.
    """
    from .grp import derived_series
    ks = derived_series(k_handle)
    last = len(ks.orders) - 1
    ph = exterior_square_group(p)
    gens = ph.perm_generators()
    m = ph.bsgs()
    orders = [ks.orders[0] * m.order()]
    for i in itertools.count(1):
        auts = [wedge_automorphism(k)
                for k in ks.subgroups[min(i - 1, last)].generators]
        a = m.strong_generators()
        ai = [permmod.perm_inv(x) for x in a]
        seed = permmod.commutators(a, ai) + [
            permmod.perm_mul(xi, ph.to_perm(f(x)))
            for x, xi in zip(ph.from_perms(np.array(a)), ai) for f in auts]
        m = permmod.normal_closure_perm(gens, seed, upper_bound=m.order())
        order = ks.orders[min(i, last)] * m.order()
        if order == orders[-1]:
            return tuple(orders)
        orders.append(order)


def prop8_group(p):
    """G = P |x K for the p^6 exterior-square group P and the qutrit
    normalizer K acting by wedge_automorphism.

    The handle holds only what certifies it: the derived-series orders
    from the chains of K and P (semidirect_series_orders), as
    split_orders.  It has no elements of its own (no generators, no
    element operations) and no permutation image, so asking it for a
    chain or an enumeration raises CapExceeded
    (GroupHandle.perm_generators) and the builders that take a
    permutation or matrix handle refuse it.
    """
    k = qutrit_normalizer(p)
    return GroupHandle(identity=(), generators=[], mul=None, inv=None,
                       name=f"prop8({p})", kind="split",
                       split_orders=semidirect_series_orders(k, p))
