"""Named constructions of the witness groups.

Every builder returns a GroupHandle whose elements are plain hashable
values: image tuples for permutation groups, FpMatrix for matrix groups,
and coordinate tuples for the extraspecial / exterior-square models.  No
handle carries a product: matrix and model handles carry a
BasisOrbitAction, their faithful permutation image, and a model is only
its matrix and coordinates maps.  Construction-time checks verify the
cheap invariants (orders, centers); the expensive series invariants live
in the test-suite.

A builder records, as order_bounds, upper bounds on |G^(0)|, |G^(1)|, ...
that a theorem gives, each proved in its docstring; a chain stops when
its orbit product reaches its term's bound (grp._chain_series).  An onto
map G -> Q maps G^(i) onto Q^(i), and H <= G has H^(i) <= G^(i), so a
bound proved for a group holds for its quotients and subgroups; and
derived orders never increase, so bounds padded with their last entry
(_terms) are still bounds.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property

import numpy as np

from . import perm as permmod
from .errors import (BadCongruence, BadParameter, CapExceeded, GroupError,
                     KindMismatch, NotAutomorphism, ScalarSearchFailed,
                     SearchFailed)
from .fpmat import (FpMatrix, check_dimension, check_invertible, check_prime,
                    row_space, similitude_factor, wedge_vec)
from .grp import (GroupHandle, _closure, _stretches, _translations, _walk,
                  center, derived_orders)


# ---------------------------------------------------------------------------
# handle constructors


def perm_handle(gens, degree, name="", order_bounds=()):
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens if tuple(g) != ident]
    return GroupHandle(ident, gens, name=name, kind="perm",
                       order_bounds=order_bounds)


def _terms(bounds, count):
    """The first count order bounds, padded with the last: () stays ()."""
    return bounds[:count] + bounds[-1:] * (count - len(bounds))


class BasisOrbitAction:
    """Faithful permutation action of a matrix group on the union of the
    orbits of the standard basis vectors, v -> vA.

    A matrix is determined by its images of a basis, so the action is
    faithful; the first n points are e_0..e_{n-1}, and a permutation reads
    back as the matrix whose row i is the image of e_i.  A model acts
    through a faithful matrix representation, to_matrix, and coordinates
    reads a stack of such matrices back as rows of model coordinates.  The
    points are found on first use, breadth-first from the basis, and
    growth stops with CapExceeded once it passes perm.MAX_DEGREE.
    """

    def __init__(self, identity, gens, to_matrix=None, coordinates=None):
        self.to_matrix = to_matrix or (lambda x: x)
        self.coordinates = coordinates
        one = self.to_matrix(identity)
        self.p, self.n = one.p, one.n
        self.weights = self.p ** np.arange(self.n, dtype=np.int64)
        self._gens = gens  # the points are grown from these on first use
        self._built = {}  # generator -> its matrix, kept by _points

    def _matrix(self, x):
        m = self._built.get(x)
        return np.array(self.to_matrix(x).entries, dtype=np.int64) \
            if m is None else m

    @cached_property
    def _points(self):
        """(points, their keys sorted, the point index of each sorted key);
        a point's key is its base-p number."""
        p, mats = self.p, [self._matrix(g) for g in self._gens]
        self._built.update(zip(self._gens, mats))
        if p ** self.n >= 2 ** 62:
            raise CapExceeded(f"F_{p}^{self.n} is too large to index")
        layer = np.eye(self.n, dtype=np.int64)
        layers, keys = [layer], layer @ self.weights
        while len(layer) and mats:
            imgs = np.stack([layer @ a % p for a in mats], axis=1)
            imgs = imgs.reshape(-1, self.n)
            k = imgs @ self.weights
            known = np.sort(keys)  # np.isin would import numpy.ma
            pos = np.minimum(np.searchsorted(known, k), len(known) - 1)
            fresh = np.flatnonzero(known[pos] != k)
            _, first = np.unique(k[fresh], return_index=True)
            layer = imgs[fresh[np.sort(first)]]
            layers.append(layer)
            keys = np.concatenate([keys, layer @ self.weights])
            if len(keys) > permmod.MAX_DEGREE:
                raise CapExceeded(
                    f"basis orbits pass {permmod.MAX_DEGREE} points")
        order = np.argsort(keys)
        return np.concatenate(layers), keys[order], order.astype(np.int32)

    @property
    def degree(self):
        return len(self._points[0])

    def perm(self, x):
        """Image array of x, or None when x moves a point off the orbits
        (x is then outside the group)."""
        points, keys, order = self._points
        k = points @ self._matrix(x) % self.p @ self.weights
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return order[pos] if np.array_equal(keys[pos], k) else None

    def matrices(self, rows):
        """The matrices of the image rows of a 2-D array, as one integer
        stack: a row's matrix has the points it sends e_0..e_{n-1} to as
        rows."""
        return self._points[0][rows[:, :self.n]]

    def elements(self, rows):
        """The elements whose image rows are the rows of a 2-D array."""
        mats = self.matrices(rows)
        if self.coordinates is not None:
            return list(map(tuple, self.coordinates(mats).tolist()))
        return [FpMatrix(self.p, tuple(map(tuple, m))) for m in mats.tolist()]


def matrix_handle(gens, name="", order_bounds=()):
    if not gens:
        raise BadParameter("matrix handle needs at least one generator")
    p, n = gens[0].p, gens[0].n
    for g in gens:
        if g.p != p or g.n != n:
            raise BadParameter("mixed matrix dimensions")
        check_invertible(g)
    ident = FpMatrix.identity(n, p)
    gens = [g for g in gens if g != ident]
    return GroupHandle(ident, gens, name=name, kind="matrix",
                       order_bounds=order_bounds,
                       action=BasisOrbitAction(ident, gens))


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
        permmod.check_degree(p ** (n + 1) + n * p + 1)  # see matrix
        self.p = p
        self.n = n
        self.half = (p + 1) // 2
        self.identity, self.centre = (0,) * (2 * n + 1), 1

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

    def coordinates(self, mats):
        n = self.n
        x, y = mats[:, 0, 1:n + 1], mats[:, 1:n + 1, n + 1]
        z = (mats[:, 0, n + 1] - self.half * (x * y).sum(1)) % self.p
        return np.column_stack([x, y, z])


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
        self.identity, self.centre = (0,) * (dim + 1), 1

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

    def coordinates(self, mats):
        return mats[:, 1:, 0]


class ExtSqModel:
    """P = V x Lambda^2 V for V = F_p^3, product twisting by v1 ^ v2."""

    def __init__(self, p):
        check_prime(p)
        if p == 2:
            raise BadParameter("exterior-square model needs p odd")
        self.p = p
        self.identity, self.centre = (0,) * 6, 3

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

    def coordinates(self, mats):
        return mats[:, 1:, 0]


def model_handle(model, name=""):
    """Its unit-vector generators give every v-part, and their commutators
    the centre, so |P| = p^(coordinates): 2^(1+2n), p^(1+2n) or p^6.  The
    product adds v-parts and twists only the last centre coordinates, by
    the v-parts (0 if one is 0), so P' is in P -> (v-part)'s kernel, those
    coordinates, central and abelian: the bounds (|P|, p^centre, 1), exact
    as an extraspecial P' = Z(P) has order p, extsq's Lambda^2 V p^3."""
    action = BasisOrbitAction(model.identity, model.generators(),
                              model.matrix, model.coordinates)
    return GroupHandle(model.identity, model.generators(), name=name,
                       kind="model", action=action,
                       order_bounds=(action.p ** len(model.identity),
                                     action.p ** model.centre, 1))


# ---------------------------------------------------------------------------
# basic groups


def _primitive_root(p):
    # the least unit whose powers are all p - 1 units
    return next(g for g in range(1, p)
                if len({pow(g, t, p) for t in range(p - 1)}) == p - 1)


def cyclic(n):
    """C_n on n points.  It is abelian, so its bounds (n, 1) are exact."""
    if n < 1:
        raise BadParameter("cyclic(n) needs n >= 1")
    permmod.check_degree(n)
    rot = tuple((i + 1) % n for i in range(n))
    return perm_handle([rot], n, f"cyclic({n})", (n, 1))


# the derived series of S_1 .. S_4: S_3 > A_3 > 1, S_4 > A_4 > V_4 > 1
SMALL_SYM_SERIES = {1: (1,), 2: (2, 1), 3: (6, 3, 1), 4: (24, 12, 4, 1)}


def sym(n):
    """S_n on n points, from (0 1) and the n-cycle.  Its bounds are exact:
    the series for n <= 4 (SMALL_SYM_SERIES), and (n!, n!/2, n!/2) past
    it, as S_n' = A_n (S_n/A_n has order 2, and a 3-cycle (a b c) is the
    commutator of (a b) and (a c)) and A_n is perfect for n >= 5."""
    if n < 1:
        raise BadParameter("sym(n) needs n >= 1")
    permmod.check_degree(n)
    if n == 1:
        return perm_handle([], 1, "sym(1)", SMALL_SYM_SERIES[1])
    swap = tuple([1, 0] + list(range(2, n)))
    rot = tuple((i + 1) % n for i in range(n))
    gens = [swap] if n == 2 else [swap, rot]
    order = math.factorial(n)
    return perm_handle(gens, n, f"sym({n})", SMALL_SYM_SERIES.get(
        n, (order, order // 2, order // 2)))


def gl(n, p):
    """GL(n,p), from diag(zeta, 1, ..) and, for n >= 2, the cycle and the
    transvection of _cycle_and_transvection.  Its bounds are |GL| and then
    SL(n,p)'s series (_sl_series): det maps GL onto the abelian F_p^* with
    kernel SL, so GL' <= SL, and GL = SL for p = 2.  They are exact, as
    GL' = SL but for GL(2,2) = SL(2,2): GL(2,3) gives (48, 24, 8, 2, 1),
    GL(1,p) = F_p^* (p - 1, 1), and GL(n,p) (|GL|, |SL|, |SL|) else."""
    check_prime(p)
    check_dimension(n)
    gens = [FpMatrix.diagonal([_primitive_root(p)] + [1] * (n - 1), p)]
    if n >= 2:
        gens += _cycle_and_transvection(n, p, 1)
    series = _sl_series(n, p)
    return matrix_handle(gens, f"gl({n},{p})", series if p == 2 else (
        gl_order(n, p), *series))


def _cycle_and_transvection(n, p, corner):
    """e_i -> e_(i+1), but e_(n-1) -> corner e_0; and I + E_01."""
    cyc, tv = np.roll(np.eye(n, dtype=int), 1, 1), np.eye(n, dtype=int)
    cyc[n - 1, 0], tv[0, 1] = corner, 1
    return [FpMatrix.from_rows(a.tolist(), p) for a in (cyc, tv)]


def gl_order(n, p):
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


# the derived series of the two SL(n,p), n >= 2, that are not perfect:
# SL(2,2) = GL(2,2) = S_3 (faithful on the 3 nonzero vectors), and SL(2,3)
# > Q_8 > Z = {1, -1} > 1, Q_8 its normal Sylow 2-subgroup, of index 3
SMALL_SL_SERIES = {(2, 2): (6, 3, 1), (2, 3): (24, 8, 2, 1)}


def _sl_series(n, p):
    """The derived orders of SL(n,p), |SL| = |GL|/(p - 1): SL(1,p) = 1,
    and SL(n,p) is perfect for n >= 2 but (2,2) and (2,3) (Taylor, The
    Geometry of the Classical Groups, 1992, ch. 1), SMALL_SL_SERIES."""
    order = gl_order(n, p) // (p - 1)
    return (1,) if n == 1 else SMALL_SL_SERIES.get((n, p), (order, order))


def sl(n, p):
    """SL(n,p), from a transvection and a cycle of determinant 1.  Its
    bounds are its derived orders, exact (_sl_series)."""
    check_prime(p)
    check_dimension(n)
    if n == 1:
        return matrix_handle([FpMatrix.identity(1, p)], f"sl(1,{p})", (1,))
    cyc, tv = _cycle_and_transvection(n, p, (-1) ** (n - 1))
    return matrix_handle([tv, cyc], f"sl({n},{p})", _sl_series(n, p))


def upper_triangular(n, p):
    """The invertible upper triangular matrices B, from diagonal units and
    the I + E_(i,i+1), all in B.  Its basis orbits are the p^n - 1 nonzero
    vectors, e_0's the (p - 1) p^(n-1) with a nonzero first entry, and a
    chain's first level tabulates e_0's orbit on every point, so both
    limits are checked before any point is grown.

    Its bounds are its derived orders (_unitriangular_series), exact.  B
    is the diagonal units T times the unitriangular U, normal with B/U =
    T abelian, so B' <= U, and |B| = (p - 1)^n |U|.  For p > 2 some unit
    c is not 1, and the diagonal t with t_i = c, t_j = 1 conjugates
    x_ij(a) = I + a E_ij to x_ij(c a) or x_ij(a / c), so the commutator
    [t, x_ij(a)] is x_ij(a u), u = 1 - 1/c or 1 - c a unit: every root
    element, and so U, lies in B', and B' = U.  For p = 2, T = 1 and
    B = U."""
    check_prime(p)
    check_dimension(n)
    degree = permmod.check_degree(p ** n - 1)
    if (p - 1) * p ** (n - 1) * degree > permmod.MEMORY_BUDGET:
        raise CapExceeded(f"a stabilizer chain of degree {degree} needs more "
                          f"than MEMORY_BUDGET = {permmod.MEMORY_BUDGET} "
                          "entries")
    zeta = _primitive_root(p)
    gens = [FpMatrix.diagonal([zeta if i == k else 1 for i in range(n)], p)
            for k in range(n)]
    for i in range(n - 1):
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][i + 1] = 1
        gens.append(FpMatrix.from_rows(e, p))
    series = _unitriangular_series(n, p)
    return matrix_handle(gens, f"ut({n},{p})", series if p == 2 else (
        (p - 1) ** n * series[0], *series))


def _unitriangular_series(n, p):
    """The derived orders of U = U(n,p).  Let U_m be its elements I + N
    with N_ab = 0 unless b - a >= m, the x_ab(s) = I + s E_ab with
    b - a >= m generating it: U_1 = U, and |U_m| = p^(sum of n - d over
    m <= d < n), n - d entries on the d-th superdiagonal.  [U_i, U_j] =
    U_(i+j): it lies in U_(i+j), and for b - a >= i + j it holds
    [x_a,a+i(s), x_a+i,b(1)] = x_ab(s).  So by induction U^(k) = U_(2^k)
    = gamma_(2^k)(U), trivial once 2^k >= n."""
    orders, m = [], 1
    while not orders or orders[-1] > 1:
        orders.append(p ** sum(n - d for d in range(m, n)))
        m *= 2
    return tuple(orders)


def _check_order(handle):
    """CapExceeded, before any enumeration, for more than MAX_DEGREE
    elements.  rows() stops first below its cap and a proven bound needs
    no chain; else order() needs one, not bounded in time."""
    bound = next(iter(handle.order_bounds), None) or math.inf
    if min(bound, handle.enum_cap()) > permmod.MAX_DEGREE:
        permmod.check_degree(handle.order())


def regular(handle):
    """Right-regular permutation representation of an enumerable handle:
    its generators are the handle's right-translation columns.  It is
    faithful, so its bounds are the handle's, with the exact order, the
    number of rows enumerated, on top."""
    _check_order(handle)
    rows = handle.rows()
    return perm_handle(handle.columns().tolist(), len(rows),
                       f"regular({handle.name})",
                       (len(rows), *handle.order_bounds[1:]))


def s3mat(p):
    """The standard 2-dimensional S3 matrices over F_p.  a has
    characteristic polynomial x^2 + x + 1, a factor of x^3 - 1, so a^3 = 1;
    b^2 = 1 and b a b = a^-1.  So <a, b> is a quotient of S_3 =
    <a, b | a^3, b^2, (ab)^2>, with bounds S_3's series (6, 3, 1), exact
    since a^2 != 1 and so ab != ba: a non-abelian quotient of S_3 is S_3."""
    check_prime(p)
    a = FpMatrix.from_rows([[0, p - 1], [1, p - 1]], p)
    b = FpMatrix.from_rows([[0, 1], [1, 0]], p)
    return matrix_handle([a, b], f"s3mat({p})", (6, 3, 1))


# ---------------------------------------------------------------------------
# metacyclic, extraspecial, wreath, direct


def metacyclic(p, q):
    """C_q |x C_p on Z_q: b = x + 1 and a = k x, k of order p mod q.  <b>
    is normal and meets <a> (which fixes 0) trivially, so |G| = pq; G/<b>
    is cyclic, so G' <= <b>, of order q, and G'' <= <b>' = 1.  The bounds
    (pq, q, 1) are exact: [a, b] != 1 as k != 1."""
    check_prime(p)
    check_prime(q)
    if q % p != 1:
        raise BadCongruence(f"metacyclic({p},{q}) needs q = 1 mod p")
    k = next(k for k in range(2, q) if pow(k, p, q) == 1)  # of order p
    b = tuple((x + 1) % q for x in range(q))
    a = tuple(x * k % q for x in range(q))
    return perm_handle([a, b], q, f"metacyclic({p},{q})", (p * q, q, 1))


def extraspecial(p, n, eps=None):
    check_prime(p)
    if n < 1:
        raise BadParameter("extraspecial needs n >= 1")
    if p != 2 and eps is not None:
        raise BadParameter(f"extraspecial({p}, n) takes no eps: for odd p "
                           "it builds the exponent-p group")
    check_dimension(2 * n + 2 if p == 2 else n + 2)  # the model's matrices
    if p == 2:
        if eps not in ("+", "-"):
            raise BadParameter("extraspecial(2, n, eps) needs eps '+' or '-'")
        model = Extraspecial2Model(n, eps)
        h = model_handle(model, f"extraspecial(2,{n},{eps})")
    else:
        model = ExtraspecialOddModel(p, n)
        h = model_handle(model, f"extraspecial({p},{n})")
    if p ** (1 + 2 * n) <= 2 ** 14:
        _check_extraspecial(h, p, n)
    return h


def _check_extraspecial(handle, p, n):
    rows = handle.rows()
    orders = set(permmod.element_orders(rows, handle.base()).tolist()) \
        if p > 2 else {1}
    found = (len(rows), center(handle).order, orders <= {1, p})
    if found != (p ** (1 + 2 * n), p, True):
        raise GroupError(f"{handle.name} is not extraspecial: (order, "
                         f"centre order, exponent p) = {found}")


def wreath(h, k):
    """Imprimitive wreath product on deg(k) blocks of deg(h) points: h on
    block 0 and the top k permuting the blocks.

    With r the number of blocks in block 0's orbit under k (_walk), the
    group is W = B |x K, B = H^r the product of the copies of H on those
    blocks (the conjugates of H on block 0 under K), and K acts faithfully
    on the blocks while B fixes each, so |W| = |H|^r |K|; for a transitive
    k, r is deg(k) and W = H wr K.  W -> H^ab x K^ab, (h_1, .., h_r; x) ->
    (h_1 .. h_r H', x K'), is a homomorphism onto an abelian group, as the
    product over the orbit does not change when K permutes the factors,
    so W' lies in its kernel: |W'| <= |H|^(r-1) |H'| |K'|, with equality
    ((H wr K)^ab = H^ab x K^ab for transitive K; Meldrum, Wreath Products
    of Groups and Semigroups, 1995).  Both bounds increase with |H|, |H'|,
    |K| and |K'|, so the factors' bounds give bounds; none without them.
    """
    if not h.kind == k.kind == "perm":
        raise KindMismatch("wreath needs two permutation handles")
    m, n = h.degree, k.degree
    permmod.check_degree(m * n)
    gens = [tuple(g) + tuple(range(m, m * n)) for g in h.generators]
    gens += [tuple(g[i // m] * m + i % m for i in range(m * n))
             for g in k.generators]
    bounds = ()
    if h.order_bounds and k.order_bounds:
        r = len(_walk(k.perm_generators(), np.arange(n) == 0))
        (h0, h1), (k0, k1) = (_terms(x.order_bounds, 2) for x in (h, k))
        bounds = (h0 ** r * k0, h0 ** (r - 1) * h1 * k1)
    return perm_handle(gens, m * n, f"wr({h.name},{k.name})", bounds)


def direct(h, k):
    """H x K on deg(h) + deg(k) points.  (H x K)^(i) = H^(i) x K^(i), so
    its bounds are the products of the factors' bounds, term by term (the
    shorter padded, see _terms), exact where theirs are; none without
    them."""
    if not h.kind == k.kind == "perm":
        raise KindMismatch("direct needs two permutation handles")
    m, n = h.degree, k.degree
    permmod.check_degree(m + n)
    gens = [tuple(list(g) + list(range(m, m + n))) for g in h.generators]
    gens += [tuple(list(range(m)) + [m + x for x in g]) for g in k.generators]
    count = max(len(h.order_bounds), len(k.order_bounds))
    bounds = [_terms(x.order_bounds, count) for x in (h, k)]
    return perm_handle(gens, m + n, f"direct({h.name},{k.name})",
                       tuple(a * b for a, b in zip(*bounds)))


# ---------------------------------------------------------------------------
# semidirect products and holomorph embeddings


def holomorph_perm(p_handle, auts):
    """Faithful permutation group on the elements of P generated by right
    translations and the given automorphisms, each given as its images
    of P's generators, in order.

    With col_y[x] = index of x y (for an image y, the column that P's
    enumeration tree gives y's index in elements()) and amap[x] = index of
    a(x), a is extended along the first edges of P's enumeration, from
    amap[1] = 1 by amap[x g] = col_{a(g)}[amap[x]], and checked on every
    edge: amap[col_g] == col_{a(g)}[amap] for each generator g.  That
    suffices since elements() is the closure of the generators S: every
    y in P is a word in S (a finite group needs no inverses), and
    induction on its length gives a(x y) = a(x) a(y).  So a is an
    endomorphism, and an automorphism when its kernel is trivial.  The
    check is complete at every size, with no sampling for large P.  A
    failure raises NotAutomorphism: with (g, a(g)) when a(g) is not in P,
    with the first (x, g) in generator-major order that breaks the law,
    or with (x, 1) for the first x != 1 that a sends to 1.
    """
    _check_order(p_handle)
    elems, cols = p_handle.elements(), p_handle.columns()
    where = dict(zip(elems, range(len(elems))))
    parent, gen, column = _translations(cols)
    amaps = []
    for images in auts:
        for g, y in zip(p_handle.generators, images, strict=True):
            if y not in where:
                raise NotAutomorphism("map leaves the group", witness=(g, y))
        col_a = np.array([column(where[y]) for y in images], np.int32)
        amap = np.zeros(len(elems), np.int32)
        for part in _stretches(parent):
            amap[part] = col_a[gen[part], amap[parent[part]]]
        for g, col, col_ag in zip(p_handle.generators, cols, col_a):
            bad = np.flatnonzero(amap[col] != col_ag[amap])
            if len(bad):
                raise NotAutomorphism("map breaks multiplication",
                                      witness=(elems[bad[0]], g))
        if np.count_nonzero(amap == 0) > 1:  # np.unique loads numpy.ma
            raise NotAutomorphism("map has a nontrivial kernel", witness=(
                elems[np.flatnonzero(amap == 0)[1]], p_handle.identity))
        amaps.append(amap)
    gens = [tuple(c.tolist()) for c in [*cols, *amaps]]
    return perm_handle(gens, len(elems), f"hol({p_handle.name})")


def split_holomorph(h, k_cols, name):
    """h = holomorph_perm(p_handle, auts) = R(P)<A>, named name, with the
    split_orders of derived_orders on P's columns and the auts (h's last
    len(k_cols) generators), and the bounds |P| |K^(i)| >= |H^(i)| where
    its chains, built only when read, stop.  That needs g_j -> a_j, for
    K's columns k_cols by the g_j, to extend to a monomorphism of K onto
    <A> (so no a_j is the identity h drops).  For d8(), every Schreier
    relator of k_cols' tree lifts to 1 (lift_generators), and A's linear
    part on P/Z(P) maps <A> back to K.  For gsp, the odd model's cocycle
    is <v1, v2>/2, so phi_A(v, z) = (vA, lam_A z) for a lam_A-similitude A
    over P's F_p; phi_A phi_B = phi_AB under the right action, as lam is
    multiplicative, and A is phi_A's action on P/Z(P): A -> phi_A is 1-1.
    """
    gens, k_series = h.perm_generators(), derived_orders(k_cols)
    cut = len(gens) - len(k_cols)
    orders = derived_orders(gens[:cut], gens[cut:], k_cols, k_series)[0]
    return replace(h, name=name, split_orders=tuple(orders),
                   order_bounds=tuple(h.degree * k for k in k_series[0]))


def natural_semidirect(m_handle, n):
    """Affine group: matrix group m_handle acting on F_p^n by x -> xA + t.

    G = V |x M, V the translations, normal, and M fixing 0, faithful on
    F_p^n.  G^(i) maps onto (G/V)^(i) = M^(i) with kernel inside V, so
    p^n |M^(i)| bounds |G^(i)|: its bounds are m_handle's times p^n, the
    first exact when m_handle's is."""
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
    return perm_handle(gens, npts, f"natsd({m_handle.name},{n})",
                       tuple(npts * b for b in m_handle.order_bounds))


def gsp_extension(s_handle, p, n):
    """GSp-type split extension acting on the odd extraspecial p^{1+2n}."""
    if s_handle.kind != "matrix":
        raise KindMismatch("gsp_extension needs a matrix handle")
    one = s_handle.identity
    if one.n != 2 * n:
        raise BadParameter(f"matrix dimension {one.n} != {2 * n}")
    if one.p != p:  # A -> phi_A is a map of GL_2n(p) only
        raise BadParameter(f"matrix field F_{one.p} != F_{p}")
    ph = model_handle(ExtraspecialOddModel(p, n), f"E_{p}^(1+{2*n})")
    for a in s_handle.generators:
        similitude_factor(a)  # raises NotSimilitude
    auts = [[row + (0,) for row in a.entries] for a in s_handle.generators]
    return split_holomorph(holomorph_perm(ph, auts), s_handle.columns(),
                           f"gsp({s_handle.name},{p},{n})")


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


def _scalar_orders(mats, p, cap):
    """(orders, series): |K_c| for c = 1..p-1, K_c = <A_1, .., c A_k> <=
    GL_n(p), and K_c's derived series series(c), from one enumeration,
    capped at cap, of its image Kbar in PGL_n(p), one for all c.

    Kbar acts on the projective points (leading entry 1) in the orbits of
    the <e_i>.  Let R_x be the product of the A_g on the path to x in the
    enumeration's first-edge tree, and m(x) its number of A_k edges.  Each
    edge (x, g) must give R_x A_g = s(x, g) R_(xg) for a scalar s(x, g), or
    ScalarSearchFailed.  Then x -> [R_x] maps onto Kbar (its image holds 1
    and is closed under the [A_g]) and the point action maps it back: the
    action is faithful and |Kbar| is the enumeration's size.  The tree's
    relators u_x g u_(xg)^-1 generate the kernel of the free group onto
    Kbar (Schreier's lemma; Seress, Permutation Group Algorithms, ch. 4),
    so, with A_k read as c A_k, their images s(x, g) c^e(x, g), e = m(x) +
    [g = k] - m(xg), generate K_c n Z, the kernel of K_c -> Kbar.  In logs
    to _primitive_root(p), |K_c| = |Kbar| (p-1) / gcd(p-1, log s + e log c).

    series(c) = (|K_c^(i)|, a stack of generators of each K_c^(i)), with no
    enumeration of K_c: from derived_orders on Kbar's columns (|Kbar^(i)|,
    generator indices T_i) and the lifts L_x = c^m(x) R_x.  Let e be Kbar's
    derived length (else GroupError) and Z = K_c n Z, of order |K_c|/|Kbar|.
    Kbar^(i)'s preimage is K_c^(i) Z, and as Kbar^(e-1) is abelian, its
    preimage Q has K_c^(e) = Q' <= Z, central: [x, y] is bilinear on Q, 1 on
    Z, so K_c^(e) = <[L_a, L_b] = l I : a, b in T_(e-1)>, L_a L_b = l L_b L_a.
    If the l generate Z (else GroupError), Z = K_c^(e), K_c^(e+1) = 1, and
    for i < e, H = <L_t : t in T_i> has HZ = K_c^(i), of order |Z||Kbar^(i)|,
    so H >= H' = (HZ)' = K_c^(i+1) >= Z: H = K_c^(i).
    """
    gens, n, k = np.array([a.entries for a in mats]), mats[0].n, len(mats)
    inv = np.array([pow(a, p - 2, p) for a in range(p)])
    lead = lambda v: np.take_along_axis(v, (v != 0).argmax(-1)[..., None], -1)

    def images(points):  # k x points x n, each scaled to a leading 1
        v = points @ gens % p
        return v * inv[lead(v)] % p
    points, size, weights = np.eye(n, dtype=np.int64), 0, p ** np.arange(n)
    while size < len(points):  # grow the orbits until a round adds none
        keys = np.array(sorted(set(
            (np.vstack([points, *images(points)]) @ weights).tolist())))
        size, points = len(points), keys[:, None] // weights % p
    perms = np.searchsorted(keys, images(points) @ weights)
    cols = _closure(lambda rows: rows, np.arange(size), perms, cap)[1]
    parent, gen, _ = _translations(cols)
    r = np.tile(np.eye(n, dtype=np.int64), (len(parent), 1, 1))
    m = np.zeros(len(parent), np.int64)  # A_k edges on the path to x
    for part in _stretches(parent):
        i, j = parent[part], gen[part]
        r[part], m[part] = r[i] @ gens[j] % p, m[i] + (j == k - 1)
    a = (r[:, None] @ gens % p).reshape(-1, n * n)  # R_x A_g, x major
    b = r[cols.T].reshape(-1, n * n)  # R_(xg)
    s = lead(a) * inv[lead(b)] % p
    if (a != s * b % p).any():
        raise ScalarSearchFailed(f"points do not separate the group mod {p}")
    e = (m[:, None] + (np.arange(k) == k - 1) - m[cols.T]).ravel()
    root = _primitive_root(p)
    log = np.argsort([pow(root, t, p) for t in range(p - 1)])  # of 1..p-1
    logs = (log[s[:, 0] - 1] + e * log[:, None]) % (p - 1)
    orders = (len(parent) * (p - 1) // np.gcd.reduce(
        logs, 1, initial=p - 1)).tolist()

    def series(c):
        kbar, t = derived_orders(cols)
        if kbar[-1] > 1:
            raise GroupError(f"Kbar mod {p} is not solvable")
        lift = r * np.array([pow(c, j, p) for j in range(m.max() + 1)])[
            m, None, None] % p  # L_x
        a = lift[t[-2] if len(t) > 1 else []]  # Kbar^(e-1)'s, if e > 0
        ab = (a[:, None] @ a % p)[..., 0, :]  # L_a L_b's first rows
        l = (lead(ab) * inv[lead(ab.swapaxes(0, 1))] % p).ravel()
        z = orders[c - 1] // len(parent)
        if (p - 1) // np.gcd.reduce(log[l - 1], initial=p - 1) != z:
            raise GroupError(f"commutators do not give K n Z mod {p}")
        zs, tail = l[:, None, None] * np.eye(n, dtype=np.int64), z > 1
        return ([z * o for o in kbar] + [1] * tail,  # K_c^(e+1) if Z > 1
                [lift[g] for g in t[:-1]] + [zs] + [zs[:0]] * tail)
    return orders, series


def _qutrit(p):
    """([X, Z, S, cM], series): c the first scalar in 1..p-1 that gives
    order 648 (_scalar_orders), and a call for K's series, its series(c)."""
    check_prime(p)
    if p % 3 != 1:
        raise BadCongruence(f"qutrit_normalizer needs p = 1 mod 3, got {p}")
    if p > 31:
        raise BadParameter("qutrit_normalizer limited to p <= 31")
    x, z, s, m = qutrit_generator_candidates(p)
    try:
        orders, series = _scalar_orders([x, z, s, m], p, 648)
    except CapExceeded:  # |K_c| >= |Kbar| > 648 for every c
        orders = ["> 648"] * (p - 1)
    if 648 not in orders:
        raise ScalarSearchFailed("no scalar correction gives order 648 mod "
                                 f"{p}: {list(enumerate(orders, 1))}")
    c = orders.index(648) + 1
    return [x, z, s, m.scale(c)], lambda: series(c)


def qutrit_normalizer(p):
    """K = <X, Z, S, cM> <= GL_3(p) (_qutrit), its order bound 648.

    K acts absolutely irreducibly on F_p^3, with no check needed, because
    <X, Z> already does.  Z = diag(1, w, w^2) has three distinct
    eigenvalues (w != 1 and w^3 = 1), so every Z-invariant subspace is
    spanned by standard basis vectors; X sends e_0 -> e_1 -> e_2 -> e_0,
    so the only subspaces invariant under both are 0 and F_p^3.  The same
    argument holds over every extension field, and for every p accepted
    here.
    """
    return matrix_handle(_qutrit(p)[0], f"qutrit({p})", (648,))


# ---------------------------------------------------------------------------
# the binary octahedral group inside SL_2(7)


def binary_octahedral():
    """Order-48 double cover of S4 found deterministically inside SL_2(7).

    Unlike GL_2(3) (the other order-48 extension of SL_2(3)) it has a
    single involution; each step of the search Q8 < SL_2(3) < 2.S4
    verifies that count, and proves the order 48 its handle records.
    A candidate <gens, t> is walked on SL_2(7)'s right-translation
    columns, as an index set of its one enumeration, from <gens> t.
    Its bounds (48, 24, 8, 2, 1) are exact: -I is SL_2(7)'s one involution,
    so G/<-I> has order 24 in PSL_2(7), an S_4, its only such subgroups
    (Dickson; Huppert, Endliche Gruppen I, II.8.27).  G^(i) maps onto S_4,
    A_4, V_4, 1 with kernel in <-I>: the search's chain is G'' < G' < G.
    """
    ambient = sl(2, 7)
    rows, column = ambient.rows(), _translations(ambient.columns())[2]
    orders = permmod.element_orders(rows, ambient.base())
    mats = ambient.action.matrices(rows).reshape(len(rows), -1)
    ranked = np.lexsort(mats.T[::-1]).tolist()  # by entries, row-major

    def extend(gens, k, order):
        """gens + [t], t the first of order k with <gens, t> of the given
        order and a single involution, grown from <gens>'s walk."""
        cols, base = [column(i) for i in gens], np.arange(len(rows)) == 0
        _walk(cols, base)
        for t in filter(lambda t: orders[t] == k, ranked):
            sub = base.copy()
            _walk(cols + [column(t)], sub, column(t)[base])
            if sub.sum() == order and np.count_nonzero(orders[sub] == 2) == 1:
                return gens + [t]
        return None

    quat = next(filter(None, (extend([i], 4, 8) for i in ranked
                              if orders[i] == 4)), None)
    sl23 = quat and extend(quat, 3, 24)
    bo = sl23 and extend(sl23, 8, 48)
    if bo is None:
        raise SearchFailed("no chain Q8 < SL_2(3) < 2.S4 found in SL_2(7)")
    return matrix_handle(ambient.from_perms(rows[bo]), "bo()",
                         (48, 24, 8, 2, 1))


# ---------------------------------------------------------------------------
# exterior-square group and its similitude extension


def exterior_square_group(p):
    """The p^6 group V x Lambda^2 V with commutator v1 ^ v2."""
    return model_handle(ExtSqModel(p), f"extsq({p})")


def semidirect_series_orders(k_orders, k_stacks, p):
    """Certified orders of the derived series of G = P |x K, for P the
    exterior-square group over F_p and K <= GL(3, p) acting by
    D_k = diag(k, wedge^2(k)), (v, w) -> (vk, w wedge^2(k)), an automorphism
    as (vk) ^ (v'k) = (v ^ v') wedge^2(k).

    G^(i) = M_i |x K^(i), M_i = G^(i) n P, as G^(i)P/P = K^(i) <= G^(i).
    P has class 2 and p is odd, so by the Baer correspondence (Khukhro,
    p-Automorphisms of Finite p-Groups, ch. 9) P is the Lie ring L = F_p^6,
    [x, y] = (0, 2 v_x ^ v_y), with product x + y + [x, y]/2: subgroups
    are subrings, normal ones ideals, the D_k Lie automorphisms,
    commutators in P brackets, and [m, k] = u - [m, u]/2, u = m(D_k - 1).
    Let S be the span of the [m, m'] and m(D_k - 1), for m, m' in a basis
    of M_(i-1) and k in the generators of K^(i-1).  S <= M_(i-1), so
    S D_k <= S, and by m(gh - 1) = m(g - 1)h + m(h - 1), u = m(g - 1) is
    in S for every g in K^(i-1).  As [[S, L], L] = 0, the ideal M_i holds
    [m, m'], c = u - [m, u]/2, [c, m] = [u, m] and so u: S + [S, L] <= M_i.
    And I = S + [S, L] is a K^(i-1)-invariant ideal; modulo I, M_(i-1) is
    abelian and centralized by K^(i-1), so G^(i) <= I K^(i), M_i <= I.
    So M_i = S + [S, L], the span of S's generating rows r and the
    [r, e_j], and |G^(i)| = |K^(i)| p^dim M_i, for K's derived orders
    k_orders and one (m, 3, 3) stack of generators of each K^(i), k_stacks
    (any set gives the same S; past the last term, the last: K need not
    be solvable), and wedge^2(k)'s rows the cross products of k's.
    """
    last, one = len(k_orders) - 1, np.eye(6, dtype=np.int64)

    def cross(v, w):  # wedge_vec on the last axes, unreduced, broadcast
        v, w = np.concatenate([v, v], -1), np.concatenate([w, w], -1)
        return v[..., 1:4] * w[..., 2:5] - v[..., 2:5] * w[..., 1:4]

    def bracket(v, w):  # of the rows with v-parts v and w, broadcast
        w = cross(v, w)
        return np.concatenate([0 * w, 2 * w], -1).reshape(-1, 6)

    basis, orders = one, [k_orders[0] * p ** 6]
    while len(orders) < 2 or orders[-1] != orders[-2]:
        i = len(orders)
        a = k_stacks[min(i - 1, last)]
        d = np.zeros((len(a), 6, 6), np.int64)
        twice = np.concatenate([a, a], 1)  # rows i + 1 and i + 2 as slices
        d[:, :3, :3], d[:, 3:, 3:] = a, cross(twice[:, 1:4], twice[:, 2:5])
        gen = np.concatenate([bracket(basis[:, None, :3], basis[:, :3]),
                              (basis @ (d - one)).reshape(-1, 6)])
        basis = row_space(np.concatenate(
            [gen, bracket(gen[:, None, :3], one[:3, :3])]), p)
        orders.append(k_orders[min(i, last)] * p ** len(basis))
    return tuple(orders[:-1])


def prop8_group(p):
    """G = P |x K for the p^6 exterior-square group P and the qutrit
    normalizer K acting by (v, w) -> (vA, w wedge^2(A)).

    The handle holds only what certifies it: the derived-series orders
    of semidirect_series_orders, as split_orders, K's series from the
    enumeration of Kbar that chose K's scalar (_qutrit).  It has no
    elements (no generators) and no permutation image, so asking it for a
    chain or an enumeration raises CapExceeded (GroupHandle.perm_generators)
    and the builders that take a permutation or matrix handle refuse it.
    """
    return GroupHandle((), [], name=f"prop8({p})", kind="split",
                       split_orders=semidirect_series_orders(
                           *_qutrit(p)[1](), p))
