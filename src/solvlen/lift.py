"""Char-2 automorphism lifting and the derived-length-8 witness.

Over F_2 a matrix A preserving the polarization of an extraspecial model
2^{1+2n} does not automatically act on the group: the cocycle picks up a
quadratic defect.  quadratic_correction solves for a form q so that
(v, z) -> (vA, z + q(v)) multiplies correctly, which is possible exactly
when A also preserves the squaring form.  The corrections are unique up to
a linear functional, and the offsets enter every lift affinely, so
lift_generators decides all of them at once: the lifts split exactly when
each Schreier relator of the linear group's spanning tree lifts to the
identity, a system of affine equations in the offsets over F_2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import perm as permmod
from .errors import (BadParameter, NotOrthogonal, SearchExhausted,
                     SearchFailed)
from .fpmat import (FpMatrix, QuadraticFormF2, all_f2_vectors,
                    check_invertible, nullspace, row_space)
from .grp import _stretches, _translations, _walk, derived_series
from .atlas import (Extraspecial2Model, holomorph_perm, matrix_handle,
                    model_handle, split_holomorph)

@dataclass(frozen=True)
class AutPair:
    """Automorphism (v, z) -> (vA, z + q(v)) of an Extraspecial2Model."""

    a: FpMatrix
    q: QuadraticFormF2

    def __post_init__(self):
        if self.a.p != 2 or self.a.n != self.q.dim:
            raise BadParameter("matrix and form dimensions differ")

    def images(self):
        """The images (e_i A, q(e_i)) of the generators (e_i, 0)."""
        return [row + (self.q.coeffs[i][i],)
                for i, row in enumerate(self.a.entries)]


def _image_index(a: FpMatrix):
    """The index in all_f2_vectors(n) of vA, for each v in that order."""
    return np.array(all_f2_vectors(a.n)) @ a.entries % 2 @ 2 ** np.arange(a.n)


def quadratic_correction(a: FpMatrix, model: Extraspecial2Model) -> AutPair:
    """Solve for q making (v,z) -> (vA, z + q(v)) an automorphism.

    The required polarization of q is B(v1 A, v2 A) + B(v1, v2); a solution
    exists iff that defect vanishes on the diagonal, i.e. A preserves the
    squaring form.  The returned q has zero linear part.
    """
    if a.p != 2 or a.n != 2 * model.n:
        raise BadParameter("matrix does not match the model dimension")
    check_invertible(a)
    square = QuadraticFormF2.from_upper(model.cocycle).values()  # B(v, v)
    if (square[_image_index(a)] != square).any():
        raise NotOrthogonal(
            "matrix moves the squaring form; no correction exists")

    # the law says the polarization of q must equal the bilinear defect
    # dB(v1, v2) = B(v1 A, v2 A) + B(v1, v2).  dB(v, v) = 0 for every v
    # (the squaring check above), so dB is alternating, and the
    # off-diagonal monomial form with coefficients dB(e_i, e_j), i < j,
    # the strict upper triangle of A C A^T + C, has polarization exactly
    # dB: the law holds, with zero linear part
    c, m = np.array(model.cocycle), np.array(a.entries)
    return AutPair(a, QuadraticFormF2.from_upper(
        np.triu((m @ c @ m.T + c) % 2, 1).tolist()))


def lift_generators(mats, model: Extraspecial2Model, cols):
    """Lift a 1- or 2-element matrix generating set to AutPairs generating
    a split copy of the linear group inside Aut(2^{1+2n}).

    Offsets lam_j by linear functionals keep each pair an automorphism and
    enter every lift affinely over F_2.  The relators u_i g_j u_h^-1 of a
    spanning tree of <mats> generate the kernel of the free group onto
    <mats> (Schreier's lemma), so the lifts split iff each relator lifts
    to the identity.  That lift has matrix I, so its z-part is linear: one
    affine equation in the offsets per basis vector.  The first offsets,
    lam_1 major and ascending, that solve every equation are returned.
    The tree is that of cols, right-translation columns of <mats> by mats
    in a breadth-first walk.
    """
    if not 1 <= len(mats) <= 2:
        raise BadParameter(f"need one or two matrices, got {len(mats)}")
    base = [quadratic_correction(a, model) for a in mats]
    dim, k = base[0].q.dim, len(mats)
    # a z-bit is packed as an affine function of the offsets: bit 0 its
    # value at lam = 0, bit 1 + dim * j + i its coefficient in lam_j[i]
    dtype = np.min_scalar_type(1 << 1 + dim * k)
    weight, w = 1 << np.arange(dim), np.arange(1 << dim)
    img = np.array([_image_index(b.a) for b in base])
    step = np.array([b.q.values() | w << 1 + dim * j
                     for j, b in enumerate(base)], dtype)
    # walk the BFS tree a stretch of done parents at a time, tracking
    # e_m u_h and the z-bit at e_m of its lift
    parent, gen, _ = _translations(cols)
    order = cols.shape[1]
    vec = np.zeros((order, dim), np.int16)
    z = np.zeros((order, dim), dtype)
    vec[0] = weight
    for part in _stretches(parent):
        i, j = parent[part], gen[part, None]
        vec[part], z[part] = img[j, vec[i]], z[i] ^ step[j, vec[i]]
    # the relator of edge (i, j) -> h lifts to the identity iff its z-part
    # z_i + q_j(e_m u_i) + z_h vanishes at every e_m
    eqs = np.flatnonzero(np.bincount(
        (z ^ step[np.arange(k)[:, None, None], vec] ^ z[cols]).ravel()))
    # solve over F_2 with the unknowns least significant first, lam_k bit
    # 0 up to lam_1 bit dim - 1, and the constant (z-bit 0) last
    bits = [1 + dim * (k - 1 - c // dim) + c % dim for c in range(dim * k)]
    echelon = row_space(eqs[:, None] >> np.array(bits + [0]) & 1, 2)
    pivots = (echelon != 0).argmax(axis=1)
    if dim * k not in pivots:  # else some equation reads 0 = 1
        # a pivot bit depends only on the more significant free bits, so
        # free bits 0 and pivot bits their constants give the least
        # solution, lam_1 major: the first hit of a scan over all offsets
        least = int(echelon[:, -1] @ (1 << pivots))
        lams = [least >> dim * (k - 1 - j) & (1 << dim) - 1 for j in range(k)]
        # lam . v = sum of lam_i v_i^2: flip q's diagonal
        return [AutPair(b.a, QuadraticFormF2.from_upper(
            (b.q.coeffs ^ np.diag(lam >> np.arange(dim) & 1)).tolist()))
            for b, lam in zip(base, lams)]
    raise SearchExhausted(f"no offsets give a split lift of order {order}")


# ---------------------------------------------------------------------------
# the order-165888 witness of derived length 8


def _f4_matrix_to_gl6(rows):
    """Restrict scalars: a 3x3 matrix with F_4 entries (a, b) meaning
    a + bw becomes a 6x6 F_2 matrix of 2x2 blocks [[a, b], [b, a+b]],
    that is a I + b W for W = [[0, 1], [1, 1]], multiplication by w."""
    ab = np.array(rows)
    return FpMatrix.from_rows((np.kron(ab[..., 0], np.eye(2, dtype=int))
                               + np.kron(ab[..., 1], [[0, 1], [1, 1]]))
                              .tolist(), 2)


ZERO, ONE, W, W2 = (0, 0), (1, 0), (0, 1), (1, 1)


def f4_model_generators():
    """The 1296-element linear group over F_4, restricted to GL_6(2):
    qutrit shift, two diagonal phase matrices, the Fourier matrix, and
    the field automorphism x -> x^2, componentwise (1 -> 1, w -> 1 + w)."""
    x = [[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ONE, ZERO, ZERO]]
    z = [[ONE, ZERO, ZERO], [ZERO, W, ZERO], [ZERO, ZERO, W2]]
    s = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, W]]
    m = [[(ONE, W, W2)[j * k % 3] for k in range(3)] for j in range(3)]
    frobenius = np.kron(np.eye(3, dtype=int), [[1, 0], [1, 1]]).tolist()
    return [_f4_matrix_to_gl6(r) for r in (x, z, s, m)] + [
        FpMatrix.from_rows(frobenius, 2)]


def _first_free(subs, ranked, start):
    """(i, free): the first i >= start at which ranked[i] shares no row of
    the boolean matrix subs (subgroups x elements) with some element, free
    marking those, or None.  Equal signatures (columns, np.packbits-packed
    for any number of rows) are classed by bincount, with no sort."""
    sig, ids = np.packbits(subs, axis=0), np.zeros(subs.shape[1], np.intp)
    for byte in sig:
        ids = ids << 8 | byte
        ids = np.cumsum(np.bincount(ids) > 0)[ids] - 1
    rep = np.zeros(ids.max() + 1, np.intp)
    rep[ids] = np.arange(len(ids))  # an element of each class
    clash = (sig[:, rep, None] & sig[:, None, rep]).any(axis=0)
    hit = start + (~clash.all(axis=1)[ids[ranked[start:]]]).nonzero()[0]
    return (hit[0], ~clash[ids[ranked[hit[0]]]][ids]) if len(hit) else None


def two_generator_reduction(handle, order):
    """First pair (by descending element order, then enumeration index)
    generating the whole group, and the winning walk: the group's
    right-translation columns by the pair, in the order walked.

    Each pair's subgroup is walked from the identity (row 0) on the
    right-translation columns; a failed pair's is kept as a boolean row
    over the elements, and a pair that one kept subgroup holds is not
    walked (_first_free): the pair returned is the exhaustive search's.
    """
    rows = handle.rows()
    if len(rows) != order:
        raise SearchFailed(f"group has order {len(rows)}, wanted {order}")
    ranked = np.argsort(-permmod.element_orders(rows, handle.base()),
                        kind="stable")
    column = _translations(handle.columns())[2]
    subs, start = np.zeros((0, order), bool), 0
    while hit := _first_free(subs, ranked, start):
        start, free = hit  # the next call resumes at i1, then not free
        i1 = ranked[start]
        while len(left := ranked[free[ranked]]):
            pair, sub = [column(i1), column(left[0])], np.arange(order) == 0
            found = _walk(pair, sub)
            if sub.all():
                gens = handle.from_perms(rows[[i1, left[0]]])
                pos = np.empty(order, np.int32)  # -> walk index
                pos[found] = np.arange(order)
                return gens, pos[np.array(pair)[:, found]]
            free &= ~sub
            subs = np.vstack([subs, sub])
    raise SearchFailed("no 2-element generating set found")


def invariant_quadratic_form(mats):
    """Solve the linear system q(vA) = q(v) over the coefficient space and
    return a nondegenerate solution of minus type (Arf 1).

    f(v) = q(vA) + q(v) is a quadratic form, linear in q: its v_i^2 and
    v_i v_j coefficients are f(e_i) and f(e_i + e_j) + f(e_i) + f(e_j).
    So the equations f = 0 at the e_i and e_i + e_j, i < j (21 for dim
    6) span those at all 2^dim vectors; a span has one reduced echelon
    form, so the null-space basis and the form picked are the same.
    """
    if not mats:
        raise BadParameter("need at least one matrix")
    dim = mats[0].n
    i, j = np.triu_indices(dim)  # coefficient c[i][j], i <= j, row-major
    vecs = np.eye(dim, dtype=int)[i] | np.eye(dim, dtype=int)[j]  # e_i | e_j
    av = np.array([vecs @ a.entries for a in mats]) % 2
    rows = av[..., i] & av[..., j] ^ vecs[:, i] & vecs[:, j]  # one per vA
    basis = nullspace(rows, len(i), 2)
    basis = np.array(basis, int)
    plus = False
    for mask in range(1, 2 ** len(basis)):
        coeffs = np.zeros((dim, dim), int)
        coeffs[i, j] = (mask >> np.arange(len(basis)) & 1) @ basis % 2
        q = QuadraticFormF2.from_upper(coeffs.tolist())
        try:
            if q.arf() == 1:
                return q
            plus = True
        except BadParameter:
            pass
    raise SearchFailed("invariant forms exist but none has Arf 1" if plus
                       else "no nondegenerate invariant quadratic form")


_D8_CACHE = {}


def d8_group():
    """The degree-128 witness of derived length 8: a 1296-element linear
    group K over F_2^6 lifted onto the minus-type extraspecial 2^{1+6}.
    Returns (handle, report), cached.  two_generator_reduction proves |K|,
    and its walk is K's tree for lift_generators and split_holomorph.
    """
    if "group" in _D8_CACHE:
        return _D8_CACHE["group"]
    qbar = matrix_handle(f4_model_generators(), "qbar")
    (g1, g2), cols = two_generator_reduction(qbar, 1296)
    q_inv = invariant_quadratic_form([g1, g2])
    model = Extraspecial2Model(3, "-", cocycle=q_inv.coeffs)
    pairs = lift_generators([g1, g2], model, cols)
    ph = model_handle(model, "2^(1+6)-")
    h = split_holomorph(holomorph_perm(ph, [p.images() for p in pairs]),
                        cols, "d8()")
    report = derived_series(h)
    if (h.order(), report.d, report.c) != (165888, 8, 15):
        raise SearchFailed(f"stage v: order {h.order()}, d = {report.d}, "
                           f"c = {report.c}")
    _D8_CACHE["group"] = (h, report)
    return h, report
