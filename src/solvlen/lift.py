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
from .fpmat import (FpMatrix, QuadraticFormF2, _echelon, all_f2_vectors,
                    mat_invert, nullspace)
from .grp import _row_index, derived_series
from .atlas import (Extraspecial2Model, holomorph_perm, matrix_handle,
                    model_handle)

@dataclass(frozen=True)
class AutPair:
    """Automorphism (v, z) -> (vA, z + q(v)) of an Extraspecial2Model."""

    a: FpMatrix
    q: QuadraticFormF2

    def __post_init__(self):
        if self.a.p != 2 or self.a.n != self.q.dim:
            raise BadParameter("matrix and form dimensions differ")

    def apply(self, e):
        v = self.a.apply(e[:-1])
        return v + (e[-1] ^ self.q(e[:-1]),)


def quadratic_correction(a: FpMatrix, model: Extraspecial2Model) -> AutPair:
    """Solve for q making (v,z) -> (vA, z + q(v)) an automorphism.

    The required polarization of q is B(v1 A, v2 A) + B(v1, v2); a solution
    exists iff that defect vanishes on the diagonal, i.e. A preserves the
    squaring form.  The returned q has zero linear part.
    """
    if a.p != 2 or a.n != 2 * model.n:
        raise BadParameter("matrix does not match the model dimension")
    mat_invert(a)  # must be invertible
    dim = a.n
    for v in all_f2_vectors(dim):
        if model.squaring(a.apply(v)) != model.squaring(v):
            raise NotOrthogonal(
                "matrix moves the squaring form; no correction exists")

    # the law says the polarization of q must equal the bilinear defect
    # dB(v1, v2) = B(v1 A, v2 A) + B(v1, v2).  dB(v, v) = 0 for every v
    # (the squaring check above), so dB is alternating, and the
    # off-diagonal monomial form with coefficients dB(e_i, e_j), i < j,
    # has polarization exactly dB: the law holds, with zero linear part
    basis = [tuple(int(i == k) for k in range(dim)) for i in range(dim)]
    imgs = [a.apply(b) for b in basis]
    coeffs = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            coeffs[i][j] = model.bform(imgs[i], imgs[j]) \
                ^ model.bform(basis[i], basis[j])
    return AutPair(a, QuadraticFormF2.from_upper(coeffs))


def lift_generators(mats, model: Extraspecial2Model):
    """Lift a 1- or 2-element matrix generating set to AutPairs generating
    a split copy of the linear group inside Aut(2^{1+2n}).

    Offsets lam_j by linear functionals keep each pair an automorphism and
    enter every lift affinely over F_2.  The relators u_i g_j u_h^-1 of a
    spanning tree of <mats> generate the kernel of the free group onto
    <mats> (Schreier's lemma), so the lifts split iff each relator lifts
    to the identity.  That lift has matrix I, so its z-part is linear: one
    affine equation in the offsets per basis vector.  The first offsets,
    lam_1 major and ascending, that solve every equation are returned.
    """
    if not 1 <= len(mats) <= 2:
        raise BadParameter(f"need one or two matrices, got {len(mats)}")
    lin = matrix_handle(list(mats), "lift target")
    rows, cols = lin.closure([lin.to_perm(a) for a in mats])
    base = [quadratic_correction(a, model) for a in mats]
    dim, k = base[0].q.dim, len(mats)
    # a z-bit is packed as an affine function of the offsets: bit 0 its
    # value at lam = 0, bit 1 + dim * j + i its coefficient in lam_j[i]
    dtype = np.min_scalar_type(1 << 1 + dim * k)
    vecs, weight = all_f2_vectors(dim), 1 << np.arange(dim)
    img = np.array([np.array(vecs) @ b.a.entries % 2 @ weight for b in base])
    step = np.array([[b.q(v) | w << 1 + dim * j for w, v in enumerate(vecs)]
                     for j, b in enumerate(base)], dtype)
    # the first edge (i, j) into each element h spans a BFS tree: walk it a
    # stretch at a time, tracking e_m u_h and the z-bit at e_m of its lift
    first = np.unique(cols.T.ravel(), return_index=True)[1]
    first[0] = 0  # the root; the other parents ascend
    parent, gen = first // k, first % k
    vec = np.zeros((len(rows), dim), np.int16)
    z = np.zeros((len(rows), dim), dtype)
    vec[0], done = weight, 1
    while done < len(rows):
        stop = np.searchsorted(parent, done)
        i, j = parent[done:stop], gen[done:stop, None]
        vec[done:stop], z[done:stop] = img[j, vec[i]], z[i] ^ step[j, vec[i]]
        done = stop
    # the relator of edge (i, j) -> h lifts to the identity iff its z-part
    # z_i + q_j(e_m u_i) + z_h vanishes at every e_m
    eqs = np.unique(z ^ step[np.arange(k)[:, None, None], vec] ^ z[cols])
    # solve over F_2 with the unknowns least significant first, lam_k bit
    # 0 up to lam_1 bit dim - 1, and the constant (z-bit 0) last
    bits = [1 + dim * (k - 1 - c // dim) + c % dim for c in range(dim * k)]
    echelon = _echelon((eqs[:, None] >> np.array(bits + [0]) & 1).tolist(), 2)
    if dim * k not in echelon:  # else some equation reads 0 = 1
        # a pivot bit depends only on the more significant free bits, so
        # free bits 0 and pivot bits their constants give the least
        # solution, lam_1 major: the first hit of a scan over all offsets
        least = sum(row[-1] << c for c, row in echelon.items())
        lams = [least >> dim * (k - 1 - j) & (1 << dim) - 1 for j in range(k)]
        # lam . v = sum of lam_i v_i^2: flip q's diagonal
        return [AutPair(b.a, QuadraticFormF2.from_upper(
            [[c ^ (i == m and lam >> i & 1) for m, c in enumerate(row)]
             for i, row in enumerate(b.q.coeffs)]))
            for b, lam in zip(base, lams)]
    raise SearchExhausted(f"no offsets give a split lift of order {len(rows)}")


# ---------------------------------------------------------------------------
# the order-165888 witness of derived length 8


def _f4_matrix_to_gl6(rows):
    """Restrict scalars: a 3x3 matrix with F_4 entries (a, b) meaning
    a + bw becomes a 6x6 F_2 matrix of 2x2 blocks [[a, b], [b, a+b]]."""
    out = [[0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            a, b = rows[i][j]
            out[2 * i][2 * j:2 * j + 2] = a, b
            out[2 * i + 1][2 * j:2 * j + 2] = b, a ^ b
    return FpMatrix.from_rows(out, 2)


def _frobenius_gl6():
    """x -> x^2 on F_4, componentwise: blocks 1 -> 1, w -> 1 + w."""
    out = [[0] * 6 for _ in range(6)]
    for i in range(3):
        out[2 * i][2 * i] = 1
        out[2 * i + 1][2 * i:2 * i + 2] = 1, 1
    return FpMatrix.from_rows(out, 2)


ZERO, ONE, W, W2 = (0, 0), (1, 0), (0, 1), (1, 1)


def f4_model_generators():
    """The 1296-element linear group over F_4, restricted to GL_6(2):
    qutrit shift, two diagonal phase matrices, the Fourier matrix, and
    the field automorphism."""
    x = [[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ONE, ZERO, ZERO]]
    z = [[ONE, ZERO, ZERO], [ZERO, W, ZERO], [ZERO, ZERO, W2]]
    s = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, W]]
    pow_w = [ONE, W, W2]
    m = [[pow_w[(j * k) % 3] for k in range(3)] for j in range(3)]
    mats = [_f4_matrix_to_gl6(r) for r in (x, z, s, m)]
    mats.append(_frobenius_gl6())
    return mats


def two_generator_reduction(handle, order):
    """First pair (by descending element order, then enumeration index)
    generating the whole group.

    Each candidate pair's subgroup is enumerated by handle.closure on its
    two image rows, so a failed pair yields a whole proper subgroup.  Each
    one found gets a bit in member[e], set for every element it contains;
    a pair whose members share a bit lies in a known proper subgroup and
    is skipped without a closure.  Only pairs proven to fail are skipped,
    so the returned pair is the same as for the exhaustive search.
    """
    rows = handle.rows()
    if len(rows) != order:
        raise SearchFailed(f"group has order {len(rows)}, wanted {order}")
    find = _row_index(rows)
    orders = permmod.perm_order_of(rows)
    ranked = np.argsort(-orders, kind="stable").tolist()
    member = [0] * order
    bit = 1
    for i1 in ranked:
        for i2 in ranked:
            if member[i1] & member[i2]:
                continue
            sub = handle.closure(rows[[i1, i2]])[0]
            if len(sub) == order:
                return handle.from_perms(rows[[i1, i2]])
            for e in find(sub):
                member[e] |= bit
            bit <<= 1
    raise SearchFailed("no 2-element generating set found")


def invariant_quadratic_form(mats):
    """Solve the linear system q(vA) = q(v) over the coefficient space and
    return a nondegenerate solution of minus type (Arf 1)."""
    if not mats:
        raise BadParameter("need at least one matrix")
    dim = mats[0].n
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    rows = []
    for a in mats:
        for v in all_f2_vectors(dim):
            av = a.apply(v)
            row = [(av[i] & av[j]) ^ (v[i] & v[j]) for i, j in pairs]
            if any(row):
                rows.append(row)
    basis = nullspace(rows, len(pairs), 2)
    best = None
    for mask in range(1, 2 ** len(basis)):
        combo = [0] * len(pairs)
        for bi, vec in enumerate(basis):
            if (mask >> bi) & 1:
                combo = [a ^ b for a, b in zip(combo, vec)]
        coeffs = [[0] * dim for _ in range(dim)]
        for (i, j), c in zip(pairs, combo):
            coeffs[i][j] = c
        q = QuadraticFormF2.from_upper(coeffs)
        try:
            arf = q.arf()
        except BadParameter:
            continue
        if arf == 1:
            return q
        best = q
    if best is not None:
        raise SearchFailed("invariant forms exist but none has Arf 1")
    raise SearchFailed("no nondegenerate invariant quadratic form")


_D8_CACHE = {}


def d8_group():
    """The degree-128 witness of derived length 8: a 1296-element linear
    group over F_2^6 lifted onto the minus-type extraspecial 2^{1+6}.

    two_generator_reduction certifies the order 1296 as it picks the
    pair, the invariant form fixes the model, and lift_generators
    certifies the split by the Schreier relators of one enumeration of the
    linear group; the order 165888 of the holomorph checks it again.
    Returns (handle, report), cached.
    """
    if "group" in _D8_CACHE:
        return _D8_CACHE["group"]
    mats = f4_model_generators()
    g1, g2 = two_generator_reduction(matrix_handle(mats, "qbar"), 1296)
    q_inv = invariant_quadratic_form([g1, g2])
    model = Extraspecial2Model(3, "-", cocycle=q_inv.coeffs)
    pairs = lift_generators([g1, g2], model)
    ph = model_handle(model, "2^(1+6)-")
    h = holomorph_perm(ph, [p.apply for p in pairs])
    h.name = "d8()"
    if h.order() != 165888:
        raise SearchFailed(f"stage v: order {h.order()}")
    report = derived_series(h)
    if report.d != 8 or report.c != 15:
        raise SearchFailed(f"stage v: d = {report.d}, c = {report.c}")
    _D8_CACHE["group"] = (h, report)
    return h, report
