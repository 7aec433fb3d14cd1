"""Oracle tests for the F_p linear algebra layer.

Inverses are checked against the defining identity and a Leibniz
determinant, the wedge action against det(A) (A^-1)^T and direct
computation on decomposable vectors, and null spaces against the echelon
rank and the former F_2 routine.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (algebra_dimension, echelon, f2_nullspace, form_value,
                     mat_apply, mat_det, mat_invert, mat_mul, mat_transpose,
                     wedge_square)
from solvlen.errors import BadParameter, NotSimilitude, Singular
from solvlen.fpmat import (FpMatrix, QuadraticFormF2, all_f2_vectors,
                           check_invertible, nullspace, row_space,
                           similitude_factor, wedge_vec)


def rand_matrix(draw_entries, n, p):
    return FpMatrix.from_rows(
        [[draw_entries[i * n + j] for j in range(n)] for i in range(n)], p)


@st.composite
def fp_matrices(draw, nmax=4):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, nmax))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n,
                            max_size=n * n))
    return rand_matrix(entries, n, p)


@settings(max_examples=150, deadline=None)
@given(fp_matrices())
def test_inverse_identity(a):
    try:
        inv = mat_invert(a)
    except Singular:
        assert mat_det(a) == 0
        with pytest.raises(Singular):
            check_invertible(a)
        return
    assert mat_det(a) != 0
    check_invertible(a)
    one = FpMatrix.identity(a.n, a.p)
    assert mat_mul(a, inv) == one
    assert mat_mul(inv, a) == one


def test_matrix_validation():
    with pytest.raises(BadParameter):
        FpMatrix(3, ((0, 1), (2,)))
    with pytest.raises(BadParameter):
        FpMatrix(3, ((0, 5), (1, 1)))
    with pytest.raises(BadParameter):
        FpMatrix(4, ((1,),))  # 4 is not prime
    m = FpMatrix.from_rows([[7, -1], [0, 1]], 3)
    assert m.entries == ((1, 2), (0, 1))


def test_apply_is_row_vector_action():
    a = FpMatrix.from_rows([[1, 2], [3, 4]], 5)
    assert mat_apply(a, (1, 0)) == (1, 2)
    assert mat_apply(a, (0, 1)) == (3, 4)
    assert mat_apply(a, (1, 1)) == (4, 1)


def _make_invertible(entries, p):
    """Nudge the diagonal until the matrix leaves the singular locus; if
    every shift is singular, keep the strictly lower part (unit diagonal
    forces determinant 1)."""
    m = rand_matrix(entries, 3, p)
    for t in range(p):
        shifted = FpMatrix.from_rows(
            [[(x + (t if i == j else 0)) % p for j, x in enumerate(row)]
             for i, row in enumerate(m.entries)], p)
        if mat_det(shifted):
            return shifted
    return FpMatrix.from_rows(
        [[1 if i == j else (m.entries[i][j] if i > j else 0)
          for j in range(3)] for i in range(3)], p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_wedge_square_functorial(p, data):
    ea = data.draw(st.lists(st.integers(0, p - 1), min_size=9, max_size=9))
    eb = data.draw(st.lists(st.integers(0, p - 1), min_size=9, max_size=9))
    a = _make_invertible(ea, p)
    b = _make_invertible(eb, p)
    assert wedge_square(mat_mul(a, b)) == \
        mat_mul(wedge_square(a), wedge_square(b))
    # decomposables transform the right way: (vA) ^ (wA) = (v ^ w) L(A)
    wa = wedge_square(a)
    for v in ((1, 0, 0), (0, 1, 2), (1, 1, 1)):
        for w in ((0, 0, 1), (2, 1, 0)):
            lhs = wedge_vec(mat_apply(a, v), mat_apply(a, w), p)
            rhs = mat_apply(wa, wedge_vec(v, w, p))
            assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_wedge_square_matches_cofactor_oracle(p, data):
    # on the basis e2^e3, e3^e1, e1^e2 the exterior square of A is its
    # cofactor matrix det(A) (A^-1)^T
    a = _make_invertible(
        data.draw(st.lists(st.integers(0, p - 1), min_size=9, max_size=9)),
        p)
    assert wedge_square(a) == \
        mat_transpose(mat_invert(a)).scale(mat_det(a))


def test_wedge_of_scalar_is_scalar_squared():
    for p in (7, 13):
        for c in range(2, 5):
            a = FpMatrix.diagonal([c, c, c], p)
            assert wedge_square(a) == FpMatrix.diagonal(
                [c * c, c * c, c * c], p)


def test_wedge_vec_is_cross_product():
    assert wedge_vec((1, 0, 0), (0, 1, 0), 5) == (0, 0, 1)
    assert wedge_vec((0, 1, 0), (1, 0, 0), 5) == (0, 0, 4)
    assert wedge_vec((1, 2, 3), (1, 2, 3), 7) == (0, 0, 0)


def test_symplectic_standard_and_similitude():
    # scalar c scales the standard form by c^2
    c = FpMatrix.diagonal([2, 2, 2, 2], 3)
    assert similitude_factor(c) == 1
    # a non-similitude: unequal scaling on the two hyperbolic planes
    bad = FpMatrix.diagonal([1, 1, 1, 2], 3)
    with pytest.raises(NotSimilitude):
        similitude_factor(bad)
    # swapping e1 and e3 maps the form to its negative
    swap = FpMatrix.from_rows([[0, 0, 1, 0], [0, 1, 0, 0],
                               [1, 0, 0, 0], [0, 0, 0, 1]], 3)
    with pytest.raises(NotSimilitude):
        similitude_factor(swap)
    with pytest.raises(BadParameter):
        similitude_factor(FpMatrix.identity(3, 3))
    with pytest.raises(Singular):
        similitude_factor(FpMatrix.diagonal([1, 0], 3))


def test_every_gl2_element_is_a_similitude():
    # in dimension 2 the symplectic form is the determinant pairing
    for entries in itertools.product(range(5), repeat=4):
        m = FpMatrix.from_rows([entries[:2], entries[2:]], 5)
        d = mat_det(m)
        if d == 0:
            continue
        assert similitude_factor(m) == d


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_row_reduce_span_invariants(p, data):
    n = data.draw(st.integers(1, 5))
    vecs = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=0, max_size=6))
    basis = row_space(np.reshape(vecs, (-1, n)), p)
    pivots = (basis != 0).argmax(axis=1)
    assert len(basis) <= n and (np.diff(pivots) > 0).all()
    for piv, row in zip(pivots, basis):
        assert row[piv] == 1 and not row[:piv].any()
        assert not row[pivots[pivots != piv]].any()
    # reducing the basis rows again changes nothing, and every input
    # vector lies in their span
    assert row_space(basis, p).tolist() == basis.tolist()
    for v in vecs:
        assert len(row_space(np.vstack([basis, v]), p)) == len(basis)


@pytest.mark.parametrize("p", [2, 3, 7, 31])
def test_row_space_matches_echelon(p):
    # the numpy elimination against the echelon oracle on seeded stacks:
    # all-zero, rank-1 and full-rank ones, and random ones of every shape;
    # both give the reduced echelon form, so the rows agree in pivot order
    rng = np.random.default_rng(p)
    line = rng.integers(0, p, 6)
    line[rng.integers(6)] = 1
    cases = [(np.zeros((5, 6), np.int64), 0), (np.zeros((0, 6), np.int64), 0),
             (rng.integers(1, p, (7, 1)) * line, 1),
             (rng.permutation(np.vstack(
                 [np.eye(6, dtype=np.int64), rng.integers(0, p, (4, 6))])), 6)]
    cases += [(rng.integers(-p, 2 * p, (rows, cols)), None)
              for rows in (1, 3, 8, 20) for cols in (1, 4, 6)]
    for a, rank in cases:
        basis = echelon(a.tolist(), p)
        got = row_space(a, p)
        assert got.tolist() == [basis[c] for c in sorted(basis)]
        assert rank is None or len(got) == rank
        # the same row space: each input row adds nothing to the basis
        assert all(len(row_space(np.vstack([got, r]), p)) == len(got)
                   for r in a)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_nullspace_oracle(p, data):
    ncols = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
        min_size=0, max_size=10))
    basis = nullspace(rows, ncols, p)
    # every basis vector annihilates every row
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) % p == 0
    # rank-nullity against the echelon rank, and independence
    assert len(basis) == ncols - len(echelon(rows, p))
    assert len(echelon(basis, p)) == len(basis)
    if p == 2:  # the d = 8 form is chosen from this exact basis
        assert basis == f2_nullspace(rows, ncols)


def test_spin_detects_reducibility():
    # controls of the algebra_dimension oracle: under the row-vector action
    # upper triangular matrices fix span(e2), and they span only the
    # 3-dimensional algebra of upper triangular matrices
    gens = [FpMatrix.from_rows([[1, 1], [0, 1]], 3),
            FpMatrix.from_rows([[2, 0], [0, 1]], 3)]
    assert algebra_dimension(gens) == 3


def test_spin_confirms_s3_irreducible():
    from solvlen.atlas import s3mat
    assert algebra_dimension(s3mat(5).generators) == 4


def test_quadratic_form_arf_types():
    # standard plus form x1 y1 + x2 y2 on F_2^4
    plus = QuadraticFormF2.from_upper([[0, 0, 1, 0], [0, 0, 0, 1],
                                       [0, 0, 0, 0], [0, 0, 0, 0]])
    assert plus.arf() == 0
    assert plus.zeros() == 2 ** 3 + 2 ** 1
    # minus form adds x1^2 + y1^2
    minus = QuadraticFormF2.from_upper([[1, 0, 1, 0], [0, 0, 0, 1],
                                        [0, 0, 1, 0], [0, 0, 0, 0]])
    assert minus.arf() == 1
    assert minus.zeros() == 2 ** 3 - 2 ** 1
    degenerate = QuadraticFormF2.from_upper([[1, 0], [0, 0]])
    with pytest.raises(BadParameter):
        degenerate.arf()


@pytest.mark.parametrize("dim", range(2, 9))
def test_form_values_match_pointwise_evaluation(dim):
    # values() evaluates q on all of F_2^dim at once, in all_f2_vectors
    # order; q(v) is the pointwise sum over the coefficient table
    rng = random.Random(100 + dim)
    for _ in range(5):
        q = QuadraticFormF2.from_upper(
            [[rng.randrange(2) if j >= i else 0 for j in range(dim)]
             for i in range(dim)])
        pointwise = [form_value(q, v) for v in all_f2_vectors(dim)]
        assert q.values().tolist() == pointwise
        assert q.zeros() == pointwise.count(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_polarization_is_bilinear(dim, data):
    coeffs = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            coeffs[i][j] = data.draw(st.integers(0, 1))
    q = QuadraticFormF2.from_upper(coeffs)
    vecs = all_f2_vectors(dim)
    u = data.draw(st.sampled_from(vecs))
    v = data.draw(st.sampled_from(vecs))
    w = data.draw(st.sampled_from(vecs))

    def add(x, y):
        return tuple(a ^ b for a, b in zip(x, y))

    def polarize(x, y):
        return (form_value(q, add(x, y)) ^ form_value(q, x)
                ^ form_value(q, y))
    vw = add(v, w)
    assert polarize(u, vw) == polarize(u, v) ^ polarize(u, w)
    assert polarize(u, v) == polarize(v, u)
    assert polarize(u, u) == 0
