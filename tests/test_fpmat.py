"""Oracle tests for the F_p linear algebra layer.

Determinants are checked against the permutation expansion, inverses
against the defining identity, and the wedge action against direct
computation on decomposable vectors.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from helpers import mat_det
from solvlen.errors import (BadParameter, DimensionTooLarge, NotSimilitude,
                            Singular)
from solvlen.fpmat import (FpMatrix, QuadraticFormF2, SymplecticForm,
                           _projective_lines, _row_reduce, all_f2_vectors,
                           mat_invert, similitude_factor,
                           spin_all_lines, wedge_square, wedge_vec)


def det_by_permanent_expansion(a):
    """Leibniz formula, the independent determinant oracle."""
    n, p = a.n, a.p
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= a.entries[i][perm[i]]
        total += term
    return total % p


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
def test_det_matches_leibniz(a):
    assert mat_det(a) == det_by_permanent_expansion(a)


@settings(max_examples=150, deadline=None)
@given(fp_matrices())
def test_inverse_identity(a):
    try:
        inv, det = mat_invert(a)
    except Singular:
        assert det_by_permanent_expansion(a) == 0
        return
    assert det != 0
    one = FpMatrix.identity(a.n, a.p)
    assert a * inv == one
    assert inv * a == one


@settings(max_examples=100, deadline=None)
@given(fp_matrices(), st.data())
def test_det_multiplicative(a, data):
    n, p = a.n, a.p
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n,
                                 max_size=n * n))
    b = rand_matrix(entries, n, p)
    assert mat_det(a * b) == mat_det(a) * mat_det(b) % p


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
    assert a.apply((1, 0)) == (1, 2)
    assert a.apply((0, 1)) == (3, 4)
    assert a.apply((1, 1)) == (4, 1)


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
    assert wedge_square(a * b) == wedge_square(a) * wedge_square(b)
    # decomposables transform the right way: (vA) ^ (wA) = (v ^ w) L(A)
    wa = wedge_square(a)
    for v in ((1, 0, 0), (0, 1, 2), (1, 1, 1)):
        for w in ((0, 0, 1), (2, 1, 0)):
            lhs = wedge_vec(a.apply(v), a.apply(w), p)
            rhs = wa.apply(wedge_vec(v, w, p))
            assert lhs == rhs


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
    form = SymplecticForm.standard(4, 3)
    assert form.pair((1, 0, 0, 0), (0, 0, 1, 0)) == 1
    assert form.pair((0, 0, 1, 0), (1, 0, 0, 0)) == 2
    # scalar c scales the form by c^2
    c = FpMatrix.diagonal([2, 2, 2, 2], 3)
    assert similitude_factor(c, form) == 1
    # a non-similitude: unequal scaling on the two hyperbolic planes
    bad = FpMatrix.diagonal([1, 1, 1, 2], 3)
    with pytest.raises(NotSimilitude):
        similitude_factor(bad, form)
    with pytest.raises(BadParameter):
        SymplecticForm(FpMatrix.from_rows([[1, 0], [0, 1]], 3))


def test_every_gl2_element_is_a_similitude():
    # in dimension 2 the symplectic form is the determinant pairing
    form = SymplecticForm.standard(2, 5)
    import itertools as it
    for entries in it.product(range(5), repeat=4):
        m = FpMatrix.from_rows([entries[:2], entries[2:]], 5)
        d = mat_det(m)
        if d == 0:
            continue
        assert similitude_factor(m, form) == d


def test_projective_line_count():
    for n, p in ((2, 3), (3, 3), (2, 7), (3, 5)):
        lines = _projective_lines(n, p)
        assert len(lines) == (p ** n - 1) // (p - 1)
        assert len(set(lines)) == len(lines)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_row_reduce_span_invariants(p, data):
    n = data.draw(st.integers(1, 5))
    vecs = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=0, max_size=6))
    basis = _row_reduce(vecs, p)
    assert len(basis) <= n
    pivots = [piv for _, piv in basis]
    assert pivots == sorted(pivots)
    assert len(set(pivots)) == len(pivots)
    for row, piv in basis:
        assert row[piv] == 1
    # reducing the basis rows again changes nothing
    again = _row_reduce([row for row, _ in basis], p)
    assert [r for r, _ in again] == [r for r, _ in basis]


def test_spin_detects_reducibility():
    # under the row-vector action upper triangular matrices fix span(e2)
    gens = [FpMatrix.from_rows([[1, 1], [0, 1]], 3),
            FpMatrix.from_rows([[2, 0], [0, 1]], 3)]
    irr, witness = spin_all_lines(gens)
    assert not irr
    assert witness == ((0, 1),)


def test_spin_confirms_s3_irreducible():
    from solvlen.atlas import s3mat
    irr, witness = spin_all_lines(s3mat(5).generators)
    assert irr and witness is None


def test_spin_refuses_large_inputs():
    with pytest.raises(DimensionTooLarge):
        spin_all_lines([FpMatrix.identity(3, 11)])


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
        return q(add(x, y)) ^ q(x) ^ q(y)
    vw = add(v, w)
    assert polarize(u, vw) == polarize(u, v) ^ polarize(u, w)
    assert polarize(u, v) == polarize(v, u)
    assert polarize(u, u) == 0
