"""Automorphism lifting over the minus-type 2^{1+6}."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import chain_fingerprint
from solvlen import atlas, grp
from solvlen import perm as permmod
from solvlen.atlas import Extraspecial2Model, model_handle
from solvlen.errors import (BadParameter, NotOrthogonal, SearchExhausted,
                            SearchFailed)
from solvlen.fpmat import FpMatrix, QuadraticFormF2, all_f2_vectors
from solvlen.lift import (AutPair, _f2_nullspace, _form_from_function,
                          _linear_offset, _offset_perms, _q_add,
                          f4_model_generators, invariant_quadratic_form,
                          lift_generators, quadratic_correction,
                          two_generator_reduction)

F4_GENS = f4_model_generators()
# the F4 matrices preserve the computed invariant form, not the default
# minus-type cocycle, so build the model exactly as the pipeline does
MODEL = Extraspecial2Model(
    3, "-", cocycle=invariant_quadratic_form(F4_GENS).coeffs)
DEFAULT_MODEL = Extraspecial2Model(3, "-")


def corrected_pairs():
    return [quadratic_correction(a, MODEL) for a in F4_GENS]


def test_quadratic_correction_satisfies_the_law():
    for pair in corrected_pairs():
        assert pair.verify(MODEL)
        # the correction acts as a genuine automorphism on the group
        h = model_handle(MODEL, "e128")
        for x in h.elements()[:40]:
            for y in h.elements()[:10]:
                assert pair.apply(h.mul(x, y)) == \
                    h.mul(pair.apply(x), pair.apply(y))


def pairwise_verify(pair, model):
    """The former law check, one pair of vectors at a time."""
    for v1 in all_f2_vectors(pair.q.dim):
        av1 = pair.a.apply(v1)
        for v2 in all_f2_vectors(pair.q.dim):
            lhs = pair.q(tuple(x ^ y for x, y in zip(v1, v2))) \
                ^ pair.q(v1) ^ pair.q(v2)
            rhs = model.bform(av1, pair.a.apply(v2)) ^ model.bform(v1, v2)
            if lhs != rhs:
                return False
    return True


def flip_coefficient(pair, i, j):
    coeffs = [list(r) for r in pair.q.coeffs]
    coeffs[i][j] ^= 1
    return AutPair(pair.a, QuadraticFormF2.from_upper(coeffs))


def test_autpair_verify_matches_pairwise_loop():
    # an off-diagonal flip changes the polarization of q and breaks the
    # law; a diagonal flip adds a linear functional and keeps it
    pairs = corrected_pairs()
    cases = [(p, True) for p in pairs]
    cases += [(flip_coefficient(p, i, j), False)
              for p in pairs for i, j in ((0, 1), (2, 5))]
    cases.append((flip_coefficient(pairs[0], 3, 3), True))
    for pair, holds in cases:
        assert pair.verify(MODEL) is pairwise_verify(pair, MODEL) is holds


def d8_lift_inputs():
    """The d = 8 pair of matrices and the 2^(1+6) model built from their
    invariant form, as d8_group builds them."""
    elems = atlas.matrix_handle(F4_GENS, "qbar").elements()
    mats = [elems[8], elems[72]]
    model = Extraspecial2Model(
        3, "-", cocycle=invariant_quadratic_form(mats).coeffs)
    return mats, model


def test_offset_permutations_match_pointwise_apply():
    mats, model = d8_lift_inputs()
    elems = model_handle(model, "e128").elements()
    index = {e: i for i, e in enumerate(elems)}
    for a in mats:
        base = quadratic_correction(a, model)
        rows = _offset_perms(base, elems, index)
        assert rows.shape == (64, 128)
        for lam, row in enumerate(rows):
            pair = AutPair(a, _q_add(base.q, _linear_offset(lam, 6)))
            assert row.tolist() == [index[pair.apply(e)] for e in elems]


def test_not_orthogonal_exhibit():
    # a symplectic transvection along a direction of square 1 preserves
    # the polarization but moves the squaring form
    model = DEFAULT_MODEL

    def polarization(v, w):
        return model.bform(v, w) ^ model.bform(w, v)
    v = (0, 1, 0, 0, 0, 0)
    rows = []
    for i in range(6):
        e = tuple(int(j == i) for j in range(6))
        b = polarization(e, v)
        rows.append(tuple(e[j] ^ (b & v[j]) for j in range(6)))
    t = FpMatrix.from_rows(rows, 2)
    # it does preserve the alternating form ...
    for x in all_f2_vectors(6)[:32]:
        for y in all_f2_vectors(6)[:8]:
            assert polarization(t.apply(x), t.apply(y)) == \
                polarization(x, y)
    # ... but admits no quadratic correction
    with pytest.raises(NotOrthogonal):
        quadratic_correction(t, model)


def test_form_from_function_reads_off_coefficients():
    pair = corrected_pairs()[3]
    q = pair.q
    q2 = _form_from_function(q, 6)
    assert q2.coeffs == q.coeffs


def test_lift_identity_and_exhausted_grid():
    ident = FpMatrix.identity(6, 2)
    pairs = lift_generators([ident], MODEL)
    assert len(pairs) == 1
    assert pairs[0].a == ident
    assert pairs[0].q.coeffs == _linear_offset(0, 6).coeffs
    # these generate a group of order 192 that no choice of offsets lifts
    # to a split copy: every product of kept offsets overflows the cap
    a = FpMatrix.from_rows(((0, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0),
                            (0, 0, 1, 0, 0, 0), (1, 0, 1, 1, 0, 0),
                            (0, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 1)), 2)
    b = FpMatrix.from_rows(((1, 1, 1, 1, 0, 0), (0, 1, 0, 0, 0, 0),
                            (0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0),
                            (0, 1, 1, 1, 1, 0), (1, 0, 1, 0, 0, 1)), 2)
    assert len(atlas.matrix_handle([a, b]).rows()) == 192
    with pytest.raises(SearchExhausted):
        lift_generators([a, b], DEFAULT_MODEL)


def test_d8_lift_runs_no_schreier_sims(monkeypatch):
    # the enumeration itself certifies the split; the forms are pinned
    # (offsets 0 and 63 on the corrections)
    mats, model = d8_lift_inputs()

    def refuse(gens):
        raise AssertionError("schreier_sims called")

    monkeypatch.setattr(permmod, "schreier_sims", refuse)
    pairs = lift_generators(mats, model)
    assert [p.a for p in pairs] == mats
    assert pairs[0].q.coeffs == ((0,) * 6,) * 6
    assert pairs[1].q.coeffs == ((1, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                                 (0, 0, 1, 1, 0, 0), (0, 0, 0, 1, 0, 0),
                                 (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 1))


def test_lift_generators_rejects_more_than_two_matrices():
    # the offset search combines two generators only; a third matrix must
    # not be dropped silently
    elems = atlas.matrix_handle(F4_GENS, "qbar").elements()
    g1, g2 = elems[8], elems[72]  # the d = 8 pair
    with pytest.raises(BadParameter):
        lift_generators([g1, g2, g1 * g2], MODEL)
    with pytest.raises(BadParameter):
        lift_generators([], MODEL)


def test_invariant_form_is_invariant_and_minus_type():
    q = invariant_quadratic_form(F4_GENS)
    assert q.arf() == 1
    for a in F4_GENS:
        for v in all_f2_vectors(6):
            assert q(a.apply(v)) == q(v)


def test_invariant_form_failure_path():
    # the full GL_6(2) generators admit no invariant quadratic form
    g = atlas.gl(6, 2)
    with pytest.raises(SearchFailed):
        invariant_quadratic_form(list(g.generators))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_f2_nullspace_oracle(data):
    ncols = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols),
        min_size=0, max_size=10))
    basis = _f2_nullspace(rows, ncols)
    # every basis vector annihilates every row
    for vec in basis:
        for row in rows:
            assert sum(a & b for a, b in zip(row, vec)) % 2 == 0
    # rank-nullity against an independent rank computation
    from solvlen.fpmat import _row_reduce
    rank = len(_row_reduce(rows, 2))
    assert len(basis) == ncols - rank
    # basis vectors are linearly independent (distinct free columns)
    from solvlen.fpmat import _row_reduce as rr
    assert len(rr(basis, 2)) == len(basis)


def test_two_generator_reduction_small():
    s4 = atlas.sym(4)
    g1, g2 = two_generator_reduction(s4, 24)
    h = atlas.perm_handle([g1, g2], 4, "pair")
    assert h.order() == 24
    # ranking prefers elements of maximal order first
    assert s4.element_order(g1) == 4
    with pytest.raises(SearchFailed):
        two_generator_reduction(s4, 25)


def reference_two_generator_reduction(handle):
    """The exhaustive search: walk <g1, g2> for every pair in
    (-order, index) order and return the first that spans the group."""
    elems = handle.elements()
    ranked = sorted(range(len(elems)),
                    key=lambda i: (-handle.element_order(elems[i]), i))
    for i1 in ranked:
        for i2 in ranked:
            pair = (elems[i1], elems[i2])
            seen = {handle.identity}
            stack = [handle.identity]
            while stack:
                x = stack.pop()
                for g in pair:
                    y = handle.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == len(elems):
                return list(pair)
    raise AssertionError("no generating pair")


@pytest.mark.parametrize("build", [lambda: atlas.sym(4),
                                   lambda: atlas.gl(2, 3),
                                   lambda: atlas.sym(5)],
                         ids=["sym(4)", "gl(2,3)", "sym(5)"])
def test_two_generator_reduction_matches_exhaustive_search(build):
    # in each group the first ranked pair spans a proper subgroup, so a
    # subgroup is recorded before the generating pair is found
    h = build()
    assert two_generator_reduction(h, h.order()) == \
        reference_two_generator_reduction(h)


def test_two_generator_reduction_pins_the_d8_pair():
    # the lift offsets and the degree-128 witness depend on this pair
    qbar = atlas.matrix_handle(F4_GENS, "qbar")
    elems = qbar.elements()
    g1, g2 = two_generator_reduction(qbar, 1296)
    assert (g1, g2) == (elems[8], elems[72])
    assert (qbar.element_order(g1), qbar.element_order(g2)) == (9, 8)


def test_f4_restriction_of_scalars():
    qbar = atlas.matrix_handle(F4_GENS, "qbar")
    assert qbar.order() == 1296
    # the scalar w embeds as a 6x6 matrix of order 3
    from solvlen.lift import W, ZERO, _f4_matrix_to_gl6
    wmat = _f4_matrix_to_gl6([[W, ZERO, ZERO], [ZERO, W, ZERO],
                              [ZERO, ZERO, W]])
    one = FpMatrix.identity(6, 2)
    assert wmat != one
    assert wmat * wmat * wmat == one


def test_d8_pipeline(d8data):
    h, report = d8data
    assert h.order() == 165888
    assert report.orders == (165888, 82944, 27648, 6912, 3456, 384, 128,
                             2, 1)
    assert report.d == 8 and report.c == 15
    assert report.n == (1, 1, 2, 1, 2, 1, 6, 1)
    # the report is cached on the handle, so a later report reuses it
    assert grp.derived_series(h) is report


def test_d8_witness_is_pinned(d8data):
    # the degree-128 generators (right translations, then the lifted pair)
    # and every derived-term chain: the same pair, the same offsets and
    # the same witness as before the law checks moved to generators
    h, report = d8data
    digest = hashlib.sha256()
    for g in h.generators:
        digest.update(np.asarray(g, dtype=np.int32).tobytes())
    for sub in report.subgroups:
        digest.update(chain_fingerprint(sub._bsgs).encode())
    assert digest.hexdigest()[:16] == "a97026097a0da863"
