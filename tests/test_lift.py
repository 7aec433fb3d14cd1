"""Automorphism lifting over the minus-type 2^{1+6}."""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (bform, chain_fingerprint, form_value, law,
                     lift_by_closure, lift_cols, mat_apply, mat_mul, mul,
                     offset_perms, pair_map, pair_search_oracle,
                     perm_order_of, squaring, translations_oracle)
from solvlen import atlas, grp
from solvlen import perm as permmod
from solvlen.atlas import Extraspecial2Model, holomorph_perm, model_handle
from solvlen.cli import evaluate
from solvlen.dsl import parse_spec
from solvlen.errors import (BadParameter, GroupError, NotAutomorphism,
                            NotOrthogonal, SearchExhausted, SearchFailed)
from solvlen.fpmat import (FpMatrix, QuadraticFormF2, all_f2_vectors,
                           nullspace)
from solvlen.lift import (AutPair, _first_free, f4_model_generators,
                          invariant_quadratic_form, lift_generators,
                          quadratic_correction, two_generator_reduction)

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
        assert pairwise_verify(pair, MODEL)
        # the correction acts as a genuine automorphism on the group
        h = model_handle(MODEL, "e128")
        apply = pair_map(pair)
        for x in h.elements()[:40]:
            for y in h.elements()[:10]:
                assert apply(mul(h, x, y)) == mul(h, apply(x), apply(y))


def pairwise_verify(pair, model):
    """The automorphism law q(v1 + v2) + q(v1) + q(v2) =
    B(v1 A, v2 A) + B(v1, v2), one pair of vectors at a time."""
    for v1 in all_f2_vectors(pair.q.dim):
        av1 = mat_apply(pair.a, v1)
        for v2 in all_f2_vectors(pair.q.dim):
            lhs = form_value(pair.q, tuple(x ^ y for x, y in zip(v1, v2))) \
                ^ form_value(pair.q, v1) ^ form_value(pair.q, v2)
            rhs = bform(model, av1, mat_apply(pair.a, v2)) \
                ^ bform(model, v1, v2)
            if lhs != rhs:
                return False
    return True


def flip_coefficient(pair, i, j):
    coeffs = [list(r) for r in pair.q.coeffs]
    coeffs[i][j] ^= 1
    return AutPair(pair.a, QuadraticFormF2.from_upper(coeffs))


def test_holomorph_perm_checks_flipped_corrections():
    # an off-diagonal flip changes the polarization of q and breaks the
    # law; a diagonal flip adds a linear functional and keeps it.  The
    # generator images read only q's diagonal, so an off-diagonal flip
    # names the unflipped automorphism, and holomorph_perm builds that
    ph = model_handle(MODEL, "e128")
    elems = ph.elements()
    index = {e: i for i, e in enumerate(elems)}
    pairs = corrected_pairs()
    for pair in pairs:
        for i, j in ((0, 1), (2, 5)):
            flipped = flip_coefficient(pair, i, j)
            assert not pairwise_verify(flipped, MODEL)
            assert flipped.images() == pair.images()
    for pair in pairs + [flip_coefficient(pairs[0], 3, 3)]:
        assert pairwise_verify(pair, MODEL)
        apply = pair_map(pair)
        assert holomorph_perm(ph, [pair.images()]).generators[-1] == \
            tuple(index[apply(x)] for x in elems)


def d8_lift_inputs():
    """The d = 8 pair of matrices and the 2^(1+6) model built from their
    invariant form, as d8_group builds them."""
    elems = atlas.matrix_handle(F4_GENS, "qbar").elements()
    mats = [elems[8], elems[72]]
    model = Extraspecial2Model(
        3, "-", cocycle=invariant_quadratic_form(mats).coeffs)
    return mats, model


def test_aut_pair_apply_is_the_pointwise_map():
    # the pair_map oracle reads a table built once per pair; every (v, z)
    # must go to (vA, z + q(v)), and the images holomorph_perm takes are
    # its values at the generators (e_i, 0), for the d8 lifts and flips
    mats, model = d8_lift_inputs()
    pairs = lift_by_tree(mats, model)
    cases = pairs + [flip_coefficient(p, i, j) for p in pairs
                     for i, j in ((0, 1), (2, 5), (3, 3))]
    for pair in cases:
        apply = pair_map(pair)
        for v in all_f2_vectors(6):
            for z in (0, 1):
                assert apply(v + (z,)) == \
                    mat_apply(pair.a, v) + (z ^ form_value(pair.q, v),)
        assert pair.images() == [apply(g) for g in model.generators()]


def test_holomorph_bound_cannot_hide_a_smaller_group():
    # the holomorph of one lifted generator (order 9) has 128 * 9
    # elements; its chain, told d8_group's bound 165888, never reaches it,
    # so it verifies in full and reports the true order: the order check
    # in d8_group stays a real check
    mats, model = d8_lift_inputs()
    pair = lift_by_tree(mats, model)[0]
    small = holomorph_perm(model_handle(model, "e128"), [pair.images()])
    bounded = replace(small, order_bounds=(165888,))  # before its chain
    assert bounded.order() == small.order() == 128 * 9
    assert chain_fingerprint(bounded.bsgs()) == \
        chain_fingerprint(small.bsgs())


def test_offset_permutations_match_pointwise_apply():
    mats, model = d8_lift_inputs()
    elems = model_handle(model, "e128").elements()
    index = {e: i for i, e in enumerate(elems)}
    for a in mats:
        base = quadratic_correction(a, model)
        rows = offset_perms(base, elems, index)
        assert rows.shape == (64, 128)
        apply = pair_map(base)
        for lam, row in enumerate(rows):
            # (v, z) -> (vA, z + q(v) + lam . v)
            want = []
            for e in elems:
                img = apply(e)
                odd = sum(lam >> i & x for i, x in enumerate(e[:-1])) & 1
                want.append(index[img[:-1] + (img[-1] ^ odd,)])
            assert row.tolist() == want


def test_not_orthogonal_exhibit():
    # a symplectic transvection along a direction of square 1 preserves
    # the polarization but moves the squaring form
    model = DEFAULT_MODEL

    def polarization(v, w):
        return bform(model, v, w) ^ bform(model, w, v)
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
            assert polarization(mat_apply(t, x), mat_apply(t, y)) == \
                polarization(x, y)
    # ... but admits no quadratic correction
    with pytest.raises(NotOrthogonal):
        quadratic_correction(t, model)


def test_model_squaring_is_the_invariant_form():
    # d8_group takes the invariant form's upper table as the cocycle, so
    # the model's squaring map B(v, v) is that form
    mats, model = d8_lift_inputs()
    q = invariant_quadratic_form(mats)
    for v in all_f2_vectors(6):
        assert squaring(model, v) == form_value(q, v)


def order_192_grid():
    """Two matrices generating a group of order 192 that no choice of
    offsets lifts to a split copy."""
    a = FpMatrix.from_rows(((0, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0),
                            (0, 0, 1, 0, 0, 0), (1, 0, 1, 1, 0, 0),
                            (0, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 1)), 2)
    b = FpMatrix.from_rows(((1, 1, 1, 1, 0, 0), (0, 1, 0, 0, 0, 0),
                            (0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0),
                            (0, 1, 1, 1, 1, 0), (1, 0, 1, 0, 0, 1)), 2)
    return [a, b]


def lift_by_tree(mats, model):
    """lift_generators on the tree of one enumeration of <mats>."""
    return lift_generators(mats, model, lift_cols(mats))


def lift_or_exhausted(lift, mats, model):
    """The lifted forms, or the message of SearchExhausted."""
    try:
        return [(p.a, p.q.coeffs) for p in lift(mats, model)]
    except SearchExhausted as exc:
        return str(exc)


def test_lift_generators_matches_the_closure_search():
    # the relator equations pick the same offsets as one capped closure
    # per offset choice, on subgroups of orders 1 to 1296, and exhaust on
    # the same grid
    mats, model = d8_lift_inputs()
    elems = atlas.matrix_handle(F4_GENS, "qbar").elements()
    rng = random.Random(5)
    cases = [(mats, model), ([mats[0]], model), ([mats[1]], model),
             ([FpMatrix.identity(6, 2)], model),
             (order_192_grid(), DEFAULT_MODEL)]
    cases += [(rng.sample(elems, 2), model) for _ in range(12)]
    for case_mats, case_model in cases:
        assert lift_or_exhausted(lift_by_tree, case_mats, case_model) \
            == lift_or_exhausted(lift_by_closure, case_mats, case_model)


def test_lift_identity_and_exhausted_grid():
    ident = FpMatrix.identity(6, 2)
    pairs = lift_by_tree([ident], MODEL)
    assert len(pairs) == 1
    assert pairs[0].a == ident
    assert pairs[0].q.coeffs == ((0,) * 6,) * 6
    # no offset pair solves every relator equation of this grid
    a, b = order_192_grid()
    assert len(atlas.matrix_handle([a, b]).rows()) == 192
    with pytest.raises(SearchExhausted):
        lift_by_tree([a, b], DEFAULT_MODEL)


def test_d8_lift_runs_no_schreier_sims(monkeypatch):
    # one enumeration of the linear group gives the Schreier relators,
    # whose equations in the offsets certify the split; the forms are
    # pinned (offsets 0 and 63 on the corrections)
    mats, model = d8_lift_inputs()

    def refuse(gens):
        raise AssertionError("schreier_sims called")

    closures = []
    closure = grp.GroupHandle.closure

    def count(self, images):
        closures.append(len(images))
        return closure(self, images)

    walk = two_generator_reduction(atlas.matrix_handle(F4_GENS, "qbar"),
                                   1296)[1]
    monkeypatch.setattr(permmod, "schreier_sims", refuse)
    monkeypatch.setattr(grp.GroupHandle, "closure", count)
    pairs = lift_by_tree(mats, model)
    assert closures == [2]
    # on the reduction's winning walk, as d8_group calls it, the tree is
    # the walk's: no closure at all, and the same forms
    assert lift_generators(mats, model, walk) == pairs
    assert closures == [2]
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
        lift_by_tree([g1, g2, mat_mul(g1, g2)], MODEL)
    with pytest.raises(BadParameter):
        lift_generators([], MODEL, np.zeros((0, 1), np.int32))


def test_invariant_form_is_invariant_and_minus_type():
    q = invariant_quadratic_form(F4_GENS)
    assert q.arf() == 1
    for a in F4_GENS:
        for v in all_f2_vectors(6):
            assert form_value(q, mat_apply(a, v)) == form_value(q, v)


def form_equations(mats, vecs):
    """The rows q(vA) + q(v) = 0 over the coefficients c[i][j], i <= j,
    for each matrix A and vector v."""
    dim = mats[0].n
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    return [[(av[i] & av[j]) ^ (v[i] & v[j]) for i, j in pairs]
            for a in mats for v in vecs for av in [mat_apply(a, v)]]


def first_minus_form(basis, dim):
    """The first combination of a null-space basis, by mask, that is a
    minus-type form: the search over all 2^dim equations, kept as it was."""
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    for mask in range(1, 2 ** len(basis)):
        combo = [0] * len(pairs)
        for bi, vec in enumerate(basis):
            if mask >> bi & 1:
                combo = [a ^ b for a, b in zip(combo, vec)]
        coeffs = [[0] * dim for _ in range(dim)]
        for (i, j), c in zip(pairs, combo):
            coeffs[i][j] = c
        q = QuadraticFormF2.from_upper(coeffs)
        if q.zeros() == 2 ** (dim - 1) - 2 ** (dim // 2 - 1):
            return q
    return None


@pytest.mark.parametrize("which", ["F4_GENS", "d8 pair"])
def test_invariant_form_needs_only_21_vectors(which):
    # q(vA) + q(v) is a quadratic form, zero iff zero at every e_i and
    # e_i + e_j: those 21 equations span the 64, so the null-space basis,
    # and the form picked from it, are the same
    mats = F4_GENS if which == "F4_GENS" else d8_lift_inputs()[0]
    units = [tuple(int(k == i) for k in range(6)) for i in range(6)]
    few = [tuple(x | y for x, y in zip(units[i], units[j]))
           for i in range(6) for j in range(i, 6)]
    assert len(few) == 21
    basis = nullspace(form_equations(mats, all_f2_vectors(6)), 21, 2)
    assert nullspace(form_equations(mats, few), 21, 2) == basis
    assert invariant_quadratic_form(mats) == first_minus_form(basis, 6)


def test_invariant_form_failure_path():
    # the full GL_6(2) generators admit no invariant quadratic form
    g = atlas.gl(6, 2)
    with pytest.raises(SearchFailed):
        invariant_quadratic_form(list(g.generators))


def test_two_generator_reduction_small():
    s4 = atlas.sym(4)
    (g1, g2), _ = two_generator_reduction(s4, 24)
    h = atlas.perm_handle([g1, g2], 4, "pair")
    assert h.order() == 24
    # ranking prefers elements of maximal order first
    assert perm_order_of(s4.to_perm(g1)) == 4
    with pytest.raises(SearchFailed):
        two_generator_reduction(s4, 25)


def reference_two_generator_reduction(handle):
    """The exhaustive search: walk <g1, g2> for every pair in
    (-order, index) order and return the first that spans the group."""
    elems, product = handle.elements(), law(handle)[0]
    ranked = sorted(range(len(elems)),
                    key=lambda i: (-perm_order_of(
                        handle.to_perm(elems[i])), i))
    for i1 in ranked:
        for i2 in ranked:
            pair = (elems[i1], elems[i2])
            seen = {handle.identity}
            stack = [handle.identity]
            while stack:
                x = stack.pop()
                for g in pair:
                    y = product(x, g)
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == len(elems):
                return list(pair)
    raise AssertionError("no generating pair")


@pytest.mark.parametrize("build", [lambda: atlas.sym(4),
                                   lambda: atlas.gl(2, 3),
                                   lambda: atlas.sym(5),
                                   lambda: atlas.wreath(atlas.cyclic(2),
                                                        atlas.sym(4))],
                         ids=["sym(4)", "gl(2,3)", "sym(5)", "wr(c2,s4)"])
def test_two_generator_reduction_matches_exhaustive_search(build):
    # in each group the first ranked pair spans a proper subgroup, so a
    # subgroup is recorded before the generating pair is found; wr(c2,s4)
    # records five, so pairs are skipped on several recorded rows
    h = build()
    assert two_generator_reduction(h, h.order())[0] == \
        reference_two_generator_reduction(h)


def test_two_generator_reduction_pins_the_d8_pair():
    # the lift offsets and the degree-128 witness depend on this pair
    qbar = atlas.matrix_handle(F4_GENS, "qbar")
    elems = qbar.elements()
    (g1, g2), _ = two_generator_reduction(qbar, 1296)
    assert (g1, g2) == (elems[8], elems[72])
    assert (perm_order_of(qbar.to_perm(g1)),
            perm_order_of(qbar.to_perm(g2))) == (9, 8)


PAIR_BUILDS = {"qbar": lambda: atlas.matrix_handle(F4_GENS, "qbar"),
               "sym(4)": lambda: atlas.sym(4),
               "gl(2,3)": lambda: atlas.gl(2, 3),
               "sym(5)": lambda: atlas.sym(5),
               "wr(c2,s4)": lambda: atlas.wreath(atlas.cyclic(2),
                                                 atlas.sym(4))}


@pytest.mark.parametrize("label", sorted(PAIR_BUILDS))
def test_pair_search_and_walk_tree_match_the_oracles(label):
    # the signature search returns the per-i1 loop's pair and the same
    # walk columns, byte for byte, and the scatter-min tree of that walk
    # is the sort's
    h = PAIR_BUILDS[label]()
    gens, walk = two_generator_reduction(h, h.order())
    want_gens, want_walk = pair_search_oracle(h, h.order())
    assert gens == want_gens
    assert walk.dtype == want_walk.dtype
    assert walk.tobytes() == want_walk.tobytes()
    for got, want in zip(grp._translations(walk)[:2],
                         translations_oracle(walk)[:2]):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def first_free_by_loop(subs, ranked, start):
    """_first_free one ranked element at a time, as the former pair loop
    computed each free set."""
    for i in range(start, len(ranked)):
        free = ~subs[subs[:, ranked[i]]].any(axis=0)
        if free.any():
            return i, free
    return None


def assert_first_free(subs, ranked, start):
    got = _first_free(subs, np.array(ranked), start)
    want = first_free_by_loop(subs, ranked, start)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_free_matches_the_loop(data):
    # random boolean subgroup rows, up to 100 of them, each holding at
    # most a third of the elements (plus one) so that free partners occur
    n, m = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 100))
    rows = data.draw(st.lists(st.frozensets(st.integers(0, n - 1),
                                            max_size=n // 3 + 1),
                              min_size=m, max_size=m))
    subs = np.zeros((m, n), bool)
    for r, row in enumerate(rows):
        subs[r, list(row)] = True
    ranked = data.draw(st.permutations(range(n)))
    assert_first_free(subs, ranked, data.draw(st.integers(0, n)))


def test_first_free_reads_every_recorded_row():
    # elements 1 and 2 share no row, but 0 and 2 share only row 99: a
    # signature cut at 64 (or any) rows would give element 0 a partner
    subs = np.zeros((100, 3), bool)
    subs[:99, [0, 1]] = True
    subs[99, [0, 2]] = True
    assert _first_free(subs, np.arange(3), 0)[0] == 1
    assert_first_free(subs, [0, 1, 2], 0)


def test_f4_restriction_of_scalars():
    qbar = atlas.matrix_handle(F4_GENS, "qbar")
    assert qbar.order() == 1296
    # the scalar w embeds as a 6x6 matrix of order 3
    from solvlen.lift import W, ZERO, _f4_matrix_to_gl6
    wmat = _f4_matrix_to_gl6([[W, ZERO, ZERO], [ZERO, W, ZERO],
                              [ZERO, ZERO, W]])
    one = FpMatrix.identity(6, 2)
    assert wmat != one
    assert mat_mul(mat_mul(wmat, wmat), wmat) == one


def test_d8_pipeline(d8data):
    h, report = d8data
    assert h.order() == 165888
    assert report.orders == (165888, 82944, 27648, 6912, 3456, 384, 128,
                             2, 1)
    assert report.d == 8 and report.c == 15
    assert report.n == (1, 1, 2, 1, 2, 1, 6, 1)
    # the chains are cached on the handle, so a later report reuses them
    assert all(a._bsgs is b._bsgs for a, b in zip(
        report.subgroups, grp.derived_series(h).subgroups, strict=True))


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


def test_loose_term_bounds_cannot_hide_a_term(d8data):
    # a bound above a term's true order is never reached, so that term's
    # chain verifies in full: every term keeps its true order and the
    # chain of a series with no bounds at all
    h, report = d8data
    for handle, bounds, orders in (
            (h, [2 * b for b in h.order_bounds], report.orders),
            (atlas.gl(2, 3), [96, 48, 16, 4, 2], (48, 24, 8, 2, 1))):
        loose, free = (grp.derived_series(replace(
            handle, order_bounds=tuple(b), _bsgs=None))
            for b in (bounds, ()))
        assert loose.orders == free.orders == orders
        assert [chain_fingerprint(s._bsgs) for s in loose.subgroups] == \
            [chain_fingerprint(s._bsgs) for s in free.subgroups]


def lifted_maps(cols, auts):
    """The index map of every element of K, walked along K's tree from
    the generators' maps auts: map(k g_j) = auts[j][map(k)]."""
    parent, gen, _ = grp._translations(cols)
    maps = np.zeros((cols.shape[1], auts.shape[1]), auts.dtype)
    maps[0] = np.arange(auts.shape[1])
    for part in grp._stretches(parent):
        maps[part] = auts[gen[part, None], maps[parent[part]]]
    return maps


def relators_hold(cols, auts, maps):
    """Whether every Schreier relator of K's tree maps to the identity:
    maps[cols[j]] == auts[j][maps], so g_j -> a_j is a homomorphism."""
    return all(np.array_equal(maps[c], a[maps]) for c, a in zip(cols, auts))


def d8_walk_and_auts(h):
    """K's winning walk and the two lifted automorphisms, as d8_group
    hands them to derived_orders."""
    walk = two_generator_reduction(atlas.matrix_handle(F4_GENS, "qbar"),
                                   1296)[1]
    return walk, np.array(h.generators[-2:], np.int32)


def test_lifted_maps_satisfy_every_relator(d8data):
    # the premise of d8()'s split orders: g_j -> a_j extends to a
    # homomorphism of K (every Schreier relator holds), and its 1296
    # maps are distinct, so K is isomorphic to <A>
    walk, auts = d8_walk_and_auts(d8data[0])
    maps = lifted_maps(walk, auts)
    assert relators_hold(walk, auts, maps)
    assert len({m.tobytes() for m in maps}) == 1296
    # a wrong lift, a_1 a_2 in place of a_1, breaks a relator
    bad = auts.copy()
    bad[0] = auts[1][auts[0]]
    assert not relators_hold(walk, bad, lifted_maps(walk, bad))
    # so does one corrupted map: g_1's map replaced by a_1 a_2
    maps[walk[0, 0]] = bad[0]
    assert not relators_hold(walk, auts, maps)


def test_split_orders_are_the_chain_orders(d8data):
    h, report = d8data
    chains = grp.derived_series(replace(h, split_orders=None, _bsgs=None))
    assert (report.engine, chains.engine) == ("split", "bsgs")
    assert report.orders == h.split_orders == chains.orders
    assert [s._bsgs.order() for s in report.subgroups] == list(report.orders)
    # a lazily built chain series that disagrees with the orders is refused
    wrong = replace(h, split_orders=(165888, 82944, 1), _bsgs=None)
    with pytest.raises(GroupError, match="chain orders differ"):
        grp.derived_series(wrong).subgroups[1]._bsgs


@pytest.mark.parametrize(
    "spec", ["gl(2,3)", "sl(2,3)", "ut(2,5)", "s3mat(5)", "gl(2,5)"])
def test_gsp_split_orders_are_the_chain_orders(spec):
    # gsp(K,p,1) = R(P)<A> for P = p^(1+2) and K mapped onto <A>: its split
    # orders are those of chains verified in full, with no bounds; gl(2,5)
    # is not solvable, and K's series stops at its perfect term
    k = evaluate(parse_spec(spec))
    p = k.identity.p
    gsp = atlas.gsp_extension(k, p, 1)
    cols = model_handle(atlas.ExtraspecialOddModel(p, 1)).columns()
    kgens = len(k.generators)
    auts = np.array(gsp.generators[-kgens:], np.int32)
    assert gsp.generators[:-kgens] == [tuple(c) for c in cols.tolist()]
    assert relators_hold(k.columns(), auts, lifted_maps(k.columns(), auts))
    chains = grp.derived_series(replace(gsp, split_orders=None,
                                        order_bounds=(), _bsgs=None))
    assert (grp.derived_series(gsp).engine, chains.engine) == ("split", "bsgs")
    assert gsp.split_orders == chains.orders


def test_d8_verdict_builds_no_chain(monkeypatch):
    # a row d = 8 verdict takes its orders from P's table and K's index
    # sets; the chains are built only when read, all on first read
    from solvlen import cli, lift
    degrees = []
    init = permmod.BSGS.__init__

    def recording(self, degree):
        degrees.append(degree)
        init(self, degree)
    monkeypatch.setattr(permmod.BSGS, "__init__", recording)
    monkeypatch.setattr(lift, "_D8_CACHE", {})
    report, series = cli.build_report("d8()", run_checks=False)
    assert report["engine"] == "split" and report["c"] == 15
    assert report["derived_orders"] == [165888, 82944, 27648, 6912, 3456,
                                        384, 128, 2, 1]
    assert degrees == []
    assert series.subgroups[7]._bsgs.order() == 2
    built = len(degrees)
    assert built and set(degrees) == {128}
    assert series.subgroups[3]._bsgs.order() == 6912
    assert len(degrees) == built


def test_index_closure_series_matches_the_chain_series():
    # derived_orders on right-translation columns equals derived_series on
    # the chain: for qbar on the reduction's winning walk, and for seeded
    # pairs of qbar's elements on the breadth-first closure of the pair
    qbar = atlas.matrix_handle(F4_GENS, "qbar")
    walk = two_generator_reduction(qbar, 1296)[1]
    assert grp.derived_orders(walk)[0] == \
        list(grp.derived_series(qbar).orders) == [1296, 648, 216, 54, 27, 3, 1]
    rng = random.Random(26)
    seen = set()
    for _ in range(8):
        pair = rng.sample(qbar.elements(), 2)
        sub = atlas.matrix_handle(pair, "pair")
        cols = sub.closure([sub.to_perm(a) for a in pair])[1]
        want = grp.derived_series(sub).orders
        assert grp.derived_orders(cols)[0] == list(want)
        seen.add(want[0])
    assert len(seen) > 2  # subgroups of several orders


def test_translation_columns_need_no_recursion():
    # column(i) is filled down from i's nearest cached ancestor, so a path
    # of 1499 edges needs no deep recursion; on d8()'s K, the reduction's
    # winning walk, each column is the recursive definition's: its first
    # edge's generator column after its parent's, asked in any order
    assert grp.derived_orders(atlas.cyclic(1500).columns())[0] == [1500, 1]
    walk = two_generator_reduction(atlas.matrix_handle(F4_GENS, "qbar"),
                                   1296)[1]
    parent, gen, column = grp._translations(walk)
    want = [np.arange(1296)]
    for i in range(1, 1296):
        want.append(walk[gen[i]][want[parent[i]]])
    order = list(range(1296))
    random.Random(31).shuffle(order)
    for i in order:
        assert np.array_equal(column(i), want[i])
