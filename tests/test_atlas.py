"""Builder-level checks: orders, structure constants, error paths."""

import numpy as np
import pytest

from helpers import IMAGE_SPECS
from solvlen import atlas, grp
from solvlen.atlas import (Extraspecial2Model, ExtraspecialOddModel,
                           binary_octahedral, cyclic, direct, extraspecial,
                           exterior_square_group, gl, gl_order, gsp_extension,
                           holomorph_perm, metacyclic, natural_semidirect,
                           qutrit_normalizer, regular, s3mat,
                           semidirect_series_orders, sl, sym,
                           upper_triangular, wreath)
from solvlen.errors import (BadCongruence, BadParameter, CapExceeded,
                            GroupError, KindMismatch, NotAutomorphism)
from solvlen.fpmat import (FpMatrix, SymplecticForm, similitude_factor,
                           spin_all_lines)
from solvlen.lift import (f4_model_generators, invariant_quadratic_form,
                          lift_generators)


def involution_count(h):
    return sum(1 for x in h.elements()
               if x != h.identity and h.mul(x, x) == h.identity)


def test_basic_orders():
    assert cyclic(1).order() == 1
    assert cyclic(12).order() == 12
    assert sym(5).order() == 120
    for n, p in ((2, 3), (2, 5), (3, 2), (3, 3)):
        assert gl(n, p).order() == gl_order(n, p), (n, p)
        assert sl(n, p).order() == gl_order(n, p) // (p - 1), (n, p)
    for n, p in ((2, 3), (3, 3), (3, 5)):
        assert upper_triangular(n, p).order() == \
            (p - 1) ** n * p ** (n * (n - 1) // 2)
    assert s3mat(5).order() == 6
    assert s3mat(7).order() == 6


def test_regular_representation():
    m = metacyclic(2, 3)
    r = regular(m)
    assert r.degree == 6
    assert r.order() == 6
    assert grp.derived_series(r).orders == (6, 3, 1)


def test_metacyclic():
    h = metacyclic(3, 7)
    assert h.order() == 21
    rep = grp.derived_series(h)
    assert rep.orders == (21, 7, 1)
    with pytest.raises(BadCongruence):
        metacyclic(3, 5)
    with pytest.raises(BadParameter):
        metacyclic(4, 5)


def test_extraspecial_models():
    q8 = extraspecial(2, 1, "-")
    d8 = extraspecial(2, 1, "+")
    assert q8.order() == 8 and d8.order() == 8
    assert involution_count(q8) == 1   # quaternion: only -1
    assert involution_count(d8) == 5   # dihedral: reflections + r^2
    e27 = extraspecial(3, 1)
    assert e27.order() == 27
    assert all(e27.mul(e27.mul(x, x), x) == e27.identity
               for x in e27.elements())
    big = extraspecial(2, 3, "-")
    assert big.order() == 2 ** 7
    assert grp.center(big).order == 2
    with pytest.raises(BadParameter):
        extraspecial(2, 1)
    with pytest.raises(BadParameter):
        extraspecial(2, 1, "x")
    # p^{1+2}_- names the exponent-p^2 group, which the odd model is not
    for eps in ("+", "-"):
        with pytest.raises(BadParameter):
            extraspecial(3, 1, eps)


def test_extraspecial2_model_cocycle_algebra():
    model = Extraspecial2Model(2, "-")
    vecs = [(1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1)]
    # the cocycle's symmetrization is the standard alternating form
    for v in vecs:
        for w in vecs:
            assert model.bform(v, w) ^ model.bform(w, v) == \
                (v[0] & w[2] ^ v[2] & w[0] ^ v[1] & w[3] ^ v[3] & w[1])
    # inverse law
    h = atlas.model_handle(model, "t")
    for x in h.elements():
        assert h.mul(x, model.inv(x)) == h.identity


def test_odd_model_symplectic_twist():
    model = ExtraspecialOddModel(5, 1)
    assert model.pair((1, 0), (0, 1)) == 1
    assert model.pair((0, 1), (1, 0)) == 4
    a, b = (1, 0, 0), (0, 1, 0)
    ab = model.mul(a, b)
    ba = model.mul(b, a)
    # commutator lands in the center with the symplectic value
    assert ab[:-1] == ba[:-1]
    assert (ab[-1] - ba[-1]) % 5 == model.pair((1, 0), (0, 1))


def test_wreath_and_direct():
    w = wreath(sym(3), cyclic(2))
    assert w.degree == 6
    assert w.order() == 72
    d = direct(sym(4), cyclic(5))
    assert d.degree == 9
    assert d.order() == 120
    with pytest.raises(KindMismatch):
        wreath(gl(2, 3), cyclic(2))
    with pytest.raises(KindMismatch):
        direct(sym(3), gl(2, 3))


def test_natural_semidirect():
    h = natural_semidirect(s3mat(5), 2)
    assert h.degree == 25
    assert h.order() == 150
    rep = grp.derived_series(h)
    assert rep.orders == (150, 75, 25, 1)
    assert rep.n == (1, 1, 2)
    # the d = 5 cross-witness
    h2 = natural_semidirect(gl(2, 3), 2)
    rep2 = grp.derived_series(h2)
    assert h2.order() == 48 * 9
    assert rep2.d == 5 and rep2.c == 7
    with pytest.raises(KindMismatch):
        natural_semidirect(sym(3), 2)
    with pytest.raises(BadParameter):
        natural_semidirect(s3mat(5), 3)


def test_gsp_extension():
    h = gsp_extension(gl(2, 3), 3, 1)
    assert h.order() == 1296
    rep = grp.derived_series(h)
    assert rep.orders == (1296, 648, 216, 54, 27, 3, 1)
    assert rep.n == (1, 1, 2, 1, 2, 1)
    with pytest.raises(BadParameter):
        gsp_extension(gl(2, 3), 2, 1)
    with pytest.raises(KindMismatch):
        gsp_extension(sym(3), 3, 1)
    # sl(1,3) has no generators left: the dimension is its identity's
    with pytest.raises(BadParameter, match="dimension 1 != 2"):
        gsp_extension(sl(1, 3), 3, 1)


def test_holomorph_rejects_non_automorphisms():
    e27 = extraspecial(3, 1)

    def bogus(e):  # swaps two coordinates without fixing the cocycle
        return (e[1], e[0], e[2])

    with pytest.raises(NotAutomorphism) as exc:
        holomorph_perm(e27, [bogus])
    assert exc.value.witness is not None


def test_holomorph_cap():
    with pytest.raises(CapExceeded):
        holomorph_perm(atlas.cyclic(2 ** 18), [])


def all_pairs_law_holds(p_handle, a):
    """The former check: a(x y) = a(x) a(y) for every pair of elements."""
    elems = p_handle.elements()
    return all(a(p_handle.mul(x, y)) == p_handle.mul(a(x), a(y))
               for x in elems for y in elems)


def generator_law_witness(p_handle, a):
    """What holomorph_perm must report for a, element by element: the
    first x with a(x) outside P, a moved identity, or the first (x, g) in
    generator-major order breaking a(x g) = a(x) a(g); None if a passes."""
    elems, mul = p_handle.elements(), p_handle.mul
    inside = set(elems)
    for x in elems:
        if a(x) not in inside:
            return (x, a(x))
    one = p_handle.identity
    if a(one) != one:
        return (one, a(one))
    for g in p_handle.generators:
        for x in elems:
            if a(mul(x, g)) != mul(a(x), a(g)):
                return (x, g)
    return None


def holomorph_law_cases():
    """(handle, genuine automorphisms, map leaving P or None)."""
    e27 = atlas.model_handle(ExtraspecialOddModel(3, 1), "E_3^(1+2)")
    form = SymplecticForm.standard(2, 3)

    def similitude(a):
        lam = similitude_factor(a, form)
        return lambda e: a.apply(e[:-1]) + (e[-1] * lam % 3,)

    gl23 = gl(2, 3)
    c = e27.generators[0]
    auts27 = [similitude(a) for a in gl23.generators]
    auts27.append(lambda e, c=c: e27.conj(e, c))
    # the d = 8 pair and its lifts onto the pipeline's 2^(1+6)
    elems = atlas.matrix_handle(f4_model_generators(), "qbar").elements()
    pair = [elems[8], elems[72]]
    model = Extraspecial2Model(
        3, "-", cocycle=invariant_quadratic_form(pair).coeffs)
    e128 = atlas.model_handle(model, "2^(1+6)-")
    c = e128.elements()[77]
    auts128 = [p.apply for p in lift_generators(pair, model)]
    auts128.append(lambda e, c=c: e128.conj(e, c))
    s4 = sym(4)
    c = s4.generators[-1]
    return [(e27, auts27, lambda e: e[:-1] + (e[-1] + 3,)),
            (e128, auts128, lambda e: e[:-1] + (e[-1] + 2,)),
            (s4, [lambda e, c=c: s4.conj(e, c)], None)]


def coset_swap(p_handle, g):
    """Swap two right cosets t<g>, u<g> outside <g>, t g^k <-> u g^k: a map
    that keeps a(x g) = a(x) a(g) for this g but no group law."""
    elems, mul = p_handle.elements(), p_handle.mul
    cyc = [p_handle.identity]
    while mul(cyc[-1], g) != p_handle.identity:
        cyc.append(mul(cyc[-1], g))
    t = next(e for e in elems if e not in cyc)
    t_coset = [mul(t, c) for c in cyc]
    u = next(e for e in elems if e not in cyc and e not in t_coset)
    swap = {}
    for c in cyc:
        swap[mul(t, c)], swap[mul(u, c)] = mul(u, c), mul(t, c)
    return swap


def test_holomorph_generator_check_matches_all_pairs():
    for p_handle, auts, outside in holomorph_law_cases():
        elems = p_handle.elements()
        index = {e: i for i, e in enumerate(elems)}
        swap = {elems[1]: elems[2], elems[2]: elems[1]}
        for a in auts:
            assert all_pairs_law_holds(p_handle, a)
            assert generator_law_witness(p_handle, a) is None
            h = holomorph_perm(p_handle, [a])
            assert h.generators[-1] == tuple(index[a(x)] for x in elems)
            blocks = coset_swap(p_handle, a(p_handle.generators[0]))

            def swapped(e, a=a):
                return swap.get(a(e), a(e))

            def shifted(e, a=a):
                return p_handle.mul(a(e), elems[-1])

            def block_swapped(e, a=a, blocks=blocks):
                # passes the law on the first generator, fails on a later one
                return blocks.get(a(e), a(e))

            broken = [swapped, shifted, block_swapped]
            if outside is not None:
                broken.append(lambda e, a=a: outside(a(e)))
            for b in broken:
                assert not all_pairs_law_holds(p_handle, b)
                with pytest.raises(NotAutomorphism) as exc:
                    holomorph_perm(p_handle, [a, b])
                assert exc.value.witness == generator_law_witness(p_handle, b)
                assert exc.value.witness is not None


def test_qutrit_normalizer():
    h = qutrit_normalizer(7)
    assert h.order() == 648
    assert atlas.smallest_cube_root(7) == 2  # the scalar omega in Z
    irr, _ = spin_all_lines(h.generators)
    assert irr
    rep = grp.derived_series(h)
    assert rep.orders == (648, 216, 54, 27, 3, 1)
    assert rep.n == (1, 2, 1, 2, 1)
    with pytest.raises(BadCongruence):
        qutrit_normalizer(5)
    with pytest.raises(BadParameter):
        qutrit_normalizer(37)


def test_qutrit_normalizer_other_primes():
    for p in (13, 19):
        assert qutrit_normalizer(p).order() == 648


def test_binary_octahedral():
    bo = binary_octahedral()
    assert bo.order() == 48
    assert involution_count(bo) == 1
    g = gl(2, 3)
    assert involution_count(g) == 13  # same order, different group
    rep = grp.derived_series(bo)
    assert rep.orders == (48, 24, 8, 2, 1)
    assert rep.n == (1, 1, 2, 1)


def test_exterior_square_group():
    h = exterior_square_group(3)
    assert h.order() == 3 ** 6
    rep = grp.derived_series(h)
    # derived subgroup is exactly Lambda^2 V
    assert rep.orders == (729, 27, 1)
    assert all(h.mul(h.mul(x, x), x) == h.identity for x in h.elements())


def test_semidirect_series_orders():
    # the structural route for the qutrit normalizer acting on the p^6
    # exterior-square group: the P-part stays full while K^(i) is
    # nontrivial, then drops through Lambda^2 V to 1
    k = qutrit_normalizer(7)
    hints = semidirect_series_orders(k, 7)
    p6 = 7 ** 6
    assert hints == (648 * p6, 216 * p6, 54 * p6, 27 * p6, 3 * p6, p6,
                     7 ** 3, 1)


SPLIT_ORACLE = {
    # permutation matrices of S3 move only the augmentation subspace of V
    "s3perm": lambda: atlas.matrix_handle(
        [FpMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3),
         FpMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 3)], "s3perm"),
    "ut(3,3)": lambda: upper_triangular(3, 3),
    "sl(3,3)": lambda: sl(3, 3),  # not solvable: P |x K is perfect
    "diag(2,1,1)": lambda: atlas.matrix_handle(
        [FpMatrix.diagonal([2, 1, 1], 3)], "diag(2,1,1)"),
}


@pytest.mark.parametrize("label", sorted(SPLIT_ORACLE))
def test_semidirect_series_orders_match_full_chains(label):
    # the split route against unhinted chains of the same group on 729
    # points: P = extsq(3) under right translations and K's automorphisms
    k = SPLIT_ORACLE[label]()
    auts = [atlas.wedge_automorphism(a) for a in k.generators]
    whole = holomorph_perm(exterior_square_group(3), auts)
    orders = semidirect_series_orders(k, 3)
    assert orders == grp.derived_series(whole).orders
    if label == "sl(3,3)":
        assert orders == (4094064,)


def test_prop8_builds_no_chain_on_its_points(monkeypatch):
    # the certified orders come from the chains of K (72 points) and P
    # (1,051 points); nothing builds one on the 7^6 points of G
    from solvlen import perm
    degrees = []
    init = perm.BSGS.__init__

    def recording(self, degree):
        degrees.append(degree)
        init(self, degree)
    monkeypatch.setattr(perm.BSGS, "__init__", recording)
    h = atlas.prop8_group(7)
    rep = grp.derived_series(h)
    assert h.order() == rep.orders[0] == 76236552
    assert rep.engine == "split"
    assert degrees and max(degrees) <= 1051
    # the handle has no permutation image, so no chain can start on it
    with pytest.raises(CapExceeded, match="prop8"):
        h.perm_generators()


def test_split_terms_answer_only_their_orders(prop8data):
    handle, rep = prop8data
    for sub in rep.subgroups:
        with pytest.raises(CapExceeded) as err:
            sub.generators
        with pytest.raises(CapExceeded):
            sub.contains(handle.identity)
        # a GroupError, so the command line exits 2 with one line
        assert isinstance(err.value, GroupError)
        assert "\n" not in str(err.value)


def test_split_handle_refuses_every_chain(prop8data):
    # one refusal, in perm_generators, for every question that needs a
    # chain or the elements: none answers with an empty chain of order 1
    handle, _ = prop8data
    for ask in (handle.bsgs, handle.rows,
                lambda: grp.normal_closure(handle, []),
                lambda: grp.center(handle)):
        with pytest.raises(CapExceeded, match="prop8"):
            ask()
    with pytest.raises(CapExceeded):
        grp.minimal_normal_subgroups(handle)


def test_prop8_congruence_guards():
    with pytest.raises(BadCongruence):
        atlas.prop8_group(5)
    # the split route needs no chain on p^6 points: p = 13 is in reach
    rep = grp.derived_series(atlas.prop8_group(13))
    assert (rep.d, rep.c) == (7, 13)


@pytest.mark.parametrize("build", [b for _, b in IMAGE_SPECS],
                         ids=[label for label, _ in IMAGE_SPECS])
def test_perm_image_round_trips_every_element(build):
    h = build()
    elems = h.elements()
    images = [h.to_perm(x) for x in elems]
    assert all(h.from_perm(g) == x for g, x in zip(images, elems))
    # faithful: distinct elements have distinct images
    assert len({g.tobytes() for g in images}) == len(elems) == h.order()
    # a product maps to the product of the images, applied left to right
    for x, gx in zip(elems[:20], images):
        for y, gy in zip(h.generators, h.perm_generators()):
            assert np.array_equal(h.to_perm(h.mul(x, y)), gy[gx])
    # series terms keep the handle's element type
    rep = grp.derived_series(h)
    assert rep.engine == "bsgs"
    for sub in rep.subgroups:
        assert all(type(g) is type(h.identity) for g in sub.generators)
        assert all(sub.contains(g) for g in sub.generators)


def test_perm_image_rejects_elements_off_the_orbits():
    # <u> of order 3 fixes e_1 and moves e_0 inside e_0 + <e_1>;
    # diag(2, 1) sends e_0 off those points, so it has no image
    u = atlas.matrix_handle([FpMatrix.from_rows([[1, 1], [0, 1]], 3)], "u")
    d = FpMatrix.diagonal([2, 1], 3)
    assert u.to_perm(d) is None
    whole = grp.normal_closure(u, u.generators)
    assert whole.order == 3 and not whole.contains(d)
    assert whole.contains(u.generators[0])


@pytest.mark.parametrize("spec, degree", [
    ("gl(3,3)", 26), ("ut(4,3)", 80), ("ut(3,5)", 124), ("qutrit(7)", 72),
    ("qutrit(13)", 72), ("bo()", 48), ("extsq(3)", 1 + 3 * 3 + 3 * 27),
    ("extsq(7)", 1051), ("extraspecial(5,1)", 5 ** 2 + 5 + 1),
    ("extraspecial(3,2)", 3 ** 3 + 2 * 3 + 1)])
def test_basis_orbit_degrees(spec, degree):
    from solvlen.cli import evaluate
    from solvlen.dsl import parse_spec
    h = evaluate(parse_spec(spec))
    assert len(h.to_perm(h.identity)) == degree


def test_model_matrix_is_a_homomorphism():
    # every pair of elements of one small instance of each model
    for model in (ExtraspecialOddModel(3, 1), Extraspecial2Model(2, "-"),
                  Extraspecial2Model(2, "+"), atlas.ExtSqModel(3)):
        h = atlas.model_handle(model, "m")
        elems = h.elements()
        index = {x: i for i, x in enumerate(elems)}
        mats = np.array([model.matrix(x).entries for x in elems])
        p = model.matrix(model.identity).p
        assert all(model.from_matrix(model.matrix(x)) == x for x in elems)
        for i, x in enumerate(elems):
            products = [index[model.mul(x, y)] for y in elems]
            assert np.array_equal(mats[i] @ mats % p, mats[products])


def test_primitive_root_is_the_least_generator():
    from solvlen.fpmat import _SMALL_PRIMES
    for p in sorted(_SMALL_PRIMES):
        powers = [{pow(g, k, p) for k in range(1, p)} for g in range(1, p)]
        least = next(g for g, s in enumerate(powers, 1) if len(s) == p - 1)
        assert atlas._primitive_root(p) == least, p


def test_builders_check_the_degree_before_building(monkeypatch):
    # only the guards run: every builder below would pass 30 points, and
    # none may build a permutation or enumerate a group first
    from solvlen import perm
    s5, s6, s20 = sym(5), sym(6), sym(20)
    monkeypatch.setattr(perm, "MAX_DEGREE", 30)

    def built(*args, **kwargs):
        pytest.fail("a handle was built before the degree check")
    monkeypatch.setattr(atlas, "perm_handle", built)
    for build, args in ((cyclic, (31,)), (sym, (31,)), (wreath, (s6, s6)),
                        (direct, (s20, s20)), (regular, (s5,)),
                        (holomorph_perm, (s5, [])),
                        (natural_semidirect, (gl(2, 7), 2))):
        with pytest.raises(CapExceeded, match="exceeds 30"):
            build(*args)
    assert s5._elements is None
