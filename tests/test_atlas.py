"""Builder-level checks: orders, structure constants, error paths."""

import hashlib
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (IMAGE_SPECS, SPLIT_ORACLE, algebra_dimension, bform,
                     conj, contains, cycle_walk_order, ext2_inv,
                     k_series_by_enumeration, law, lift_cols, mat_apply,
                     mat_mul, mul, odd_mul, odd_pair, pair_map,
                     wedge_automorphism)
from solvlen import atlas, grp
from solvlen import perm as permmod
from solvlen.atlas import (Extraspecial2Model, ExtraspecialOddModel,
                           binary_octahedral, cyclic, direct, extraspecial,
                           exterior_square_group, gl, gl_order, gsp_extension,
                           holomorph_perm, metacyclic, natural_semidirect,
                           qutrit_normalizer, regular, s3mat,
                           semidirect_series_orders, sl, sym,
                           upper_triangular, wreath)
from solvlen.errors import (BadCongruence, BadParameter, CapExceeded,
                            GroupError, KindMismatch, NotAutomorphism,
                            ScalarSearchFailed)
from solvlen.fpmat import FpMatrix, similitude_factor
from solvlen.lift import (f4_model_generators, invariant_quadratic_form,
                          lift_generators)


def involution_count(h):
    return sum(1 for x in h.elements()
               if x != h.identity and mul(h, x, x) == h.identity)


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


def test_metacyclic_picks_the_first_unit_of_order_p():
    # pow(k, p, q) == 1 with p prime and k >= 2 means x -> kx has order p:
    # the k the cycle walk picks, for every valid pair with q <= 251
    primes = [n for n in range(2, 252) if all(n % d for d in range(2, n))]
    pairs = [(p, q) for q in primes for p in primes if q % p == 1]
    assert len(pairs) == 124
    for p, q in pairs:
        k = next(k for k in range(2, q)
                 if cycle_walk_order([x * k % q for x in range(q)]) == p)
        assert metacyclic(p, q).generators[0] == \
            tuple(x * k % q for x in range(q)), (p, q)


def test_extraspecial_models():
    q8 = extraspecial(2, 1, "-")
    d8 = extraspecial(2, 1, "+")
    assert q8.order() == 8 and d8.order() == 8
    assert involution_count(q8) == 1   # quaternion: only -1
    assert involution_count(d8) == 5   # dihedral: reflections + r^2
    e27 = extraspecial(3, 1)
    assert e27.order() == 27
    assert all(mul(e27, mul(e27, x, x), x) == e27.identity
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
            assert bform(model, v, w) ^ bform(model, w, v) == \
                (v[0] & w[2] ^ v[2] & w[0] ^ v[1] & w[3] ^ v[3] & w[1])
    # inverse law
    h = atlas.model_handle(model, "t")
    for x in h.elements():
        assert mul(h, x, ext2_inv(model, x)) == h.identity


def test_odd_model_symplectic_twist():
    model = ExtraspecialOddModel(5, 1)
    assert odd_pair(model, (1, 0), (0, 1)) == 1
    assert odd_pair(model, (0, 1), (1, 0)) == 4
    a, b = (1, 0, 0), (0, 1, 0)
    ab = odd_mul(model, a, b)
    ba = odd_mul(model, b, a)
    # commutator lands in the center with the symplectic value
    assert ab[:-1] == ba[:-1]
    assert (ab[-1] - ba[-1]) % 5 == odd_pair(model, (1, 0), (0, 1))


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
    with pytest.raises(BadParameter, match="odd model needs p odd"):
        gsp_extension(gl(2, 2), 2, 1)
    # K must lie in GL_2(p) for P's p: read mod 3, gl(2,2)'s generators
    # make GL(2,3), not S3, and gl(2,3)'s mod 5 make an unsolvable group
    with pytest.raises(BadParameter, match="matrix field F_2 != F_3"):
        gsp_extension(gl(2, 2), 3, 1)
    with pytest.raises(BadParameter, match="matrix field F_3 != F_5"):
        gsp_extension(gl(2, 3), 5, 1)
    with pytest.raises(KindMismatch):
        gsp_extension(sym(3), 3, 1)
    # sl(1,3) has no generators left: the dimension is its identity's
    with pytest.raises(BadParameter, match="dimension 1 != 2"):
        gsp_extension(sl(1, 3), 3, 1)


def generator_images(p_handle, a):
    """The images under a map a of P's generators: what holomorph_perm
    takes for it."""
    return [a(g) for g in p_handle.generators]


def test_holomorph_rejects_non_automorphisms():
    # a coordinate off F_3 names no element of E_3^(1+2), though its
    # matrix is one; a transposition is not in C4, and neither is a
    # sequence of the wrong length or past the rows' uint8 entries
    e27, c4 = extraspecial(3, 1), cyclic(4)
    for p_handle, images in ((e27, [(1, 0, 3), (0, 1, 0)]),
                             (c4, [(1, 0, 2, 3)]), (c4, [(1, 2, 3, 0, 4)]),
                             (c4, [(1, 2, 3, 256)])):
        with pytest.raises(NotAutomorphism, match="leaves the group") as exc:
            holomorph_perm(p_handle, [images])
        assert exc.value.witness == \
            generator_law_witness(p_handle, images) == \
            (p_handle.generators[0], images[0])


def test_holomorph_rejects_non_injective_endomorphisms():
    # x -> x^2 on C4 and the trivial maps obey the law on every generator;
    # the kernel check refuses them before any chain is built
    c4, e27 = cyclic(4), extraspecial(3, 1)
    g = c4.generators[0]
    cases = [(c4, [mul(c4, g, g)]), (c4, [c4.identity]),
             (e27, [e27.generators[0]] * 2)]
    for p_handle, images in cases:
        with pytest.raises(NotAutomorphism, match="nontrivial kernel") as exc:
            holomorph_perm(p_handle, [images])
        witness = generator_law_witness(p_handle, images)
        assert exc.value.witness == witness
        assert witness[0] != p_handle.identity == witness[1]


def test_extraspecial_checks_are_errors(monkeypatch):
    # the order, centre and exponent checks hold under python -O too
    centre = atlas.center
    monkeypatch.setattr(atlas, "center", lambda h: grp.SubgroupHandle(
        h, 2 * centre(h).order))
    with pytest.raises(GroupError, match="not extraspecial"):
        extraspecial(3, 1)


def test_holomorph_cap():
    with pytest.raises(CapExceeded):
        holomorph_perm(atlas.cyclic(2 ** 18), [])


def all_pairs_law_holds(p_handle, a):
    """The former check: a(x y) = a(x) a(y) for every pair of elements."""
    elems = p_handle.elements()
    return all(a(mul(p_handle, x, y)) == mul(p_handle, a(x), a(y))
               for x in elems for y in elems)


def generator_law_witness(p_handle, images):
    """What holomorph_perm must report for the generator images, element by
    element: the first (g, a(g)) with a(g) outside P; else, with a(x g) =
    a(x) a(g) on the first edge into x g in elements() order, the first
    (x, g) in generator-major order that breaks that law; else the first
    (x, 1) with x != 1 and a(x) = 1; None if a passes."""
    elems, mul, one = p_handle.elements(), law(p_handle)[0], p_handle.identity
    pairs = list(zip(p_handle.generators, images))
    inside = set(elems)
    for g, y in pairs:
        if y not in inside:
            return (g, y)
    a = {one: one}
    for x in elems:
        for g, y in pairs:
            a.setdefault(mul(x, g), mul(a[x], y))
    for g, y in pairs:
        for x in elems:
            if a[mul(x, g)] != mul(a[x], y):
                return (x, g)
    return next(((x, one) for x in elems[1:] if a[x] == one), None)


def broken_images(p_handle, images):
    """images with the first generator's image replaced by the first
    element, in elements() order, under which the law fails."""
    for y in p_handle.elements():
        witness = generator_law_witness(p_handle, [y, *images[1:]])
        if witness is not None and witness[1] != p_handle.identity:
            return [y, *images[1:]]
    return None


def holomorph_law_cases():
    """(handle, genuine automorphisms, relation-breaking image sets).

    Every image set of E_3^(1+2) extends to an endomorphism (it is the
    Burnside group B(2, 3)), so it has no broken set."""
    e27 = atlas.model_handle(ExtraspecialOddModel(3, 1), "E_3^(1+2)")

    def similitude(a):
        lam = similitude_factor(a)
        return lambda e: mat_apply(a, e[:-1]) + (e[-1] * lam % 3,)

    gl23 = gl(2, 3)
    c = e27.generators[0]
    auts27 = [similitude(a) for a in gl23.generators]
    auts27.append(lambda e, c=c: conj(e27, e, c))
    # the d = 8 pair and its lifts onto the pipeline's 2^(1+6)
    elems = atlas.matrix_handle(f4_model_generators(), "qbar").elements()
    pair = [elems[8], elems[72]]
    model = Extraspecial2Model(
        3, "-", cocycle=invariant_quadratic_form(pair).coeffs)
    e128 = atlas.model_handle(model, "2^(1+6)-")
    c = e128.elements()[77]
    auts128 = [pair_map(p)
               for p in lift_generators(pair, model, lift_cols(pair))]
    auts128.append(lambda e, c=c: conj(e128, e, c))
    s4 = sym(4)
    c = s4.generators[-1]
    cases = [(e128, auts128), (s4, [lambda e, c=c: conj(s4, e, c)])]
    return [(e27, auts27, [])] + [
        (h, auts, [broken_images(h, generator_images(h, a)) for a in auts])
        for h, auts in cases]


def test_holomorph_generator_check_matches_all_pairs():
    for p_handle, auts, broken in holomorph_law_cases():
        elems = p_handle.elements()
        index = {e: i for i, e in enumerate(elems)}
        for a in auts:
            assert all_pairs_law_holds(p_handle, a)
            images = generator_images(p_handle, a)
            assert generator_law_witness(p_handle, images) is None
            h = holomorph_perm(p_handle, [images])
            assert h.generators[-1] == tuple(index[a(x)] for x in elems)
        genuine = generator_images(p_handle, auts[0])
        for images in broken:
            witness = generator_law_witness(p_handle, images)
            assert witness is not None
            with pytest.raises(NotAutomorphism,
                               match="breaks multiplication") as exc:
                holomorph_perm(p_handle, [genuine, images])
            assert exc.value.witness == witness


def test_qutrit_normalizer():
    h = qutrit_normalizer(7)
    assert h.order() == 648
    assert atlas.smallest_cube_root(7) == 2  # the scalar omega in Z
    assert algebra_dimension(h.generators) == 9
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


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_qutrit_normalizer_is_absolutely_irreducible(p):
    # the docstring's proof: <X, Z> alone spans all of M_3(F_p), so K does
    x, z = atlas.qutrit_generator_candidates(p)[:2]
    assert algebra_dimension([x, z]) == 9
    assert algebra_dimension(qutrit_normalizer(p).generators) == 9


def test_binary_octahedral():
    bo = binary_octahedral()
    assert bo.order() == 48
    assert involution_count(bo) == 1
    g = gl(2, 3)
    assert involution_count(g) == 13  # same order, different group
    rep = grp.derived_series(bo)
    assert rep.orders == (48, 24, 8, 2, 1)
    assert rep.n == (1, 1, 2, 1)


def test_binary_octahedral_generators_are_pinned():
    # i, t, t3, t8 of the search Q8 < SL_2(3) < 2.S4, in packed order
    assert [g.entries for g in binary_octahedral().generators] == [
        ((0, 1), (6, 0)), ((2, 3), (3, 5)), ((0, 4), (5, 6)),
        ((1, 1), (1, 2))]


@pytest.mark.parametrize("p, c", [(7, 3), (13, 2), (19, 2), (31, 17)])
def test_qutrit_normalizer_scalar_is_pinned(p, c):
    x, z, s, m = atlas.qutrit_generator_candidates(p)
    assert qutrit_normalizer(p).generators == [x, z, s, m.scale(c)]


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_scalar_orders_match_every_scalar(p, monkeypatch):
    # the relator criterion against K_c itself for every c: its chain's
    # order, and whether its enumeration, under GRP_MAX_ELEMENTS=648,
    # reaches 648 elements
    x, z, s, m = atlas.qutrit_generator_candidates(p)
    orders = atlas._scalar_orders([x, z, s, m], p, 648)[0]
    monkeypatch.setenv("GRP_MAX_ELEMENTS", "648")
    for c in range(1, p):
        k = atlas.matrix_handle([x, z, s, m.scale(c)])
        try:
            hit = len(k.rows()) == 648
        except CapExceeded:
            hit = False
        assert hit == (orders[c - 1] == 648), c
        assert k.order() == orders[c - 1], c


K_DIGESTS = {
    p: "165550e229aec22fadd8bf39fba906836d40caec7689e7cf84c0d704a5ea11fb"
    for p in (7, 13, 31)}
K_DIGESTS[19] = \
    "78fa47ae41dea95b76625e2e6a05b44bad02cbcba075696574ae9802f306ec9d"


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_qutrit_enumeration_is_pinned(p):
    # K's rows and columns, values, numbering and dtypes, which K's series
    # and the d = 7 row read: the same for p = 7, 13 and 31
    k = qutrit_normalizer(p)
    rows, cols = k.rows(), k.columns()
    assert (rows.dtype, cols.dtype) == (np.uint8, np.int32)
    digest = hashlib.sha256(rows.tobytes() + cols.tobytes()).hexdigest()
    assert digest == K_DIGESTS[p]


def test_scalar_search_failures_exit_2(monkeypatch, capsys):
    from solvlen.cli import run_command
    x, z, s, m = atlas.qutrit_generator_candidates(7)
    t = FpMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 7)
    for gens, why in [
            # |K_c| = 1296 for every c
            ((x, z, m, mat_mul(s, m)), "[(1, 1296), (2, 1296), (3, 1296),"),
            # the image in PGL(3,7) passes the cap: the same for every c
            ((x, z, s, t), "(5, '> 648'), (6, '> 648')]"),
            # diagonal X, Z, S and Z fix <e_0>, <e_1>, <e_2>, so those
            # three points cannot tell Z from 1 mod scalars
            ((x, z, s, z), "points do not separate the group mod 7")]:
        monkeypatch.setattr(atlas, "qutrit_generator_candidates",
                            lambda p, gens=gens: gens)
        with pytest.raises(ScalarSearchFailed, match=re.escape(why)):
            qutrit_normalizer(7)
        assert run_command(["eval", "qutrit(7)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ScalarSearchFailed:") and why in err


def test_binary_octahedral_enumerates_only_sl27(monkeypatch):
    # every candidate subgroup is an index set of SL_2(7)'s one
    # enumeration: there is no closure per candidate
    calls, closure = [], grp._closure

    def counting(*args):
        out = closure(*args)
        calls.append(len(out[0]))
        return out
    monkeypatch.setattr(grp, "_closure", counting)
    monkeypatch.setattr(atlas, "_closure", counting)
    binary_octahedral()
    assert calls == [336]


def test_searches_run_no_schreier_sims(monkeypatch):
    # bo()'s candidates are walked on SL_2(7)'s one enumeration, and
    # qutrit's scalar is chosen on one closure of Kbar; the winner keeps the
    # orders it proves as its bounds, and builds no chain; a qutrit winner's
    # rows come from one closure of K, the first time they are read
    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(permmod, "schreier_sims", refuse)
    bo = binary_octahedral()
    assert len(bo.generators) == 4 and bo.order_bounds == (48, 24, 8, 2, 1)
    winners = [qutrit_normalizer(p) for p in (7, 13)]
    calls, closure = [], grp._closure

    def counting(*args):
        calls.append(args)
        return closure(*args)
    monkeypatch.setattr(grp, "_closure", counting)
    for k in winners:
        calls.clear()
        assert len(k.generators) == 4 and k.order_bounds == (648,)
        assert len(k.rows()) == k.columns().shape[1] == 648
        assert len(calls) == 1


def test_exterior_square_group():
    h = exterior_square_group(3)
    assert h.order() == 3 ** 6
    rep = grp.derived_series(h)
    # derived subgroup is exactly Lambda^2 V
    assert rep.orders == (729, 27, 1)
    assert all(mul(h, mul(h, x, x), x) == h.identity for x in h.elements())


def test_semidirect_series_orders():
    # the structural route for the qutrit normalizer acting on the p^6
    # exterior-square group: the P-part stays full while K^(i) is
    # nontrivial, then drops through Lambda^2 V to 1; K's series is read
    # off Kbar's enumeration, as prop8_group reads it
    hints = semidirect_series_orders(*atlas._qutrit(7)[1](), 7)
    p6 = 7 ** 6
    assert hints == (648 * p6, 216 * p6, 54 * p6, 27 * p6, 3 * p6, p6,
                     7 ** 3, 1)


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_kbar_series_is_k_series(p):
    # K's orders from Kbar's one enumeration are those of K's own, and
    # each term's stack (the lifts of Kbar^(i)'s generators, or K^(e)'s
    # scalars) generates exactly |K^(i)| elements of K, closed on K's
    # action
    orders, stacks = atlas._qutrit(p)[1]()
    k = qutrit_normalizer(p)
    assert orders == grp.derived_orders(k.columns())[0]
    assert len(stacks) == len(orders)
    for order, stack in zip(orders, stacks):
        assert stack.shape[1:] == (3, 3)
        images = [k.to_perm(FpMatrix.from_rows(a.tolist(), p))
                  for a in stack]
        assert len(k.closure(images)[0]) == order


def test_kbar_series_refuses_missing_scalars():
    # K_c = <X, 2c I> mod 7 is abelian, so K_c' = 1 holds none of the
    # scalars K_c n Z = <2c I>: no commutator of lifts gives them, and the
    # series is refused for every c but c = 4, where 2c = 1 and K_c = <X>
    # has no scalars to give
    x = atlas.qutrit_generator_candidates(7)[0]
    w = FpMatrix.identity(3, 7).scale(atlas.smallest_cube_root(7))
    orders, series = atlas._scalar_orders([x, w], 7, 648)
    assert orders == [9, 9, 6, 3, 18, 18]
    for c in (1, 2, 3, 5, 6):
        with pytest.raises(GroupError, match="do not give K n Z mod 7"):
            series(c)
    assert series(4)[0] == [3, 1]


@pytest.mark.parametrize("label", sorted(SPLIT_ORACLE))
def test_semidirect_series_orders_match_full_chains(label):
    # the linear route against unhinted chains of the same group on 729
    # points: P = extsq(3) under right translations and K's automorphisms
    k = SPLIT_ORACLE[label]()
    p_handle = exterior_square_group(3)
    wedges = [wedge_automorphism(a) for a in k.generators]
    whole = holomorph_perm(p_handle, [list(d.entries) for d in wedges])
    elems = p_handle.elements()
    index = {e: i for i, e in enumerate(elems)}
    assert whole.generators[-len(wedges):] == [
        tuple(index[mat_apply(d, x)] for x in elems) for d in wedges]
    orders = semidirect_series_orders(*k_series_by_enumeration(k), 3)
    assert orders == grp.derived_series(whole).orders
    if label == "sl(3,3)":
        assert orders == (4094064,)


@pytest.mark.parametrize("label", sorted(SPLIT_ORACLE))
def test_derived_term_generators_walk_to_their_orders(label):
    # the generator indices derived_orders gives for each K^(i), walked on
    # K's right-translation columns, generate exactly |K^(i)| elements
    k = SPLIT_ORACLE[label]()
    cols = k.columns()
    orders, gens = grp.derived_orders(cols)
    assert orders == list(grp.derived_series(k).orders)
    assert len(gens) == len(orders)
    column = grp._translations(cols)[2]
    for order, term in zip(orders, gens):
        sub = np.arange(cols.shape[1]) == 0
        grp._walk([column(g) for g in term], sub)
        assert sub.sum() == order


def test_witness_builds_load_no_numpy_ma():
    # a plain np.unique or a sort-path np.isin imports numpy.ma, about
    # 1.2 MB of resident memory; the witness builds call neither
    code = ("import sys\nfrom solvlen import atlas, lift\n"
            "lift.d8_group(), atlas.prop8_group(7)\n"
            "atlas.exterior_square_group(7).order(), atlas.gl(3, 3).order()\n"
            "sys.exit('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(atlas.__file__))
    run = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0


def test_prop8_builds_no_chain_on_its_points(monkeypatch):
    # the certified orders come from index-set closures on Kbar's one
    # enumeration and span steps on F_7^6; no chain is built at all, on
    # K, on P or on G
    from solvlen import perm
    degrees, closures = [], []
    init, closure = perm.BSGS.__init__, grp._closure

    def recording(self, degree):
        degrees.append(degree)
        init(self, degree)

    def counting(*args):
        closures.append((len(args[1]), args[3]))  # (points, cap)
        return closure(*args)
    monkeypatch.setattr(perm.BSGS, "__init__", recording)
    monkeypatch.setattr(grp, "_closure", counting)
    monkeypatch.setattr(atlas, "_closure", counting)
    h = atlas.prop8_group(7)
    rep = grp.derived_series(h)
    assert h.order() == rep.orders[0] == 76236552
    assert rep.engine == "split"
    assert degrees == []
    # K's scalar and K's series come from one closure of its image in
    # PGL(3,7) on 12 projective points; K itself is never enumerated
    assert closures == [(12, 648)]
    # the handle has no permutation image, so no chain can start on it
    with pytest.raises(CapExceeded, match="prop8"):
        h.perm_generators()


def test_split_terms_answer_only_their_orders(prop8data):
    handle, rep = prop8data
    for sub in rep.subgroups:
        with pytest.raises(CapExceeded) as err:
            sub.generators
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


PROP8_ORDERS = {
    7: (76236552, 25412184, 6353046, 3176523, 352947, 117649, 343, 1),
    13: (3127772232, 1042590744, 260647686, 130323843, 14480427, 4826809,
         2197, 1),
    19: (30485730888, 10161910296, 2540477574, 1270238787, 141137643,
         47045881, 6859, 1),
    31: (575102385288, 191700795096, 47925198774, 23962599387, 2662511043,
         887503681, 29791, 1),
}


@pytest.mark.parametrize("p", sorted(PROP8_ORDERS))
def test_prop8_series_for_every_qutrit_prime(p):
    # every p that qutrit(p) takes; the split route needs no chain on
    # p^6 points
    rep = grp.derived_series(atlas.prop8_group(p))
    assert rep.orders == PROP8_ORDERS[p]
    assert (rep.d, rep.c) == (7, 13)


def test_prop8_congruence_guards():
    with pytest.raises(BadCongruence):
        atlas.prop8_group(5)


@pytest.mark.parametrize("build", [b for _, b in IMAGE_SPECS],
                         ids=[label for label, _ in IMAGE_SPECS])
def test_perm_image_round_trips_every_element(build):
    h = build()
    elems = h.elements()
    images = [h.to_perm(x) for x in elems]
    assert h.from_perms(np.array(images)) == elems
    # faithful: distinct elements have distinct images
    assert len({g.tobytes() for g in images}) == len(elems) == h.order()
    # a product maps to the product of the images, applied left to right
    for x, gx in zip(elems[:20], images):
        for y, gy in zip(h.generators, h.perm_generators()):
            assert np.array_equal(h.to_perm(mul(h, x, y)), gy[gx])
    # series terms keep the handle's element type
    rep = grp.derived_series(h)
    assert rep.engine == "bsgs"
    for sub in rep.subgroups:
        assert all(type(g) is type(h.identity) for g in sub.generators)
        assert all(contains(sub, g) for g in sub.generators)


def test_perm_image_rejects_elements_off_the_orbits():
    # <u> of order 3 fixes e_1 and moves e_0 inside e_0 + <e_1>;
    # diag(2, 1) sends e_0 off those points, so it has no image
    u = atlas.matrix_handle([FpMatrix.from_rows([[1, 1], [0, 1]], 3)], "u")
    d = FpMatrix.diagonal([2, 1], 3)
    assert u.to_perm(d) is None
    whole = grp.normal_closure(u, u.generators)
    assert whole.order == 3 and not contains(whole, d)
    assert contains(whole, u.generators[0])


@pytest.mark.parametrize("spec, degree", [
    ("gl(3,3)", 26), ("ut(4,3)", 80), ("ut(3,5)", 124), ("qutrit(7)", 72),
    ("qutrit(13)", 72), ("bo()", 48), ("extsq(3)", 1 + 3 * 3 + 3 * 27),
    ("extsq(7)", 1051), ("extraspecial(5,1)", 5 ** 2 + 5 + 1),
    ("extraspecial(3,2)", 3 ** 3 + 2 * 3 + 1),
    # p^(n+1) + np + 1, the count ExtraspecialOddModel checks in advance
    ("extraspecial(3,1)", 13), ("extraspecial(5,2)", 136),
    ("extraspecial(7,2)", 358), ("extraspecial(3,5)", 745)])
def test_basis_orbit_degrees(spec, degree):
    from solvlen.cli import evaluate
    from solvlen.dsl import parse_spec
    h = evaluate(parse_spec(spec))
    assert len(h.to_perm(h.identity)) == degree


@pytest.mark.parametrize("spec", [
    "sym(4)", "wr(sym(3),cyclic(2))", "gl(2,3)", "bo()", "extsq(3)",
    "extraspecial(2,2,minus)", "cyclic(1)", "sym(1)", "sl(1,3)"])
def test_degree_is_the_width_of_the_generators_images(spec):
    # the identity's length for a perm handle, the action's point count
    # for a matrix or model handle, with or without generators
    from solvlen.cli import evaluate
    from solvlen.dsl import parse_spec
    h = evaluate(parse_spec(spec))
    assert h.degree == h.perm_generators().shape[1] == \
        len(h.to_perm(h.identity))
    assert len(h.perm_generators()) == len(h.generators)


def test_split_handle_has_no_degree(prop8data):
    with pytest.raises(CapExceeded, match="prop8"):
        prop8data[0].degree


@pytest.mark.parametrize("p, n", [(3, 14), (3, 11), (5, 7)])
def test_oversized_odd_extraspecial_fails_fast(p, n):
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"exceeds {permmod.MAX_DEGREE}"):
        extraspecial(p, n).order()
    assert time.perf_counter() - t0 < 0.2


def test_model_matrix_is_a_homomorphism():
    # every pair of elements of one small instance of each model
    for model in (ExtraspecialOddModel(3, 1), Extraspecial2Model(2, "-"),
                  Extraspecial2Model(2, "+"), atlas.ExtSqModel(3)):
        h = atlas.model_handle(model, "m")
        elems = h.elements()
        index = {x: i for i, x in enumerate(elems)}
        mats = np.array([model.matrix(x).entries for x in elems])
        p = model.matrix(model.identity).p
        assert list(map(tuple, model.coordinates(mats).tolist())) == elems
        product = law(h)[0]
        for i, x in enumerate(elems):
            products = [index[product(x, y)] for y in elems]
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


@pytest.mark.parametrize("build, args", [
    (gl, (1000, 2)), (sl, (1000, 2)), (upper_triangular, (1000, 2)),
    (extraspecial, (2, 500, "+")), (extraspecial, (3, 500))])
def test_builders_check_the_dimension_before_allocating(build, args):
    # each would build Theta(n^2) tables before the matrix size check
    tracemalloc.start()
    try:
        with pytest.raises(BadParameter, match="outside \\[1, 16\\]"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
