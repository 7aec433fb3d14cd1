"""Engine-level series, quotient and subgroup machinery."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (EVAL_MIX, as_handle, chain_subgroup, closure_oracle,
                     conj, contains, corpus_perm_groups,
                     element_order_by_products, inv, is_cyclic,
                     is_normal_by_elements, law, mul,
                     minimal_normal_subgroups_by_elements, perm_order_of,
                     translations_oracle)
from solvlen import atlas, grp, perm
from solvlen.cli import evaluate
from solvlen.dsl import parse_spec
from solvlen.errors import BadParameter, CapExceeded, NotNormal
from solvlen.fpmat import FpMatrix
from solvlen.grp import (center, derived_series, factorize,
                         minimal_normal_subgroups, normal_closure, omega,
                         quotient_on_cosets)
from solvlen.lift import f4_model_generators
from solvlen.perm import element_orders


def test_factorize_and_omega():
    assert factorize(1) == []
    assert factorize(2 ** 11 * 3 ** 4) == [(2, 11), (3, 4)]
    assert factorize(76236552) == [(2, 3), (3, 4), (7, 6)]
    assert omega(1) == 0
    assert omega(48) == 5
    assert omega(165888) == 15
    for n in range(2, 500):
        prod = 1
        for p, e in factorize(n):
            prod *= p ** e
        assert prod == n


def test_s4_derived_series():
    s4 = atlas.sym(4)
    rep = derived_series(s4)
    assert rep.orders == (24, 12, 4, 1)
    assert rep.solvable and rep.d == 3 and rep.c == 4
    assert rep.n == (1, 1, 2)
    assert quotient_orders(rep) == (2, 3, 4)


def test_derived_series_is_cached_without_a_cycle():
    # the chains are cached on the handle, so a second report reuses every
    # term's chain; the report's subgroups refer back to the handle, which
    # keeps no report, so dropping both frees them without the cyclic
    # collector
    h = atlas.sym(4)
    rep = derived_series(h)
    assert all(a._bsgs is b._bsgs for a, b in
               zip(rep.subgroups, derived_series(h).subgroups, strict=True))
    handle_ref = weakref.ref(h)
    gc.disable()
    try:
        del h, rep
        assert handle_ref() is None
    finally:
        gc.enable()


# conversions of elements to images by a full report: each generator of
# each handle the spec builds, once (bo() builds SL(2,7), 2 generators,
# to search its 4; prop8(7) builds no handle but its own, and reads K's
# series off Kbar's projective points), and no identity
CONVERSIONS = {"extsq(7)": 6, "bo()": 6, "gl(2,3)": 3, "qutrit(7)": 4,
               "prop8(7)": 0}


def test_generators_are_converted_once(monkeypatch):
    from solvlen import cli, lift
    calls, image = [], atlas.BasisOrbitAction.perm
    monkeypatch.setattr(atlas.BasisOrbitAction, "perm",
                        lambda self, x: calls.append(x) or image(self, x))
    for spec, count in CONVERSIONS.items():
        calls.clear()
        cli.build_report(spec)
        assert len(calls) == count, spec
    # a d8() verdict with the cache emptied, as a command-line run pays it:
    # K's 5 generators and P's 6
    monkeypatch.setattr(lift, "_D8_CACHE", {})
    calls.clear()
    cli.build_report("d8()", run_checks=False)
    assert len(calls) == 11


def test_generator_matrices_are_built_once(monkeypatch):
    # growing the points builds each generator's matrix, and converting
    # the generator reuses it: d8()'s P builds its identity's matrix and
    # those of its 6 generators, once each
    from solvlen import lift
    calls, matrix = [], atlas.Extraspecial2Model.matrix
    monkeypatch.setattr(atlas.Extraspecial2Model, "matrix",
                        lambda self, a: calls.append(a) or matrix(self, a))
    monkeypatch.setattr(lift, "_D8_CACHE", {})
    lift.d8_group()
    assert len(calls) == len(set(calls)) == 7


def test_element_orders_on_every_enumerated_handle(monkeypatch):
    # every handle that a full eval-mix round, prop8(7) and a d8() verdict
    # enumerate (matrix and model), and the eval-mix specs' own handles of
    # at most 10^4 elements (perm among them): its rows are pairwise
    # distinct on base(), and their orders on it are the oracle's
    from solvlen import cli, lift
    seen, rows = {}, grp.GroupHandle.rows

    def recording(self):
        seen[id(self)] = self
        return rows(self)
    monkeypatch.setattr(grp.GroupHandle, "rows", recording)
    monkeypatch.setattr(lift, "_D8_CACHE", {})
    for spec in EVAL_MIX + ("prop8(7)",):
        cli.build_report(spec)
    cli.build_report("d8()", run_checks=False)
    monkeypatch.undo()
    for h in map(evaluate, map(parse_spec, EVAL_MIX)):
        if h.order() <= 10 ** 4:
            seen[id(h)] = h
    for h in seen.values():
        elems, base = h.rows(), list(h.base())
        assert len(np.unique(elems[:, base], axis=0)) == len(elems), h.name
        assert element_orders(elems, base).tolist() == \
            perm_order_of(elems).tolist(), h.name
    assert {h.kind for h in seen.values()} == {"matrix", "model", "perm"}


def test_derived_series_terms_answer_membership():
    # G^(0) is the group itself on the handle's chain
    s4 = atlas.sym(4)
    g0, g1, g2, _ = derived_series(s4).subgroups
    assert g0._bsgs is s4.bsgs()
    assert all(contains(g0, g) for g in s4.generators)
    assert contains(g0, (1, 0, 2, 3)) and not contains(g1, (1, 0, 2, 3))
    assert contains(g1, (1, 2, 0, 3)) and not contains(g2, (1, 2, 0, 3))
    assert contains(g2, (1, 0, 3, 2))


def quotient_orders(report):
    return tuple(a // b for a, b in zip(report.orders, report.orders[1:]))


def test_a5_not_solvable():
    a5 = atlas.perm_handle([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5, "a5")
    rep = derived_series(a5)
    assert not rep.solvable
    assert rep.orders == (60,)
    assert rep.c is None and rep.d is None


def test_center_and_minimal_normals():
    s4 = atlas.sym(4)
    assert center(s4).order == 1
    mins = minimal_normal_subgroups(s4)
    assert [m.order for m in mins] == [4]
    e27 = atlas.extraspecial(3, 1)
    z = center(e27)
    assert z.order == 3
    mins = minimal_normal_subgroups(e27)
    assert [m.order for m in mins] == [3]
    assert mins[0].contains_subgroup(z)


ORACLE_SPECS = ["gl(2,3)", "bo()", "qutrit(7)", "extraspecial(3,1)",
                "extraspecial(2,2,minus)", "ut(3,5)"]


def test_minimal_normals_match_the_per_element_search():
    # the row search against the former per-element one, in the same
    # order; cyclic(6), direct(s4,c5), wr(c2,c3) and ut(3,5) have two
    cases = [(label, h) for label, h, _ in corpus_perm_groups()]
    cases += [(spec, evaluate(parse_spec(spec))) for spec in ORACLE_SPECS]
    twice = set()
    for label, handle in cases:
        got = minimal_normal_subgroups(handle)
        want = minimal_normal_subgroups_by_elements(handle)
        assert [m.order for m in got] == [m.order for m in want], label
        for m, w in zip(got, want):
            assert m.contains_subgroup(w) and w.contains_subgroup(m), label
        if len(got) == 2:
            twice.add(label)
    assert {"cyclic(6)", "direct(s4,c5)", "wr(c2,c3)", "ut(3,5)"} <= twice


@pytest.mark.parametrize("spec", ["gl(2,3)", "qutrit(7)", "gsp(gl(2,3),3,1)",
                                  "direct(sym(4),cyclic(5))"])
def test_element_questions_read_no_elements_back(spec, monkeypatch):
    # the handle is built first: some builders enumerate
    handle = evaluate(parse_spec(spec))
    elems, n = handle.elements(), handle.order()
    mins = [m.order for m in minimal_normal_subgroups_by_elements(handle)]
    central = [z for z in elems if all(mul(handle, z, g) == mul(handle, g, z)
                                       for g in handle.generators)]
    cyclic = any(element_order_by_products(handle, x) == n for x in elems)
    handle = evaluate(parse_spec(spec))

    def refuse(*args):
        raise AssertionError("element read back")
    monkeypatch.setattr(grp.GroupHandle, "elements", refuse)
    assert [m.order for m in minimal_normal_subgroups(handle)] == mins
    z = center(handle)
    assert (z.order, z.element_set()) == (len(central), set(central))
    assert is_cyclic(handle) == cyclic


def test_quotient_on_cosets():
    s4 = atlas.sym(4)
    v4 = minimal_normal_subgroups(s4)[0]
    q = quotient_on_cosets(s4, v4)
    assert q.order() == 6
    assert not is_cyclic(q)
    rep = derived_series(q)
    assert rep.orders == (6, 3, 1)
    # non-normal subgroups are rejected, on a perm and a matrix handle:
    # a transposition of S4 and a non-central involution of GL(2,3)
    gl23 = atlas.gl(2, 3)
    for handle, x in [(s4, (1, 0, 2, 3)),
                      (gl23, FpMatrix.diagonal([2, 1], 3))]:
        sub = chain_subgroup(handle, [x])
        assert sub.order == 2 and not is_normal_by_elements(handle, sub)
        with pytest.raises(NotNormal):
            quotient_on_cosets(handle, sub)
    # model handles modulo their centres: the degree is the index
    for spec in ("extraspecial(3,1)", "extraspecial(2,2,minus)"):
        handle = evaluate(parse_spec(spec))
        z = center(handle)
        assert is_normal_by_elements(handle, z)
        q = quotient_on_cosets(handle, z)
        assert q.degree == q.order() == handle.order() // z.order
    # a group with no generators, modulo its own chain of degree 0
    for handle in (atlas.cyclic(1), atlas.sl(1, 3)):
        q = quotient_on_cosets(handle, derived_series(handle).subgroups[0])
        assert q.degree == q.order() == 1


def test_quotient_index_cap():
    big = atlas.wreath(atlas.sym(4), atlas.sym(4))
    triv = chain_subgroup(big, [])
    with pytest.raises(CapExceeded):
        quotient_on_cosets(big, triv)


def bfs_normal_closure(handle, seed):
    """Oracle: the subgroup generated by every conjugate of the seed,
    enumerated breadth-first over the handle's own elements."""
    conjugates = {conj(handle, s, g) for s in seed for g in handle.elements()}
    found, frontier = {handle.identity}, [handle.identity]
    while frontier:
        x = frontier.pop()
        for c in conjugates:
            y = mul(handle, x, c)
            if y not in found:
                found.add(y)
                frontier.append(y)
    return found


def test_normal_closure_engines_agree():
    # the BSGS normal closure against a breadth-first oracle, on perm,
    # matrix and model handles
    s4, gl23 = atlas.sym(4), atlas.gl(2, 3)
    q32 = atlas.extraspecial(2, 2, "-")
    ut33 = atlas.upper_triangular(3, 3)

    def comm(h, x, y):
        return mul(h, mul(h, inv(h, x), inv(h, y)), mul(h, x, y))
    cases = [(s4, [(1, 0, 3, 2)], 4), (s4, [(1, 0, 2, 3)], 24),
             (gl23, [gl23.generators[0]], 48),
             (gl23, [comm(gl23, *gl23.generators[:2])], 2),
             (gl23, [comm(gl23, *gl23.generators[1:])], 24),
             (q32, [q32.generators[0]], 4),
             (ut33, [ut33.generators[-1]], 9),
             (ut33, [ut33.generators[0]], 18)]
    for handle, seed, order in cases:
        sub = normal_closure(handle, seed)
        oracle = bfs_normal_closure(handle, seed)
        assert sub.order == len(oracle) == order
        assert all(g in oracle for g in sub.generators)
        assert all(contains(sub, x) == (x in oracle)
                   for x in handle.elements())


def test_normal_closure_refuses_a_seed_outside_the_group():
    # diag(2, 1) sends e_0 to 2 e_0, off the basis orbits of the
    # unitriangular group: a GroupError naming the seed, not a TypeError
    h = atlas.matrix_handle([FpMatrix.from_rows([[1, 1], [0, 1]], 3)])
    with pytest.raises(BadParameter, match="seed element is not in the group"):
        normal_closure(h, [FpMatrix.from_rows([[2, 0], [0, 1]], 3)])
    assert normal_closure(h, h.generators).order == 3


@pytest.mark.parametrize("spec", ["wr(sym(3),sym(3))", "gl(2,3)",
                                  "extraspecial(3,1)", "bo()"])
def test_chain_generators_are_read_back_on_first_use(spec):
    # derived terms and normal closures are their chains, and convert
    # their strong generators into the handle's element type when asked;
    # each converts back to its strong generator
    handle = evaluate(parse_spec(spec))
    report = derived_series(handle)
    subs = report.subgroups[1:] + [normal_closure(handle,
                                                  handle.generators[:1])]
    assert len(subs) >= 2
    for sub in subs:
        strong, gens = sub._bsgs.strong_generators(), sub.generators
        assert len(gens) == len(strong)
        assert all(np.array_equal(handle.to_perm(x), g)
                   for x, g in zip(gens, strong))
        assert all(type(g) is type(handle.identity) for g in gens)


def test_wreath_s4_s4_series_frozen():
    # abelianization is C2 x C2 (base diagonal sign and top sign), so the
    # derived subgroup has index 4
    w = atlas.wreath(atlas.sym(4), atlas.sym(4))
    rep = derived_series(w)
    assert rep.orders == (7962624, 1990656, 663552, 41472, 20736, 256, 1)
    assert rep.orders[1] == 24 ** 5 // 4
    assert rep.d == 6 and rep.c == 20
    assert rep.engine == "bsgs"


def test_product_of_quotient_orders_is_group_order():
    for label, handle, expected in corpus_perm_groups():
        rep = derived_series(handle)
        prod = 1
        for q in quotient_orders(rep):
            prod *= q
        if rep.solvable:
            assert prod == expected, label
            assert rep.c == omega(expected), label
            assert sum(rep.n) == rep.c, label


def test_subgroup_as_handle_roundtrip():
    s4 = atlas.sym(4)
    a4 = normal_closure(s4, [(1, 2, 0, 3)])
    h = as_handle(a4, "a4")
    assert h.order() == 12
    rep = derived_series(h)
    assert rep.orders == (12, 4, 1)


def test_element_helpers():
    s4 = atlas.sym(4)
    x = (1, 2, 0, 3)
    assert perm_order_of(s4.to_perm(x)) == 3
    assert mul(s4, mul(s4, x, x), x) == s4.identity
    assert conj(s4, x, s4.identity) == x
    assert conj(s4, x, x) == x
    assert is_cyclic(atlas.cyclic(12))
    assert not is_cyclic(atlas.sym(3))


def fifo_closure(handle, gens):
    """The former enumeration: a FIFO search over the handle's element
    law, each element times each generator in turn, the first occurrence
    of a product new."""
    product = law(handle)[0]
    elems, seen = [handle.identity], {handle.identity}
    for x in elems:
        for g in gens:
            y = product(x, g)
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return elems


def qbar():
    return atlas.matrix_handle(f4_model_generators(), "qbar")


ENUMERATED = ["sym(5)", "wr(sym(3),sym(3))", "gl(2,3)", "qbar", "bo()",
              "extraspecial(3,1)", "extraspecial(2,2,minus)", "extsq(3)"]


def build(spec):
    return qbar() if spec == "qbar" else evaluate(parse_spec(spec))


@pytest.mark.parametrize("spec", ENUMERATED)
def test_elements_follow_the_fifo_search(spec):
    # the image-array closure lists the same elements in the same order
    handle = build(spec)
    assert handle.elements() == fifo_closure(handle, handle.generators)


@pytest.mark.parametrize("spec", ["wr(sym(3),sym(3))", "gl(2,3)",
                                  "extsq(3)"])
def test_element_sets_match_the_fifo_closure(spec):
    # each term enumerates from its chain; a twin on a chain built anew
    # from the read-back generators gives the same set
    handle = build(spec)
    for sub in derived_series(handle).subgroups:
        got = sub.element_set()
        assert got == set(fifo_closure(handle, sub.generators))
        assert len(got) == sub.order
        twin = chain_subgroup(handle, sub.generators)
        assert twin.element_set() == got


@pytest.mark.parametrize("make", [lambda: atlas.sym(4), lambda: atlas.gl(2, 3),
                                  lambda: atlas.exterior_square_group(3)],
                         ids=["perm", "matrix", "model"])
def test_enumeration_cap_is_the_group_order(make, monkeypatch):
    order = make().order()
    monkeypatch.setenv("GRP_MAX_ELEMENTS", str(order - 1))
    with pytest.raises(CapExceeded):
        make().elements()
    monkeypatch.setenv("GRP_MAX_ELEMENTS", str(order))
    assert len(make().elements()) == order


def test_the_cap_is_read_when_an_enumeration_starts(monkeypatch):
    # a handle holds no cap of its own: GRP_MAX_ELEMENTS binds as it is
    # when rows() starts, not as it was when the handle was built
    monkeypatch.delenv("GRP_MAX_ELEMENTS", raising=False)
    s4 = atlas.sym(4)
    monkeypatch.setenv("GRP_MAX_ELEMENTS", "23")
    with pytest.raises(CapExceeded, match="^closure exceeded cap 23$"):
        s4.rows()
    monkeypatch.setenv("GRP_MAX_ELEMENTS", "24")
    assert len(s4.rows()) == 24


def test_one_element_budget_for_every_kind_of_handle(monkeypatch):
    # matrix and model enumerations store rows of their image's degree
    # too; only the guard is asked, nothing is enumerated
    assert atlas.exterior_square_group(7).enum_cap() == \
        perm.MEMORY_BUDGET // 1051
    assert atlas.gl(2, 3).enum_cap() == perm.MEMORY_BUDGET // 8
    assert atlas.sym(5).enum_cap() == perm.MEMORY_BUDGET // 5
    # below GRP_MAX_ELEMENTS the budget binds: 23 rows of 4 points, so
    # S4's enumeration stops before its 24th row
    s4 = atlas.sym(4)
    monkeypatch.setattr(perm, "MEMORY_BUDGET", 4 * 23)
    assert s4.enum_cap() == 23
    with pytest.raises(CapExceeded):
        s4.rows()


class RecordingRows(np.ndarray):
    """Generator images that record how many elements each take (the
    method or np.take) multiplies."""

    slices = []

    def take(self, indices, axis=None, **kwargs):
        out = super().take(indices, axis, **kwargs)
        # along axis 1, the images are (generator, element, point)
        RecordingRows.slices.append(out.shape[1])
        return out


def test_enumeration_slices_stay_within_the_cap(monkeypatch):
    # ten transpositions generate S5; the budget admits exactly |S5| rows,
    # and the rows held plus the image rows in flight, each held twice (as
    # an array and as bytes), must stay within it
    gens = [tuple(j if j not in (a, b) else a + b - j for j in range(5))
            for a in range(5) for b in range(a + 1, 5)]
    handle = atlas.perm_handle(gens, 5, "S5 by transpositions")
    monkeypatch.setattr(perm, "MEMORY_BUDGET", 120 * 5)
    assert handle.enum_cap() == 120
    closure = grp._closure

    def recording(read, identity, images, cap):
        return closure(read, identity, images.view(RecordingRows), cap)
    monkeypatch.setattr(grp, "_closure", recording)
    RecordingRows.slices = []
    assert handle.elements() == fifo_closure(handle, handle.generators)
    cols, done = handle.columns(), 0
    for m in RecordingRows.slices:
        held = max(done, int(cols[:, :done].max(initial=0)) + 1)
        assert held + 2 * m * 10 <= 120 or m == 1
        done += m
    assert done == 120 and max(RecordingRows.slices) > 1


def test_capped_closures_take_full_slices(monkeypatch):
    # slices are sized by the enumeration's memory room, not by the cap: a
    # closure capped, through GRP_MAX_ELEMENTS, at its group's order gives
    # the uncapped closure's rows and columns, in no more slices
    closure = grp._closure

    def recording(read, identity, images, cap):
        return closure(read, identity, images.view(RecordingRows), cap)
    monkeypatch.setattr(grp, "_closure", recording)
    cases = corpus_perm_groups() + [
        ("gl(2,3)", atlas.gl(2, 3), 48),
        ("bo()", atlas.binary_octahedral(), 48),
        ("qutrit(7)", atlas.qutrit_normalizer(7), 648)]
    for label, handle, order in cases:
        gens = handle.perm_generators()
        runs = []
        for cap in (None, order):
            if cap is None:
                monkeypatch.delenv("GRP_MAX_ELEMENTS", raising=False)
            else:
                monkeypatch.setenv("GRP_MAX_ELEMENTS", str(cap))
            RecordingRows.slices = []
            rows, cols = handle.closure(gens)
            runs.append((rows.tolist(), cols.tolist(),
                         len(RecordingRows.slices)))
            assert RecordingRows.slices, label
        (rows, cols, free), (capped_rows, capped_cols, capped) = runs
        assert len(rows) == order, label
        assert (capped_rows, capped_cols) == (rows, cols), label
        assert capped <= free, label


def _matches_the_oracle(identity, gens):
    """The closure of gens gives the former loop's rows and columns, dtypes
    included, and is refused one row below its order, not at it."""
    keep = grp.DEFAULT_CAP
    rows, cols = grp._closure(lambda r: r, identity, gens, keep)
    want_rows, want_cols = closure_oracle(lambda r: r, identity, gens, keep)
    assert (rows.dtype, cols.dtype) == (want_rows.dtype, want_cols.dtype)
    assert (rows.shape, cols.shape) == (want_rows.shape, want_cols.shape)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    order = len(rows)
    with pytest.raises(CapExceeded,
                       match=f"^closure exceeded cap {order - 1}$"):
        grp._closure(lambda r: r, identity, gens, order - 1)
    assert np.array_equal(grp._closure(lambda r: r, identity, gens, order)[1],
                          cols)


def test_translations_match_the_oracle(monkeypatch):
    # the scatter-min first edges of i > 0 are the sort's: on the columns
    # of every enumerable eval-mix handle and of Kbar mod 7 and 13 (prop8,
    # qutrit)
    kbar, translations = [], grp._translations
    monkeypatch.setattr(atlas, "_translations", lambda cols, *rest: (
        kbar.append(cols) or translations(cols, *rest)))
    atlas._qutrit(7), atlas._qutrit(13)
    monkeypatch.undo()
    assert len(kbar) == 2
    handles = [h for h in map(evaluate, map(parse_spec, EVAL_MIX))
               if h.order() <= min(grp.ENUMERABLE_LIMIT, h.enum_cap())]
    assert len(handles) == len(EVAL_MIX) - 3  # not extsq(7), two wreaths
    for cols in kbar + [h.columns() for h in handles]:
        for got, want in zip(grp._translations(cols)[:2],
                             translations_oracle(cols)[:2]):
            assert got.dtype == want.dtype
            assert np.array_equal(got[1:], want[1:])


def test_walk_from_a_coset_closes_the_join():
    # seen = <a> and layer = <a> t close to <a, t>, as a walk of both
    # columns from the identity does, also for t in <a>
    cols = atlas.gl(2, 3).columns()
    column = grp._translations(cols)[2]
    rng = np.random.default_rng(45)
    for a, t in rng.integers(cols.shape[1], size=(40, 2)).tolist():
        base = np.arange(cols.shape[1]) == 0
        grp._walk([column(a)], base)
        grown, want = base.copy(), np.arange(cols.shape[1]) == 0
        grp._walk([column(a), column(t)], grown, column(t)[base])
        grp._walk([column(a), column(t)], want)
        assert np.array_equal(grown, want)


def test_closure_matches_the_oracle(monkeypatch):
    # every image stack that one eval-mix round, prop8(7) (Kbar) and a
    # d8() verdict (K and P) enumerate, ut(3,5)'s 8,000 rows, qutrit(7)'s
    # 648 on 72 points, cyclic(1) and a group with no generators
    from solvlen import cli, lift
    seen, closure = {}, grp._closure

    def recording(read, identity, gens, cap):
        seen[identity.tobytes(), gens.tobytes()] = identity, gens
        return closure(read, identity, gens, cap)
    monkeypatch.setattr(grp, "_closure", recording)
    monkeypatch.setattr(lift, "_D8_CACHE", {})
    for spec in EVAL_MIX + ("prop8(7)",):
        cli.build_report(spec)
    cli.build_report("d8()", run_checks=False)
    for h in (atlas.upper_triangular(3, 5), atlas.qutrit_normalizer(7),
              atlas.cyclic(1)):
        h.rows()
    monkeypatch.undo()
    shapes = {gens.shape for _, gens in seen.values()}
    assert {(5, 36), (6, 141), (5, 124), (4, 72), (0, 1)} <= shapes
    seen[None] = np.arange(4, dtype=np.uint8), np.empty((0, 4), np.uint8)
    for identity, gens in seen.values():
        _matches_the_oracle(identity, gens)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
           st.permutations(range(n)), max_size=4).map(lambda g: (n, g))),
       st.integers(1, 200))
def test_closure_of_drawn_stacks_matches_the_oracle(stack, budget):
    # a small memory budget splits the closure into many slices
    n, gens = stack
    dtype = np.min_scalar_type(n - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perm, "MEMORY_BUDGET", budget)
        _matches_the_oracle(np.arange(n, dtype=dtype),
                            np.array(gens, dtype).reshape(len(gens), n))


def test_generator_columns_match_products():
    e27 = atlas.model_handle(atlas.ExtraspecialOddModel(3, 1), "e27")
    for h in (atlas.sym(4), atlas.gl(2, 3), qbar(), e27):
        elems = h.elements()
        index = {e: i for i, e in enumerate(elems)}
        cols = h.columns()
        assert cols.dtype == np.int32
        assert cols.tolist() == [[index[mul(h, x, g)] for x in elems]
                                 for g in h.generators]
