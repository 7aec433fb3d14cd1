"""Engine-level series, quotient and subgroup machinery."""

import gc
import weakref

import numpy as np
import pytest

from helpers import (as_handle, corpus_perm_groups,
                     element_order_by_products, is_cyclic,
                     minimal_normal_subgroups_by_elements)
from solvlen import atlas, grp
from solvlen.cli import evaluate
from solvlen.dsl import parse_spec
from solvlen.errors import CapExceeded, NotNormal
from solvlen.grp import (SubgroupHandle, center, derived_series, factorize,
                         minimal_normal_subgroups, normal_closure, omega,
                         quotient_on_cosets)
from solvlen.lift import f4_model_generators


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
    # the report's subgroups refer back to the handle, so the handle keeps
    # only a weak reference to it: a held report is returned again, and
    # dropping both frees them without the cyclic collector
    h = atlas.sym(4)
    rep = derived_series(h)
    assert derived_series(h) is rep
    handle_ref = weakref.ref(h)
    gc.disable()
    try:
        del h, rep
        assert handle_ref() is None
    finally:
        gc.enable()


def test_derived_series_terms_answer_membership():
    # G^(0) is the group itself on the handle's chain
    s4 = atlas.sym(4)
    g0, g1, g2, _ = derived_series(s4).subgroups
    assert g0._bsgs is s4.bsgs()
    assert all(g0.contains(g) for g in s4.generators)
    assert g0.contains((1, 0, 2, 3)) and not g1.contains((1, 0, 2, 3))
    assert g1.contains((1, 2, 0, 3)) and not g2.contains((1, 2, 0, 3))
    assert g2.contains((1, 0, 3, 2))


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
    central = [z for z in elems if all(handle.mul(z, g) == handle.mul(g, z)
                                       for g in handle.generators)]
    cyclic = any(element_order_by_products(handle, x) == n for x in elems)
    handle = evaluate(parse_spec(spec))

    def refuse(*args):
        raise AssertionError("element read back")
    monkeypatch.setattr(grp.GroupHandle, "elements", refuse)
    monkeypatch.setattr(grp.GroupHandle, "element_order", refuse)
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
    # non-normal subgroups are rejected
    sub = SubgroupHandle(s4, [(1, 0, 2, 3)], 2,
                         _elem_set={s4.identity, (1, 0, 2, 3)})
    with pytest.raises(NotNormal):
        quotient_on_cosets(s4, sub)


def test_quotient_index_cap():
    big = atlas.wreath(atlas.sym(4), atlas.sym(4))
    triv = SubgroupHandle(big, [], 1, _elem_set={big.identity})
    with pytest.raises(CapExceeded):
        quotient_on_cosets(big, triv)


def bfs_normal_closure(handle, seed):
    """Oracle: the subgroup generated by every conjugate of the seed,
    enumerated breadth-first over the handle's own elements."""
    conjugates = {handle.conj(s, g) for s in seed for g in handle.elements()}
    found, frontier = {handle.identity}, [handle.identity]
    while frontier:
        x = frontier.pop()
        for c in conjugates:
            y = handle.mul(x, c)
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
        return h.mul(h.mul(h.inv(x), h.inv(y)), h.mul(x, y))
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
        assert all(sub.contains(x) == (x in oracle)
                   for x in handle.elements())


@pytest.mark.parametrize("spec", ["wr(sym(3),sym(3))", "gl(2,3)",
                                  "extraspecial(3,1)", "bo()"])
def test_chain_generators_are_read_back_on_first_use(spec):
    # derived terms and normal closures keep their chain and convert its
    # strong generators into the handle's element type only when asked
    handle = evaluate(parse_spec(spec))
    report = derived_series(handle)
    subs = report.subgroups[1:] + [normal_closure(handle,
                                                  handle.generators[:1])]
    assert len(subs) >= 2
    for sub in subs:
        assert sub._generators is None
        eager = [handle.from_perm(g) for g in sub._bsgs.strong_generators()]
        assert sub.generators == eager
        assert sub.generators is sub.generators
        assert all(type(g) is type(handle.identity) for g in eager)


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
    assert s4.element_order(x) == 3
    assert s4.mul(s4.mul(x, x), x) == s4.identity
    assert s4.conj(x, s4.identity) == x
    assert s4.conj(x, x) == x
    assert is_cyclic(atlas.cyclic(12))
    assert not is_cyclic(atlas.sym(3))


def fifo_closure(handle, gens):
    """The former enumeration: a FIFO search over handle.mul, each element
    times each generator in turn, the first occurrence of a product new."""
    elems, seen = [handle.identity], {handle.identity}
    for x in elems:
        for g in gens:
            y = handle.mul(x, g)
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
    # chain-built terms enumerate from their chain without reading its
    # generators back; their generator-built twins give the same set
    handle = build(spec)
    for sub in derived_series(handle).subgroups:
        chain_built = sub._generators is None
        got = sub.element_set()
        assert (sub._generators is None) == chain_built
        assert got == set(fifo_closure(handle, sub.generators))
        assert len(got) == sub.order
        twin = SubgroupHandle(handle, list(sub.generators), sub.order)
        assert twin.element_set() == got


@pytest.mark.parametrize("make", [lambda: atlas.sym(4), lambda: atlas.gl(2, 3),
                                  lambda: atlas.exterior_square_group(3)],
                         ids=["perm", "matrix", "model"])
def test_enumeration_cap_is_the_group_order(make):
    order = make().order()
    short = make()
    short.cap = order - 1
    with pytest.raises(CapExceeded):
        short.elements()
    exact = make()
    exact.cap = order
    assert len(exact.elements()) == order


def test_one_element_budget_for_every_kind_of_handle():
    # matrix and model enumerations store rows of their image's degree
    # too; only the guard is asked, nothing is enumerated
    assert atlas.exterior_square_group(7).enum_cap() == \
        grp.MEMORY_BUDGET // 1051
    assert atlas.gl(2, 3).enum_cap() == grp.MEMORY_BUDGET // 8
    assert atlas.sym(5).enum_cap() == grp.MEMORY_BUDGET // 5


class RecordingRows(np.ndarray):
    """Generator images that record how many elements each fancy-index
    step multiplies."""

    slices = []

    def __getitem__(self, key):
        out = super().__getitem__(key)
        RecordingRows.slices.append(out.shape[0])
        return out


def test_enumeration_slices_stay_within_the_cap(monkeypatch):
    # ten transpositions generate S5; the budget admits exactly |S5| rows,
    # and the rows held plus the image rows in flight, each held twice (as
    # an array and as bytes), must stay within it
    gens = [tuple(j if j not in (a, b) else a + b - j for j in range(5))
            for a in range(5) for b in range(a + 1, 5)]
    handle = atlas.perm_handle(gens, 5, "S5 by transpositions")
    monkeypatch.setattr(grp, "MEMORY_BUDGET", 120 * 5)
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


def test_generator_columns_match_products():
    e27 = atlas.model_handle(atlas.ExtraspecialOddModel(3, 1), "e27")
    for h in (atlas.sym(4), atlas.gl(2, 3), qbar(), e27):
        elems = h.elements()
        index = {e: i for i, e in enumerate(elems)}
        cols = h.columns()
        assert cols.dtype == np.int32
        assert cols.tolist() == [[index[h.mul(x, g)] for x in elems]
                                 for g in h.generators]
