"""Engine-level series, quotient and subgroup machinery."""

import gc
import weakref

import pytest

from helpers import corpus_perm_groups
from solvlen import atlas, grp
from solvlen.errors import CapExceeded, GroupError, NotNormal, NotPGroup
from solvlen.grp import (SubgroupHandle, center, derived_series, factorize,
                         frattini_pgroup, is_cyclic, lower_central_series,
                         minimal_normal_subgroups, normal_closure, omega,
                         quotient_on_cosets)


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
    assert rep.quotient_orders == (2, 3, 4)


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


def test_cached_bsgs_rejects_a_disagreeing_order_hint():
    h = atlas.sym(4)
    b = h.bsgs()
    assert b.order() == 24
    assert h.bsgs(known_order=24) is b
    with pytest.raises(GroupError):
        h.bsgs(known_order=12)


def test_s4_lower_central_series_stabilizes_at_a4():
    # gamma_3 = [A4, S4] = A4 again (a commutator of a 3-cycle and a
    # transposition is a 3-cycle), so the chain is strictly shorter than
    # the derived series
    s4 = atlas.sym(4)
    chain = lower_central_series(s4)
    assert [c.order for c in chain] == [24, 12]


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


def test_normal_closure_engines_agree():
    # same seed through the closure engine and the BSGS engine
    s4 = atlas.sym(4)
    seed = [(1, 0, 3, 2)]
    bsgs_side = normal_closure(s4, seed)
    s4_enum = atlas.sym(4)
    s4_enum.elements()  # force the closure engine
    closure_side = normal_closure(s4_enum, seed)
    assert bsgs_side.order == closure_side.order == 4


def test_frattini_of_p_groups():
    e27 = atlas.extraspecial(3, 1)
    phi = frattini_pgroup(e27)
    assert phi.order == 3
    q8 = atlas.extraspecial(2, 1, "-")
    assert frattini_pgroup(q8).order == 2
    with pytest.raises(NotPGroup):
        frattini_pgroup(atlas.sym(3))


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
        for q in rep.quotient_orders:
            prod *= q
        if rep.solvable:
            assert prod == expected, label
            assert rep.c == omega(expected), label
            assert sum(rep.n) == rep.c, label


def test_subgroup_as_handle_roundtrip():
    s4 = atlas.sym(4)
    a4 = normal_closure(s4, [(1, 2, 0, 3)])
    h = a4.as_handle("a4")
    assert h.order() == 12
    rep = derived_series(h)
    assert rep.orders == (12, 4, 1)


def test_element_helpers():
    s4 = atlas.sym(4)
    x = (1, 2, 0, 3)
    assert s4.element_order(x) == 3
    assert s4.power(x, 3) == s4.identity
    assert s4.conj(x, s4.identity) == x
    assert s4.comm(x, x) == s4.identity
    assert is_cyclic(atlas.cyclic(12))
    assert not is_cyclic(atlas.sym(3))
