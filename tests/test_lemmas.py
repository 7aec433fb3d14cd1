"""Structural lemma checks across the corpus."""

import pytest

from helpers import (EVAL_MIX, SPLIT_ORACLE, as_handle, chain_corpus, conj,
                     contains, corpus_perm_groups, inv, is_cyclic, mul,
                     perm_order_of)
from solvlen import atlas, grp, perm
from solvlen.cli import evaluate
from solvlen.dsl import parse_spec
from solvlen.grp import (check_lemmas, derived_series,
                         minimal_normal_subgroups, quotient_on_cosets)


def findings_by_name(handle, assert_cs=False):
    rep = derived_series(handle)
    return {f.name: f for f in check_lemmas(handle, rep, assert_cs=assert_cs)}


def test_gl23_findings():
    f = findings_by_name(atlas.gl(2, 3))
    assert f["c-weak"].status == "pass"
    assert f["c-full"].status == "pass"
    assert f["d"].status == "pass"
    # Q8-over-C2 section: n_2 = 2, n_3 = 1 forces an extraspecial 2^3
    assert f["e"].status == "pass"


def test_gl23_with_minimality_assertion():
    f = findings_by_name(atlas.gl(2, 3), assert_cs=True)
    assert f["a"].status == "pass"
    assert "order 2" in f["a"].detail


def test_minimality_assertion_fails_on_v4():
    v4 = atlas.direct(atlas.cyclic(2), atlas.cyclic(2))
    f = findings_by_name(v4, assert_cs=True)
    assert f["a"].status == "fail"  # three minimal normal subgroups


def test_minimality_assertion_on_the_trivial_group():
    # G = 1 has no minimal normal subgroup and no last nontrivial term
    f = findings_by_name(atlas.cyclic(1), assert_cs=True)
    assert (f["a"].status, f["a"].detail) == ("not-applicable",
                                              "group is trivial")


def test_natsd_coprime_fixed_point_free():
    # S3-matrices on F_5^2: (d) fires with coprime orders 3 and 25
    f = findings_by_name(atlas.natural_semidirect(atlas.s3mat(5), 2))
    assert f["d"].status == "pass"
    assert "i = [1, 2]" in f["d"].detail


def test_nonsolvable_short_circuit():
    a5 = atlas.perm_handle([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5, "a5")
    rep = derived_series(a5)
    findings = check_lemmas(a5, rep)
    assert len(findings) == 1
    assert findings[0].status == "not-applicable"


def test_no_failures_across_corpus():
    for label, handle, _ in corpus_perm_groups():
        rep = derived_series(handle)
        for f in check_lemmas(handle, rep):
            assert f.status != "fail", (label, f.name, f.detail)


def test_big_group_skips_instead_of_failing():
    w = atlas.wreath(atlas.sym(4), atlas.sym(4))
    f = findings_by_name(w)
    assert f["c-weak"].status == "pass"       # order arithmetic always runs
    assert f["c-full"].status == "skipped"    # 24^5 exceeds the enum limit
    assert f["d"].status == "skipped"


def test_minimal_normal_subgroup_of_gsp_witness():
    h = atlas.gsp_extension(atlas.gl(2, 3), 3, 1)
    mins = minimal_normal_subgroups(h)
    rep = derived_series(h)
    assert len(mins) == 1
    assert mins[0].order == 3 == rep.orders[-2]


def as_rows(findings):
    return [(f.name, f.status, f.detail) for f in findings]


def _refuse(*args, **kwargs):
    raise AssertionError("check_lemmas enumerated a group")


@pytest.mark.parametrize("spec", ["gl(2,3)", "qutrit(7)", "ut(3,5)", "bo()",
                                  "natsd(gl(2,3),2)", "d8()"])
def test_check_lemmas_enumerates_nothing(spec, monkeypatch, request):
    if spec == "d8()":
        handle, rep = request.getfixturevalue("d8data")
    else:
        handle = evaluate(parse_spec(spec))
        rep = derived_series(handle)
    expected = as_rows(check_lemmas(handle, rep))
    monkeypatch.setattr(grp.GroupHandle, "elements", _refuse)
    monkeypatch.setattr(grp.SubgroupHandle, "element_set", _refuse)
    monkeypatch.setattr(grp, "quotient_on_cosets", _refuse)
    monkeypatch.setattr(grp, "center", _refuse)
    assert as_rows(check_lemmas(handle, rep)) == expected


def test_d8_findings_are_pinned(d8data):
    handle, rep = d8data
    assert as_rows(check_lemmas(handle, rep)) == [
        ("c-weak", "pass",
         "n = (1, 1, 2, 1, 2, 1, 6, 1) has no adjacent 1s past i = 2"),
        ("c-full", "pass", "checked i = [2, 3, 4, 5, 6, 7]"),
        ("a", "not-applicable", "caller did not assert minimal length"),
        ("d", "pass", "fixed-point-free coprime action at i = [1, 2, 4, 6]"),
        ("e", "pass", "extraspecial p^3 sections at i = [3, 5]"),
    ]


def test_prop8_findings_are_pinned(prop8data):
    # e is order arithmetic and runs past the enumeration limit
    handle, rep = prop8data
    f = {name: (status, detail)
         for name, status, detail in as_rows(check_lemmas(handle, rep))}
    assert f["c-full"] == ("skipped", "group exceeds the enumeration limit")
    assert f["d"] == ("skipped", "sections too large [1, 3, 5]")
    assert f["e"] == ("pass", "extraspecial p^3 sections at i = [2, 4]")


def fixed_point_free_by_enumeration(handle, upper, mid, low):
    g = next(x for x in upper.generators if not contains(mid, x))
    low_set = low.element_set()
    return all(mul(handle, conj(handle, x, g), inv(handle, x)) not in low_set
               for x in mid.element_set() if x not in low_set)


ORACLE_GROUPS = [(label, h) for label, h, _ in corpus_perm_groups()] + [
    (spec, evaluate(parse_spec(spec)))
    for spec in ("gl(2,3)", "bo()", "qutrit(7)")]


@pytest.mark.parametrize("label,handle", ORACLE_GROUPS,
                         ids=[label for label, _ in ORACLE_GROUPS])
def test_section_checks_match_coset_tables(label, handle):
    """The chain-order tests of c-full and d against coset tables and
    element sets of every derived section."""
    rep = derived_series(handle)
    gens = handle.perm_generators()
    subs = rep.subgroups
    for j in range(1, len(subs)):
        top = as_handle(subs[j - 1])
        assert grp._cyclic_section(gens, subs[j - 1]._bsgs, subs[j]._bsgs) \
            == is_cyclic(quotient_on_cosets(top, subs[j])), j
    for i in range(1, len(subs) - 1):
        if grp._is_prime(subs[i - 1].order // subs[i].order):
            chains = [s._bsgs for s in subs[i - 1:i + 2]]
            assert grp._fixed_point_free(gens, *chains) == \
                fixed_point_free_by_enumeration(handle, *subs[i - 1:i + 2]), i


def test_fixed_point_free_sees_fixed_points():
    # in a derived series a coprime prime section always acts without
    # fixed points, so the negative case needs another chain: S3 x C3 on
    # its normal 3^2, where a transposition fixes the C3 factor
    h = atlas.direct(atlas.sym(3), atlas.cyclic(3))
    top = derived_series(h).subgroups[0]
    mid = grp.normal_closure(
        h, [x for x in h.elements() if perm_order_of(h.to_perm(x)) == 3])
    low = grp.normal_closure(h, [])
    assert mid.order == 9
    gens = h.perm_generators()
    trivial = perm.normal_closure_perm(gens, [])
    assert not grp._fixed_point_free(gens, top._bsgs, mid._bsgs, trivial)
    assert not fixed_point_free_by_enumeration(h, top, mid, low)


def chain_state(b):
    """Every array and list a chain holds, its tables included."""
    return [(lv.base, bytes(lv.parent), bytes(lv.label), lv.row.tobytes(),
             lv.table.tobytes(), lv.paired.tobytes(), list(lv.order_list),
             [g.tobytes() for g in (*lv.gens, *lv.invs)])
            for lv in b.levels]


LEMMA_CORPUS = {
    **{spec: (lambda s=spec: evaluate(parse_spec(s))) for spec in EVAL_MIX},
    **SPLIT_ORACLE,
    **{label: (lambda h=h: h) for label, h in chain_corpus()},
}


@pytest.mark.parametrize("label", sorted(LEMMA_CORPUS))
def test_grown_closures_give_the_scratch_findings(label, monkeypatch):
    # each closure grows from a copy of the chain of the term below; the
    # findings are those of closures that sift that term's strong
    # generators into an empty chain, and the term's chain, shared
    # tables included, is left as it was
    handle = LEMMA_CORPUS[label]()
    rep = derived_series(handle)
    chains = [sub._bsgs for sub in rep.subgroups] \
        if rep.orders[0] <= grp.ENUMERABLE_LIMIT else []
    before = [chain_state(b) for b in chains]
    closure, grown = perm.normal_closure_perm, []

    def recording(group_gens, seed, upper_bound=None, normal=None):
        grown.append(normal is not None)
        return closure(group_gens, seed, upper_bound, normal)

    def scratch(group_gens, seed, upper_bound=None, normal=None):
        if normal is not None:  # the former seeds: the term's generators
            seed = [*normal.strong_generators(), *seed]
        return closure(group_gens, seed, upper_bound)
    monkeypatch.setattr(perm, "normal_closure_perm", recording)
    findings = as_rows(check_lemmas(handle, rep))
    assert [chain_state(b) for b in chains] == before
    assert all(grown)
    monkeypatch.setattr(perm, "normal_closure_perm", scratch)
    assert as_rows(check_lemmas(handle, rep)) == findings
