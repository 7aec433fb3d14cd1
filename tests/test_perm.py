"""Schreier-Sims engine vs breadth-first enumeration oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import IMAGE_SPECS, chain_fingerprint, corpus_perm_groups
from solvlen import atlas, perm
from solvlen.cli import evaluate
from solvlen.dsl import parse_spec
from solvlen.errors import GroupError
from solvlen.grp import derived_series
from solvlen.perm import (as_perm, is_identity, normal_closure_perm, perm_inv,
                          perm_mul, perm_order_of, schreier_sims)


def bfs_order(handle):
    """Independent order oracle: plain closure enumeration."""
    elems = {handle.identity}
    frontier = [handle.identity]
    while frontier:
        x = frontier.pop()
        for g in handle.generators:
            y = handle.mul(x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return len(elems), elems


def test_bsgs_order_matches_bfs_on_corpus():
    groups = corpus_perm_groups()
    assert len(groups) >= 20
    for label, handle, expected in groups:
        n, _ = bfs_order(handle)
        assert n == expected, label
        if handle.generators:
            b = schreier_sims([list(g) for g in handle.generators])
            assert b.order() == expected, label


def test_membership_and_sifting():
    s4 = atlas.sym(4)
    b = schreier_sims([list(g) for g in s4.generators])
    _, elems = bfs_order(s4)
    for e in elems:
        assert b.contains(list(e))
    # A4 does not contain transpositions
    a4_gens = [[1, 2, 0, 3], [0, 2, 3, 1]]
    ba = schreier_sims(a4_gens)
    assert ba.order() == 12
    assert not ba.contains([1, 0, 2, 3])
    assert ba.contains([1, 0, 3, 2])


def test_rebuild_from_strong_generators():
    for label, handle, expected in corpus_perm_groups():
        if not handle.generators or expected > 20000:
            continue
        b = schreier_sims([list(g) for g in handle.generators])
        b2 = schreier_sims([list(g) for g in b.strong_generators()])
        assert b2.order() == b.order(), label


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_words_sift_to_members(data):
    gens = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]  # S5
    b = schreier_sims(gens)
    assert b.order() == 120
    word = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    prod = as_perm(gens[word[0]])
    for idx in word[1:]:
        prod = perm_mul(prod, as_perm(gens[idx]))
    assert b.contains(prod)
    rem, level = b.sift(prod)
    assert is_identity(rem)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bsgs_order_on_random_generating_sets(data):
    degree = data.draw(st.integers(3, 6))
    base = list(range(degree))
    perms = []
    for _ in range(data.draw(st.integers(1, 3))):
        p = base[:]
        random.Random(data.draw(st.integers(0, 2 ** 30))).shuffle(p)
        perms.append(p)
    h = atlas.perm_handle([tuple(p) for p in perms], degree, "random")
    if not h.generators:
        return
    n, _ = bfs_order(h)
    b = schreier_sims([list(g) for g in h.generators])
    assert b.order() == n


def test_known_order_early_exit_is_exact():
    s6 = atlas.sym(6)
    gens = [list(g) for g in s6.generators]
    b = normal_closure_perm(gens, gens, upper_bound=720)
    assert b.order() == 720
    # a bound above the true order is never reached: the chain is
    # verified in full and has the true order
    b = normal_closure_perm(gens, gens, upper_bound=1440)
    assert b.order() == 720
    assert all(b.contains(g) for g in gens)


def test_normal_closure_matches_enumeration():
    s4 = atlas.sym(4)
    gens = [list(g) for g in s4.generators]
    # closure of a transposition is all of S4
    b = normal_closure_perm(gens, [[1, 0, 2, 3]])
    assert b.order() == 24
    # closure of a double transposition is the Klein four group
    b = normal_closure_perm(gens, [[1, 0, 3, 2]])
    assert b.order() == 4
    # closure of a 3-cycle is A4
    b = normal_closure_perm(gens, [[1, 2, 0, 3]])
    assert b.order() == 12
    for g in b.strong_generators():
        assert b.contains(g)


def test_normal_closure_with_known_order_hint():
    s5 = atlas.sym(5)
    gens = [list(g) for g in s5.generators]
    b = normal_closure_perm(gens, [[1, 2, 0, 3, 4]], upper_bound=60)
    assert b.order() == 60


def test_perm_primitives():
    a = as_perm([1, 2, 0, 3])
    b = as_perm([0, 1, 3, 2])
    assert perm_order_of(a) == 3
    assert perm_order_of(b) == 2
    assert is_identity(perm_mul(a, perm_inv(a)))
    ab = perm_mul(a, b)
    # x^(ab) = (x^a)^b
    assert list(ab) == [b[a[i]] for i in range(4)]
    assert a.tobytes() == as_perm((1, 2, 0, 3)).tobytes()


def cycle_walk_order(g):
    """Scalar oracle: walk each cycle once, lcm of the lengths."""
    seen, out = set(), 1
    for i in range(len(g)):
        length, j = 0, i
        while j not in seen:
            seen.add(j)
            j, length = g[j], length + 1
        out = math.lcm(out, max(length, 1))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=6)))
def test_batched_perm_order_of_matches_the_cycle_walk(perms):
    stack = np.array(perms + [list(range(len(perms[0])))], dtype=np.uint8)
    want = [cycle_walk_order(g) for g in stack.tolist()]
    assert want[-1] == 1  # the identity
    assert perm_order_of(stack).tolist() == want
    assert [perm_order_of(g) for g in stack] == want
    assert type(perm_order_of(stack[0])) is int


def test_perm_order_of_edge_cases():
    assert perm_order_of([0]) == 1
    assert perm_order_of(np.zeros((3, 1), np.int32)).tolist() == [1, 1, 1]
    # disjoint cycles of the first 19 prime lengths: the order passes int64
    primes = [p for p in range(2, 68) if all(p % d for d in range(2, p))]
    g, start = [], 0
    for p in primes:
        g += [start + (i + 1) % p for i in range(p)]
        start += p
    assert perm_order_of(g) == math.prod(primes) > 2 ** 63
    assert perm_order_of(np.array([g, sorted(g)])).tolist() == \
        [math.prod(primes), 1]


def test_as_perm_rejects_non_bijections():
    # a repeated, an out-of-range and a negative image
    for images in ([0, 2, 2], [0, 1, 3], [1, -1, 0]):
        with pytest.raises(GroupError, match="bijection"):
            as_perm(images)
    with pytest.raises(GroupError, match="1-d"):
        as_perm([[0, 1], [1, 0]])
    assert list(as_perm((2, 0, 1))) == [2, 0, 1]
    assert len(as_perm([])) == 0


def reference_extend_orbit(tree, order_list, gens):
    """Point-at-a-time FIFO orbit growth over a dict tree, after appending
    gens[-1]: first close the old orbit under it, then run the new points
    under every generator."""
    new_gen_index = len(gens) - 1
    frontier = []
    gnew = gens[new_gen_index]
    for point in order_list:
        y = int(gnew[point])
        if y not in tree:
            tree[y] = (point, new_gen_index)
            order_list.append(y)
            frontier.append(y)
    qi = 0
    while qi < len(frontier):
        point = frontier[qi]
        qi += 1
        for gi, g in enumerate(gens):
            y = int(g[point])
            if y not in tree:
                tree[y] = (point, gi)
                order_list.append(y)
                frontier.append(y)


def regular_c7_4():
    """C_7^4 acting regularly on itself: 2,401 points, four translations."""
    pts = np.arange(7 ** 4)
    return [pts + (np.where(pts // 7 ** i % 7 == 6, -6, 1) * 7 ** i)
            for i in range(4)]


@pytest.mark.parametrize("cutoff", [0, perm.SCALAR_LAYER, 10 ** 9])
def test_layered_orbits_match_point_at_a_time_growth(monkeypatch, cutoff):
    monkeypatch.setattr(perm, "SCALAR_LAYER", cutoff)
    groups = [([list(g) for g in h.generators], None)
              for h in (atlas.sym(5), atlas.wreath(atlas.sym(3), atlas.sym(3)),
                        atlas.regular(atlas.gl(2, 3)))]
    # the bound skips ~10^4 Schreier generators that test no orbit growth
    groups.append((regular_c7_4(), 7 ** 4))
    for gens, order in groups:
        whole = schreier_sims(gens) if order is None else \
            normal_closure_perm(gens, gens, upper_bound=order)
        for b in (whole, normal_closure_perm(gens, gens[1:])):
            for lv in b.levels:
                tree, order_list = {lv.base: None}, [lv.base]
                for k in range(len(lv.gens)):
                    reference_extend_orbit(tree, order_list, lv.gens[:k + 1])
                parent = np.full(b.degree, -1)
                label = np.full(b.degree, -1)
                parent[lv.base] = lv.base
                for y, edge in tree.items():
                    if edge is not None:
                        parent[y], label[y] = edge
                assert lv.order_list == order_list
                assert np.array_equal(lv.parent, parent)
                assert np.array_equal(lv.label, label)


# digests of the derived-series chains of each spec, G itself first; a
# refactor of the engine or of its callers must leave every chain unchanged
PINNED_CHAINS = {
    "sym(5)": ["700ef17b4d4b7eb5", "5804591b79b98a31"],
    "wr(sym(3),sym(3))": [
        "811c8a8a1d498d46", "346bad756cba6bc1", "0ef6a354b6bcd2bb",
        "19ebb42c77c44f12", "dfb3008225bed094"],
    "regular(gl(2,3))": [
        "1d1220d0caaf2b3d", "9022a6c17b4dcb10", "9a35bdac81e42ea3",
        "5f5fd750e9fe2775", "4ee991989e0670d5"],
    "natsd(s3mat(5),2)": [
        "23c85429a9331800", "cd4a59a63accb470", "ba155414c4ab05ef",
        "1c4d23304c170d58"],
    "gsp(gl(2,3),3,1)": [
        "37bee7d5af2bdb87", "6329d2420d859bc9", "de18fb9b31be4247",
        "029258df5bc4ca7a", "2e6393f7aa8a9b74", "a2f2e6216f7557ae",
        "1c4d1c8b156dca7b"],
    "metacyclic(3,7)": [
        "7179c66919b0697c", "1fd32654e8d74bbc", "f5ff61d7b533cd73"],
}


@pytest.mark.parametrize("spec", sorted(PINNED_CHAINS))
def test_chains_are_pinned(spec):
    handle = evaluate(parse_spec(spec))
    report = derived_series(handle)
    assert report.subgroups[0]._bsgs is handle.bsgs()
    digests = [chain_fingerprint(s._bsgs) for s in report.subgroups]
    assert digests == PINNED_CHAINS[spec]


@pytest.mark.parametrize("spec", sorted(PINNED_CHAINS) + ["d8()"])
def test_strong_generators_are_listed_once(spec):
    # level 0 owns every strong generator once; a deeper level holds those
    # inserted at it or below, in the same order
    for sub in derived_series(evaluate(parse_spec(spec))).subgroups:
        b = sub._bsgs
        keys = [g.tobytes() for g in b.strong_generators()]
        assert len(set(keys)) == len(keys)
        assert keys == [g.tobytes() for g in b.levels[0].gens] \
            if b.levels else keys == []
        for lv in b.levels[1:]:
            rest = iter(keys)
            assert all(g.tobytes() in rest for g in lv.gens)


def set_keyed_normal_closure(group_gens, seed, upper_bound=None):
    """normal_closure_perm as it was when strong_generators() listed each
    generator once per level it sits on: conjugates are skipped by a set
    of (generator key, group generator index) pairs already done, and
    non-members found by a membership test before they are sifted.  Like
    normal_closure_perm, it stops when the order reaches upper_bound."""
    group_gens = [as_perm(g) for g in group_gens]
    ginvs = [perm_inv(g) for g in group_gens]
    pending, seen = [], set()
    for s in map(as_perm, seed):
        if not is_identity(s) and s.tobytes() not in seen:
            seen.add(s.tobytes())
            pending.append(s)
    b = perm.BSGS(len(group_gens[0]))
    conj_done, verified = set(), False
    while pending or not verified:
        for s in pending:
            perm._sift_insert(b, s)
            verified = False
        if b.order() == upper_bound:
            return b
        pending = []
        for s in [g for lv in b.levels for g in lv.gens]:
            ks = s.tobytes()
            for i, (g, gi) in enumerate(zip(group_gens, ginvs)):
                if (ks, i) not in conj_done:
                    conj_done.add((ks, i))
                    c = perm_mul(perm_mul(gi, s), g)
                    if not b.contains(c):
                        pending.append(c)
        if not pending and not verified:
            perm._complete(b, upper_bound)
            verified = True
    return b


def chain_corpus():
    return [(label, h) for label, h, _ in corpus_perm_groups()] + \
        [(label, build()) for label, build in IMAGE_SPECS]


def commutator(a, b):
    return perm_mul(perm_mul(perm_inv(a), perm_inv(b)), perm_mul(a, b))


@pytest.mark.parametrize("spec", sorted(
    [label for label, _ in chain_corpus()] +
    ["wr(sym(3),sym(3))", "regular(gl(2,3))"]))
def test_conjugation_count_matches_the_set_keyed_loop(spec):
    handle = dict(chain_corpus()).get(spec) or evaluate(parse_spec(spec))
    gens = [as_perm(g) for g in handle.perm_generators()]
    comms = [commutator(a, b) for a in gens for b in gens]
    runs = [([g], None) for g in gens] + [(comms, None)]
    for sub in derived_series(handle).subgroups:
        runs.append((sub._bsgs.strong_generators()[-2:], None))
    # the seeds of the lower central series: [a, g] for a in gamma_i's
    # generators and g in G's, gamma_(i+1) their normal closure, until
    # its order stops falling
    term, order = gens, handle.order()
    while True:
        runs.append(([commutator(a, g) for a in term for g in gens], None))
        if order == 1:
            break
        b = normal_closure_perm(gens, runs[-1][0])
        if b.order() == order:
            break
        term, order = b.strong_generators(), b.order()
    # G' from all commutators, stopped at its order
    runs.append((comms, normal_closure_perm(gens, comms).order()))
    repeats = 0
    for seed, bound in runs:
        old = set_keyed_normal_closure(gens, seed, bound)
        assert chain_fingerprint(old) == \
            chain_fingerprint(normal_closure_perm(gens, seed, bound))
        repeats += sum(len(lv.gens) for lv in old.levels[1:])
    # the old loop met generators listed twice, except in a group whose
    # chains have one level, such as a regular one
    assert repeats or len(handle.bsgs().levels) == 1


def pair_set_check_level(b, level):
    """BSGS._check_level as it was with a set of (point, generator index)
    pairs done per level: each Schreier generator u_point g u_y^-1 is
    built in full from the tree paths, then sifted from the top, and a
    residual is inserted at the first level whose base point it moves."""
    lv = b.levels[level]
    done = b.__dict__.setdefault("pairs_done", {}).setdefault(level, set())

    def path(point):  # labels from `point` up to the base
        labels = []
        while point != lv.base:
            labels.append(lv.label[point])
            point = lv.parent[point]
        return labels

    idx = 0
    while idx < len(lv.order_list):
        point = lv.order_list[idx]
        for gi in range(len(lv.gens)):
            if (point, gi) in done:
                continue
            done.add((point, gi))
            g = lv.gens[gi]
            y = g.item(point)
            if lv.parent[y] == point and lv.label[y] == gi:
                continue
            s = np.arange(b.degree, dtype=np.int32)
            for gj in reversed(path(point)):
                s = perm_mul(s, lv.gens[gj])
            s = perm_mul(s, g)
            for gj in path(y):
                s = perm_mul(s, lv.invs[gj])
            h, lev = b.sift(s)
            if lev < len(b.levels) or not is_identity(h):
                lev = next((i for i, other in enumerate(b.levels)
                            if h.item(other.base) != other.base),
                           len(b.levels))
                b._insert_generator(h, lev)
                return True
        idx += 1
    return False


def series_fingerprints(handles):
    """Chain digests of each handle's derived series, G's own (its
    schreier_sims chain) first."""
    return {label: [chain_fingerprint(sub._bsgs)
                    for sub in derived_series(h).subgroups]
            for label, h in handles}


def test_check_level_matches_the_pair_set_loop(monkeypatch):
    new = series_fingerprints(chain_corpus())
    monkeypatch.setattr(perm.BSGS, "_check_level", pair_set_check_level)
    old = series_fingerprints(chain_corpus())
    assert old == new
    assert len(new) == 30 and sum(map(len, new.values())) == 100
