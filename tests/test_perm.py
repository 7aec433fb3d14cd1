"""Schreier-Sims engine vs breadth-first enumeration oracles."""

import itertools
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (EVAL_MIX, chain_corpus, chain_fingerprint,
                     corpus_perm_groups, cycle_walk_order, is_identity, law,
                     perm_inv, perm_mul, perm_order_of, perm_power, sift,
                     sift_insert_oracle)
from solvlen import atlas, grp, perm
from solvlen.cli import evaluate
from solvlen.dsl import parse_spec
from solvlen.errors import DegreeMismatch, GroupError
from solvlen.fpmat import FpMatrix
from solvlen.grp import derived_series
from solvlen.perm import (as_perm, element_orders, normal_closure_perm,
                          schreier_sims)


def bfs_order(handle):
    """Independent order oracle: plain closure enumeration."""
    product = law(handle)[0]
    elems = {handle.identity}
    frontier = [handle.identity]
    while frontier:
        x = frontier.pop()
        for g in handle.generators:
            y = product(x, g)
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
        assert b.contains([e])
    # A4 does not contain transpositions
    a4_gens = [[1, 2, 0, 3], [0, 2, 3, 1]]
    ba = schreier_sims(a4_gens)
    assert ba.order() == 12
    assert not ba.contains([[1, 0, 2, 3]])
    assert ba.contains([[1, 0, 3, 2]])


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
    assert b.contains([prod])
    rem, level = sift(b, prod)
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
    assert b.contains(gens)


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
    assert b.contains(b.strong_generators())


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


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_is_identity_matches_array_equal(dtype):
    # the byte comparison against the identity of the array's own dtype
    # agrees with the value comparison
    rng = np.random.default_rng(3)
    arrays = [np.arange(n, dtype=dtype) for n in (0, 1, 5, 128)]
    arrays += [rng.permutation(n).astype(dtype) for n in (2, 5, 128)]
    arrays += [np.array([1, 0], dtype), np.array([0, 2, 1], dtype)]
    for a in arrays:
        assert is_identity(a) == np.array_equal(a, np.arange(len(a)))
    assert is_identity(np.arange(0, dtype=dtype))
    assert not is_identity(np.array([0, 2, 1], dtype))


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=4)))
def test_element_orders_on_a_base_match_the_oracle(perms):
    # the rows lie in <perms>, so its chain's base points are a base for
    # them, and so is every point
    stack = np.array(perms + [list(range(len(perms[0])))], dtype=np.uint8)
    want = perm_order_of(stack).tolist()
    base = [lv.base for lv in schreier_sims(stack).levels]
    assert element_orders(stack, base).tolist() == want
    assert element_orders(stack, range(stack.shape[1])).tolist() == want


def test_element_orders_edge_cases():
    # the trivial group: an empty base and every order 1
    trivial = atlas.cyclic(1)
    assert trivial.base() == []
    assert element_orders(trivial.rows(), []).tolist() == [1]
    assert element_orders(np.zeros((2, 0), np.uint8), []).tolist() == [1, 1]
    # a base point on a cycle of full degree takes all degree steps
    c12 = atlas.cyclic(12)
    assert c12.base() == [0]
    assert element_orders(c12.rows(), [0]).tolist() == \
        perm_order_of(c12.rows()).tolist() == [1, 12, 6, 4, 3, 12, 2, 12,
                                                3, 4, 6, 12]
    # disjoint cycles of the first 19 prime lengths, on a base of one
    # point per cycle and on every point: the order passes int64
    primes = [p for p in range(2, 68) if all(p % d for d in range(2, p))]
    g = [start + (i + 1) % p for start, p in zip(
        itertools.accumulate([0] + primes), primes) for i in range(p)]
    stack = np.array([g, sorted(g)])
    for base in (list(itertools.accumulate([0] + primes[:-1])),
                 range(len(g))):
        got = element_orders(stack, base).tolist()
        assert got == [math.prod(primes), 1] and type(got[0]) is int


@pytest.mark.parametrize("build", [
    lambda: atlas.sym(5), lambda: atlas.wreath(atlas.sym(3), atlas.sym(3)),
    lambda: atlas.regular(atlas.gl(2, 3))], ids=["sym(5)", "wr(s3,s3)",
                                                 "regular(gl(2,3))"])
def test_element_orders_on_a_chain_stopped_at_its_bound(build):
    # a chain that reaches a proven order bound stops with Schreier
    # generators unchecked; its base points are still a base
    full = build()
    h = replace(full, order_bounds=(full.order(),), _bsgs=None)
    chain = h.bsgs()
    assert chain.order() == full.order()
    assert any((lv.paired[lv.order_list] < len(lv.gens)).any()
               for lv in chain.levels)
    rows, base = h.rows(), h.base()
    assert len(np.unique(rows[:, base], axis=0)) == len(rows)
    assert element_orders(rows, base).tolist() == perm_order_of(rows).tolist()


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


def relabel(gens, seed):
    """gens conjugated by a random relabelling of the points drawn from
    seed; seed 0 keeps the labels."""
    gens = [np.asarray(g) for g in gens]
    if seed == 0:
        return gens
    s = np.random.default_rng(seed).permutation(len(gens[0]))
    out = []
    for g in gens:
        h = np.empty_like(g)
        h[s] = s[g]
        out.append(h)
    return out


@pytest.mark.parametrize("seed", [0, 512, 10 ** 9])
def test_layered_orbits_match_point_at_a_time_growth(seed):
    # other labels give other base points and other orbit orders
    groups = [([list(g) for g in h.generators], None)
              for h in (atlas.sym(5), atlas.wreath(atlas.sym(3), atlas.sym(3)),
                        atlas.regular(atlas.gl(2, 3)))]
    # the bound skips ~10^4 Schreier generators that test no orbit growth
    groups.append((regular_c7_4(), 7 ** 4))
    for gens, order in groups:
        gens = [list(g) for g in relabel(gens, seed)]
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
            perm._sift_insert(b, s[None])
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
                    if not b.contains([c]):
                        pending.append(c)
        if not pending and not verified:
            perm._complete(b, upper_bound)
            verified = True
    return b


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
            h, lev = sift(b, s)
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


def path_inverse(lv, point, degree):
    """u_point^-1 read off the tree: the inverses of the edge generators
    from `point` back up to the base, in that order."""
    u = np.arange(degree, dtype=np.int32)
    while point != lv.base:
        u = perm_mul(u, lv.invs[lv.label[point]])
        point = lv.parent[point]
    return u


def corpus_chains():
    """(label, chain) for every derived term of every corpus group."""
    return [(label, sub._bsgs) for label, h in chain_corpus()
            for sub in derived_series(h).subgroups]


def test_table_rows_are_the_inverted_tree_paths():
    for label, b in corpus_chains():
        for lv in b.levels:
            assert lv.table.shape == (lv.orbit_size(), b.degree), label
            assert np.array_equal(np.flatnonzero(lv.row >= 0),
                                  sorted(lv.order_list)), label
            for i, x in enumerate(lv.order_list):
                assert lv.row[x] == i, label
                assert np.array_equal(lv.table[i],
                                      path_inverse(lv, x, b.degree)), label


def path_walk_strip(b, stack):
    """BSGS.strip row by row, as sift was: each row walks the tree path
    of its base image up to the base, one product per edge."""
    for k, g in enumerate(stack):
        h = as_perm(g)
        for i, lv in enumerate(b.levels):
            x = h.item(lv.base)
            if lv.parent[x] < 0:
                return k, h, i
            while x != lv.base:
                h = perm_mul(h, lv.invs[lv.label[x]])
                x = lv.parent[x]
        if not is_identity(h):
            return k, h, len(b.levels)
    return len(stack), np.arange(b.degree), len(b.levels)


def random_word(rng, gens, length):
    g = np.arange(len(gens[0]), dtype=np.int32)
    for i in rng.integers(0, len(gens), length):
        g = perm_mul(g, gens[i])
    return g


def test_stack_strip_matches_the_path_walk():
    # members of a derived term, elements of the whole group (members of
    # the term or not) and random permutations, in shuffled stacks
    rng = np.random.default_rng(20)
    checked = set()
    for label, h in chain_corpus():
        group = [as_perm(g) for g in h.perm_generators()]
        for sub in derived_series(h).subgroups:
            b, strong = sub._bsgs, sub._bsgs.strong_generators()
            pool = [random_word(rng, group, 6) for _ in range(6)] + \
                [rng.permutation(b.degree).astype(np.int32)
                 for _ in range(2)]
            if strong:
                pool += [random_word(rng, strong, 8) for _ in range(24)]
            for size in (1, 3, len(pool)):
                for _ in range(4):
                    stack = np.array([pool[i] for i in rng.choice(
                        len(pool), size, replace=False)], dtype=np.int32)
                    want = path_walk_strip(b, stack)
                    got = b.strip(stack)
                    assert got[0] == want[0] and got[2] == want[2], label
                    assert np.array_equal(got[1], want[1]), label
                    assert got[1].dtype == np.int32
                    checked.add(want[0] == size)
    assert checked == {True, False}


def stacks(n, min_size=0):
    """Stacks of at most 6 permutations of n points, as int32 arrays."""
    return st.lists(st.permutations(range(n)), min_size=min_size,
                    max_size=6).map(lambda perms: np.array(
                        perms, np.int32).reshape(len(perms), n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(stacks), st.integers(0, 13))
def test_stacked_commutators_and_powers_match_the_oracles(gens, k):
    # row for row against one product at a time: the identity
    # commutators are dropped and the (a, b) order of the rest is kept;
    # every power is kept
    want = [c for i, a in enumerate(gens) for b in gens[i + 1:]
            if not is_identity(c := commutator(a, b))]
    got = perm.commutators(gens, np.argsort(gens, axis=1))
    assert got.shape == (len(want), gens.shape[1])
    assert [g.tolist() for g in got] == [c.tolist() for c in want]
    got = perm.powers(gens, k)
    assert got.shape == gens.shape
    assert [g.tolist() for g in got] == \
        [perm_power(g, k).tolist() for g in gens]


def sifts(b, g):
    """The former BSGS.contains on one permutation."""
    h, lev = sift(b, g)
    return lev == len(b.levels) and is_identity(h)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(stacks(n, 1), stacks(n))))
def test_stack_membership_matches_the_oracle_sift(data):
    gens, others = data
    b = schreier_sims(gens)
    members = [perm_mul(a, c) for a in gens for c in gens]
    for stack in (others, gens, members, [*members, *others],
                  [*others, *members]):
        assert b.contains(stack) == all(sifts(b, g) for g in stack)
    assert b.contains(np.zeros((0, b.degree), np.int32))
    assert b.contains([])
    with pytest.raises(DegreeMismatch):
        b.contains([[*range(b.degree + 1)]])


def chain_levels(b):
    """Per level: the base point, the BFS order and the bytes of the
    strong generators."""
    return [(lv.base, list(lv.order_list), [g.tobytes() for g in lv.gens])
            for lv in b.levels]


def sift_both(stack, start=None):
    """The chains that the resumed sift and the oracle build from `stack`,
    each on its own copy of the chain `start` (an empty chain if None)."""
    out = []
    for sift_insert in (perm._sift_insert, sift_insert_oracle):
        b = perm.BSGS(stack.shape[1])
        if start is not None:
            b.levels = [lv.copy() for lv in start.levels]
        sift_insert(b, stack)
        out.append(chain_levels(b))
    return out


def test_resumed_sift_matches_the_oracle_on_the_corpus():
    # each corpus group's generators and words in them, sifted into an
    # empty chain and into a copy of each derived term's chain
    rng = np.random.default_rng(43)
    for label, h in chain_corpus():
        group = h.perm_generators()
        words = np.array([random_word(rng, group, 5) for _ in range(16)])
        new, old = sift_both(np.concatenate([group, words]))
        assert new == old, label
        for sub in derived_series(h).subgroups:
            new, old = sift_both(words, sub._bsgs)
            assert new == old, label


def test_strip_hands_back_each_row_at_its_own_level():
    # <(0 1 2), (3 4 5)> on 7 points has base [0, 3]: (3 6) leaves level
    # 1, (0 6) leaves level 0 before it, and (1 2) fails only the final
    # identity check
    b = schreier_sims([[1, 2, 0, 3, 4, 5, 6], [0, 1, 2, 4, 5, 3, 6]])
    assert [lv.base for lv in b.levels] == [0, 3]
    ident = list(range(7))
    stack = np.array([[0, 1, 2, 6, 4, 5, 3], [6, 1, 2, 3, 4, 5, 0],
                      [0, 2, 1, 3, 4, 5, 6], [1, 2, 0, 3, 4, 5, 6]],
                     np.int32)
    k, res, level, rest = b.strip(stack)
    assert (k, res.tolist(), level) == (0, stack[0].tolist(), 1)
    assert [(rows.tolist(), lev) for rows, lev in rest] == [
        (stack[1:].tolist(), 0)]
    k, res, level, rest = b.strip(stack[2:])
    assert (k, res.tolist(), level) == (0, stack[2].tolist(), 2)
    assert [(rows.tolist(), lev) for rows, lev in rest] == [
        ([ident], 2)]  # (0 1 2) stripped through both levels
    k, res, level, rest = b.strip(stack[3:])
    assert (k, res.tolist(), level, rest) == (1, ident, 2, [])


def strip_through(b, g, stop):
    """g stripped by the path walk through the levels before `stop`."""
    h = as_perm(g)
    for lv in b.levels[:stop]:
        x = h.item(lv.base)
        while x != lv.base:
            h = perm_mul(h, lv.invs[lv.label[x]])
            x = lv.parent[x]
    return h


def fixing_base(rows, base):
    """Each row made to fix the base points: it moves the other points as
    it orders them."""
    rest = np.setdiff1d(np.arange(rows.shape[1]), base)
    out = np.tile(np.arange(rows.shape[1], dtype=np.int32), (len(rows), 1))
    out[:, rest] = rest[np.argsort(rows[:, rest], axis=1)]
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7).flatmap(
    lambda n: st.tuples(stacks(n, 1), stacks(n), stacks(n))))
def test_resumed_sift_matches_the_oracle_on_stacks(data):
    # rows that fix every base point of the start chain pass each level
    # and fail, unless members, at the final identity check
    gens, others, moved = data
    start = schreier_sims(gens[:2])
    fixing = fixing_base(moved, [lv.base for lv in start.levels])
    stack = np.concatenate([fixing, others, gens, fixing[::-1]])
    k, res, level, rest = start.strip(stack)
    assert sum(len(rows) for rows, _ in rest) == max(len(stack) - k - 1, 0)
    after = iter(stack[k + 1:])
    for rows, lev in rest:
        for row in rows:
            assert np.array_equal(row, strip_through(start, next(after), lev))
    for first in (None, start):
        new, old = sift_both(stack, first)
        assert new == old


@pytest.mark.parametrize("spec", [s for s in EVAL_MIX if s.startswith("wr(")])
def test_chain_series_seeds_no_identity_commutator(monkeypatch, spec):
    # a commuting pair of a term's generators gives the identity, which
    # would strip through the whole chain for nothing
    seeds, closure = [], perm.normal_closure_perm

    def recording(group_gens, seed, upper_bound=None):
        seeds.append(np.asarray(seed))
        return closure(group_gens, seed, upper_bound)
    monkeypatch.setattr(perm, "normal_closure_perm", recording)
    handle = evaluate(parse_spec(spec))
    derived_series(handle)
    # one seed per term after G's, and one for the term that ends the
    # series without a fall in order, if any
    chains = handle._chains
    assert len(chains) - 1 <= len(seeds) <= len(chains)
    for seed in seeds:
        assert (seed != np.arange(handle.degree)).any(axis=1).all(), spec
    # the commutators of each term's generators (G's first), all but
    # the dropped identities
    gens = [len(handle.perm_generators())] + \
        [len(b.strong_generators()) for b in chains[1:len(seeds)]]
    assert sum(map(len, seeds)) < sum(m * (m - 1) // 2 for m in gens)


@pytest.mark.parametrize("spec, order", [
    ("gl(2,3)", 48), ("gl(3,2)", 168), ("sl(2,5)", 120), ("sl(3,3)", 5616),
    ("ut(3,3)", 8 * 27), ("ut(4,2)", 64)])
def test_linear_chains_stop_at_their_formula_order(spec, order):
    # the chain stops when its orbit product reaches the proven order,
    # with Schreier generators left unsifted, and is then the chain a full
    # verification builds
    handle = evaluate(parse_spec(spec))
    assert handle.order_bounds[0] == order == handle.order()
    full = schreier_sims(handle.perm_generators())
    assert chain_fingerprint(handle.bsgs()) == chain_fingerprint(full)

    def sifted(b):  # (point, generator) pairs whose generator was sifted
        return sum(int(lv.paired[lv.order_list].sum()) for lv in b.levels)
    assert sifted(handle.bsgs()) < sifted(full)


# each builder that proves derived-term bounds, over small parameters that
# reach every branch of its bounds, with the number of leading bounds its
# docstring calls exact
BOUNDED_SPECS = {
    **{f"cyclic({n})": 2 for n in (1, 2, 3, 6, 12)},
    **{f"sym({n})": 4 if n <= 4 else 3 for n in range(1, 8)},
    **{f"gl({n},{p})": 5 for n, p in ((1, 2), (1, 5), (2, 2), (2, 3),
                                      (2, 5), (2, 7), (3, 2), (3, 3),
                                      (4, 2))},
    **{f"sl({n},{p})": 4 for n, p in ((1, 3), (2, 2), (2, 3), (2, 5),
                                      (2, 7), (3, 2), (3, 3), (4, 2))},
    **{f"s3mat({p})": 3 for p in (2, 3, 5, 7)},
    **{f"metacyclic({p},{q})": 3 for p, q in ((2, 3), (2, 5), (3, 7),
                                              (5, 11), (3, 13))},
    "wr(sym(3),sym(3))": 2, "wr(sym(4),sym(4))": 2,
    "wr(sym(3),wr(sym(3),sym(3)))": 2, "wr(sym(1),sym(3))": 2,
    "wr(cyclic(3),sym(1))": 2, "wr(metacyclic(2,3),cyclic(2))": 2,
    "wr(sym(2),direct(sym(2),sym(2)))": 2,  # k intransitive
    "wr(sym(3),direct(sym(2),sym(3)))": 2,
    "direct(sym(3),sym(4))": 4, "direct(cyclic(2),sym(5))": 3,
    "direct(sym(1),metacyclic(2,3))": 3,
    "direct(sym(4),wr(sym(2),sym(2)))": 2,
    "regular(gl(2,3))": 5, "regular(sym(3))": 3, "regular(ut(2,3))": 3,
    **{f"ut({n},{p})": 4 for n, p in ((1, 2), (1, 3), (2, 2), (2, 3),
                                      (2, 5), (3, 2), (3, 3), (3, 5),
                                      (4, 2), (4, 3), (5, 2))},
    **{f"natsd({m},{n})": 1 for m, n in (
        ("s3mat(5)", 2), ("s3mat(3)", 2), ("gl(2,3)", 2), ("sl(2,3)", 2),
        ("gl(2,2)", 2), ("gl(1,5)", 1), ("ut(2,3)", 2))},
    **{f"extraspecial({a})": 3 for a in (
        "3,1", "5,1", "3,2", "2,1,plus", "2,1,minus", "2,2,plus",
        "2,2,minus", "2,3,minus")},
    **{f"extsq({p})": 3 for p in (3, 5, 7)},
    "bo()": 5, "regular(extraspecial(3,1))": 3,
}


@pytest.mark.parametrize("spec", sorted(BOUNDED_SPECS))
def test_builder_bounds_hold_and_stop_the_same_chains(spec):
    # every bound is at least its term's order, verified in full with no
    # bounds, and equal to it where documented exact; the chains stopped
    # at the bounds are those chains, built with fewer Schreier
    # generators sifted
    handle = evaluate(parse_spec(spec))
    free = replace(handle, order_bounds=(), _bsgs=None)
    bounds, orders = handle.order_bounds, derived_series(free).orders
    terms = orders + orders[-1:] * len(bounds)  # G^(i) = G^(i-1) past it
    assert bounds and all(b >= o for b, o in zip(bounds, terms))
    exact = min(BOUNDED_SPECS[spec], len(bounds))
    assert bounds[:exact] == terms[:exact]
    assert derived_series(handle).orders == orders
    chains, free_chains = (grp._chain_series(h) for h in (handle, free))
    assert list(map(chain_fingerprint, chains)) == \
        list(map(chain_fingerprint, free_chains))

    def sifted(series):  # Schreier generators sifted over the series
        return sum(int(lv.paired[lv.order_list].sum())
                   for b in series for lv in b.levels)
    assert sifted(chains) < sifted(free_chains) or orders == (1,)


@pytest.mark.parametrize("bounds, term, order", [
    ((24, 5), 1, 12), ((10,), 0, 24)])
def test_a_bound_below_its_term_is_refused(bounds, term, order):
    # a chain stops only on reaching its bound, so one that verified past
    # it proves the bound false: GroupError names the term and the bound
    handle = replace(atlas.sym(4), order_bounds=bounds)
    with pytest.raises(GroupError, match=re.escape(
            f"G^({term}) has order {order}, above its bound {bounds[term]}")):
        derived_series(handle)


def test_a_matrix_handle_given_no_bound_records_none():
    # every recorded bound is an int; with none, the chain verifies in full
    handle = atlas.matrix_handle([FpMatrix.from_rows([[1, 1], [0, 1]], 3)])
    assert handle.order_bounds == () and handle.order() == 3
