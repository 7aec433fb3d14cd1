"""Finite group algorithms over one Schreier-Sims engine.

A GroupHandle bundles an identity and a generator list; elements themselves
are plain hashable values (image tuples, FpMatrix, model coordinate
tuples), and no handle multiplies them one at a time.  Order, membership,
normal closure and the derived series run on a BSGS chain: a permutation
handle's own, or for a matrix or model handle the chain of a faithful
permutation image (its ``action``), from the generators' images, converted
once (``GroupHandle.perm_generators``).  A subgroup is its chain on that
image, read back into the handle's elements only when a caller asks.
A chain stops once its order reaches a proven bound, where it is
complete: the builder's (``order_bounds``) or, for a derived term, the
order of the term above it; a chain that passes its bound refutes it.  A
handle with certified derived-series orders (``split_orders``) answers its
order and series from them: R(P)<A> (``gsp``, ``d8()``) builds chains only
when read, and a split handle (``prop8`` = P |x K) has no permutation
image, so every question that needs a chain, the degree or the elements
is refused there.  Element lists are enumerated breadth-first over the
same images as 2-D arrays (``_closure``), with the right-translation
columns of the generators as a by-product, and read back in one step per
kind; on those columns ``derived_orders`` takes the derived series of a
group, or of R(P)<A>, on index sets.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import perm as permmod
from .errors import BadParameter, CapExceeded, GroupError, NotNormal

DEFAULT_CAP = 1 << 24
QUOTIENT_INDEX_CAP = 10_000
ENUMERABLE_LIMIT = 10 ** 6
READ_ROWS = 4096  # image rows read back as one nested list


def _env_cap():
    """GRP_MAX_ELEMENTS as an int, or DEFAULT_CAP if unset.

    A value that does not parse, or is below 1, raises BadParameter, so
    the CLI exits 2.
    """
    raw = os.environ.get("GRP_MAX_ELEMENTS")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise BadParameter(
            f"GRP_MAX_ELEMENTS={raw!r} is not an integer") from None
    if cap < 1:
        raise BadParameter(f"GRP_MAX_ELEMENTS={cap} is below 1")
    return cap


def factorize(n):
    """Prime factorization as a sorted list of (prime, exponent)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def omega(n):
    """Number of prime factors counted with multiplicity."""
    return sum(e for _, e in factorize(n))


@dataclass
class GroupHandle:
    """Bundle of identity and generators.

    The generators' images, the image rows of the elements with their
    right-translation columns, the element list read back from them, and
    the BSGS chains of the group and its derived terms are computed on
    first use and cached on the handle.
    """

    identity: object
    generators: list
    name: str = ""
    kind: str = "generic"  # "perm" | "matrix" | "model" | "split" | "generic"
    action: Optional[object] = None  # faithful permutation image, non-perm
    split_orders: Optional[tuple] = None  # certified |G^(i)|, split route
    order_bounds: tuple = ()  # proven |G^(i)| bounds (ints), where chains stop
    _rows: Optional[np.ndarray] = field(default=None, repr=False)
    _elements: Optional[list] = field(default=None, repr=False)
    _columns: Optional[np.ndarray] = field(default=None, repr=False)
    _bsgs: Optional[permmod.BSGS] = field(default=None, repr=False)
    _images: Optional[np.ndarray] = field(default=None, repr=False)
    _chains: Optional[list] = field(default=None, init=False, repr=False)

    def to_perm(self, x):
        """x as an image sequence: itself for a perm handle, else its
        image under the action (None if x is outside the group)."""
        return x if self.action is None else self.action.perm(x)

    def from_perms(self, rows):
        """The elements with the image rows of a 2-D array, read back
        READ_ROWS rows per numpy step."""
        read = (lambda part: map(tuple, part.tolist())) \
            if self.action is None else self.action.elements
        return [x for i in range(0, len(rows), READ_ROWS)
                for x in read(rows[i:i + READ_ROWS])]

    def perm_generators(self):
        """The generators' images, converted once to one int32 stack that
        starts every chain.  A split handle has no image: CapExceeded."""
        if self.kind == "split":
            raise CapExceeded(f"{self.name} is a split extension with no "
                              "permutation image; only its derived series "
                              "is known")
        if self._images is None:
            n = self.action.degree if self.action else len(self.identity)
            self._images = permmod.as_perm_stack(
                [self.to_perm(g) for g in self.generators], n)
        return self._images

    @property
    def degree(self):
        """The image's points: the identity's, or the action's (CapExceeded
        for a split handle)."""
        return self.perm_generators().shape[1]

    def bsgs(self):
        """G's chain, stopped at order_bounds[0] if the handle has one."""
        if self._bsgs is None:
            self._bsgs = _within_bound(self, 0, permmod.schreier_sims(
                self.perm_generators(), next(iter(self.order_bounds), None)))
        return self._bsgs

    def base(self):
        """Points only the identity fixes: e_0..e_(n-1), the action's first
        n points, with no chain, or the chain's base points."""
        if self.action is not None:
            return range(self.action.n)
        return [lv.base for lv in self.bsgs().levels]

    def rows(self):
        """The image rows of the elements (a 2-D array), enumerated once,
        breadth-first within enum_cap() rows (see _closure)."""
        if self._rows is None:
            self._rows, self._columns = self.closure(self.perm_generators())
        return self._rows

    def elements(self):
        """The element list: rows() read back into the handle's type."""
        if self._elements is None:
            self._elements = self.from_perms(self.rows())
        return self._elements

    def columns(self):
        """Right-translation columns: cols[k, i] is the index in rows() of
        rows()[i] * generators[k] (an int32 array)."""
        self.rows()
        return self._columns

    def closure(self, images):
        """(rows, columns) of the group generated by the given image
        arrays, within enum_cap() rows; see _closure."""
        n = self.degree
        dtype = np.min_scalar_type(n - 1)  # uint8 up to 256 points
        return _closure(lambda rows: rows, np.arange(n, dtype=dtype),
                        np.array(images, dtype).reshape(len(images), n),
                        self.enum_cap())

    def enum_cap(self):
        # GRP_MAX_ELEMENTS as it is now; rows of the image's degree are
        # stored, so entries (order x degree) stay bounded as well
        return min(_env_cap(),
                   max(1, permmod.MEMORY_BUDGET // max(self.degree, 1)))

    def order(self):
        if self.split_orders is not None:
            return self.split_orders[0]
        return self.bsgs().order()


@dataclass
class SubgroupHandle:
    """A subgroup of a parent handle: its order and its BSGS chain on the
    parent's permutation image (derived term `term`'s from the parent's
    chain series, on first read).  A term of a split extension has no
    chain: it answers only its order, and other questions CapExceeded."""

    parent: GroupHandle
    order: int
    chain: Optional[permmod.BSGS] = field(default=None, repr=False)
    term: Optional[int] = None
    _elem_set: Optional[set] = field(default=None, init=False, repr=False)

    @property
    def _bsgs(self):
        if self.chain is None:
            self.chain = _chain_series(self.parent)[self.term]
        return self.chain

    @property
    def generators(self):
        """The chain's strong generators, read back on every call (an
        order-1 term has none)."""
        return self.parent.from_perms(
            np.array(self._bsgs.strong_generators()))

    def contains_subgroup(self, other):
        """Whether other's strong generators all strip in this chain."""
        return self._bsgs.contains(other._bsgs.strong_generators())

    def element_set(self):
        if self._elem_set is None:
            if self.order > min(ENUMERABLE_LIMIT, self.parent.enum_cap()):
                raise CapExceeded("subgroup too large to enumerate")
            self._elem_set = set(self.parent.from_perms(self.parent.closure(
                self._bsgs.strong_generators())[0]))
        return self._elem_set


@dataclass
class SeriesReport:
    """Derived-series data: orders, n(G), c(G), d(G)."""

    orders: tuple            # |G^(0)|, |G^(1)|, ..., last repeated order
    solvable: bool
    n: tuple                 # composition lengths of the abelian quotients
    c: Optional[int]         # Omega(|G|) when solvable, else None
    d: Optional[int]         # derived length when solvable, else None
    engine: str = "bsgs"     # "split" when taken from handle.split_orders
    subgroups: Optional[list] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# closure / enumeration


def _closure(read, identity, gens, cap):
    """Breadth-first closure of the image rows gens (k x n) from the
    identity row: (read(rows), cols), cols[k, i] = index of rows[i] * gens[k].

    x * g is g[x].  Each slice of elements, in index order, is multiplied
    by all generators in one ``take``, and a dict that numbers a missing
    key at its first lookup maps the images' row bytes, in (element,
    generator) order, to their columns in C: the order of a FIFO search.
    That dict is the only store of the rows until read; the rows held plus
    the image rows in flight, as an array and as bytes (the new keys), stay
    within MEMORY_BUDGET // n rows (or one element's images), so slices
    stay full up to any cap.  CapExceeded past cap rows, once per slice.
    """
    k, n = gens.shape
    room = permmod.MEMORY_BUDGET // max(n, 1)
    index = collections.defaultdict(itertools.count(1).__next__,
                                    {identity.tobytes(): 0})
    keys = list(index)
    cols, done = [], 0
    while done < len(keys):
        step = max(1, (room - len(keys)) // max(2 * k, 1))
        part = np.frombuffer(b"".join(keys[done:done + step]),
                             identity.dtype).reshape(-1, n)
        done += len(part)
        images = _keys(gens.take(part, axis=1).transpose(1, 0, 2))
        cols.append(np.fromiter(map(index.__getitem__, images), np.int32,
                                len(images)))
        if len(index) > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        if len(index) > len(keys):  # the new keys, off the dict's tail
            keys += reversed(list(itertools.islice(
                reversed(index), len(index) - len(keys))))
        del part, images  # free this slice before the next is built
    rows = np.frombuffer(b"".join(keys), identity.dtype).reshape(-1, n)
    del index, keys  # read() sees one copy of the rows
    return read(rows), np.concatenate(cols).reshape(len(rows), k).T.copy()


def _keys(rows):
    """The rows of an array as bytes, one per row."""
    rows = np.ascontiguousarray(rows)
    return rows.view((np.void, rows.shape[-1] * rows.itemsize)).ravel().tolist()


def _row_index(rows):
    """Indices in `rows` of the rows of an array, by one dict of bytes."""
    where = dict(zip(_keys(rows), range(len(rows))))
    return lambda part: list(map(where.__getitem__, _keys(part)))


def _translations(cols, images=None):
    """(parent, gen, column) of a breadth-first enumeration with right-
    translation columns cols (k x order): for i > 0, parent[i] * gen[i] = i
    is i's first edge in (element, generator) order (one scatter-min), from
    the layer before i; column(i)[x] is the index of x * i, one gather per
    edge, cached, or i's image, for images the generators' image maps."""
    flat, first = cols.T.ravel(), np.full(cols.shape[1], cols.size)
    np.minimum.at(first, flat, np.arange(len(flat)))
    parent, gen = divmod(first, max(len(cols), 1))  # k = 0: parent[0] = 0
    images = cols if images is None else images
    known = {0: np.arange(len(images.T))}

    def column(i):  # from the nearest cached ancestor down, no recursion
        path = [int(i)]
        while path[-1] not in known:
            path.append(int(parent[path[-1]]))
        for j in reversed(path[:-1]):
            known[j] = images[gen[j]][known[parent[j]]]
        return known[path[0]]
    return parent, gen, column


def _stretches(parent):
    """Slices of 1..len(parent)-1 in order, each after its rows' parents."""
    done = 1
    while done < len(parent):
        stop = done + int(np.argmax(np.append(parent[done:], done) >= done))
        yield slice(done, stop)
        done = stop


def _walk(columns, seen, layer=None):
    """Close the boolean row seen, in place, under x -> c[x] for each of
    the columns, breadth-first from layer, all of seen by default (or, for
    <H, t> with seen H, its coset H t), which joins seen; return the
    indices visited, layer first, each later layer ascending."""
    columns = np.asarray(columns, np.intp).reshape(-1, len(seen))
    layer = seen.nonzero()[0] if layer is None else layer
    seen[layer], found = True, [layer]
    while len(layer):
        new = np.zeros(len(seen), bool)
        new[columns[:, layer]] = True
        layer = (new > seen).nonzero()[0]
        seen[layer] = True
        found.append(layer)
    return np.concatenate(found)


def _index_closure(column, cols, pending, maps=()):
    """(row, gens): the normal closure of the indices pending, walked on
    index sets with right-translation columns cols: a seed t outside it
    joins its gens (walked from sub t) and queues its conjugates and
    images under maps."""
    sub, walk, inv = column(0) == 0, [], cols.argmin(axis=1)
    for t in pending:
        if not sub[t]:
            walk.append(column(t))  # walk[j][0] = 1 * t = t
            _walk(walk, sub, walk[-1][sub])
            pending += cols[np.arange(len(cols)), walk[-1][inv]].tolist()
            pending += [a[t] for a in maps]
    return sub, [int(c[0]) for c in walk]


def derived_orders(cols, auts=(), k_cols=None, k_series=([1], [[]])):
    """(orders, gens): |G^(i)|, as derived_series gives them, and indices
    of generators of M_i = G^(i) n R(P), for G = R(P)<A> on the elements
    of P with right-translation columns cols (G = P with no auts): auts
    are index maps of automorphisms a_j of P, the images of the g_j under
    a monomorphism onto <A> of K, with columns k_cols by the g_j and
    k_series = derived_orders(k_cols).  a^-1 r_m a = r_a(m), so R(P) is
    normal, and R(P) n <A> = 1 as <A> fixes 1 and R(P) is regular.

    Let G^(i-1) = M_(i-1) A^(i-1), A^(i) the image of K^(i), and N the
    normal closure in G of the [m, m'] and [m, a_k] = m^-1 a_k(m), for
    m, m' generators of M_(i-1) and k of K^(i-1) (a_k read on K's tree).
    These are commutators in G^(i-1), so N <= M_i; modulo N, M_(i-1) is
    abelian and centralized by the a_k, so central in G^(i-1).  So G^(i)
    <= N A^(i) <= G^(i), M_i = N by Dedekind's law, |G^(i)| = |N||K^(i)|.
    """
    (k_orders, k_gens), last = k_series, len(k_series[0]) - 1
    column = _translations(cols)[2]
    image = _translations(k_cols, auts)[2] if len(auts) else None
    gens, orders = [[int(c[0]) for c in cols]], [cols.shape[1] * k_orders[0]]
    while orders[-1] > 1:
        col = np.array([column(a) for a in gens[-1]])
        inv = col.argmin(axis=1)  # the x with x * a = 1
        x = np.array([column(i) for i in inv])[:, inv]  # [b, a]: a^-1 b^-1
        y = np.take_along_axis(col, x.T, axis=1)  # [a, b]: a^-1 b^-1 a
        pending = np.take_along_axis(col, y.T, axis=1).T.ravel().tolist() + [
            column(image(k)[m])[i] for m, i in zip(gens[-1], inv)
            for k in k_gens[min(len(orders) - 1, last)]]
        sub, new = _index_closure(column, cols, pending, auts)
        order = int(sub.sum()) * k_orders[min(len(orders), last)]
        if order == orders[-1]:
            break
        orders.append(order)
        gens.append(new)
    return orders, gens


def normal_closure(handle: GroupHandle, seed) -> SubgroupHandle:
    """Smallest normal subgroup of the handle's group containing seed."""
    images = [handle.to_perm(s) for s in seed]
    if any(x is None for x in images):
        raise BadParameter("seed element is not in the group")
    b = permmod.normal_closure_perm(handle.perm_generators(), images)
    return SubgroupHandle(handle, b.order(), b)


def derived_series(handle: GroupHandle) -> SeriesReport:
    """The terms of the handle's chain series (_chain_series), or its
    split_orders as they are (engine "split"); the chains, cached on the
    handle, are built only when read (SubgroupHandle._bsgs)."""
    orders = tuple(handle.split_orders or map(
        permmod.BSGS.order, _chain_series(handle)))
    solvable = orders[-1] == 1
    return SeriesReport(
        orders, solvable,
        n=tuple(omega(a // b) for a, b in zip(orders, orders[1:])),
        c=omega(orders[0]) if solvable else None,
        d=len(orders) - 1 if solvable else None,
        engine="bsgs" if handle.split_orders is None else "split",
        subgroups=[SubgroupHandle(handle, o, term=i)
                   for i, o in enumerate(orders)])


def _chain_series(handle: GroupHandle):
    """The chains of G's derived terms, cached on the handle (not on a copy
    made by replace): G^(0) is the handle's own, and G^(i+1) the normal
    closure in G of the commutators of G^(i)'s generators (G's for G^(0),
    the strong generators of G^(i)'s chain after).  The series stops before
    the first term whose order does not fall, or after order 1.  A chain
    stops at the least proven bound on its term's order, the handle's
    (order_bounds) or |G^(i)| for G^(i+1) <= G^(i), or verifies in full;
    the orders must be the split_orders, if any."""
    if handle._chains is None:
        group, bounds = handle.perm_generators(), handle.order_bounds
        gens, invs = group, np.argsort(group, axis=1)
        chains = [handle.bsgs()]
        while chains[-1].order() > 1:
            term = len(chains)
            b = _within_bound(handle, term, permmod.normal_closure_perm(
                group, permmod.commutators(gens, invs),
                min((*bounds[term:term + 1], chains[-1].order()))))
            if b.order() == chains[-1].order():
                break
            chains.append(b)
            if b.levels:  # else the order is 1 and the series ends
                gens, invs = map(np.array, (b.levels[0].gens,
                                            b.levels[0].invs))
        if handle.split_orders not in (None, tuple(b.order() for b in chains)):
            raise GroupError(f"{handle.name}: chain orders differ")
        handle._chains = chains
    return handle._chains


def _within_bound(handle, term, chain):
    """The chain of G^(term), or GroupError if it passed the handle's bound
    on that term: a chain stops only on reaching its bound, so it then
    verified in full, and the bound is false.  A false bound that a partial
    chain reaches exactly is not caught here."""
    bound = handle.order_bounds[term:term + 1]
    if bound and chain.order() > bound[0]:
        raise GroupError(f"{handle.name}: G^({term}) has order "
                         f"{chain.order()}, above its bound {bound[0]}")
    return chain


def center(handle: GroupHandle) -> SubgroupHandle:
    """Z(G) on the image rows: x is central iff g[x] = x[g] (x g = g x) for
    each generator row g; the chain of the central rows stops at their
    count, |Z|, a proven bound."""
    rows = handle.rows()
    central = np.arange(len(rows))
    for g in rows[handle.columns()[:, 0]]:
        x = rows[central]
        central = central[(g[x] == x[:, g]).all(axis=1)]
    return SubgroupHandle(handle, len(central), permmod.schreier_sims(
        list(rows[central]), len(central)))


def minimal_normal_subgroups(handle: GroupHandle):
    """All minimal normal subgroups, via normal closures of prime-order
    cyclic subgroups, on the image rows.  Each generator of a conjugate of
    <x> has the closure of x, so each class of such subgroups is closed
    once, from its first element in enumeration order."""
    if handle.order() > ENUMERABLE_LIMIT:
        raise CapExceeded("group too large for minimal normal subgroups")
    rows = handle.rows()
    find = _row_index(rows)
    gens = rows[handle.columns()[:, 0]]
    ginvs = np.argsort(gens, axis=1)
    orders = permmod.element_orders(rows, handle.base())
    todo = np.isin(orders, [q for q in set(orders.tolist()) if _is_prime(q)])
    family = []
    for i in np.flatnonzero(todo).tolist():
        if not todo[i]:
            continue
        # the conjugacy class of x: conj(y, g) = g^-1 y g is g[y[g^-1]]
        orbit, layer = {i}, [i]
        while layer:
            y = rows[layer]
            images = np.concatenate([g[y[:, gi]] for g, gi in zip(gens, ginvs)])
            layer = list(set(find(images)) - orbit)
            orbit.update(layer)
        conj = power = rows[list(orbit)]
        for _ in range(orders[i] - 1):
            todo[find(power)] = False
            power = np.take_along_axis(conj, power, axis=1)  # power * y
        b = permmod.normal_closure_perm(handle.perm_generators(), [rows[i]])
        closure = SubgroupHandle(handle, b.order(), b)
        if not any(f.order == closure.order and
                   f.contains_subgroup(closure) for f in family):
            family.append(closure)
    return sorted((c for c in family if not any(
        o.order < c.order and c.contains_subgroup(o) for o in family)),
        key=lambda s: s.order)


def _is_prime(n):
    return n >= 2 and factorize(n) == [(n, 1)]


def quotient_on_cosets(handle: GroupHandle, sub: SubgroupHandle) -> GroupHandle:
    """Permutation action of G on right cosets of a normal subgroup N, on
    the image rows: the coset N e is the rows e[n], n in N, and cosets are
    numbered breadth-first from N over the generators.  NotNormal unless
    N's chain sifts g^-1 s g for its strong generators s and generators g."""
    chain, gens = sub._bsgs, handle.perm_generators()
    strong = permmod.as_perm_stack(chain.strong_generators(), handle.degree)
    conj = gens[np.arange(len(gens))[:, None],
                strong[:, np.argsort(gens, axis=1)]].reshape(-1, handle.degree)
    if chain.strip(conj)[0] < len(conj):
        raise NotNormal("subgroup is not normal")
    index = handle.order() // sub.order
    if index > QUOTIENT_INDEX_CAP:
        raise CapExceeded(f"index {index} exceeds {QUOTIENT_INDEX_CAP}")
    if handle.order() > min(ENUMERABLE_LIMIT, handle.enum_cap()):
        raise CapExceeded("group too large to label cosets")
    rows, cols = handle.rows(), handle.columns()
    find = _row_index(rows)
    nrows = handle.closure(strong)[0]
    coset, reps = np.full(len(rows), -1), [0]
    coset[find(nrows)] = 0
    for r in reps:
        for e in cols[:, r].tolist():
            if coset[e] < 0:
                coset[find(rows[e][nrows])] = len(reps)
                reps.append(e)
    if len(reps) != index:
        raise GroupError(f"{len(reps)} cosets labelled, index is {index}")
    gen_perms = [tuple(coset[c[reps]].tolist()) for c in cols]
    ident = tuple(range(index))
    return GroupHandle(ident, [g for g in gen_perms if g != ident],
                       name=f"{handle.name}/N", kind="perm")


@dataclass
class Finding:
    """One lemma check: status is pass | fail | not-applicable | skipped."""

    name: str
    status: str
    detail: str = ""


def _cyclic_section(gens, upper, lower):
    """Whether A = upper/lower is cyclic, for chains lower < upper of
    subgroups normal in <gens> with A abelian.

    For each prime p dividing |A|, <lower, x^p : x a strong generator of
    upper> is the preimage of A^p, characteristic in A and so normal.  Its
    order is |upper| / |A : A^p| <= |upper|/p, since |A : A^p| is p to the
    number of cyclic factors of A's Sylow p-subgroup: equality for every
    p means A is cyclic.  The closure grows from lower's chain, normal in
    <gens>, so only the p-th powers are seeded.
    """
    for p, _ in factorize(upper.order() // lower.order()):
        target = upper.order() // p
        seed = permmod.powers(np.array(upper.strong_generators()), p)
        if permmod.normal_closure_perm(gens, seed, upper_bound=target,
                                       normal=lower).order() != target:
            return False
    return True


def _fixed_point_free(gens, upper, mid, low):
    """Whether upper acts on M = mid/low without nontrivial fixed points,
    for chains low < mid < upper of subgroups normal in <gens>, with M
    abelian and upper/mid of prime order.

    mid acts trivially on M, so upper acts through any g in upper outside
    mid, and x -> x^g x^-1 is an endomorphism of M whose kernel is the
    fixed points.  Its image [M, g] = [M, upper] is normal in the group,
    with preimage <low, x^g x^-1 : x a strong generator of mid> of order
    at most |mid|; the action is fixed-point-free iff it is |mid|.  The
    closure grows from low's chain, normal in <gens>, so only the
    x^g x^-1 are seeded.
    """
    strong = np.array(upper.strong_generators())
    g = strong[mid.strip(strong)[0]]
    x, xi = np.array(mid.levels[0].gens), np.array(mid.levels[0].invs)
    seed = np.take_along_axis(xi, g[x[:, np.argsort(g)]], axis=1)  # [x, g]
    return permmod.normal_closure_perm(
        gens, seed, upper_bound=mid.order(), normal=low).order() == \
        mid.order()


def _section_finding(name, applicable, fails, skips, what, if_none):
    """Summary of a check over derived sections: fail, pass, skipped or
    not-applicable, in that order of precedence."""
    if fails:
        return Finding(name, "fail", f"violations at {fails}")
    if applicable:
        return Finding(name, "pass", f"{what} at i = {applicable}")
    if skips:
        return Finding(name, "skipped", f"sections too large {skips}")
    return Finding(name, "not-applicable", if_none)


def check_lemmas(handle: GroupHandle, report: SeriesReport, assert_cs=False):
    """Structural consistency checks along the derived series.

    `c-full` and `d` are decided by orders of normal closures on the
    chains of the derived terms (see _cyclic_section and
    _fixed_point_free).  Each closure's target order is an upper bound on
    its true order, and a partial chain's orbit product never exceeds the
    true order, so the closure stops early exactly when the answer is yes
    and is verified in full when it is no: every verdict is certified.
    Each closure grows from a copy of the chain of the term below its
    section, normal in G, so that term's strong generators and checked
    Schreier generators are not sifted again; the term's own chain is
    left as it was.
    Nothing is enumerated; ENUMERABLE_LIMIT in front of these two checks
    only bounds their time, and past it they report "skipped" and the
    handle's generators are not read (a split handle has none).

    `e` is order arithmetic: if S = G^(i-1)/G^(i+1) has order p^3, its
    derived subgroup G^(i)/G^(i+1) has order p, so S is non-abelian, and
    the centre of a non-abelian group of order p^3 has order p (it is
    non-trivial, and S/Z(S) is not cyclic), so S is extraspecial.
    """
    findings = []
    if not report.solvable:
        return [Finding("solvable", "not-applicable", "group is not solvable")]
    n, d, orders = report.n, report.d, report.orders
    enumerable = orders[0] <= ENUMERABLE_LIMIT
    gens = handle.perm_generators() if enumerable else None
    chains = [sub._bsgs for sub in report.subgroups] if enumerable else None

    # consecutive abelian quotients: c-weak by order arithmetic
    bad = [i for i in range(2, d) if n[i - 1] == 1 and n[i] == 1]
    if d < 3:
        findings += [Finding(name, "not-applicable",
                             "needs derived length at least 3")
                     for name in ("c-weak", "c-full")]
    else:
        findings.append(Finding(
            "c-weak", "fail" if bad else "pass",
            f"consecutive n_i = 1 at i = {bad}" if bad
            else f"n = {n} has no adjacent 1s past i = 2"))
        if not enumerable:
            findings.append(Finding("c-full", "skipped",
                                    "group exceeds the enumeration limit"))
        else:
            cyclic = functools.cache(
                lambda j: _cyclic_section(gens, chains[j - 1], chains[j]))
            fails = [i for i in range(2, d) if cyclic(i) and cyclic(i + 1)]
            findings.append(Finding(
                "c-full", "fail" if fails else "pass",
                f"both sections cyclic at i = {fails}" if fails
                else f"checked i = {list(range(2, d))}"))

    # unique minimal normal subgroup = last nontrivial derived term
    if assert_cs and d:
        try:
            mins = minimal_normal_subgroups(handle)
            last = report.subgroups[d - 1]
            if (len(mins) == 1 and mins[0].order == last.order
                    and last.contains_subgroup(mins[0])):
                findings.append(Finding(
                    "a", "pass",
                    f"unique minimal normal of order {mins[0].order} "
                    f"= G^({d - 1})"))
            else:
                findings.append(Finding(
                    "a", "fail",
                    f"{len(mins)} minimal normal subgroups, orders "
                    f"{[m.order for m in mins]}, G^({d-1}) order {last.order}"))
        except CapExceeded:
            findings.append(Finding("a", "skipped",
                                    "group too large to enumerate"))
    else:
        findings.append(Finding("a", "not-applicable", "group is trivial"
                                if assert_cs else
                                "caller did not assert minimal length"))

    # cyclic prime sections act coprimely and fixed-point-freely below
    applicable, fails, skips = [], [], []
    for i in range(1, d):
        q = orders[i - 1] // orders[i]
        if not _is_prime(q):
            continue
        below = orders[i] // orders[i + 1]
        if math.gcd(q, below) != 1:
            fails.append((i, f"gcd({q}, {below}) > 1"))
        elif not enumerable:
            skips.append(i)
        elif _fixed_point_free(gens, *chains[i - 1:i + 2]):
            applicable.append(i)
        else:
            fails.append((i, "conjugation fixes a nontrivial coset"))
    findings.append(_section_finding(
        "d", applicable, fails, skips, "fixed-point-free coprime action",
        "no cyclic prime sections"))

    # n_i = 2 over n_{i+1} = 1 forces an extraspecial p^3 section; the
    # section has Omega = 3, so it is p^3 iff one prime divides it
    steps = [i for i in range(2, d) if n[i - 1] == 2 and n[i] == 1]
    secs = [orders[i - 1] // orders[i + 1] for i in steps]
    fails = [(i, f"section order {sec} is not p^3")
             for i, sec in zip(steps, secs) if len(factorize(sec)) > 1]
    findings.append(_section_finding(
        "e", steps, fails, [], "extraspecial p^3 sections",
        "no n_i = 2, n_{i+1} = 1 step"))
    return findings
