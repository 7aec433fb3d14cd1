"""Finite group algorithms over one Schreier-Sims engine.

A GroupHandle bundles an identity, a generator list and the element
operations; elements themselves are plain hashable values (image tuples,
FpMatrix, model coordinate tuples).  Order, membership, normal closure and
the derived series run on a BSGS chain: a permutation handle's own, or for
a matrix or model handle the chain of a faithful permutation image (its
``action``), whose results are read back into the handle's own elements.
A subgroup computed on a chain keeps that chain and reads its strong
generators back into the handle's elements only on first use.  A split
handle (``prop8``) holds only its derived-series orders, certified on the
chains of its two factors (``split_orders``): its order and derived series
answer from them, and every question that needs a chain or the elements
is refused in one place, ``GroupHandle.perm_generators``.
Element lists are enumerated breadth-first over the same images as 2-D
arrays (``_closure``), with the right-translation columns of the
generators as a by-product, and read back in one step per kind.
"""

from __future__ import annotations

import functools
import math
import os
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import perm as permmod
from .errors import BadParameter, CapExceeded, NotNormal

DEFAULT_CAP = 1 << 24
QUOTIENT_INDEX_CAP = 10_000
ENUMERABLE_LIMIT = 10 ** 6
MEMORY_BUDGET = 5 * 10 ** 7  # element entries across an enumeration
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


def tuple_mul(a, b):
    """Product of image tuples: apply a, then b."""
    return tuple(b[x] for x in a)


def tuple_inv(a):
    """Inverse of an image tuple."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


@dataclass
class GroupHandle:
    """Bundle of identity, generators and element operations.

    The image rows of the elements with their right-translation columns,
    the element list read back from them, and the BSGS, are computed on
    first use and cached on the handle.  The derived-series
    report is cached by a weak reference: its subgroups refer back to the
    handle, and a strong one would make a cycle that keeps a dropped
    group's memory until the cyclic collector runs.
    """

    identity: object
    generators: list
    mul: Callable
    inv: Callable
    name: str = ""
    kind: str = "generic"  # "perm" | "matrix" | "model" | "split" | "generic"
    degree: Optional[int] = None    # set for perm kind
    action: Optional[object] = None  # faithful permutation image, non-perm
    cap: int = field(default_factory=_env_cap)
    split_orders: Optional[tuple] = None  # certified |G^(i)|, split route
    _rows: Optional[np.ndarray] = field(default=None, repr=False)
    _elements: Optional[list] = field(default=None, repr=False)
    _columns: Optional[np.ndarray] = field(default=None, repr=False)
    _bsgs: Optional[permmod.BSGS] = field(default=None, repr=False)
    _series: Optional[weakref.ref] = field(default=None, repr=False)

    def to_perm(self, x):
        """x as an image sequence: itself for a perm handle, else its
        image under the action (None if x is outside the group)."""
        return x if self.action is None else self.action.perm(x)

    def from_perm(self, g):
        """The element of the handle's own type with image array g."""
        return self.from_perms(np.asarray(g)[None])[0]

    def from_perms(self, rows):
        """The elements with the image rows of a 2-D array, read back
        READ_ROWS rows per numpy step."""
        read = (lambda part: map(tuple, part.tolist())) \
            if self.action is None else self.action.elements
        return [x for i in range(0, len(rows), READ_ROWS)
                for x in read(rows[i:i + READ_ROWS])]

    def perm_generators(self):
        """The generators as image arrays, the start of every chain and
        enumeration.  A split handle has no image: CapExceeded."""
        if self.split_orders is not None:
            raise CapExceeded(f"{self.name} is a split extension with no "
                              "permutation image; only its derived series "
                              "is known")
        return [self.to_perm(g) for g in self.generators]

    def bsgs(self):
        if self._bsgs is None:
            self._bsgs = permmod.schreier_sims(self.perm_generators())
        return self._bsgs

    def rows(self):
        """The image rows of the elements (a 2-D array), breadth-first
        from the identity over the generators (see _closure)."""
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
        arrays; see _closure."""
        n = len(self.to_perm(self.identity))
        dtype = np.min_scalar_type(n - 1)  # uint8 up to 256 points
        return _closure(lambda rows: rows, np.arange(n, dtype=dtype),
                        np.array(images, dtype).reshape(len(images), n),
                        self.enum_cap())

    def enum_cap(self):
        # every enumeration stores rows of the image's degree; keep total
        # entries (order x degree) bounded as well as the raw count
        n = len(self.to_perm(self.identity))
        return min(self.cap, max(1, MEMORY_BUDGET // max(n, 1)))

    def order(self):
        if self.split_orders is not None:
            return self.split_orders[0]
        return self.bsgs().order()

    def conj(self, x, g):
        return self.mul(self.mul(self.inv(g), x), g)

    def element_order(self, x):
        return permmod.perm_order_of(self.to_perm(x))


@dataclass
class SubgroupHandle:
    """A subgroup given by generators inside a parent handle.

    Built from a chain with generators None, it reads the chain's strong
    generators back into the parent's element type on first use.  A term
    of a split series has neither: it answers only its order, and asking
    it for generators or membership raises CapExceeded.
    """

    parent: GroupHandle
    _generators: Optional[list]
    order: int
    _elem_set: Optional[set] = field(default=None, repr=False)
    _bsgs: Optional[permmod.BSGS] = field(default=None, repr=False)

    @property
    def generators(self):
        if self._generators is None:
            self._generators = [self.parent.from_perm(g)
                                for g in self._chain().strong_generators()]
        return self._generators

    def _chain(self):
        if self._bsgs is None:
            raise CapExceeded("a split derived term knows only its order")
        return self._bsgs

    def contains(self, x):
        if self._elem_set is not None:
            return x in self._elem_set
        chain = self._chain()
        g = self.parent.to_perm(x)
        return g is not None and chain.contains(g)

    def contains_subgroup(self, other):
        return all(self.contains(g) for g in other.generators)

    def element_set(self):
        if self._elem_set is None:
            if self.order > min(ENUMERABLE_LIMIT, self.parent.enum_cap()):
                raise CapExceeded("subgroup too large to enumerate")
            images = (self._chain().strong_generators()
                      if self._generators is None else
                      [self.parent.to_perm(g) for g in self._generators])
            self._elem_set = set(self.parent.from_perms(
                self.parent.closure(images)[0]))
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

    x * g is g[x].  Slices of elements, in index order, are multiplied by
    all generators in one fancy-index step, in (element, generator) order,
    and the first occurrence of a new row gets the next index: the order of
    a FIFO search.  A dict of row bytes is the only store of the rows until
    read; the rows held plus the image rows in flight, as an array and as
    bytes, stay within cap rows (or one element's images).  CapExceeded
    once there are more than cap rows.
    """
    k, n = gens.shape
    index = {identity.tobytes(): 0}
    keys = list(index)
    which = np.arange(k)[None, :, None]
    cols, done = [], 0
    while done < len(keys):
        step = max(1, (cap - len(keys)) // max(2 * k, 1))
        part = np.frombuffer(b"".join(keys[done:done + step]),
                             identity.dtype).reshape(-1, n)
        done += len(part)
        images = _keys(gens[which, part[:, None, :]])
        for key in images:
            i = index.setdefault(key, len(keys))
            if i == len(keys):
                if i == cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                keys.append(key)
            cols.append(i)
        del part, images  # free this slice before the next is built
    rows = np.frombuffer(b"".join(keys), identity.dtype).reshape(-1, n)
    del index, keys  # read() sees one copy of the rows
    return read(rows), np.array(cols, np.int32).reshape(len(rows), k).T.copy()


def _keys(rows):
    """The rows of an array as bytes, one per row."""
    rows = np.ascontiguousarray(rows)
    return rows.view((np.void, rows.shape[-1] * rows.itemsize)).ravel().tolist()


def _row_index(rows):
    """Indices in `rows` of the rows of an array, by one dict of bytes."""
    where = dict(zip(_keys(rows), range(len(rows))))
    return lambda part: list(map(where.__getitem__, _keys(part)))


def normal_closure(handle: GroupHandle, seed) -> SubgroupHandle:
    """Smallest normal subgroup of the handle's group containing seed."""
    b = permmod.normal_closure_perm(handle.perm_generators(),
                                    [handle.to_perm(s) for s in seed])
    return SubgroupHandle(handle, None, b.order(), _bsgs=b)


def derived_series(handle: GroupHandle) -> SeriesReport:
    """Iterate derived subgroups until the order stabilizes; a report
    still held by a caller is returned again.  A handle with split_orders
    gets them as they are, with terms that know only their orders.

    Otherwise each term is on its chain: G^(i+1) is the normal closure in
    G of the commutators of G^(i)'s generators (G's for G^(0), the strong
    generators of G^(i)'s chain after).  The series stops before the
    first term whose order does not fall, or after order 1.  G^(0) keeps
    the handle's generators and chain.
    """
    report = handle._series() if handle._series is not None else None
    if report is None:
        if handle.split_orders is not None:
            orders = handle.split_orders
            report = _finish_report(
                orders, [SubgroupHandle(handle, None, n) for n in orders],
                "split")
        else:
            group = [permmod.as_perm(g) for g in handle.perm_generators()]
            gens, invs = group, [permmod.perm_inv(g) for g in group]
            subs = [SubgroupHandle(handle, list(handle.generators),
                                   handle.order(), _bsgs=handle.bsgs())]
            while subs[-1].order > 1:
                b = permmod.normal_closure_perm(
                    group, permmod.commutators(gens, invs))
                if b.order() == subs[-1].order:
                    break
                subs.append(SubgroupHandle(handle, None, b.order(), _bsgs=b))
                if b.levels:  # else the order is 1 and the series ends
                    gens, invs = b.levels[0].gens, b.levels[0].invs
            report = _finish_report([s.order for s in subs], subs)
        handle._series = weakref.ref(report)
    return report


def _finish_report(orders, subs, engine="bsgs"):
    solvable = orders[-1] == 1
    n = tuple(omega(orders[i] // orders[i + 1])
              for i in range(len(orders) - 1))
    if solvable:
        d = len(orders) - 1
        c = omega(orders[0])
        assert c == sum(n)
    else:
        d = None
        c = None
    return SeriesReport(orders=tuple(orders), solvable=solvable, n=n,
                        c=c, d=d, engine=engine, subgroups=subs)


def center(handle: GroupHandle) -> SubgroupHandle:
    """Z(G) on the image rows: x is central iff g[x] = x[g] (x g = g x) for
    each generator row g; central rows are read back in order."""
    rows = handle.rows()
    central = np.arange(len(rows))
    for g in rows[handle.columns()[:, 0]]:
        x = rows[central]
        central = central[(g[x] == x[:, g]).all(axis=1)]
    elems = handle.from_perms(rows[central])
    return SubgroupHandle(handle, elems[1:], len(elems), _elem_set=set(elems))


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
    perm_gens = handle.perm_generators()
    orders = permmod.perm_order_of(rows)
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
        b = permmod.normal_closure_perm(perm_gens, [rows[i]])
        closure = SubgroupHandle(handle, None, b.order(), _bsgs=b)
        if not any(f.order == closure.order and
                   f.contains_subgroup(closure) for f in family):
            family.append(closure)
    minimal = []
    for cand in family:
        if not any(other.order < cand.order and cand.contains_subgroup(other)
                   for other in family):
            minimal.append(cand)
    minimal.sort(key=lambda s: s.order)
    return minimal


def _is_prime(n):
    return n >= 2 and factorize(n) == [(n, 1)]


def quotient_on_cosets(handle: GroupHandle, sub: SubgroupHandle) -> GroupHandle:
    """Permutation action of G on right cosets of a normal subgroup N, on
    the image rows: the coset N e is the rows e[n], n in N, and cosets are
    numbered breadth-first from N over the generators."""
    if not all(sub.contains(handle.conj(s, g))
               for s in sub.generators for g in handle.generators):
        raise NotNormal("subgroup is not normal")
    index = handle.order() // sub.order
    if index > QUOTIENT_INDEX_CAP:
        raise CapExceeded(f"index {index} exceeds {QUOTIENT_INDEX_CAP}")
    if handle.order() > min(ENUMERABLE_LIMIT, handle.enum_cap()):
        raise CapExceeded("group too large to label cosets")
    rows, cols = handle.rows(), handle.columns()
    find = _row_index(rows)
    nrows = handle.closure([handle.to_perm(s) for s in sub.generators])[0]
    coset, reps = np.full(len(rows), -1), [0]
    coset[find(nrows)] = 0
    for r in reps:
        for e in cols[:, r].tolist():
            if coset[e] < 0:
                coset[find(rows[e][nrows])] = len(reps)
                reps.append(e)
    assert len(reps) == index
    gen_perms = [tuple(coset[c[reps]].tolist()) for c in cols]
    ident = tuple(range(index))
    return GroupHandle(ident, [g for g in gen_perms if g != ident],
                       tuple_mul, tuple_inv, name=f"{handle.name}/N",
                       kind="perm", degree=index, cap=handle.cap)


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
    p means A is cyclic.
    """
    for p, _ in factorize(upper.order() // lower.order()):
        target = upper.order() // p
        seed = lower.strong_generators() + [
            permmod.perm_power(x, p) for x in upper.strong_generators()]
        if permmod.normal_closure_perm(
                gens, seed, upper_bound=target).order() != target:
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
    at most |mid|; the action is fixed-point-free iff it is |mid|.
    """
    g = next(x for x in upper.strong_generators() if not mid.contains(x))
    gi = permmod.perm_inv(g)
    lv = mid.levels[0]
    seed = low.strong_generators() + [
        permmod.perm_mul(permmod.perm_mul(permmod.perm_mul(gi, x), g), xi)
        for x, xi in zip(lv.gens, lv.invs)]
    return permmod.normal_closure_perm(
        gens, seed, upper_bound=mid.order()).order() == mid.order()


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
    chains = [sub._bsgs for sub in report.subgroups]

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
    if assert_cs:
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
        findings.append(Finding("a", "not-applicable",
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
