"""Permutation groups with a deterministic Schreier-Sims engine.

Permutations are numpy int32 image arrays over 0-based points: point p maps
to g[p], and products act left-to-right, (g*h)[p] = h[g[p]].  The module
takes them only as 2-D stacks, one per row, multiplied by whole-stack gathers.

Each chain level keeps its BFS tree in ``parent`` (-1 off the orbit) and
``label`` (the generator index of the edge), int32 memoryviews that Python
indexes about twice as fast as numpy arrays, and its transversal as a
table: row i is u_x^-1 for x = order_list[i], u_x the tree-edge generators
from the base out to x, in the smallest dtype that holds a point.  The
tables of one chain hold at most MEMORY_BUDGET entries (CapExceeded past
it).  Orbits grow breadth-first, one point at a time, the first fresh
image in (point, generator) order winning.

``BSGS.strip`` strips a 2-D stack of permutations with one gather per
level and names its first row that does not strip, handing back the rows
after it as segments, each stripped through the levels before its own.
An insertion keeps every base point, tree edge and table row and only
adds orbit points, so inserting that row's residual and resuming each
segment at its level sifts a list exactly as a one-at-a-time loop does.
A level's Schreier generators are checked by the same strip.

Level 0 owns every strong generator once, in insertion order; each deeper
level's ``gens`` (and ``invs``) is the sub-list of those inserted at that
level or below, so ``strong_generators()`` is level 0's list.

A chain is verified in full unless the caller passes an ``upper_bound`` it
has proven: the orbit product of a partial chain never exceeds the group's
order, so reaching such a bound means the chain is complete.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, DegreeMismatch, GroupError

MAX_DEGREE = 200_000
MEMORY_BUDGET = 5 * 10 ** 7  # entries in one enumeration or one chain's tables
STACK_ENTRIES = 1 << 14  # entries in one stack of Schreier generators


def check_degree(n):
    """n itself, or CapExceeded when n points exceed MAX_DEGREE."""
    if n > MAX_DEGREE:
        raise CapExceeded(f"degree {n} exceeds {MAX_DEGREE}")
    return n


def as_perm(images):
    """Coerce to a validated numpy permutation array."""
    g = np.asarray(images, dtype=np.int32)
    if g.ndim != 1:
        raise GroupError("permutation must be a 1-d image array")
    return as_perm_stack([g], len(g))[0]


def as_perm_stack(perms, degree):
    """Coerce a list or 2-D array of images on `degree` points to one
    validated int32 stack (len(perms) x degree): as_perm's checks, with one
    bincount over the rows, offset by row, for every bijection at once."""
    n = check_degree(degree)
    if any(len(g) != n for g in perms):
        raise DegreeMismatch("permutations act on different point counts")
    h = np.array(perms if len(perms) else np.zeros((0, n)), np.int32)
    if h.ndim != 2:
        raise GroupError("permutation must be a 1-d image array")
    if h.size and (h.min() < 0 or h.max() >= n or np.count_nonzero(
            np.bincount((h + np.arange(0, h.size, n)[:, None]).ravel()))
            != h.size):
        raise GroupError("image array is not a bijection")
    return h


def commutators(gens, invs):
    """The non-identity [a, b] = a^-1 b^-1 a b for each pair of rows of the
    stack gens, a above b, as one stack in that (a, b) order; invs is the
    stack of their inverses.  Each factor is one _gather over every pair."""
    m = len(gens)
    # the pairs i < j in row order, as np.triu_indices(m, 1) lists them
    i, j = np.nonzero(np.arange(m)[:, None] < np.arange(m))
    c = _gather(gens, j, _gather(gens, i, _gather(invs, j, invs[i])))
    return c[(c != np.arange(c.shape[1])).any(axis=1)]


def powers(h, k):
    """Each row of the stack h to the k-th power (k >= 0), by repeated
    squaring."""
    rows = np.arange(len(h))
    out = np.broadcast_to(np.arange(h.shape[1], dtype=np.int32), h.shape)
    while k:
        if k & 1:
            out = _gather(h, rows, out)
        h, k = _gather(h, rows, h), k >> 1
    return out


class _Level:
    """One level of the stabilizer chain."""

    __slots__ = ("base", "gens", "invs", "parent", "label", "order_list",
                 "row", "table", "paired")

    def __init__(self, base, degree):
        self.base = base
        self.gens = []      # strong generators fixing all earlier base points
        self.invs = []
        self.parent = memoryview(np.full(degree, -1, dtype=np.int32))
        self.label = memoryview(np.full(degree, -1, dtype=np.int32))
        self.parent[base] = base
        self.order_list = [base]        # BFS discovery order
        self.row = np.full(degree, -1, dtype=np.intp)  # x -> its table row
        self.row[base] = 0
        self.table = np.arange(
            degree, dtype=np.min_scalar_type(degree - 1)).reshape(1, -1)
        # paired[p]: how many gens have had their Schreier generator at p
        # sifted; always a prefix of gens, which only grows by appending
        self.paired = np.zeros(degree, dtype=np.int32)

    def orbit_size(self):
        return len(self.order_list)

    def copy(self):
        """A level that grows apart from this one.  It shares the table,
        which tabulate replaces and never writes in place, and copies
        everything that grows in place."""
        lv = _Level.__new__(_Level)
        lv.base, lv.table = self.base, self.table
        lv.gens, lv.invs = list(self.gens), list(self.invs)
        lv.parent, lv.label = (memoryview(np.array(m))
                               for m in (self.parent, self.label))
        lv.order_list, lv.row = list(self.order_list), self.row.copy()
        lv.paired = self.paired.copy()
        return lv

    def grow(self, layer, gens, first_label):
        """Add the fresh images of `layer` under `gens` to the orbit, the
        first in (point, generator) order winning, its edge labelled
        first_label + the generator's position in `gens`.  Returns the new
        points in discovery order, the next BFS layer."""
        parent, label, new = self.parent, self.label, []
        for p in layer:
            for k, g in enumerate(gens):
                y = g.item(p)
                if parent[y] < 0:
                    parent[y] = p
                    label[y] = first_label + k
                    new.append(y)
        return new

    def tabulate(self, start, room):
        """Rows for order_list[start:], parents first: u_y = u_p g on the
        edge p -> y, so u_y^-1 is g^-1, then u_p^-1 (one take per row, mode
        "clip" to write it unbuffered).  CapExceeded past `room` entries."""
        stop, n = len(self.order_list), len(self.row)
        if stop * n > room:
            raise CapExceeded(f"a stabilizer chain of degree {n} needs more "
                              f"than MEMORY_BUDGET = {MEMORY_BUDGET} entries")
        table = np.empty((stop, n), dtype=self.table.dtype)
        table[:start] = self.table
        new = self.order_list[start:]
        self.row[new] = range(start, stop)
        src = self.row[np.asarray(self.parent)[new]].tolist()
        for j, p, k in zip(range(start, stop), src,
                           np.asarray(self.label)[new].tolist()):
            table[p].take(self.invs[k], out=table[j], mode="clip")
        self.table = table


class BSGS:
    """Base and strong generating set with tabulated transversals."""

    def __init__(self, degree):
        self.degree = degree
        self.levels = []

    # -- queries ---------------------------------------------------------

    def order(self):
        return math.prod(lv.orbit_size() for lv in self.levels)

    def strong_generators(self):
        """Every strong generator once, in insertion order."""
        return list(self.levels[0].gens) if self.levels else []

    def strip(self, h, start=0):
        """Strip the rows of the 2-D stack h through the levels from
        `start` on, one gather per level.  Returns (k, residual, level,
        rest) for the first row k that does not strip to the identity: its
        residual after the levels it passed, the level where its base
        image left the orbit, or len(levels) if it fixes every base point,
        and the rows after k as (stack, level) segments in row order, each
        row stripped through the levels before its segment's level: the
        rows from the first that leaves a level on go no deeper, and one
        that left before a row above it left deeper heads its own
        segment.  When every row strips: (len(h), the identity,
        len(levels), [])."""
        k, cut = len(h), []  # (rows from the one that left, its level)
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            r = lv.row[h[:, lv.base]]
            off = r < 0
            if off.any():  # rows after the first that leaves come too late
                k = int(off.argmax())
                cut.append((h[k:], i))
                h, r = h[:k], r[:k]
            h = _gather(lv.table, r, h)
        moved = (h != np.arange(self.degree)).any(axis=1)
        if moved.any():
            k = int(moved.argmax())
            cut.append((h[k:], len(self.levels)))
        if not cut:
            return (k, np.arange(self.degree, dtype=np.int32),
                    len(self.levels), [])
        rows, level = cut.pop()
        rest = [(rows[1:], level), *reversed(cut)]
        return (k, rows[0].astype(np.int32), level,
                [seg for seg in rest if len(seg[0])])

    def contains(self, h):
        """Whether every row of the 2-D stack h strips to the identity; a
        stack of no rows is contained."""
        h = np.asarray(h, dtype=np.int32)
        if h.size and (h.ndim != 2 or h.shape[1] != self.degree):
            raise DegreeMismatch("degree mismatch in membership test")
        return self.strip(h.reshape(len(h), self.degree))[0] == len(h)

    # -- construction ----------------------------------------------------

    def _extend_orbit(self, level, new_gen_index):
        """Grow the level's orbit BFS after appending one generator.

        Existing tree edges and table rows are kept; only newly reachable
        points get them, within MEMORY_BUDGET entries for all tables.
        """
        lv = self.levels[level]
        if len(lv.order_list) == self.degree:
            return  # the orbit already holds every point
        # close the old orbit under the new generator alone ...
        old = len(lv.order_list)
        layer = lv.order_list
        while layer:
            layer = lv.grow(layer, [lv.gens[new_gen_index]], new_gen_index)
            lv.order_list.extend(layer)
        # ... then run the points it added under every generator
        layer = lv.order_list[old:]
        while layer:
            layer = lv.grow(layer, lv.gens, 0)
            lv.order_list.extend(layer)
        if len(lv.order_list) > old:
            lv.tabulate(old, MEMORY_BUDGET + lv.table.size - sum(
                other.table.size for other in self.levels))

    def _insert_generator(self, g, level):
        """Register g as a strong generator at the given chain level.

        g is known to fix all base points before `level`.  Orbits at this
        and all shallower levels may grow, since the generating sets
        S_i = {gens at levels >= i} grow for every i <= level.
        """
        if level == len(self.levels):
            moved = int(np.nonzero(np.arange(self.degree) != g)[0][0])
            self.levels.append(_Level(moved, self.degree))
        ginv = np.argsort(g)  # intp, as take() indexes
        for i in range(level, -1, -1):
            lv = self.levels[i]
            lv.gens.append(g)
            lv.invs.append(ginv)
            self._extend_orbit(i, len(lv.gens) - 1)

    def _check_level(self, level):
        """Sift the unpaired Schreier generators at `level` in (point,
        generator) order, in stacks of at most STACK_ENTRIES entries.

        The Schreier generator of (p, g) is s = u_p g u_y^-1, y = g[p]: it
        sends table[row[p]][q] to table[row[y]][g[q]] (one take and one
        scatter), and it fixes the base points up to this level's, so it
        is stripped from the next level on.  Tree edges give the identity
        and are skipped.  Inserts the residual of the first that does not
        strip and returns True; False when all strip to the identity."""
        lv, n = self.levels[level], self.degree
        k, paired = len(lv.gens), lv.paired
        todo = np.asarray(lv.order_list)
        todo = todo[paired[todo] < k]
        if not len(todo):
            return False
        owner, gi = np.nonzero(np.arange(k) >= paired[todo][:, None])
        point, gens = todo[owner], np.array(lv.gens)
        y = gens[gi, point]
        keep = (np.asarray(lv.parent)[y] != point) | \
            (np.asarray(lv.label)[y] != gi)
        owner, gi, point, y = owner[keep], gi[keep], point[keep], y[keep]
        step = max(1, STACK_ENTRIES // n)
        for i in range(0, len(point), step):
            at = slice(i, i + step)
            image = _gather(lv.table, lv.row[y[at]], gens[gi[at]])
            flat = lv.table[lv.row[point[at]]] + np.arange(
                0, image.size, n)[:, None]
            h = np.empty_like(image)
            h.ravel()[flat.ravel()] = image.ravel()
            j, res, lev, _ = self.strip(h, level + 1)
            if j < len(h):
                j += i
                paired[todo[:owner[j]]] = k
                paired[point[j]] = gi[j] + 1
                self._insert_generator(res, lev)
                return True
        paired[todo] = k
        return False


def _gather(table, rows, h):
    """table[rows[i]][h[i, q]] at (i, q): h[i] followed by that row."""
    return table.ravel().take(h + (rows * table.shape[1])[:, None])


def _sift_insert(b: BSGS, h):
    """Sift the rows of the stack h in order, inserting each nontrivial
    residual at the level where its sift stopped (a new level when it fixes
    every base point).  An insertion keeps every base point, tree edge and
    table row and only adds orbit points, so a row stripped through the
    levels before i has the same residual on the grown chain: the rows
    after an insertion resume at the levels strip left them at, and meet
    the chain as a one-at-a-time loop would."""
    todo = [(h, 0)]  # (rows, level) segments, the next one last
    while todo:
        rows, level = todo.pop()
        k, res, lev, rest = b.strip(rows, level)
        if k < len(rows):
            b._insert_generator(res, lev)
            todo += reversed(rest)


def _complete(b: BSGS, upper_bound=None):
    """Process Schreier generators (deepest levels first) until the chain
    verifies, or until its order reaches upper_bound."""
    while b.order() != upper_bound and any(
            b._check_level(level) for level in reversed(range(len(b.levels)))):
        pass


def schreier_sims(gens, upper_bound=None):
    """Deterministic Schreier-Sims.  Base points are the smallest moved
    points encountered; generator and orbit processing order is fixed, so
    two runs on the same input produce identical chains.  Construction
    stops when the orbit product reaches ``upper_bound``, which must be a
    proven upper bound on the group's order (see normal_closure_perm)."""
    h = as_perm_stack(gens, len(gens[0]) if len(gens) else 0)
    b = BSGS(h.shape[1])
    _sift_insert(b, h)
    _complete(b, upper_bound)
    return b


def normal_closure_perm(group_gens, seed, upper_bound=None, normal=None):
    """BSGS of the smallest normal subgroup of <group_gens> containing seed
    and, if given, the group of the chain ``normal``.

    Every seed, and each conjugate of a new strong generator by a group
    generator, is sifted once; an empty or identity seed gives the chain
    of order 1.  An element that sifts to the identity is a product of
    strong generators, and stays one as the chain grows (tree edges are
    never rewritten).  So once no conjugate is pending, the strong
    generators generate a normal subgroup, and completing its chain
    (_complete) ends the closure, or reaching a proven ``upper_bound``
    on its order: the partial chain sits inside the closure.

    ``normal`` is the chain of a subgroup N normal in <group_gens>, and
    the closure grows a copy of it (_Level.copy) instead of sifting N's
    strong generators into an empty chain.  Their conjugates lie in N, so only the seed's
    and the new generators' are sifted.  A pair marked in a level's
    ``paired`` had its Schreier generator strip through the deeper
    levels, and it still does as they grow, since an insertion keeps
    every base point, tree edge and table row: _complete sifts only the
    new generators' pairs.
    """
    degree = len(next((s[0] for s in (group_gens, seed) if len(s)), ()))
    group = as_perm_stack(group_gens, degree)
    pending = as_perm_stack(seed, degree)
    ginvs, which = np.argsort(group, axis=1), np.arange(len(group))[:, None]
    b = BSGS(degree)
    if normal is not None:
        b.levels = [lv.copy() for lv in normal.levels]
    conjugated = len(b.strong_generators())  # level 0's only grow by appending
    while len(pending) and b.order() != upper_bound:
        _sift_insert(b, pending)
        fresh = b.strong_generators()[conjugated:]
        conjugated += len(fresh)
        fresh = np.array(fresh, np.int32).reshape(len(fresh), degree)
        # g^-1 s g for each fresh s and group generator g, in that order
        pending = group[which, fresh[:, ginvs]].reshape(
            len(fresh) * len(group), degree)
    _complete(b, upper_bound)
    return b


def element_orders(rows, base):
    """The order of each row of a 2-D stack of elements of a group that
    `base` is a base of (only the identity fixes every base point).  x^m
    is 1 exactly when it fixes the base, so x's order is the lcm of the
    lengths of its cycles through the base points (Seress, ch. 4).  The
    base's images under x's powers take one gather per step, for at most
    `degree` steps, the longest a cycle can be; the lcm is taken in Python
    integers if the product of the distinct lengths may pass int64.
    """
    r, n = rows.shape
    offset = n * np.arange(r)[:, None]
    jump, home = (rows + offset).ravel(), np.asarray(base, np.intp) + offset
    at, lens = jump[home], np.zeros(home.shape, np.int64)
    for step in range(1, n + 1):  # at: the flat positions of x^step(base)
        lens[(lens == 0) & (at == home)] = step
        if lens.all():
            break
        at = jump[at]
    wide = math.prod(np.flatnonzero(np.bincount(lens.ravel())).tolist())
    orders = np.ones(r, object if wide >= 2 ** 63 else np.int64)
    for column in lens.T:
        orders = np.lcm(orders, column)
    return orders
