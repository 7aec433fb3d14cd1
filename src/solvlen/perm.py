"""Permutation groups with a deterministic Schreier-Sims engine.

Permutations are numpy int32 image arrays over 0-based points: point p maps
to g[p], and products act left-to-right, (g*h)[p] = h[g[p]].

Transversals are Schreier vectors: each chain level keeps int32 arrays
``parent`` (-1 off the orbit) and ``label`` (the generator index of the
tree edge) of length degree, so memory stays linear in the degree even at
degree ~10^5.  They are held as memoryviews, which Python indexes about
twice as fast as numpy arrays and numpy wraps without a copy.  Orbits grow
breadth-first one numpy step per layer, the first fresh image in (point,
generator) order winning, which is exactly the order of a point-at-a-time
FIFO.  Layers of at most SCALAR_LAYER (point, generator) pairs take a
Python step instead, cheaper there than numpy's fixed cost per call.

Level 0 owns every strong generator once, in insertion order; each deeper
level's ``gens`` (and ``invs``) is the sub-list of those inserted at that
level or below, so ``strong_generators()`` is level 0's list.

``schreier_sims`` sifts every Schreier generator, which verifies the
chain in full.  ``normal_closure_perm`` may stop earlier, at an
``upper_bound`` the caller has proven: the orbit product of a partial
chain of the closure never exceeds the closure's order, so reaching a
proven upper bound means the chain is complete.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded, DegreeMismatch, GroupError

MAX_DEGREE = 200_000
SCALAR_LAYER = 512  # widest layer, in (point, generator) pairs, grown in Python


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
    n = check_degree(len(g))
    if n and (g.min() < 0 or g.max() >= n
              or np.count_nonzero(np.bincount(g, minlength=n)) != n):
        raise GroupError("image array is not a bijection")
    return g


def perm_mul(a, b):
    """Apply a, then b."""
    return b[a]


def perm_inv(a):
    inv = np.empty_like(a)
    inv[a] = np.arange(len(a), dtype=np.int32)
    return inv


def commutators(gens, invs):
    """[a, b] = a^-1 b^-1 a b for each pair of gens, a listed before b;
    invs are the inverses of gens."""
    return [perm_mul(perm_mul(ai, bi), perm_mul(a, b))
            for i, (a, ai) in enumerate(zip(gens, invs))
            for b, bi in zip(gens[i + 1:], invs[i + 1:])]


def perm_power(a, k):
    """a to the k-th power (k >= 0), by repeated squaring."""
    out = np.arange(len(a), dtype=np.int32)
    while k:
        if k & 1:
            out = a[out]
        a, k = a[a], k >> 1
    return out


def is_identity(a):
    return bool(np.array_equal(a, np.arange(len(a), dtype=np.int32)))


class _Level:
    """One level of the stabilizer chain."""

    __slots__ = ("base", "gens", "invs", "parent", "label", "order_list",
                 "paired")

    def __init__(self, base, degree):
        self.base = base
        self.gens = []      # strong generators fixing all earlier base points
        self.invs = []
        self.parent = memoryview(np.full(degree, -1, dtype=np.int32))
        self.label = memoryview(np.full(degree, -1, dtype=np.int32))
        self.parent[base] = base
        self.order_list = [base]        # BFS discovery order
        # paired[p]: how many gens have had their Schreier generator at p
        # sifted; always a prefix of gens, which only grows by appending
        self.paired = memoryview(np.zeros(degree, dtype=np.int32))

    def orbit_size(self):
        return len(self.order_list)

    def grow(self, layer, gens, first_label):
        """Add the fresh images of `layer` under `gens` to the orbit.

        Images are taken in (point, generator) order and the first
        occurrence of each fresh point wins; its edge is labelled
        first_label + the generator's position in `gens`.  Returns the
        new points in discovery order, i.e. the next BFS layer.
        """
        parent, label = self.parent, self.label
        if len(layer) * len(gens) <= SCALAR_LAYER:
            new = []
            for p in layer:
                for k, g in enumerate(gens):
                    y = g.item(p)
                    if parent[y] < 0:
                        parent[y] = p
                        label[y] = first_label + k
                        new.append(y)
            return new
        parent, label = np.asarray(parent), np.asarray(label)
        pts = np.asarray(layer, dtype=np.int32)
        images = np.stack([g[pts] for g in gens], axis=1).ravel()
        fresh = np.flatnonzero(parent[images] < 0)
        _, first = np.unique(images[fresh], return_index=True)
        idx = fresh[np.sort(first)]
        new = images[idx]
        parent[new] = pts[idx // len(gens)]
        label[new] = first_label + idx % len(gens)
        return new.tolist()


class BSGS:
    """Base and strong generating set with Schreier-vector transversals."""

    def __init__(self, degree):
        self.degree = degree
        self.levels = []

    # -- queries ---------------------------------------------------------

    def order(self):
        n = 1
        for lv in self.levels:
            n *= lv.orbit_size()
        return n

    def strong_generators(self):
        """Every strong generator once, in insertion order."""
        return list(self.levels[0].gens) if self.levels else []

    def sift(self, g):
        """Strip g through the chain.

        Returns (residual, level): level is the first chain position where
        the residual's base image left the orbit, or len(levels) when the
        residual fixes every base point.
        """
        h = g
        for i, lv in enumerate(self.levels):
            parent, label = lv.parent, lv.label
            x = h.item(lv.base)
            if parent[x] < 0:
                return h, i
            while x != lv.base:
                h = perm_mul(h, lv.invs[label[x]])
                x = parent[x]
        return h, len(self.levels)

    def contains(self, g):
        g = np.asarray(g, dtype=np.int32)
        if len(g) != self.degree:
            raise DegreeMismatch("degree mismatch in membership test")
        h, lev = self.sift(g)
        return lev == len(self.levels) and is_identity(h)

    # -- construction ----------------------------------------------------

    def _extend_orbit(self, level, new_gen_index):
        """Grow the level's orbit BFS after appending one generator.

        Existing tree edges are kept, so previously issued transversal
        paths stay valid; only newly reachable points get edges.
        """
        lv = self.levels[level]
        if len(lv.order_list) == self.degree:
            return  # the orbit already holds every point
        # close the old orbit under the new generator alone ...
        found = []
        layer = lv.order_list
        while layer:
            layer = lv.grow(layer, [lv.gens[new_gen_index]], new_gen_index)
            found.extend(layer)
        lv.order_list.extend(found)
        # ... then run the points it added under every generator
        layer = found
        while layer:
            layer = lv.grow(layer, lv.gens, 0)
            lv.order_list.extend(layer)

    def _insert_generator(self, g, level):
        """Register g as a strong generator at the given chain level.

        g is known to fix all base points before `level`.  Orbits at this
        and all shallower levels may grow, since the generating sets
        S_i = {gens at levels >= i} grow for every i <= level.
        """
        if level == len(self.levels):
            moved = int(np.nonzero(np.arange(self.degree) != g)[0][0])
            self.levels.append(_Level(moved, self.degree))
        ginv = perm_inv(g)
        for i in range(level, -1, -1):
            lv = self.levels[i]
            lv.gens.append(g)
            lv.invs.append(ginv)
            self._extend_orbit(i, len(lv.gens) - 1)

    def _check_level(self, level):
        """Sift unpaired Schreier generators at `level`.

        The Schreier generator of (point, g) is u_point g u_y^-1 with
        y = g[point]; sifting u_point g strips u_y at this level with the
        same products, and passes earlier levels untouched, since u_point
        and g fix their base points.  Tree edges give the identity and are
        skipped.  Returns True as soon as one adds a strong generator, or
        False when every Schreier generator strips to the identity.
        """
        lv = self.levels[level]
        gens, parent, label, paired = lv.gens, lv.parent, lv.label, lv.paired
        for point in lv.order_list:
            if paired[point] == len(gens):
                continue
            u = self._transversal(level, point)
            for gi in range(paired[point], len(gens)):
                paired[point] = gi + 1
                y = gens[gi].item(point)
                if parent[y] == point and label[y] == gi:
                    continue
                if _sift_insert(self, perm_mul(u, gens[gi])):
                    return True
        return False

    def _transversal(self, level, point):
        """The coset representative u mapping the base point to `point`:
        the tree-edge generators from the base out to `point`."""
        lv = self.levels[level]
        u = np.arange(self.degree, dtype=np.int32)
        while point != lv.base:
            u = perm_mul(lv.gens[lv.label[point]], u)
            point = lv.parent[point]
        return u


def _sift_insert(b: BSGS, g):
    """Sift g and insert the residual if nontrivial, at the level where the
    sift stopped (a new level when it fixes every base point).  Returns
    True when the chain grew."""
    h, lev = b.sift(g)
    if lev < len(b.levels) or not is_identity(h):
        b._insert_generator(h, lev)
        return True
    return False


def _complete(b: BSGS, upper_bound=None):
    """Process Schreier generators (deepest levels first) until the chain
    verifies, or until its order reaches upper_bound."""
    while b.order() != upper_bound and any(
            b._check_level(level) for level in reversed(range(len(b.levels)))):
        pass


def schreier_sims(gens):
    """Deterministic Schreier-Sims.  Base points are the smallest moved
    points encountered; generator and orbit processing order is fixed, so
    two runs on the same input produce identical chains."""
    gens = [as_perm(g) for g in gens]
    if gens:
        degree = len(gens[0])
        if any(len(g) != degree for g in gens):
            raise DegreeMismatch("generators act on different point counts")
    else:
        degree = 0
    b = BSGS(degree)
    for g in gens:
        _sift_insert(b, g)
    _complete(b)
    return b


def normal_closure_perm(group_gens, seed, upper_bound=None):
    """BSGS of the smallest normal subgroup of <group_gens> containing seed.

    Every seed, and each conjugate of a new strong generator by a group
    generator, is sifted once; an empty or identity seed gives the chain
    of order 1.  An element that sifts to the identity is a product of
    strong generators, and stays one as the chain grows (tree edges are
    never rewritten).  So once no conjugate is pending, the strong
    generators generate a normal subgroup, and completing its chain
    (_complete) ends the closure.

    The partial chain always sits inside the closure, so its orbit
    product never exceeds the closure's order.  ``upper_bound`` must be
    a proven upper bound on that order: construction stops when the
    orbit product reaches it, which is then the exact order.
    """
    group_gens = [as_perm(g) for g in group_gens]
    ginvs = [perm_inv(g) for g in group_gens]
    pending = [as_perm(s) for s in seed]
    degree = len(group_gens[0]) if group_gens else \
        (len(pending[0]) if pending else 0)
    b = BSGS(degree)
    conjugated = 0  # level 0's generators only grow by appending
    while pending:
        for s in pending:
            _sift_insert(b, s)
        fresh = b.strong_generators()[conjugated:]
        conjugated += len(fresh)
        pending = [] if b.order() == upper_bound else [
            perm_mul(perm_mul(gi, s), g)
            for s in fresh for g, gi in zip(group_gens, ginvs)]
    _complete(b, upper_bound)
    return b


def perm_order_of(g):
    """Order of a permutation (an int), or of each row of a 2-D stack of
    them (an array): the lcm of its cycle lengths.  Rows go in chunks of
    at most MAX_DEGREE points, each one flat permutation (_chunk_orders).
    """
    g = np.asarray(g)
    rows = g if g.ndim == 2 else g[None]
    step = max(1, MAX_DEGREE // max(rows.shape[1], 1))
    orders = np.concatenate([np.ones(0, np.int64)] + [
        _chunk_orders(rows[i:i + step]) for i in range(0, len(rows), step)])
    return orders if g.ndim == 2 else int(orders[0])


def _chunk_orders(rows):
    """Pointer doubling labels each point with the least point of its
    cycle, in log2(degree) rounds of two 1-D gathers; a cycle's length is
    the count of its label, and a row's order the lcm of its distinct
    cycle lengths, in Python integers if their product may pass int64."""
    r, n = rows.shape
    if n == 0:
        return np.ones(r, np.int64)
    jump = (rows + np.arange(0, r * n, n)[:, None]).ravel()
    low, reach = np.arange(r * n), 1
    while reach < n:  # low[x] = least of x, ..., x g^(2 reach - 1)
        low, jump, reach = np.minimum(low, low[jump]), jump[jump], 2 * reach
    count = np.bincount(low)
    least = np.flatnonzero(count)  # one point per cycle, grouped by row
    key = np.unique(least // n * (n + 1) + count[least])
    lens = key % (n + 1)
    starts = np.flatnonzero(np.diff(key // (n + 1), prepend=-1))
    if np.add.reduceat(np.log2(lens), starts).max() >= 63:
        lens = lens.astype(object)
    return np.lcm.reduceat(lens, starts)
