"""Exact linear algebra over prime fields F_p for small p.

Everything here is integer arithmetic on residues; no floats.  Matrices are
immutable and hashable so they can double as group elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParameter, DimensionTooLarge, NotSimilitude, Singular

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
                 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
                 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251}


def check_prime(p):
    if p not in _SMALL_PRIMES:
        raise BadParameter(f"p = {p} is not a prime in [2, 251]")


@dataclass(frozen=True)
class FpMatrix:
    """An n x n matrix over F_p, entries stored as residues in [0, p)."""

    p: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        check_prime(self.p)
        n = len(self.entries)
        if not 1 <= n <= 16:
            raise BadParameter(f"dimension {n} outside [1, 16]")
        if any(len(row) != n for row in self.entries):
            raise BadParameter("matrix is not square")
        if any(not 0 <= x < self.p for row in self.entries for x in row):
            raise BadParameter("entries not reduced mod p")

    @property
    def n(self):
        return len(self.entries)

    @staticmethod
    def from_rows(rows, p):
        return FpMatrix(p, tuple(tuple(x % p for x in row) for row in rows))

    @staticmethod
    def identity(n, p):
        return FpMatrix(p, tuple(tuple(int(i == j) for j in range(n))
                                 for i in range(n)))

    @staticmethod
    def diagonal(diag, p):
        n = len(diag)
        return FpMatrix(p, tuple(tuple(diag[i] % p if i == j else 0
                                       for j in range(n)) for i in range(n)))

    def __mul__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        if other.p != self.p or other.n != self.n:
            raise BadParameter("incompatible matrices")
        p, n = self.p, self.n
        a, b = self.entries, other.entries
        cols = tuple(zip(*b))
        return FpMatrix(p, tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
            for row in a))

    def transpose(self):
        return FpMatrix(self.p, tuple(zip(*self.entries)))

    def scale(self, c):
        c %= self.p
        return FpMatrix(self.p, tuple(tuple(c * x % self.p for x in row)
                                      for row in self.entries))

    def apply(self, v):
        """Row vector v times this matrix."""
        p = self.p
        cols = tuple(zip(*self.entries))
        return tuple(sum(x * y for x, y in zip(v, col)) % p for col in cols)

    def packed(self):
        """Canonical packed encoding (row-major), usable as a dedup key."""
        bits = max(1, (self.p - 1).bit_length())
        out = 0
        for row in self.entries:
            for x in row:
                out = (out << bits) | x
        return out

    def is_identity(self):
        return all(self.entries[i][j] == (1 if i == j else 0)
                   for i in range(self.n) for j in range(self.n))


def mat_invert(a: FpMatrix):
    """Invert by Gaussian elimination.  Returns (inverse, det mod p).

    Raises Singular when det = 0.
    """
    p, n = a.p, a.n
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a.entries)]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p != 0), None)
        if pivot is None:
            raise Singular(f"matrix is singular over F_{p}")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        m[col] = [x * inv % p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] % p:
                f = m[r][col] % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    inverse = FpMatrix(p, tuple(tuple(row[n:]) for row in m))
    return inverse, det % p


def mat_det(a: FpMatrix):
    try:
        return mat_invert(a)[1]
    except Singular:
        return 0


def wedge_square(a: FpMatrix):
    """Action of a on the exterior square of F_p^3.

    Relative to the basis e2^e3, e3^e1, e1^e2 this is det(a) * (a^-1)^T.
    """
    if a.n != 3:
        raise BadParameter("wedge_square is defined for 3x3 matrices")
    inv, det = mat_invert(a)
    return inv.transpose().scale(det)


def wedge_vec(v, w, p):
    """v ^ w in the e2^e3, e3^e1, e1^e2 basis (the cross product mod p)."""
    return ((v[1] * w[2] - v[2] * w[1]) % p,
            (v[2] * w[0] - v[0] * w[2]) % p,
            (v[0] * w[1] - v[1] * w[0]) % p)


@dataclass(frozen=True)
class SymplecticForm:
    """Invertible antisymmetric Gram matrix over F_p (alternating for p=2)."""

    gram: FpMatrix

    def __post_init__(self):
        j = self.gram
        p = j.p
        for i in range(j.n):
            if j.entries[i][i] != 0:
                raise BadParameter("symplectic Gram matrix has nonzero diagonal")
            for k in range(j.n):
                if (j.entries[i][k] + j.entries[k][i]) % p != 0:
                    raise BadParameter("Gram matrix is not antisymmetric")
        mat_invert(j)  # raises Singular if degenerate

    @property
    def p(self):
        return self.gram.p

    @property
    def dim(self):
        return self.gram.n

    @staticmethod
    def standard(n2, p):
        """Block antidiagonal [[0, I], [-I, 0]] of dimension n2 = 2n."""
        if n2 % 2:
            raise BadParameter("symplectic dimension must be even")
        n = n2 // 2
        rows = []
        for i in range(n):
            rows.append(tuple(1 if j == n + i else 0 for j in range(n2)))
        for i in range(n):
            rows.append(tuple((p - 1) if j == i else 0 for j in range(n2)))
        return SymplecticForm(FpMatrix(p, tuple(rows)))

    def pair(self, v, w):
        p = self.p
        return sum(v[i] * self.gram.entries[i][k] * w[k]
                   for i in range(self.dim) for k in range(self.dim)) % p


def similitude_factor(a: FpMatrix, form: SymplecticForm):
    """The scalar l with a J a^T = l J, or NotSimilitude if none exists."""
    if a.n != form.dim or a.p != form.p:
        raise BadParameter("matrix and form dimensions differ")
    p = a.p
    mat_invert(a)  # require invertibility
    lhs = a * form.gram * a.transpose()
    lam = None
    for i in range(a.n):
        for k in range(a.n):
            g = form.gram.entries[i][k]
            if g:
                cand = lhs.entries[i][k] * pow(g, p - 2, p) % p
                if lam is None:
                    lam = cand
                elif lam != cand:
                    raise NotSimilitude("aJa^T is not a scalar multiple of J")
            elif lhs.entries[i][k] % p:
                raise NotSimilitude("aJa^T has support outside J")
    if lam is None or lam % p == 0:
        raise NotSimilitude("no nonzero similitude factor")
    return lam


@lru_cache(maxsize=None)
def _projective_lines(n, p):
    """One normalized representative per 1-dimensional subspace of F_p^n."""
    lines = []
    for idx in range(p ** n):
        v = []
        rest = idx
        for _ in range(n):
            v.append(rest % p)
            rest //= p
        v = tuple(v)
        lead = next((x for x in v if x), None)
        if lead == 1:  # normalized: first nonzero entry is 1
            lines.append(v)
    return tuple(lines)


def _row_reduce(vectors, p):
    """Return a reduced basis (list of pivot rows) for the span of vectors."""
    basis = []  # rows in echelon form, pivot column strictly increasing
    for v in vectors:
        v = list(v)
        for row, piv in basis:
            if v[piv]:
                f = v[piv]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            inv = pow(v[piv], p - 2, p)
            v = [x * inv % p for x in v]
            basis.append((v, piv))
            basis.sort(key=lambda t: t[1])
    return basis


def spin_all_lines(generators):
    """Exhaustive irreducibility test by spinning every projective line.

    Returns (True, None) when every 1-dimensional subspace spins up to the
    full space, else (False, witness_basis) with a proper invariant
    subspace.  Decision procedure for n <= 6, p <= 7.
    """
    if not generators:
        raise BadParameter("need at least one generator")
    p, n = generators[0].p, generators[0].n
    if n > 6 or p > 7:
        raise DimensionTooLarge("spin_all_lines limited to n <= 6, p <= 7")
    if n == 1:
        return True, None
    for g in generators:
        mat_invert(g)
    for start in _projective_lines(n, p):
        basis = _row_reduce([start], p)
        frontier = [start]
        while frontier and len(basis) < n:
            v = frontier.pop()
            for g in generators:
                w = g.apply(v)
                before = len(basis)
                basis = _row_reduce([row for row, _ in basis] + [w], p)
                if len(basis) > before:
                    frontier.append(w)
        if len(basis) < n:
            return False, tuple(tuple(row) for row, _ in basis)
    return True, None


@dataclass(frozen=True)
class QuadraticFormF2:
    """Quadratic form on F_2^dim given by coefficients c[i][j] for i <= j.

    q(v) = sum_{i<=j} c[i][j] v_i v_j.  The polarization
    b(v, w) = q(v+w) + q(v) + q(w) is the associated alternating form.
    """

    dim: int
    coeffs: tuple  # upper triangular (incl. diagonal) rows, padded with 0

    def __post_init__(self):
        if len(self.coeffs) != self.dim:
            raise BadParameter("coefficient table has wrong size")
        for i, row in enumerate(self.coeffs):
            if len(row) != self.dim:
                raise BadParameter("coefficient table has wrong size")
            if any(row[j] and j < i for j in range(self.dim)):
                raise BadParameter("coefficients must be upper triangular")
            if any(x not in (0, 1) for x in row):
                raise BadParameter("coefficients must be bits")

    @staticmethod
    def from_upper(coeffs):
        return QuadraticFormF2(len(coeffs), tuple(tuple(r) for r in coeffs))

    def __call__(self, v):
        s = 0
        for i in range(self.dim):
            if v[i]:
                row = self.coeffs[i]
                s ^= sum(row[j] & v[j] for j in range(i, self.dim)) & 1
        return s

    def polarize(self, v, w):
        return self(tuple(a ^ b for a, b in zip(v, w))) ^ self(v) ^ self(w)

    def zeros(self):
        """Number of vectors with q(v) = 0 (Arf invariant readout)."""
        return sum(1 for v in all_f2_vectors(self.dim) if self(v) == 0)

    def arf(self):
        """Arf invariant: 0 for plus type, 1 for minus type.

        Decided by counting zeros; for a nondegenerate form on F_2^{2n}
        plus type has 2^{2n-1} + 2^{n-1} zeros, minus type 2^{2n-1} - 2^{n-1}.
        """
        if self.dim % 2:
            raise BadParameter("Arf invariant needs even dimension")
        n = self.dim // 2
        z = self.zeros()
        if z == 2 ** (2 * n - 1) + 2 ** (n - 1):
            return 0
        if z == 2 ** (2 * n - 1) - 2 ** (n - 1):
            return 1
        raise BadParameter(f"degenerate quadratic form (zero count {z})")


@lru_cache(maxsize=None)
def all_f2_vectors(dim):
    """All vectors of F_2^dim in index order (bit i of the index is v_i)."""
    return tuple(tuple((idx >> i) & 1 for i in range(dim))
                 for idx in range(2 ** dim))
