"""Exact linear algebra over prime fields F_p for small p.

Everything here is integer arithmetic on residues; no floats.  Matrices are
immutable and hashable so they can double as group elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameter, NotSimilitude, Singular

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
                 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
                 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251}


def check_prime(p):
    if p not in _SMALL_PRIMES:
        raise BadParameter(f"p = {p} is not a prime in [2, 251]")


def check_dimension(n):
    """The one bound on matrix sizes; builders call it before they
    allocate their Theta(n^2) generators."""
    if not 1 <= n <= 16:
        raise BadParameter(f"dimension {n} outside [1, 16]")


@dataclass(frozen=True)
class FpMatrix:
    """An n x n matrix over F_p, entries stored as residues in [0, p)."""

    p: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        check_prime(self.p)
        n = len(self.entries)
        check_dimension(n)
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

    def scale(self, c):
        c %= self.p
        return FpMatrix(self.p, tuple(tuple(c * x % self.p for x in row)
                                      for row in self.entries))


def check_invertible(a: FpMatrix):
    """Singular unless the rows of a span F_p^n."""
    if len(row_space(a.entries, a.p)) < a.n:
        raise Singular(f"matrix is singular over F_{a.p}")


def wedge_vec(v, w, p):
    """v ^ w in the e2^e3, e3^e1, e1^e2 basis (the cross product mod p)."""
    return ((v[1] * w[2] - v[2] * w[1]) % p,
            (v[2] * w[0] - v[0] * w[2]) % p,
            (v[0] * w[1] - v[1] * w[0]) % p)


def similitude_factor(a: FpMatrix):
    """The scalar l with a J a^T = l J, for the standard symplectic Gram
    matrix J = [[0, I], [-I, 0]], or NotSimilitude if none exists."""
    if a.n % 2:
        raise BadParameter("symplectic dimension must be even")
    check_invertible(a)
    m = np.array(a.entries, np.int64)
    j = np.kron([[0, 1], [-1, 0]], np.eye(a.n // 2, dtype=np.int64))
    lhs = m @ j % a.p @ m.T % a.p
    lam = int(lhs[0, a.n // 2])
    if (lhs != lam * j % a.p).any():
        raise NotSimilitude("aJa^T is not a scalar multiple of J")
    return lam


def row_space(rows, p):
    """Reduced row echelon form of the span of the rows of a 2-D integer
    array over F_p: its nonzero rows in pivot order, each 1 at its pivot
    and 0 at every other pivot column.  One numpy elimination step per
    column, until every row is a pivot row."""
    a, rank = np.asarray(rows, np.int64) % p, 0
    for col in range(a.shape[1]):
        if rank == len(a):
            break
        # any nonzero entry will do: the reduced form is unique
        piv = rank + int(a[rank:, col].argmax())
        if x := int(a[piv, col]):
            pivot = a[piv] * pow(x, p - 2, p) % p
            a -= a[:, col, None] * pivot  # row piv becomes 0
            a %= p
            a[piv], a[rank] = a[rank], pivot
            rank += 1
    return a[:rank]


def nullspace(rows, ncols, p):
    """Basis of {x : row . x = 0 for every row} over F_p: one vector per
    free column f of the echelon form, 1 at f and 0 at the other free
    columns."""
    echelon = row_space(np.reshape(rows, (-1, ncols)), p)
    free = np.ones(ncols, bool)
    free[(echelon != 0).argmax(axis=1)] = False  # not np.isin: numpy.ma
    basis = np.eye(ncols, dtype=np.int64)[free]
    basis[:, ~free] = -echelon[:, free].T % p
    return basis.tolist()


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

    def values(self):
        """q(v) = v C v^T for every v, in all_f2_vectors order (an array)."""
        v = np.array(all_f2_vectors(self.dim))
        return (v @ np.array(self.coeffs, np.int64) * v).sum(axis=1) % 2

    def zeros(self):
        """Number of vectors with q(v) = 0 (Arf invariant readout)."""
        return int((self.values() == 0).sum())

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
