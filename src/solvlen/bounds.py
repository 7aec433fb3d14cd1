"""Closed-form bounds and tables for minimal composition lengths.

All integer-threshold decisions involving the irrational slope
alpha = 5 log_9 2 + 1 go through interval arithmetic with widening
precision; floats are never trusted for comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import iv, mp

from .errors import BadParameter, OutOfRange

CS_TABLE = (0, 1, 2, 4, 5, 7, 8, 13, 15)        # d = 0..8
CN_TABLE = (0, 1, 3, 6, 14)                     # d = 0..4
CR_TABLE = (1, 4, 5, 5, 5, 6, 6, 8)             # n = 1..8
LEMMA4_TABLE = (1, 4, 5, 6)                     # |P| = p^k, k = 1..4

ANNOTATIONS = {
    ("cs", 10): ((18, 24), "stored annotation: sharper published interval "
                           "for d = 10, not derivable from the recurrences"),
    ("cn", 10): ((532, 1022), "stored annotation: matches the formula "
                              "bounds for d = 10"),
}


@dataclass
class BoundsTables:
    cs_table: tuple = CS_TABLE
    cn_table: tuple = CN_TABLE
    cr_table: tuple = CR_TABLE
    lemma4_table: tuple = LEMMA4_TABLE
    annotations: dict = field(default_factory=lambda: dict(ANNOTATIONS))


def alpha_interval(prec=80):
    """alpha = 5 log_9 2 + 1 as a certified interval."""
    old = iv.prec
    try:
        iv.prec = prec
        return 5 * iv.log(2) / iv.log(9) + 1
    finally:
        iv.prec = old


def g89_min_length(d):
    """Smallest positive n with d <= alpha * log2(n) + 9.

    Equivalent to n >= 2^((d-9)/alpha); the threshold is irrational for
    d != 9, so widening precision always separates it from the integer
    lattice and the ceiling is decided exactly.
    """
    if d < 0:
        raise BadParameter("d must be nonnegative")
    if d <= 9:
        return 1
    prec = 80
    while True:
        old = iv.prec
        try:
            iv.prec = prec
            alpha = alpha_interval(prec)
            t = iv.mpf(2) ** (iv.mpf(d - 9) / alpha)
            lo, hi = t.a, t.b
            n_lo = int(mp.ceil(lo))
            n_hi = int(mp.ceil(hi))
        finally:
            iv.prec = old
        if n_lo == n_hi:
            return n_lo
        prec *= 2
        if prec > 100_000:
            raise BadParameter(f"threshold for d = {d} refused to separate")


@dataclass
class BoundsResult:
    lower: int
    upper: int
    provenance: tuple
    annotation: tuple = None

    def as_pair(self):
        return (self.lower, self.upper)


def cs_bounds(d):
    """Lower and upper bounds for the minimal composition length over all
    solvable groups of derived length d; exact for d <= 8."""
    if d < 0:
        raise BadParameter("d must be nonnegative")
    if d <= 8:
        v = CS_TABLE[d]
        ann = ANNOTATIONS.get(("cs", d))
        return BoundsResult(v, v, ("exact table value",),
                            ann[0] if ann else None)
    prov = []
    lower_inc = CS_TABLE[8] + (d - 8)
    prov.append(f"increment recurrence from d = 8: 15 + {d - 8}")
    lower_g89 = g89_min_length(d)
    prov.append(f"least n with d <= alpha*log2(n) + 9: {lower_g89}")
    lower = max(lower_inc, lower_g89)

    upper = CS_TABLE[8]
    for _ in range(d - 8):
        upper = 2 * upper + 1
    prov.append(f"doubling recurrence from d = 8: {upper}")
    uppers = [upper]
    if d % 3 == 0:
        r = d // 3
        u4 = 4 * (4 ** r - 1) // 3
        prov.append(f"iterated wreath tower, 4^r form: {u4}")
        uppers.append(u4)
    if d % 5 == 0:
        r = d // 5
        u9 = 7 * (9 ** r - 1) // 8
        prov.append(f"iterated wreath tower, 9^r form: {u9}")
        uppers.append(u9)
    ann = ANNOTATIONS.get(("cs", d))
    if ann:
        prov.append(ann[1])
    return BoundsResult(lower, min(uppers), tuple(prov),
                        ann[0] if ann else None)


def cn_bounds(d):
    """Bounds for the minimal composition length over nilpotent groups of
    derived length d; exact for d <= 4."""
    if d < 0:
        raise BadParameter("d must be nonnegative")
    if d <= 4:
        v = CN_TABLE[d]
        return (v, v)
    half = 2 ** (d - 1)
    lower = max(half + d - 1, half + d + 1, half + 2 * d - 4,
                half + 3 * d - 10)
    return (lower, 2 ** d - 2)


def table_lookup(kind, index):
    tables = {"cs": (CS_TABLE, 0), "cn": (CN_TABLE, 0),
              "cr": (CR_TABLE, 1), "lemma4": (LEMMA4_TABLE, 1)}
    if kind not in tables:
        raise BadParameter(f"unknown table {kind!r}")
    table, start = tables[kind]
    pos = index - start
    if not 0 <= pos < len(table):
        raise OutOfRange(
            f"{kind} table covers {start}..{start + len(table) - 1}, "
            f"got {index}")
    return table[pos]


def tables_as_dict():
    """All tables and annotations in JSON-friendly form."""
    return {
        "cs": {str(d): CS_TABLE[d] for d in range(len(CS_TABLE))},
        "cn": {str(d): CN_TABLE[d] for d in range(len(CN_TABLE))},
        "cr": {str(n + 1): CR_TABLE[n] for n in range(len(CR_TABLE))},
        "lemma4": {str(k + 1): LEMMA4_TABLE[k]
                   for k in range(len(LEMMA4_TABLE))},
        "annotations": {f"{kind}({idx})": list(val)
                        for (kind, idx), (val, _) in ANNOTATIONS.items()},
    }
