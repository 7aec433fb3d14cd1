"""Closed-form bounds and tables for minimal composition lengths.

All integer-threshold decisions involving the irrational slope
alpha = 5 log_9 2 + 1 go through interval arithmetic with widening
precision; floats are never trusted for comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import iv, mp

from .errors import BadParameter

CS_TABLE = (0, 1, 2, 4, 5, 7, 8, 13, 15)        # d = 0..8
CN_TABLE = (0, 1, 3, 6, 14)                     # d = 0..4

ANNOTATIONS = {
    ("cs", 10): ((18, 24), "stored annotation: sharper published interval "
                           "for d = 10, not derivable from the recurrences"),
}


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


def cs_bounds(d):
    """Lower and upper bounds for the minimal composition length over all
    solvable groups of derived length d; exact for d <= 8."""
    if d < 0:
        raise BadParameter("d must be nonnegative")
    if d <= 8:
        v = CS_TABLE[d]
        return BoundsResult(v, v, ("exact table value",))
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

