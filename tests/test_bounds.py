"""Closed-form bound calculator and constant tables."""

import pytest
from mpmath import mp

from solvlen.bounds import (ANNOTATIONS, CN_TABLE, CS_TABLE, MAX_D,
                            alpha_interval, cn_bounds, cs_bounds,
                            g89_min_length)
from solvlen.errors import BadParameter


def test_tables_frozen():
    assert CS_TABLE == (0, 1, 2, 4, 5, 7, 8, 13, 15)
    assert CN_TABLE == (0, 1, 3, 6, 14)
    assert list(ANNOTATIONS) == [("cs", 10)]


def test_cs_table_recurrence_invariants():
    for d in range(1, 9):
        assert CS_TABLE[d - 1] + 1 <= CS_TABLE[d] <= 2 * CS_TABLE[d - 1] + 1


def test_cn_table_growth():
    # the closed-form brackets only apply past the stored range; the
    # stored values themselves at least double at each step
    for d in range(1, 5):
        assert CN_TABLE[d] >= 2 * CN_TABLE[d - 1]


def test_alpha_interval():
    a = alpha_interval()
    lo, hi = float(a.a), float(a.b)
    assert hi - lo < 1e-20
    # alpha = 5 log 2 / log 9 + 1
    mp.prec = 100
    ref = 5 * mp.log(2) / mp.log(9) + 1
    assert lo <= float(ref) <= hi
    wide = alpha_interval(prec=30)
    assert float(wide.a) <= float(ref) <= float(wide.b)


def test_g89_min_length():
    assert all(g89_min_length(d) == 1 for d in range(10))
    assert g89_min_length(10) == 2
    assert g89_min_length(12) == 3
    # monotone nondecreasing, exponential growth rate
    prev = 1
    for d in range(9, 40):
        cur = g89_min_length(d)
        assert cur >= prev
        prev = cur
    assert g89_min_length(35) > 500
    with pytest.raises(BadParameter):
        g89_min_length(-1)


def test_cs_bounds_exact_range():
    for d in range(9):
        res = cs_bounds(d)
        assert (res.lower, res.upper) == (CS_TABLE[d], CS_TABLE[d])
        assert res.provenance == ("exact table value",)
        assert res.annotation is None


def test_cs_bounds_extrapolated():
    res = cs_bounds(9)
    assert (res.lower, res.upper) == (16, 31)
    res = cs_bounds(10)
    assert (res.lower, res.upper) == (17, 63)
    assert res.annotation == (18, 24)
    assert any("annotation" in line for line in res.provenance)
    # near d = 8 the doubling recurrence still wins over the towers
    res12 = cs_bounds(12)
    assert (res12.lower, res12.upper) == (19, 255)
    assert any("4^r" in line for line in res12.provenance)
    # far out the wreath towers take over: 4^r at 3 | 27, 9^r at 5 | 25
    assert cs_bounds(27).upper == 4 * (4 ** 9 - 1) // 3 == 349524
    assert cs_bounds(25).upper == 7 * (9 ** 5 - 1) // 8 == 51667
    for d in range(9, 40):
        r = cs_bounds(d)
        assert r.lower <= r.upper
        assert r.lower >= cs_bounds(d - 1).lower if d > 9 else True


def test_exponential_lower_bound_consistency():
    # (0.088)(1.3)^d < lower bound for d = 1..30, checked in exact
    # integer arithmetic: 88 * 13^d < lower * 10^(d+3)
    for d in range(1, 31):
        lower = CS_TABLE[d] if d <= 8 else cs_bounds(d).lower
        assert 88 * 13 ** d < lower * 10 ** (d + 3), d


def test_cn_bounds():
    for d in range(5):
        assert cn_bounds(d) == (CN_TABLE[d], CN_TABLE[d])
    assert cn_bounds(10) == (532, 1022)
    for d in range(5, 20):
        lo, hi = cn_bounds(d)
        assert 2 ** (d - 1) < lo <= hi == 2 ** d - 2



@pytest.mark.parametrize("bound", [cs_bounds, cn_bounds])
def test_bounds_take_d_in_zero_to_max_d(bound):
    # every bound at MAX_D prints: Python refuses int -> str past 4,300
    # digits, which 2^d passes at d = 14,284
    res = bound(MAX_D)
    lower, upper = (res.lower, res.upper) if bound is cs_bounds else res
    assert 0 < lower <= upper and len(str(upper)) < 4300
    for d in (-1, MAX_D + 1, 10 ** 6):
        with pytest.raises(BadParameter, match=f"d = {d} outside"):
            bound(d)
