"""Reconstruct the minimal composition-length table.

For each derived length d = 0..8 the designated witness group is built
and its derived series computed; the composition length c(G) of each
witness matches the table value c_S(d).

Rows 0..5 are certified on BSGS chains.  Rows 6 and 8 are R(P)<A>: the
right translations of an extraspecial group P and automorphisms A, the
image of a linear group K.  Row 7 is a split extension P |x K of order
7^6 * 648.  Rows 6..8 take their derived series from their factors and
build no chain.  Each row takes milliseconds.
"""

from solvlen.bounds import CS_TABLE
from solvlen.cli import WITNESSES, build_report


def main():
    print(f"{'d':>2} {'witness':24} {'order':>12} {'c(G)':>5} {'n(G)'}")
    for d in range(len(WITNESSES)):
        report, _ = build_report(WITNESSES[d], run_checks=False)
        assert report["d"] == d
        assert report["c"] == CS_TABLE[d]
        print(f"{d:>2} {report['spec']:24} {report['order']:>12} "
              f"{report['c']:>5} {tuple(report['n'])}  "
              f"[{report['elapsed_ms']:.0f} ms]")
    print("\ntable row c_S(d):", CS_TABLE[:len(WITNESSES)])


if __name__ == "__main__":
    main()
