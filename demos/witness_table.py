"""Reconstruct the minimal composition-length table.

For each derived length d = 0..8 the designated witness group is built
and its derived series computed; the composition length c(G) of each
witness matches the table value c_S(d).

The two heavy rows (d = 7, a split extension of order 7^6 * 648
certified on the chains of its two factors, and d = 8 through the lift
search) take under a second each.
"""

import time

from solvlen.bounds import CS_TABLE
from solvlen.cli import WITNESSES, build_report


def main():
    print(f"{'d':>2} {'witness':24} {'order':>12} {'c(G)':>5} {'n(G)'}")
    for d in range(len(WITNESSES)):
        t0 = time.monotonic()
        report, _ = build_report(WITNESSES[d], run_checks=False)
        dt = time.monotonic() - t0
        assert report["d"] == d
        assert report["c"] == CS_TABLE[d]
        print(f"{d:>2} {report['spec']:24} {report['order']:>12} "
              f"{report['c']:>5} {tuple(report['n'])}  [{dt:.1f}s]")
    print("\ntable row c_S(d):", CS_TABLE[:len(WITNESSES)])


if __name__ == "__main__":
    main()
