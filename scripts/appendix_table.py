#!/usr/bin/env python3
"""Sweep both appendix estimates and print the most binding rows.

Usage: python scripts/appendix_table.py [n_max] [out.csv]
"""

import sys

import numpy as np

from kreisslab.reporting import write_csv
from kreisslab.verify import sweep_appendix


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    table = sweep_appendix(2, n_max)
    n, sup_a, v1_a, slack = (table[c] for c in ("n", "sup_a", "v1_a", "a1_min_slack"))
    print(f"n in [2, {n_max}]  ({len(n)} rows, all pass: "
          f"{bool(np.all(table['a1_pass'] & table['a2_pass']))})")
    print("\nlargest sup_m a_{n,m} (bound 32):")
    for i in np.argsort(-sup_a, kind="stable")[:8]:
        print(f"  n={n[i]:6d}  sup_a={sup_a[i]:10.6f}")
    print("\nlargest V^1 (bound 978):")
    for i in np.argsort(-v1_a, kind="stable")[:8]:
        print(f"  n={n[i]:6d}  v1={v1_a[i]:10.6f}")
    print("\nsmallest sandwich slack (log domain):")
    for i in np.argsort(slack, kind="stable")[:8]:
        print(f"  n={n[i]:6d}  slack={slack[i]:.6f}")
    if len(sys.argv) > 2:
        write_csv(sys.argv[2], table)
        print(f"\nwrote {sys.argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
