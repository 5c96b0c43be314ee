#!/usr/bin/env python3
"""Exploratory scan of scalar lower-decomposition floors near q = p'.

For p in (1, 2) the interesting endpoint is q = p/(p-1); whether the scalar
field admits lower decompositions there is open, so these numbers are
recorded as exploratory data only, never as answers.

Usage: python scripts/decomposition_frontier.py [trials] [out.json]
"""

import sys

from kreisslab.decomp import DecompSearchConfig, estimate_constant
from kreisslab.reporting import SCHEMA, write_json


def main() -> int:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    cfg = DecompSearchConfig(trials=trials, ascent_steps=120, max_support=12,
                             max_dim=1, seed=2024)
    records = []
    print(f"{'p':>6s} {'q':>8s} {'empirical floor':>16s}")
    for p in (1.25, 1.5, 1.75):
        q = p / (p - 1.0)
        est = estimate_constant(p, q, 2.0, side="lower", gamma=0.0, cfg=cfg)
        print(f"{p:6.2f} {q:8.4f} {est.constant_lower:16.8f}")
        records.append({
            "p": p, "q": q, "side": "lower",
            "constant_lower": est.constant_lower,
            "trials": trials, "seed": cfg.seed,
            "label": "exploratory empirical floor",
        })
    if len(sys.argv) > 2:
        write_json(sys.argv[2], {"schema": SCHEMA, "records": records})
        print(f"wrote {sys.argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
