#!/usr/bin/env python3
"""Exploratory scan of scalar lower-decomposition floors near q = p'.

For p in (1, 2) the interesting endpoint is q = p/(p-1); whether the scalar
field admits lower decompositions there is open, so these numbers are
recorded as exploratory data only, never as answers.  Each p is one CLI
decomp-scan run, whose report lands in <out_dir>/p<p>/ (a temporary
directory when no out_dir is given); the table is read back from them.

Usage: python scripts/decomposition_frontier.py [trials] [out_dir]
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from kreisslab.cli import main as cli_main


def scan(trials: int, out_dir) -> None:
    print(f"{'p':>6s} {'q':>8s} {'empirical floor':>16s}")
    for p in (1.25, 1.5, 1.75):
        q = p / (p - 1.0)
        out = os.path.join(out_dir, f"p{p}")
        with contextlib.redirect_stdout(io.StringIO()):  # hides the CLI summary line
            cli_main(["decomp-scan", "--p", repr(p), "--q", repr(q), "--side", "lower",
                      "--gamma", "0", "--trials", str(trials), "--ascent-steps", "120",
                      "--max-support", "12", "--max-dim", "1", "--seed", "2024",
                      "--out", out])
        with open(os.path.join(out, "decomp.json"), encoding="ascii") as fh:
            floor = float(json.load(fh)["constant_lower"])
        print(f"{p:6.2f} {q:8.4f} {floor:16.8f}")


def main() -> int:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    if len(sys.argv) > 2:
        scan(trials, sys.argv[2])
        print(f"wrote {sys.argv[2]}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            scan(trials, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
