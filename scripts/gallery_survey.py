#!/usr/bin/env python3
"""Run every resolvent diagnostic across the operator gallery and tabulate.

Each gallery operator gets the CLI's kreiss, strong-kreiss, exp-criterion and
cesaro reports in <out_dir>/<name>/ (a temporary directory when no out_dir is
given), and the table is read back from them.  The Cesaro scan runs to
n_max 256 on 64 angles against Ks_ref = the strong-Kreiss floor, or 1.0 when
that floor is not finite and positive.

Usage: python scripts/gallery_survey.py [out_dir]
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

from kreisslab.cli import main as cli_main
from kreisslab.operators import gallery


def _report(out, sub, *flags) -> dict:
    """The report of CLI subcommand sub written to out; its summary line is hidden."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main([sub, *flags, "--out", out])
    with open(os.path.join(out, sub.replace("-", "_") + ".json"), encoding="ascii") as fh:
        return json.load(fh)


def survey(out_dir) -> None:
    print(f"{'operator':16s} {'rho':>6s} {'K_lower':>12s} {'Ks_lower':>12s} "
          f"{'exp':>10s} {'cesaro':>10s}")
    for entry in gallery():
        out, op = os.path.join(out_dir, entry.name), ("--gallery", entry.name)
        kreiss = _report(out, "kreiss", *op)
        # non-finite floats are stored as the strings "inf" and "nan"
        ks = float(_report(out, "strong-kreiss", *op)["ks_lower"])
        exp = float(_report(out, "exp-criterion", *op)["exp_lower"])
        ks_ref = ks if math.isfinite(ks) and ks > 0 else 1.0
        cesaro = _report(out, "cesaro", *op, "--n-max", "256", "--angular", "64",
                         "--ks-ref", repr(ks_ref))
        print(f"{entry.name:16s} {float(kreiss['spectral_radius']):6.3f} "
              f"{float(kreiss['k_lower']):12.5g} {ks:12.5g} {exp:10.5g} "
              f"{float(cesaro['cesaro_ratio_max']):10.5g}")


def main() -> int:
    if len(sys.argv) > 1:
        survey(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            survey(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
