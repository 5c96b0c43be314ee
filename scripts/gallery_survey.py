#!/usr/bin/env python3
"""Run every resolvent diagnostic across the operator gallery and tabulate.

Usage: python scripts/gallery_survey.py [out_dir]
"""

import os
import sys

from kreisslab.operators import gallery, make_gallery_operator
from kreisslab.reporting import write_json
from kreisslab.resolvent import SearchConfig, kreiss_report


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else None
    cfg = SearchConfig()
    print(f"{'operator':16s} {'rho':>6s} {'K_lower':>12s} {'Ks_lower':>12s} "
          f"{'exp':>10s} {'cesaro':>10s}")
    for entry in gallery():
        T = make_gallery_operator(entry.spec)
        rep = kreiss_report(T, cfg, n_max=16, xi_max=40.0, cesaro_n_max=256)
        print(f"{entry.name:16s} {rep['spectral_radius']:6.3f} {rep['k_lower']:12.5g} "
              f"{rep['ks_lower']:12.5g} {rep['exp_lower']:10.5g} {rep['cesaro_ratio_max']:10.5g}")
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            write_json(os.path.join(out_dir, f"{entry.name}.json"),
                       {"operator": entry.name, **rep})
    return 0


if __name__ == "__main__":
    sys.exit(main())
