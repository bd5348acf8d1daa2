#!/usr/bin/env python3
"""Run the full decision pipeline on every bundled config and print a table:
periodic points, finiteness, witness search, covering samples, exact verdict.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from betatiling import betamap, sofic, tiling  # noqa: E402
from betatiling.cli import default_samples  # noqa: E402
from betatiling.errors import BudgetExceeded  # noqa: E402

CASES = {
    "golden_greedy": 22,
    "golden_minweight": 22,
    "golden_symmetric": 22,
    "golden_pm1": 22,
    "tribonacci_symmetric": 18,
    "smallest_pisot_symmetric": 40,
    "cubic_2m11_symmetric": 30,
    "cubic_101_symmetric": 34,
}


def main():
    root = pathlib.Path(__file__).resolve().parents[1]
    print(f"{'case':28s} {'|P|':>4s} {'(F)':>4s} {'witness':>12s} {'min#':>5s} {'verdict':>9s} {'sec':>6s}")
    for name, depth in CASES.items():
        t0 = time.time()
        cfg = json.loads((root / "configs" / f"{name}.json").read_text())
        t = betamap.transform_from_config(cfg)
        vd = betamap.compute_v(t)
        g = tiling.gifs_build(t, vd)
        pset = tiling.purely_periodic_points(t)
        w = tiling.check_w(t, pset)
        wtag = "holds" if w.status == "holds" else "budget"
        mn, _ = tiling.covering_degree_estimate(t, pset, default_samples(t.field, 20))
        try:
            verdict = sofic.decide_tiling(t, g, pset, depth=depth).verdict
        except BudgetExceeded:
            verdict = "budget"
        print(f"{name:28s} {len(pset):4d} {str(tiling.check_f(pset)):>4s} "
              f"{wtag:>12s} {mn:5d} {verdict:>9s} {time.time() - t0:6.1f}")


if __name__ == "__main__":
    main()
