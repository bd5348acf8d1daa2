#!/usr/bin/env python3
"""Run the full decision pipeline on every right-continuous config in
configs/ and print a table: periodic points, finiteness, witness search,
covering samples, the sizes of the difference box and of its neighbour core,
the starts of the difference graph and the exact verdict.

    python3 scripts/tiling_survey.py
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from betatiling import betamap, sofic, tiling  # noqa: E402
from betatiling.cli import default_samples  # noqa: E402
from betatiling.errors import BudgetExceeded  # noqa: E402


def main():
    root = pathlib.Path(__file__).resolve().parents[1]
    print(f"{'case':28s} {'|P|':>4s} {'(F)':>4s} {'witness':>12s} {'min#':>5s} "
          f"{'box':>6s} {'core':>5s} {'starts':>6s} {'verdict':>9s} {'sec':>6s}")
    for path in sorted((root / "configs").glob("*.json")):
        t0 = time.time()
        t = betamap.transform_from_config(json.loads(path.read_text()))
        if t.side != "right":
            continue
        name = path.stem
        vd = betamap.compute_v(t)
        g = tiling.gifs_build(t, vd)
        pset = tiling.purely_periodic_points(t)
        w = tiling.check_w(t, pset)
        wtag = "holds" if w.status == "holds" else "budget"
        mn, _ = tiling.covering_degree_estimate(t, pset, default_samples(t.field, 20))
        box, core = len(sofic._difference_box(t)), len(sofic._neighbour_core(t))
        try:
            dec = sofic.decide_tiling(t, g, pset)
            verdict, starts = dec.verdict, dec.candidates_checked
        except BudgetExceeded as err:
            verdict, starts = "budget", err.info["starts"]
        print(f"{name:28s} {len(pset):4d} {str(tiling.check_f(pset)):>4s} "
              f"{wtag:>12s} {mn:5d} {box:6d} {core:5d} {starts:6d} {verdict:>9s} "
              f"{time.time() - t0:6.1f}")


if __name__ == "__main__":
    main()
