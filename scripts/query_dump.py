#!/usr/bin/env python3
"""Canonical JSON of the point-query outputs of one source checkout.

    python3 scripts/query_dump.py CHECKOUT OUT.json

Imports ``betatiling`` from CHECKOUT/src and the query transforms
(``QUERY_TRANSFORMS``) and point drawer from CHECKOUT/perfbench/workloads.py.
For every transform it draws, with one fixed seed per transform, short, long
and lattice points as the ``query`` workload does, and writes for each point
its expansion, whether it is admissible and its value; and the same for a
copy of the word with one letter changed, which is mostly not admissible.
Values are written as coordinate strings.  Keys are sorted, so two checkouts
give the same expansions, verdicts and values exactly when ``cmp`` finds the
two files identical.
"""

import json
import pathlib
import random
import sys

POINTS = 8          # per transform and stratum


def entry(betamap, t, word):
    return {"preperiod": list(word.preperiod), "period": list(word.period),
            "admissible": betamap.is_admissible(t, word),
            "value": [str(c) for c in betamap.expansion_value(t, word).coords]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.strip().split("\n\n")[1].strip())
    checkout, out = pathlib.Path(argv[0]).resolve(), pathlib.Path(argv[1])
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from betatiling import betamap
    from workloads import LATTICE_BOUND, QUERY_TRANSFORMS, draw_point, load_configs

    dump = {}
    for name, cfg in load_configs(checkout, QUERY_TRANSFORMS).items():
        short, long_, _ = QUERY_TRANSFORMS[name]
        t = betamap.transform_from_config(cfg)
        f = t.field
        lo, hi = float(t.xmin), float(t.xmax)
        rng = random.Random(f"query-dump-{name}")
        rows = {}
        for stratum, dens in (("short", short), ("long", long_), ("lattice", (1,))):
            rows[stratum] = []
            for _ in range(POINTS):
                q = rng.choice(dens)
                bound = LATTICE_BOUND if stratum == "lattice" else 2 * q
                coords = draw_point(rng, f, q, bound, lo, hi, t.contains)
                word = betamap.expand(t, f.qb(coords))
                letters = list(word.preperiod + word.period)
                k = rng.randrange(len(letters))
                letters[k] = rng.randrange(len(t.digits))
                n = len(word.preperiod)
                changed = betamap.Expansion(tuple(letters[:n]), tuple(letters[n:]))
                rows[stratum].append({"point": [str(c) for c in coords],
                                      "expansion": entry(betamap, t, word),
                                      "changed": entry(betamap, t, changed)})
        dump[name] = rows
        print(name, file=sys.stderr, flush=True)
    out.write_text(json.dumps(dump, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
