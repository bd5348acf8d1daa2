#!/usr/bin/env python3
"""Canonical JSON of the transforms built from one source checkout's configs.

    python3 scripts/transform_dump.py CHECKOUT OUT.json

Imports ``betatiling`` from CHECKOUT/src and, for every config in
CHECKOUT/configs, builds the transform with ``transform_from_config`` and
writes its digits, parts, pieces (interval and digit index), components and
numerator frame ``_q``, and the ends and labels of its end table and of its
twin's.  For a right-continuous transform it also writes the ``compute_v``
points V, their intervals J and the merge times m, and the
``invariant_density`` weights.  Field elements are written as their rational
coordinates and keys are sorted, so two checkouts build the same transforms
exactly when ``cmp`` finds the two files identical.
"""

import json
import pathlib
import sys


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.strip().split("\n\n")[1].strip())
    checkout, out = pathlib.Path(argv[0]).resolve(), pathlib.Path(argv[1])
    sys.path.insert(0, str(checkout / "src"))
    from betatiling import betamap

    qb = lambda x: [str(c) for c in x.coords]
    iv = lambda i: [qb(i.lo), qb(i.hi)]
    table = lambda tab: {"left": tab.left, "ends": [list(e) for e in tab.ends],
                         "labels": tab.labels}
    dump = {}
    for path in sorted((checkout / "configs").glob("*.json")):
        t = betamap.transform_from_config(json.loads(path.read_text()))
        row = {"side": t.side, "digits": [qb(d) for d in t.digits],
               "parts": [[iv(i) for i in pp] for pp in t.parts],
               "pieces": [[iv(i), a] for i, a in t.pieces],
               "components": [iv(i) for i in t.components], "q": t._q,
               "table": table(t._table), "twin_table": table(t.twin()._table)}
        if t.side == "right":
            vd = betamap.compute_v(t)
            row["compute_v"] = {"V": [qb(v) for v in vd.V],
                                "J": [iv(i) for i in vd.intervals],
                                "m": sorted([qb(e), k] for e, k in vd.m.items())}
            row["density"] = [qb(h) for h in betamap.invariant_density(t, vd)]
        dump[path.stem] = row
        print(path.stem, file=sys.stderr, flush=True)
    out.write_text(json.dumps(dump, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
