#!/usr/bin/env python3
"""Canonical JSON of the render outputs of one source checkout.

    python3 scripts/render_dump.py CHECKOUT OUT.json

Imports ``betatiling`` from CHECKOUT/src and the render configs
(``RENDER_CONFIGS``) from CHECKOUT/perfbench/workloads.py.  For every config
it writes, at every depth from 0 to its cloud depth, the shape and the sha256
of the bytes of each vertex's cloud and ``err.hex()``; the ``natext_domain``
area at the cloud depth as ``float.hex``; and, for a quadratic field, the
``torus_translates`` translates, coverage (fractions as ``float.hex``) and
the shape and sha256 of the bytes of ``scene_points`` at its translate
depth.  Keys are sorted, so two checkouts render the same
clouds, areas and scenes exactly when ``cmp`` finds the two files identical.
"""

import hashlib
import json
import pathlib
import sys


def level_entry(tiling, g, depth):
    clouds, err = tiling.clouds_at_depth(g, depth)
    return [err.hex()] + [[list(c.shape), hashlib.sha256(c.tobytes()).hexdigest()]
                          for c in clouds]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.strip().split("\n\n")[1].strip())
    checkout, out = pathlib.Path(argv[0]).resolve(), pathlib.Path(argv[1])
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from betatiling import betamap, tiling
    from workloads import RENDER_CONFIGS, load_configs

    dump = {}
    for name, cfg in load_configs(checkout, RENDER_CONFIGS).items():
        depth, tdepth, _ = RENDER_CONFIGS[name]
        t = betamap.transform_from_config(cfg)
        vd = betamap.compute_v(t)
        g = tiling.gifs_build(t, vd)
        row = {"depth": depth, "area": tiling.natext_domain(t, vd, g, depth).area.hex(),
               "levels": [level_entry(tiling, g, k) for k in range(depth + 1)]}
        if tdepth:
            scene = tiling.torus_translates(t, vd, g, tdepth)
            row["translates"] = {
                "depth": tdepth,
                "translates": [list(m) for m in scene.translates],
                "coverage": {str(k): v.hex() for k, v in scene.coverage.items()},
                "scene": [list(scene.scene_points.shape),
                          hashlib.sha256(scene.scene_points.tobytes()).hexdigest()]}
        dump[name] = row
        print(name, file=sys.stderr, flush=True)
    out.write_text(json.dumps(dump, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
