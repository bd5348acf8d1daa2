"""Command-line front end: config ingestion, pipeline orchestration, reports.

Every command reads a JSON transform config, emits a deterministic JSON
report (sorted keys, no timestamps) and optionally an SVG rendering.
Exit codes: 0 success, 2 validation or domain error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import betamap, sofic, tiling
from .errors import BetaError, BudgetExceeded
from .numfield import GT, qb_compare
from .svgout import render_point_layers


def _qb_coords_json(x):
    out = []
    for c in x.coords:
        out.append(int(c) if c.denominator == 1 else str(c))
    return out


def _digit_json(x):
    if x.is_rational():
        c = x.coords[0]
        return int(c) if c.denominator == 1 else str(c)
    return _qb_coords_json(x)


def _config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Pipeline:
    """Lazily computed stages shared by the report commands."""

    def __init__(self, cfg, budget=20000):
        self.budget = budget
        self.t = betamap.transform_from_config(cfg)

    @cached_property
    def vdata(self):
        return betamap.compute_v(self.t, self.budget)

    @cached_property
    def gifs(self):
        return tiling.gifs_build(self.t, self.vdata)

    @cached_property
    def pset(self):
        return tiling.purely_periodic_points(self.t)

    @cached_property
    def automaton(self):
        return sofic.build_automaton(self.t)


def cmd_expand(pipe, args):
    x = pipe.t.field.qb([Fraction(c) for c in args.x.split(",")])
    word = betamap.expand(pipe.t, x, args.budget)
    return {
        "preperiod": [_digit_json(pipe.t.digits[a]) for a in word.preperiod],
        "period": [_digit_json(pipe.t.digits[a]) for a in word.period],
        "exact": word.exact,
        "digit_values": [_qb_coords_json(d) for d in pipe.t.digits],
        "x": _qb_coords_json(x),
    }, None


def cmd_vset(pipe, args):
    vd = pipe.vdata
    return {
        "V": [_qb_coords_json(v) for v in vd.V],
        "V_float": [float(v) for v in vd.V],
        "J": [{"lo": _qb_coords_json(vd.J[v].lo), "hi": _qb_coords_json(vd.J[v].hi)}
              for v in vd.V],
        "merge_times": [{"point": _qb_coords_json(k), "m": v}
                        for k, v in sorted(vd.m.items(), key=lambda kv: float(kv[0]))],
    }, None


def cmd_natext(pipe, args):
    ne = tiling.natext_domain(pipe.t, pipe.vdata, pipe.gifs, args.depth)
    rep = {
        "area_estimate": ne.area,
        "cloud_err": ne.err,
        "det_factor": ne.det_factor,
        "pieces": [{
            "owner": _qb_coords_json(v),
            "J": {"lo": _qb_coords_json(iv.lo), "hi": _qb_coords_json(iv.hi)},
            "points": len(cl.points),
        } for v, iv, cl in ne.pieces],
        "depth": args.depth,
    }
    layers = [(f"tile-{k}", tuple(v.coords), cl.points)
              for k, (v, iv, cl) in enumerate(ne.pieces)]
    return rep, layers


def cmd_tiles(pipe, args):
    clouds, err = tiling.clouds_at_depth(pipe.gifs, args.depth)
    rep = {
        "depth": args.depth,
        "err": err,
        "tiles": [{
            "owner": _qb_coords_json(v),
            "points": np.round(clouds[i], 9).tolist(),
        } for i, v in enumerate(pipe.gifs.vertices)],
    }
    layers = [(f"tile-{i}", tuple(v.coords), clouds[i])
              for i, v in enumerate(pipe.gifs.vertices)]
    return rep, layers


def cmd_periodic(pipe, args):
    ps = pipe.pset
    return {
        "P": [_qb_coords_json(p) for p in ps.points],
        "periods": list(ps.periods),
        "words": [[_digit_json(pipe.t.digits[a]) for a in w.period] for w in ps.words],
    }, None


def cmd_check_f(pipe, args):
    ps = pipe.pset
    return {"f": tiling.check_f(ps), "P_count": len(ps)}, None


def cmd_check_w(pipe, args):
    rep = tiling.check_w(pipe.t, pipe.pset, k_budget=args.budget)
    out = {
        "status": rep.status,
        "epsilon": _qb_coords_json(rep.epsilon),
        "epsilon_float": float(rep.epsilon),
    }
    if rep.status == "holds":
        out["x"] = _qb_coords_json(rep.x)
        out["witnesses"] = [{
            "y": _qb_coords_json(y), "z": _qb_coords_json(z), "k": k,
        } for y, (z, k) in sorted(rep.witnesses.items(), key=lambda kv: float(kv[0]))]
    return out, None


def _load_samples(pipe, args):
    if args.samples:
        with open(args.samples) as fh:
            rows = json.load(fh)
        return [pipe.t.field.qb([Fraction(str(c)) for c in row]) for row in rows]
    return default_samples(pipe.t.field, 50)


def default_samples(field, count):
    """Deterministic positive lattice sample list, ordered by height.

    Only integer points z with z > 0 and sup norm at most 7 are kept; zero
    itself is left out.
    """
    out = []
    zero = field.zero
    for coords in tiling._height_ordered_range(field, 0.0, float("inf"), 7):
        if len(out) >= count:
            break
        z = field.qb(coords)
        if qb_compare(z, zero) == GT:
            out.append(z)
    return out


def cmd_degree(pipe, args):
    samples = _load_samples(pipe, args)
    mn, hist = tiling.covering_degree_estimate(pipe.t, pipe.pset, samples)
    return {
        "min_count": mn,
        "histogram": {str(k): v for k, v in sorted(hist.items())},
        "samples": len(samples),
    }, None


def cmd_sofic(pipe, args):
    aut = pipe.automaton
    fw = sofic.forbidden_words(aut, maxlen=6)
    out = {
        "sofic": True,   # every piece end is in Q(beta): its expansions are eventually periodic
        "states": aut.n_states,
        "endpoint_expansions": [{
            "digit": _digit_json(pipe.t.digits[a]),
            "piece": i,
            "lower": {"preperiod": list(low.preperiod), "period": list(low.period)},
            "upper": {"preperiod": list(up.preperiod), "period": list(up.period)},
        } for a, per_piece in enumerate(betamap.endpoint_words(pipe.t))
            for i, (low, up) in enumerate(per_piece)],
        "forbidden_words": [[_digit_json(pipe.t.digits[a]) for a in w] for w in fw],
        "automaton": aut.to_json(),
    }
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(aut.to_dot())
    return out, None


def cmd_decide_tiling(pipe, args):
    # the decision reads no periodic points and no cloud depth
    dec = sofic.decide_tiling(pipe.t, pipe.gifs, None, automaton=pipe.automaton)
    return {
        "verdict": dec.verdict,
        "pairs": [{
            "delta": _qb_coords_json(d),
            "vx": _qb_coords_json(vx),
            "vy": _qb_coords_json(vy),
        } for d, vx, vy in dec.pairs],
        "candidates_checked": dec.candidates_checked,
        "spectral_gap_min": min(dec.spectral_gaps) if dec.spectral_gaps else None,
    }, None


def cmd_translates(pipe, args):
    scene = tiling.torus_translates(pipe.t, pipe.vdata, pipe.gifs, args.depth,
                                    scale=args.scale)
    rep = {
        "coverage": {str(k): v for k, v in sorted(scene.coverage.items())},
        "resolution": scene.resolution,
        "scale": scene.scale,
        "translates": [list(m) for m in scene.translates],
        "depth": args.depth,
    }
    layers = None
    if pipe.t.field.degree == 2:
        layers = [(f"translate-{k}", m, scene.scene_points + np.array(m, dtype=float) * args.scale)
                  for k, m in enumerate(scene.translates)]
    return rep, layers


COMMANDS = {
    "expand": cmd_expand,
    "vset": cmd_vset,
    "natext": cmd_natext,
    "tiles": cmd_tiles,
    "periodic": cmd_periodic,
    "check-f": cmd_check_f,
    "check-w": cmd_check_w,
    "degree": cmd_degree,
    "sofic": cmd_sofic,
    "decide-tiling": cmd_decide_tiling,
    "translates": cmd_translates,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="betatiling",
        description="Exact expansions, extension domains, and multiple tilings "
                    "for Pisot-unit slopes.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="transform config JSON path")
    ap.add_argument("--x", help="point coordinates 'q0,q1,...' for expand")
    ap.add_argument("--depth", type=int, default=14,
                    help="cloud iteration depth for natext, tiles and translates")
    ap.add_argument("--out", help="write the JSON report here (default stdout)")
    ap.add_argument("--svg", help="write an SVG rendering here (where supported)")
    ap.add_argument("--dot", help="write a dot export here (sofic command)")
    ap.add_argument("--samples", help="JSON file with sample coordinate rows")
    ap.add_argument("--budget", type=int, default=20000, help="orbit iteration budget")
    ap.add_argument("--scale", type=float, default=1, help="lattice scale for translates")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        pipe = Pipeline(cfg, budget=args.budget)
        report, layers = COMMANDS[args.command](pipe, args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BetaError, OSError, KeyError, ValueError) as exc:   # JSONDecodeError too
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report["config_hash"] = _config_hash(cfg)
    report["command"] = args.command
    blob = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)
    if args.svg and layers:
        render_point_layers(layers, args.svg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
