#!/usr/bin/env python3
"""Canonical JSON of the exact decision outputs of one source checkout.

    python3 scripts/decision_dump.py CHECKOUT OUT.json

Imports ``betatiling`` from CHECKOUT/src and, for every right-continuous
config in CHECKOUT/configs, writes the ``invariant_density`` weights (of the
unrestricted map for a ``restrict_to_support`` config: the map whose
weights chose the support), the ``check_w`` report, and one decision entry:
the ``difference_pairs`` triples and their windows, and the
``decide_tiling`` verdict, overlapping pairs, ``candidates_checked``,
spectral gaps and the state and edge counts of its difference graph (read by
wrapping ``sofic.build_diff_transducer``), so a change to the graph shows even
when the verdict holds.  Each config's factor automaton is written without its
state numbering: the state count, the transitions relabeled breadth-first from
the initial state over the digits in index order (-1 is the dead state) and
``forbidden_words(aut, 6)``, so two automata give the same entry exactly when
they are isomorphic.  Field elements are written as their rational
coordinates and floats as ``float.hex``, and keys are sorted, so two
checkouts give the same outputs exactly when ``diff`` finds the two files
identical.
"""

import json
import pathlib
import sys


def numbering_free(aut):
    """The automaton's entry: its states numbered breadth-first."""
    from betatiling.sofic import forbidden_words

    number = {aut.initial: 0}
    order = [aut.initial]
    for s in order:
        for nxt in aut.delta[s]:
            if nxt is not None and nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
    return {"states": aut.n_states,
            "transitions": [[-1 if n is None else number[n] for n in aut.delta[s]]
                            for s in order],
            "forbidden_words": [list(w) for w in forbidden_words(aut, 6)]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.strip().split("\n\n")[1].strip())
    checkout, out = pathlib.Path(argv[0]).resolve(), pathlib.Path(argv[1])
    sys.path.insert(0, str(checkout / "src"))
    from betatiling import betamap, sofic, tiling

    graphs = []
    build = sofic.build_diff_transducer

    def recording_build(*args, **kwargs):
        td = build(*args, **kwargs)
        graphs.append(td)
        return td

    sofic.build_diff_transducer = recording_build
    qb = lambda x: [str(c) for c in x.coords]
    dump = {}
    for path in sorted((checkout / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        t = betamap.transform_from_config(cfg)
        if t.side != "right":
            continue
        full = t
        if cfg.pop("restrict_to_support", False):
            full = betamap.transform_from_config(cfg)
        weights = betamap.invariant_density(full, betamap.compute_v(full))
        g = tiling.gifs_build(t, betamap.compute_v(t))
        pset = tiling.purely_periodic_points(t)
        w = tiling.check_w(t, pset)
        row = {"density": [qb(h) for h in weights], "check_w": {
            "status": w.status,
            "x": None if w.x is None else qb(w.x),
            "epsilon": qb(w.epsilon),
            "witnesses": sorted([qb(y), qb(z), k] for y, (z, k) in w.witnesses.items()),
            "chains": sorted([qb(y), [qb(c) for c in ch]] for y, ch in w.chains.items())}}
        aut = sofic.build_automaton(t)
        row["automaton"] = numbering_free(aut)
        pairs, windows = sofic.difference_pairs(t, g)
        graphs.clear()
        dec = sofic.decide_tiling(t, g, pset, automaton=aut)
        (td,) = graphs
        row["decision"] = {
            "difference_pairs": [[qb(delta), i, j] for delta, i, j in pairs],
            "windows": [[qb(lo), qb(hi)] for lo, hi in windows],
            "verdict": dec.verdict,
            "pairs": [[qb(delta), qb(x), qb(y)] for delta, x, y in dec.pairs],
            "candidates_checked": dec.candidates_checked,
            "spectral_gaps": [float(s).hex() for s in dec.spectral_gaps],
            "graph_states": len(td.states),
            "graph_edges": len(td.edges)}
        dump[path.stem] = row
        print(path.stem, file=sys.stderr, flush=True)
    out.write_text(json.dumps(dump, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
