"""Acceptance gate: one test per headline scenario, each printing a verdict
line.  Expected values are frozen from exact computations (orbit identities,
interval unions, integer eigenvalue tests) or from independent oracles noted
inline; geometric assertions use the certified cloud error bounds."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from betatiling.betamap import (compute_v, expand, expansion_value,
                                invariant_density, is_admissible,
                                prefix_interval_set, preset, word_from_digits)
from betatiling.numfield import make_field, pi1, psi, qb_compare
from betatiling.sofic import (build_automaton, build_diff_transducer,
                              decide_tiling, forbidden_words)
from betatiling.tiling import (check_f, check_w, clouds_at_depth,
                               covering_degree_estimate, natext_domain,
                               purely_periodic_points, tiles_containing)

from conftest import stage_cache


def ok(msg):
    print(f"PASS: {msg}")


def digit_word(t, idxs):
    return tuple(int(t.digits[a].coords[0]) for a in idxs)


# ---------------------------------------------------------------------------

def test_criterion_1_golden_greedy(golden, golden_greedy):
    vd, g, pset = stage_cache(golden_greedy)
    assert vd.V == [golden.zero, golden.one.div_beta()]
    assert [p.coords for p in pset.points] == [(0, 0)]
    assert check_f(pset)
    dec = decide_tiling(golden_greedy, g, pset)
    assert dec.verdict == "tiling"
    # depth chosen so that the geometric tail bound is below 1e-3
    depth = math.ceil(math.log(1e-3 / g.cloud_constant) / math.log(golden.rho))
    ne = natext_domain(golden_greedy, vd, g, max(depth, 18))
    assert abs(ne.area - 1.0) <= 0.02
    ok(f"criterion 1: V, P, finiteness, tiling verdict, area {ne.area:.4f}")


def test_criterion_2_golden_minweight(golden, golden_minweight):
    vd = compute_v(golden_minweight)
    assert len(vd.V) == 15
    alpha = golden.qb(["17/5", "-9/5"])  # (beta + beta^-4) / (beta^2 + 1)
    beta = golden.beta
    assert alpha * (beta * beta + golden.one) == beta + (beta ** 4).inv()
    tw = golden_minweight.twin()
    words = {
        "up_neg": (expand(tw, -alpha), ((-1, 0, 0, 1, 0), (0, 0, 0, -1))),
        "low_neg": (expand(golden_minweight, -alpha), ((0, -1), (0, 0, -1, 0))),
        "up_pos": (expand(tw, alpha), ((0, 1), (0, 0, 1, 0))),
        "low_pos": (expand(golden_minweight, alpha), ((1, 0, 0, -1, 0), (0, 0, 0, 1))),
    }
    for name, (got, (pre, per)) in words.items():
        assert digit_word(golden_minweight, got.preperiod) == pre, name
        assert digit_word(golden_minweight, got.period) == per, name
    ok("criterion 2: |V| = 15 and all four endpoint expansions exact")


def test_criterion_3_two_digit_example(golden, golden_pm1):
    vd, g, pset = stage_cache(golden_pm1)
    b = float(golden.beta)
    clouds, err = clouds_at_depth(g, 20)
    expect = {round(-1.0, 9): (-1 / b, b * b),
              round(-1 / b, 9): (-b * b, b * b),
              round(1 / b, 9): (-b * b, 1 / b)}
    for i, v in enumerate(g.vertices):
        lo, hi = expect[round(float(v), 9)]
        assert abs(clouds[i].min() - lo) <= err
        assert abs(clouds[i].max() - hi) <= err
    rep = tiles_containing(golden_pm1, pset, golden.one)
    assert rep.count == 4
    samples = [golden.one, golden.beta, golden.qb([2]),
               golden.one + golden.beta, golden.qb([3])]
    mn, _ = covering_degree_estimate(golden_pm1, pset, samples)
    assert mn == 4
    ok(f"criterion 3: cloud extremes within err {err:.1e}, membership 4, min count 4")


def test_criterion_4_golden_symmetric(golden, golden_symmetric_r):
    vd, g, pset = stage_cache(golden_symmetric_r)
    assert {p.coords for p in pset.points} == {(2, -1), (-2, 1)}   # +-1/beta^2
    rep = check_w(golden_symmetric_r, pset)
    assert rep.status == "holds"
    assert rep.x.coords == (2, -1)
    inv = golden.one.div_beta()
    for y, (z, k) in rep.witnesses.items():
        assert z == inv ** 5 and k == 3
    two = golden.qb([2])
    chains = {y.coords: [c.coords for c in ch] for y, ch in rep.chains.items()}
    assert chains[(2, -1)] == [(two * inv ** 3).coords, (-(inv ** 3)).coords,
                               (-(inv ** 2)).coords, (inv ** 2).coords]
    assert chains[(-2, 1)] == [(-two * inv ** 4).coords, (-two * inv ** 3).coords,
                               (inv ** 3).coords, (inv ** 2).coords]
    dec = decide_tiling(golden_symmetric_r, g, pset)
    assert dec.verdict == "tiling"
    ok("criterion 4: P, witness z = 1/beta^5 with k = 3, both chains, tiling")


def test_criterion_5_tribonacci_symmetric(tribonacci, tribonacci_symmetric,
                                          tribonacci_symmetric_r):
    t = tribonacci_symmetric_r
    vd, g, pset = stage_cache(t)
    fw_restricted = {digit_word(t, w) for w in forbidden_words(build_automaton(t), 6)}
    fw_plain = {digit_word(tribonacci_symmetric, w)
                for w in forbidden_words(build_automaton(tribonacci_symmetric), 6)}
    listed = ({(1, 1), (1, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1)}
              | {(-1, -1), (-1, 0, -1), (-1, 0, 0, 0), (-1, 0, 0, -1)}
              | {(0, 0, 0)})
    # the listed set is the unrestricted minimal family plus the support word;
    # in the restricted shift the two x000 words are subsumed by 000
    assert fw_plain == listed - {(0, 0, 0)}
    assert fw_restricted == listed - {(1, 0, 0, 0), (-1, 0, 0, 0)}
    aut = build_automaton(t)
    for w in listed:
        assert not aut.is_factor(tuple(t.digit_lookup(t.field.qb([d])) for d in w))

    rep = tiles_containing(t, pset, tribonacci.qb([4]))
    assert rep.count == 2
    owners = {o.coords for o in rep.owners}
    assert (3, 0, -1) in owners                       # 3 - beta^2
    # the companion owner is 4 - 2*beta: the printed index 4 - 2*beta^2 lies
    # outside the domain, so no tile carries it
    assert not t.contains(tribonacci.qb([4, 0, -2]))
    assert (4, -2, 0) in owners

    dec = decide_tiling(t, g, pset)
    assert dec.verdict == "multiple"
    assert (0, 2, -1) in {d.coords for d, _, _ in dec.pairs}   # 1/beta^2

    from betatiling.cli import default_samples
    samples = default_samples(tribonacci, 50)
    assert len(samples) >= 50
    mn, hist = covering_degree_estimate(t, pset, samples)
    assert mn == 2
    ok("criterion 5: forbidden words, membership pair, double verdict at 1/beta^2, "
       f"min count 2 over {len(samples)} samples")


def test_criterion_6_smallest_pisot(smallest_pisot, smallest_pisot_symmetric_r):
    t = smallest_pisot_symmetric_r
    vd, g, pset = stage_cache(t)
    assert len(pset) == 8
    start = smallest_pisot.qb([3, -2])
    words = {p.coords: w for p, w in zip(pset.points, pset.words)}
    assert digit_word(t, words[start.coords].period) == (0, 1, -1, 1, 0, -1, 1, -1)
    orbit = {start.coords}
    cur = start
    for _ in range(7):
        _, cur = t.step(cur)
        orbit.add(cur.coords)
    assert orbit == {p.coords for p in pset.points}
    rep = tiles_containing(t, pset, smallest_pisot.qb([2]))
    assert {o.coords for o in rep.owners} == {(3, -2, 0), (0, -3, 2)}
    dec = decide_tiling(t, g, pset)
    assert dec.verdict == "multiple"
    ok("criterion 6: 8-point orbit with exact period word, membership pair, double verdict")


def test_criterion_7_cubic_one_point_tiles():
    f1 = make_field(2, -1, 1)              # beta^3 = 2 beta^2 - beta + 1
    t1 = preset("symmetric", f1)
    from betatiling.betamap import supported
    t1 = supported(t1)
    p1 = purely_periodic_points(t1)
    rep1 = tiles_containing(t1, p1, f1.qb([4]))
    assert rep1.count == 1
    assert rep1.owners[0].coords == (3, 2, -2)    # 3 + 2 beta - 2 beta^2

    f2 = make_field(1, 0, 1)               # beta^3 = beta^2 + 1
    t2 = supported(preset("symmetric", f2))
    p2 = purely_periodic_points(t2)
    inv = f2.one.div_beta()
    assert {p.coords for p in p2.points} == {
        (inv ** 2).coords, (-(inv ** 2)).coords,
        (inv ** 3).coords, (-(inv ** 3)).coords}
    rep2 = tiles_containing(t2, p2, f2.qb([4]))
    assert rep2.count == 1
    assert rep2.owners[0].coords == (4, -1, -1)   # 4 - beta - beta^2
    ok("criterion 7: both cubic fields give the single expected owner")


# ---------------------------------------------------------------------------
# criterion 8: property suites

def test_criterion_8a_roundtrip(golden, tribonacci):
    rng = random.Random(2024)
    fails = 0
    for _ in range(500):
        x = golden.qb([Fraction(rng.randint(-2000, 2000), rng.randint(1, 60))
                       for _ in range(2)])
        if pi1(psi(x), golden) != x:
            fails += 1
    for _ in range(500):
        x = tribonacci.qb([Fraction(rng.randint(-2000, 2000), rng.randint(1, 60))
                           for _ in range(3)])
        if pi1(psi(x), tribonacci) != x:
            fails += 1
    assert fails == 0
    ok("criterion 8a: 1000 exact lattice round trips")


def test_criterion_8b_expansions_admissible(golden, tribonacci):
    rng = random.Random(77)
    cases = [
        preset("greedy", golden),
        preset("lazy", golden),
        preset("pedicini", golden, digits=[golden.zero, golden.qb([0, 2]), golden.qb([5])]),
        preset("linear_mod1", golden, alpha=golden.qb(["1/3"])),
        preset("minimal_weight", golden, alpha=golden.qb(["17/5", "-9/5"])),
        preset("symmetric", tribonacci),
    ]
    fails = 0
    for t in cases:
        lo, hi = float(t.xmin), float(t.xmax)
        for _ in range(1000):
            den = rng.randint(2, 97)
            num = rng.randint(math.floor(lo * den) - 1, math.ceil(hi * den) + 1)
            x = t.field.qb([Fraction(num, den)])
            if not t.contains(x):
                continue
            w = expand(t, x)
            if not is_admissible(t, w) or expansion_value(t, w) != x:
                fails += 1
    assert fails == 0
    ok("criterion 8b: sampled expansions admissible and value-exact for all six presets")


def test_criterion_8c_refinement(golden_greedy, golden_minweight, golden_pm1,
                                 golden_symmetric_r, tribonacci_symmetric_r,
                                 smallest_pisot_symmetric_r):
    checked = 0
    for t in (golden_greedy, golden_pm1, golden_symmetric_r,
              tribonacci_symmetric_r, smallest_pisot_symmetric_r):
        vd, g, _ = stage_cache(t)
        mh = g.field.contract_mat
        prev, perr = clouds_at_depth(g, 5)
        cur, cerr = clouds_at_depth(g, 6)
        for i in range(len(g.vertices)):
            union = np.unique(np.vstack(
                [prev[j] @ mh.T + g.phi_digits[a] for j, a in g.edges[i]]), axis=0)
            a = cur[i]
            d1 = np.abs(a[:, None, :] - union[None, :, :]).sum(-1).min(1).max()
            d2 = np.abs(union[:, None, :] - a[None, :, :]).sum(-1).min(1).max()
            assert max(d1, d2) < 1e-9
            checked += 1
    assert checked > 10
    ok(f"criterion 8c: refinement identity exact on {checked} vertex clouds")


def test_criterion_8d_automaton_agreement(golden_greedy, tribonacci_symmetric_r):
    rng = random.Random(4242)
    total = 0
    for t in (golden_greedy, tribonacci_symmetric_r):
        aut = build_automaton(t)
        na = len(t.digits)
        for _ in range(5000):
            n = rng.randint(1, 12)
            if rng.random() < 0.5:
                w = tuple(rng.randrange(na) for _ in range(n))
            else:
                w, s = [], aut.initial
                for _ in range(n):
                    opts = [a for a in range(na) if aut.delta[s][a] is not None]
                    a = rng.choice(opts)
                    w.append(a)
                    s = aut.delta[s][a]
                if rng.random() < 0.5:
                    w[rng.randrange(n)] = rng.randrange(na)
                w = tuple(w)
            assert aut.is_factor(w) == (len(prefix_interval_set(t, w)) > 0)
            total += 1
    assert total == 10000
    ok("criterion 8d: automaton agrees with the interval oracle on 10000 words")


def test_criterion_8e_path_sums(tribonacci, tribonacci_symmetric_r):
    t = tribonacci_symmetric_r
    vd, g, pset = stage_cache(t)
    aut = build_automaton(t)
    delta = tribonacci.qb([0, 2, -1])
    from betatiling.numfield import simple_rational_in
    xrep = None
    for i in range(len(g.vertices)):
        for j in range(len(g.vertices)):
            lo = max(g.J[i].lo, g.J[j].lo - delta)
            hi = min(g.J[i].hi, g.J[j].hi - delta)
            if qb_compare(lo, hi) == -1:
                xrep = simple_rational_in(lo, hi)
                break
        if xrep is not None:
            break
    td = build_diff_transducer(t, aut, [(delta, expand(t, xrep + delta), expand(t, xrep))])
    out_edges = {}
    for s, d, ain, aout in td.edges:
        out_edges.setdefault(s, []).append((d, ain, aout))
    rng = random.Random(31)
    beta = tribonacci.beta
    done = 0
    tries = 0
    while done < 1000 and tries < 40000:
        tries += 1
        s = td.initials[0]
        u, v = [], []
        for _ in range(rng.randint(1, 9)):
            if s not in out_edges:
                break
            d, ain, aout = rng.choice(out_edges[s])
            u.append(ain)
            v.append(aout)
            s = d
        else:
            n = len(u)
            val_u = sum((t.digits[a] * beta ** -(k + 1)
                         for k, a in enumerate(reversed(u))), tribonacci.zero)
            val_v = sum((t.digits[a] * beta ** -(k + 1)
                         for k, a in enumerate(reversed(v))), tribonacci.zero)
            assert val_u - val_v == td.states[s][0] - delta * beta ** -n
            done += 1
    assert done == 1000
    ok("criterion 8e: exact path-sum identity on 1000 transducer paths")
