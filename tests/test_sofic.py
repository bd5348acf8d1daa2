import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from betatiling import numfield, sofic
from betatiling.betamap import (IntervalQB, compute_v,
                                endpoint_words, expand, prefix_interval_set, preset,
                                transform_from_config)
from betatiling.errors import (BudgetExceeded, DigitsNotIntegral, UnknownDigit,
                               ValidationError)
from betatiling.numfield import (GT, LT, _beta_eigenvector, _lcm_nums, _minpoly_at_matrix,
                                 gamma_abs_upper, make_field, qb_compare)
from betatiling.sofic import (beta_is_eigenvalue, build_automaton,
                              build_diff_transducer, decide_tiling, difference_pairs,
                              forbidden_words, DiffTransducer, ShiftAutomaton,
                              _component_walk, _difference_box, _neighbour_core, _sccs)
from betatiling.tiling import (clouds_at_depth, conj_block_bounds, gifs_build,
                               lattice_candidates)

from betamap_reference import _intersect, _merge_union
from conftest import EXTRA_TRANSFORMS, extra_transform, from_machine, stage_cache, to_machine


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
RIGHT_CONTINUOUS = [p.stem for p in sorted(CONFIGS.glob("*.json"))
                    if transform_from_config(json.loads(p.read_text())).side == "right"]


def config_transform(name):
    return transform_from_config(json.loads((CONFIGS / f"{name}.json").read_text()))


def to_digit_tuple(t, idxs):
    return tuple(int(t.digits[a].coords[0]) for a in idxs)


def qbeta_pairs(t, pairs, windows):
    """:func:`difference_pairs`' triples and windows with QBeta differences
    and window ends."""
    return ([(from_machine(t, d), i, j) for d, i, j in pairs],
            [(from_machine(t, lo, t._q), from_machine(t, hi, t._q)) for lo, hi in windows])


# ---------------------------------------------------------------------------
# soficity and the automaton

# every piece end lies in Q(beta), so its expansions are eventually periodic
# and the shift is sofic; endpoint_words gives them per digit and piece

def test_soficity_golden_greedy(golden_greedy):
    low, up = endpoint_words(golden_greedy)[1][0]
    # the upper word of the top digit is the two-cycle (1 0)
    assert up.preperiod == () and to_digit_tuple(golden_greedy, up.period) == (1, 0)


def test_soficity_smallest_pisot_minweight(smallest_pisot):
    beta = smallest_pisot.beta
    alpha = beta ** 6 * (beta ** 8 - smallest_pisot.one).inv()
    t = preset("minimal_weight", smallest_pisot, alpha=alpha)
    low, up = endpoint_words(t)[1][0]   # alpha is the right endpoint of the 0-digit piece
    assert to_digit_tuple(t, up.preperiod) == ()
    assert to_digit_tuple(t, up.period) == (0, 1, 0, 0, 0, 0, 0, 0)


def test_automaton_golden_greedy(golden_greedy):
    aut = build_automaton(golden_greedy)
    assert aut.n_states == 2
    fw = forbidden_words(aut, 5)
    assert [to_digit_tuple(golden_greedy, w) for w in fw] == [(1, 1)]


def test_automaton_tribonacci_unrestricted(tribonacci_symmetric):
    aut = build_automaton(tribonacci_symmetric)
    fw = {to_digit_tuple(tribonacci_symmetric, w) for w in forbidden_words(aut, 6)}
    assert fw == {(1, 1), (1, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1),
                  (-1, -1), (-1, 0, -1), (-1, 0, 0, 0), (-1, 0, 0, -1)}


def test_automaton_tribonacci_restricted(tribonacci_symmetric_r):
    aut = build_automaton(tribonacci_symmetric_r)
    fw = {to_digit_tuple(tribonacci_symmetric_r, w) for w in forbidden_words(aut, 6)}
    # the support restriction forbids 000; the words 1000 and -1000 of the
    # unrestricted shift stop being minimal because 000 covers them
    assert fw == {(1, 1), (1, 0, 1), (1, 0, 0, 1),
                  (-1, -1), (-1, 0, -1), (-1, 0, 0, -1), (0, 0, 0)}


def _factor_oracle(t, word):
    return len(prefix_interval_set(t, word)) > 0


@pytest.mark.parametrize("case", ["greedy", "trib", "sp"])
def test_automaton_factor_oracle_agreement(case, golden_greedy,
                                           tribonacci_symmetric_r,
                                           smallest_pisot_symmetric_r):
    t = {"greedy": golden_greedy, "trib": tribonacci_symmetric_r,
         "sp": smallest_pisot_symmetric_r}[case]
    aut = build_automaton(t)
    rng = random.Random(42)
    na = len(t.digits)
    checked = 0
    for _ in range(1500):
        n = rng.randint(1, 14)
        if rng.random() < 0.5:
            w = tuple(rng.randrange(na) for _ in range(n))
        else:
            # random walk on the automaton, then occasional corruption
            w = []
            s = aut.initial
            for _ in range(n):
                options = [a for a in range(na) if aut.delta[s][a] is not None]
                a = rng.choice(options)
                w.append(a)
                s = aut.delta[s][a]
            if rng.random() < 0.4:
                w[rng.randrange(len(w))] = rng.randrange(na)
            w = tuple(w)
        assert aut.is_factor(w) == _factor_oracle(t, w)
        checked += 1
    assert checked == 1500


def _ray_alive_states_reference(aut, word):
    """All states from which the eventually periodic ray survives: the
    preperiod is read from every state at once, then the period until the
    tuple of current states repeats.  For the ray of a point x that is x in
    the closure of the state's intervals."""
    cur = list(range(aut.n_states))
    for a in word.preperiod:
        cur = [None if s is None else aut.delta[s][a] for s in cur]
    if word.period:
        seen = set()
        while tuple(cur) not in seen:
            seen.add(tuple(cur))
            for a in word.period:
                cur = [None if s is None else aut.delta[s][a] for s in cur]
    return frozenset(i for i, s in enumerate(cur) if s is not None)


def _reference_images(aut):
    """Each state's interval union as QBeta intervals, rebuilt along the
    automaton's transitions: digit a sends S to the merged union of
    beta*(S & p) - a over a's pieces p, with exact QBeta arithmetic.  Checks
    that a transition is dead exactly when the image is empty and that every
    way into a state gives the same image."""
    t = aut.transform
    beta = t.field.beta
    images = {aut.initial: _merge_union(list(t.components))}
    stack = [aut.initial]
    while stack:
        s = stack.pop()
        for a, nxt in enumerate(aut.delta[s]):
            dg = t.digits[a]
            img = _merge_union([IntervalQB(got.lo * beta - dg, got.hi * beta - dg)
                                for iv in images[s] for p in t.parts[a]
                                if (got := _intersect(iv, p)) is not None])
            assert (nxt is None) == (not img)
            if nxt is None:
                continue
            if nxt in images:
                assert images[nxt] == img
            else:
                images[nxt] = img
                stack.append(nxt)
    return images


@pytest.mark.parametrize("name", ["tribonacci_symmetric", "smallest_pisot_symmetric",
                                  "golden_interleaved"])
def test_span_gated_alive_matches_exact_membership(name):
    # alive bisects on float spans and decides a straddle on integers; on
    # every state end, and a tiny Z[beta] step (or a third of one) to either
    # side of it, it gives the states whose QBeta intervals hold the point.
    # beta^-90 has coordinates so large that every span straddles.
    t = config_transform(name)
    aut = build_automaton(t)
    images = _reference_images(aut)
    assert len(images) == aut.n_states
    ends = {e.coords: e for img in images.values() for iv in img for e in (iv.lo, iv.hi)}
    probes = list(ends.values())
    for k in (40, 90):
        tiny = t.field.one.div_beta() ** k
        probes += [y for e in ends.values()
                   for y in (e + tiny, e - tiny, e + tiny / 3, e - tiny / 3)]
    for x in probes + [t.xmin - t.field.one, t.xmax]:
        want = frozenset(s for s, img in images.items()
                         if any(qb_compare(iv.lo, x) != GT and qb_compare(x, iv.hi) == LT
                                for iv in img))
        assert aut.alive(x) == want, (name, x)


@pytest.mark.parametrize("name", ["golden_pm1", "tribonacci_symmetric", "golden_interleaved"])
def test_integer_fallbacks_decide_when_every_span_straddles(name, monkeypatch):
    # with every float span widened by 1, spans overlap wherever two points
    # lie within 2 of each other, so the end tables (state ends, pieces and
    # J intervals), their lookups, the delta filter and the window ends are
    # decided by the integer sign routine
    t = config_transform(name)
    vd, g, pset = stage_cache(t)
    aut = build_automaton(t)
    pairs = difference_pairs(t, g)
    eps = t.field.one.div_beta() ** 40
    probes = [y for iv in vd.intervals + [iv for iv, _ in t.pieces]
              for x in (iv.lo, iv.hi, iv.lo - t.field.one) for y in (x, x - eps, x + eps)]

    kernels = numfield._kernels

    def wide(d):
        # the kernels of every field made from here on, with each span one
        # wider on both sides
        step, div, span = kernels(d)

        def wide_span(*consts):
            inner = span(*consts)
            return lambda n, q: tuple(map(sum, zip(inner(n, q), (-1.0, 1.0))))
        return step, div, wide_span

    monkeypatch.setattr(numfield, "_kernels", wide)
    t2 = config_transform(name)
    lo, hi = t2.field._span((0,) * t2.field.degree, 1)
    assert lo <= -1.0 and hi >= 1.0
    vd2 = compute_v(t2)
    g2 = gifs_build(t2, vd2)
    slow = build_automaton(t2)
    table = lambda tab: (tab.ends, tab.labels)
    assert (slow.delta, table(slow._table)) == (aut.delta, table(aut._table))
    assert all(slow.alive(x) == aut.alive(x) for x in probes)
    assert difference_pairs(t2, g2) == pairs
    assert table(t2._table) == table(t._table) and table(vd2.table) == table(vd.table)
    assert all(t2.digit_index_of(x) == t.digit_index_of(x) for x in probes)
    assert all(g2.vertex_index(x) == g.vertex_index(x) for x in probes)
    assert g2.edges == g.edges


@pytest.mark.parametrize("name", ["golden_greedy", "golden_pm1", "golden_minweight",
                                  "tribonacci_symmetric", "cubic_30m1_greedy"])
def test_alive_sets_match_ray_survival(name):
    # off the state ends, membership and the survival of the point's ray
    # agree; the interior representatives of the windows stay off those ends
    t = config_transform(name)
    vd, g, pset = stage_cache(t)
    aut = build_automaton(t)
    bounds = conj_block_bounds(t)
    checked = 0
    for (delta, _, _), (lo, hi) in zip(*qbeta_pairs(t, *difference_pairs(t, g))):
        x = _small_orbit_rep_reference(t, lo, hi, bounds)
        for y in (x, x + delta):
            assert aut.alive(y) == _ray_alive_states_reference(aut, expand(t, y)), (y, delta)
            checked += 1
    assert checked > 0
    assert aut.initial in aut.alive(t.xmin)
    assert aut.alive(t.xmax) == frozenset() and aut.alive(t.xmin - t.field.one) == frozenset()


def _canon(word, pos):
    npre, nper = len(word.preperiod), len(word.period)
    if pos < npre:
        return pos
    return npre + (pos - npre) % nper


def _lexicographic_automaton_reference(t):
    """The endpoint-word construction, unminimized: every tail of a word must
    lie, lexicographically, between the lower and upper endpoint words of one
    piece of its leading digit.  States are sets of pending boundary
    comparisons ("b" both ends pending, "l" the lower only, "u" the upper
    only)."""
    bw = {}
    pieces_of = [[] for _ in t.digits]
    for a, per_piece in enumerate(endpoint_words(t)):
        for i, (low, up) in enumerate(per_piece):
            bw[(a, i)] = (low, up)
            pieces_of[a].append((a, i))

    def advance(word, pos):
        return _canon(word, pos + 1)

    def spawn(c):
        entries = []
        for key in pieces_of[c]:
            low, up = bw[key]
            entries.append(("b", key, _canon(low, 1), _canon(up, 1)))
        return frozenset(entries)

    def advance_position(entries, c):
        satisfied = False
        out = []
        for e in entries:
            kind, key = e[0], e[1]
            low, up = bw[key]
            if kind == "b":
                pl, pu = e[2], e[3]
                lc, uc = low.digit_at(pl), up.digit_at(pu)
                if lc == uc:
                    if c == lc:
                        out.append(("b", key, advance(low, pl), advance(up, pu)))
                else:
                    if c == lc:
                        out.append(("l", key, advance(low, pl)))
                    elif c == uc:
                        out.append(("u", key, advance(up, pu)))
                    elif lc < c < uc:
                        satisfied = True
            elif kind == "l":
                pl = e[2]
                lc = low.digit_at(pl)
                if c > lc:
                    satisfied = True
                elif c == lc:
                    out.append(("l", key, advance(low, pl)))
            else:
                pu = e[2]
                uc = up.digit_at(pu)
                if c < uc:
                    satisfied = True
                elif c == uc:
                    out.append(("u", key, advance(up, pu)))
        if satisfied:
            return "done"
        if not out:
            return None
        return frozenset(out)

    initial = frozenset()
    index = {initial: 0}
    delta = [None]
    queue = [initial]
    while queue:
        state = queue.pop()
        row = []
        for c in range(len(t.digits)):
            dead = False
            nxt = set()
            for pstate in state:
                res = advance_position(pstate, c)
                if res is None:
                    dead = True
                    break
                if res != "done":
                    nxt.add(res)
            if dead:
                row.append(None)
                continue
            nxt.add(spawn(c))
            key = frozenset(nxt)
            if key not in index:
                index[key] = len(delta)
                delta.append(None)
                queue.append(key)
            row.append(index[key])
        delta[index[state]] = tuple(row)
    return ShiftAutomaton(t, len(delta), delta, 0, ())


def _moore_classes(aut):
    """Moore refinement with an explicit dead class: the class of each state."""
    cls = [0] * aut.n_states
    while True:
        sig = {}
        new = [sig.setdefault((cls[i], tuple(-1 if s is None else cls[s] for s in row)),
                              len(sig))
               for i, row in enumerate(aut.delta)]
        if new == cls:
            return cls
        cls = new


def _minimized(aut):
    """The quotient of the automaton by its Moore classes."""
    cls = _moore_classes(aut)
    first = {}
    for i, c in enumerate(cls):
        first.setdefault(c, i)
    num = {c: k for k, c in enumerate(first)}
    delta = [tuple(None if s is None else num[cls[s]] for s in aut.delta[i])
             for i in first.values()]
    return ShiftAutomaton(aut.transform, len(delta), delta, num[cls[aut.initial]], ())


def _isomorphic(a, b):
    """Whether a bijection of states sends a's initial state to b's and each
    transition of a to one of b."""
    m = {a.initial: b.initial}
    stack = [a.initial]
    while stack:
        s = stack.pop()
        for x, y in zip(a.delta[s], b.delta[m[s]]):
            if (x is None) != (y is None):
                return False
            if x is None:
                continue
            if x not in m:
                m[x] = y
                stack.append(x)
            elif m[x] != y:
                return False
    return len(m) == a.n_states == b.n_states == len(set(m.values()))


@pytest.mark.parametrize("name", [n for n in RIGHT_CONTINUOUS if n != "golden_interleaved"]
                         + list(EXTRA_TRANSFORMS))
def test_automaton_matches_lexicographic_reference(name):
    # the cylinder-image automaton is the minimized endpoint-word automaton up
    # to the numbering of its states, and is minimal as built; the reference
    # reads the pieces in digit order, which an interleaved layout breaks
    t = config_transform(name) if name in RIGHT_CONTINUOUS else extra_transform(name)
    aut = build_automaton(t)
    ref = _minimized(_lexicographic_automaton_reference(t))
    assert aut.n_states == ref.n_states
    assert forbidden_words(aut, 6) == forbidden_words(ref, 6)
    assert _isomorphic(aut, ref)
    assert len(set(_moore_classes(aut))) == aut.n_states


def test_automaton_state_budget(tribonacci_symmetric):
    n = build_automaton(tribonacci_symmetric).n_states
    assert build_automaton(tribonacci_symmetric, state_budget=n).n_states == n
    with pytest.raises(BudgetExceeded) as err:
        build_automaton(tribonacci_symmetric, state_budget=n - 1)
    assert err.value.info["states"] == n - 1


def test_automaton_rejects_left_continuous():
    with pytest.raises(ValidationError):
        build_automaton(config_transform("golden_lazy"))


def test_interleaved_layout_automaton_and_routes():
    # golden field, digits 0, 1, beta, 3 beta - 3 on [0, 1), [1, 5/4) u
    # [7/4, 2), [5/4, 7/4), [2, 3): digit 1's pieces interleave digit 2's, so
    # no order of the digits is lexicographic along the domain
    from betatiling.cli import default_samples
    from betatiling.tiling import check_w, covering_degree_estimate
    t = config_transform("golden_interleaved")
    assert [a for _, a in t.pieces] == [0, 1, 2, 1, 3]
    aut = build_automaton(t)
    assert aut.n_states == 47
    assert len(set(_moore_classes(aut))) == aut.n_states
    rng = random.Random(14)
    na = len(t.digits)
    for _ in range(3000):
        w = tuple(rng.randrange(na) for _ in range(rng.randint(1, 12)))
        assert aut.is_factor(w) == _factor_oracle(t, w), w
    vd, g, pset = stage_cache(t)
    assert len(vd.V) == 21 and len(pset) == 3
    assert check_w(t, pset).status == "holds"
    mn, _ = covering_degree_estimate(t, pset, default_samples(t.field, 30))
    assert mn == 1
    assert decide_tiling(t, g, pset, automaton=aut).verdict == "tiling"


# ---------------------------------------------------------------------------
# difference machine

def test_transducer_path_sum_identity(tribonacci, tribonacci_symmetric_r):
    t = tribonacci_symmetric_r
    vd, g, pset = stage_cache(t)
    aut = build_automaton(t)
    delta = tribonacci.qb([0, 2, -1])      # 1/beta^2, the overlap difference
    # the identity does not depend on the start point: take the left end of
    # the first window of delta
    pairs, windows = qbeta_pairs(t, *difference_pairs(t, g))
    x = next(lo for (d, _, _), (lo, _) in zip(pairs, windows) if d == delta)
    td = build_diff_transducer(t, aut, [to_machine(t, delta, x)])
    out_edges = {}
    for s, d, ain, aout in td.edges:
        out_edges.setdefault(s, []).append((d, ain, aout))
    rng = random.Random(9)
    beta = tribonacci.beta
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 30000:
        attempts += 1
        s = td.initials[0]
        u, v = [], []
        n = rng.randint(1, 10)
        ok = True
        for _ in range(n):
            if s not in out_edges:
                ok = False
                break
            d, ain, aout = rng.choice(out_edges[s])
            u.append(ain)
            v.append(aout)
            s = d
        if not ok:
            continue
        # value of the input word minus the output word (time order is the
        # reverse of the prepend order)
        val_u = sum((t.digits[a] * beta ** -(k + 1)
                     for k, a in enumerate(reversed(u))), tribonacci.zero)
        val_v = sum((t.digits[a] * beta ** -(k + 1)
                     for k, a in enumerate(reversed(v))), tribonacci.zero)
        term = from_machine(t, td.states[s][0])
        assert val_u - val_v == term - delta * beta ** -n
        checked += 1
    assert checked >= 1000


def test_beta_eigenvalue_exact(golden):
    # companion matrix has beta as an eigenvalue; identity does not
    m = [list(r) for r in golden.companion]
    assert beta_is_eigenvalue(golden, m)
    assert not beta_is_eigenvalue(golden, [[1, 0], [0, 1]])
    assert not beta_is_eigenvalue(golden, [[0, 0], [0, 0]])


def _bareiss_det_reference(m):
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv], sign = a[piv], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _minpoly_dense_reference(field, m):
    """q(M) by Horner with dense matrix products."""
    n = len(m)
    c = field.coeffs

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    out = [[m[i][j] - (c[0] if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, field.degree):
        out = matmul(out, m)
        for i in range(n):
            out[i][i] -= c[k]
    return out


def test_minpoly_sparse_rows_match_dense_product(monkeypatch, golden, tribonacci,
                                                 smallest_pisot):
    # the components a decision tests, recorded from two multiple verdicts
    cases = []
    real = sofic.beta_is_eigenvalue
    monkeypatch.setattr(sofic, "beta_is_eigenvalue",
                        lambda field, m: cases.append((field, m)) or real(field, m))
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for name in ("golden_pm1", "tribonacci_symmetric"):
        t = transform_from_config(json.loads((root / f"{name}.json").read_text()))
        _, g, pset = stage_cache(t)
        decide_tiling(t, g, pset)
    monkeypatch.undo()
    recorded = len(cases)
    # seeded random matrices; every other one hides the companion matrix in a
    # permuted block-triangular form, so beta is one of its eigenvalues
    rng = random.Random(20260)
    for field in (golden, tribonacci, smallest_pisot):
        d = field.degree
        for trial in range(60):
            n = rng.randint(1, 10)
            a = [[rng.choice((0, 0, 0, 1, 1, 2, -1)) for _ in range(n)] for _ in range(n)]
            if trial % 2 and n >= d:
                for i in range(d):
                    a[i][:d] = [int(x) for x in field.companion[i]]
                for i in range(d, n):
                    a[i][:d] = [0] * d
                perm = rng.sample(range(n), n)
                b = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        b[perm[i]][perm[j]] = a[i][j]
                a = b
            cases.append((field, a))
    hits = [0, 0]
    for k, (field, m) in enumerate(cases):
        q = _minpoly_at_matrix(field, m)
        assert q == _minpoly_dense_reference(field, m), m
        w = _beta_eigenvector(field, m)
        assert (w is None) == (_bareiss_det_reference(q) != 0), m
        if w is not None:
            # m w = beta w exactly, w != 0
            ws = [field.qb(c) for c in w]
            assert any(not x.is_zero() for x in ws)
            for row, x in zip(m, ws):
                assert sum((a * y for a, y in zip(row, ws)), field.zero) == field.beta * x
        hits[k >= recorded] += beta_is_eigenvalue(field, m)
    assert recorded > 0 and min(hits) > 0 and hits[1] < len(cases) - recorded


# ---------------------------------------------------------------------------
# decisions

def test_decide_golden_greedy(golden_greedy):
    vd, g, pset = stage_cache(golden_greedy)
    dec = decide_tiling(golden_greedy, g, pset)
    assert dec.verdict == "tiling"
    assert dec.spectral_gaps and min(dec.spectral_gaps) > 0.1


def test_decide_golden_symmetric(golden_symmetric_r):
    vd, g, pset = stage_cache(golden_symmetric_r)
    dec = decide_tiling(golden_symmetric_r, g, pset)
    assert dec.verdict == "tiling"


def test_decide_tribonacci_double(tribonacci_symmetric_r):
    vd, g, pset = stage_cache(tribonacci_symmetric_r)
    dec = decide_tiling(tribonacci_symmetric_r, g, pset)
    assert dec.verdict == "multiple"
    assert (0, 2, -1) in {d.coords for d, _, _ in dec.pairs}


def test_decision_reads_no_tile_cloud(tribonacci_symmetric_r):
    # the verdict is decided on the exact difference graph alone
    t = tribonacci_symmetric_r
    g = gifs_build(t, compute_v(t))
    assert decide_tiling(t, g, None).verdict == "multiple"
    assert g._cloud_cache == {}


def test_decision_expands_no_point(tribonacci_symmetric_r, monkeypatch):
    # every start reads its alive sets by interval membership, not from the
    # expansions of representatives
    def no_expand(*args, **kwargs):
        raise AssertionError("expand called")

    monkeypatch.setattr(sofic, "expand", no_expand)
    t = tribonacci_symmetric_r
    vd, g, pset = stage_cache(t)
    dec = decide_tiling(t, g, pset)
    assert dec.verdict == "multiple"
    assert (0, 2, -1) in {d.coords for d, _, _ in dec.pairs}


def test_diff_transducer_rejects_start_outside_domain(golden_greedy):
    t = golden_greedy
    aut = build_automaton(t)
    f = t.field
    delta = f.beta - f.one
    assert build_diff_transducer(t, aut, [to_machine(t, delta, f.zero)]).initials == [0]
    for x in (t.xmax, f.zero - f.one, f.one - delta):
        # x past the domain's supremum, below it, or x + delta at the supremum
        with pytest.raises(ValidationError, match="outside the domain"):
            build_diff_transducer(t, aut, [to_machine(t, delta, x)])


def test_diff_transducer_refuses_a_difference_off_the_lattice(golden_greedy):
    t = golden_greedy
    aut = build_automaton(t)
    f = t.field
    for delta in ((Fraction(1, 2), 0), (0.0, 1)):
        with pytest.raises(DigitsNotIntegral):
            build_diff_transducer(t, aut, [(delta, to_machine(t, f.zero, f.zero)[1])])


def test_cross_validation_w_vs_decision(golden_greedy, golden_symmetric_r):
    from betatiling.tiling import check_w
    for t in (golden_greedy, golden_symmetric_r):
        vd, g, pset = stage_cache(t)
        w = check_w(t, pset)
        dec = decide_tiling(t, g, pset)
        assert (w.status == "holds") == (dec.verdict == "tiling")


def test_cubic_30m1_greedy_decides_tiling():
    # x^3 - 3x^2 + 1 (beta ~ 2.88), greedy: (W) holds.  The window of the
    # candidate delta = beta - 2 between the classes of 0 and beta - 2 is
    # [0, 3 - beta); at x = 0, x + delta is beta - 2, the supremum of the
    # automaton state [0, beta - 2), whose ray 2 1^w survives from that state,
    # so alive sets read from ray survival led to a false overlap
    from betatiling.tiling import check_w
    t = config_transform("cubic_30m1_greedy")
    vd, g, pset = stage_cache(t)
    assert check_w(t, pset).status == "holds"
    pairs, windows = qbeta_pairs(t, *difference_pairs(t, g))
    delta = t.field.qb([-2, 1])
    assert (t.field.zero, t.field.qb([3, -1])) in [w for w, (d, _, _) in zip(windows, pairs)
                                                   if d == delta]
    # the start at that window's left end, x = 0 with x + delta = beta - 2,
    # reads membership, so beta - 2 is not in the state [0, beta - 2)
    aut = build_automaton(t)
    td = build_diff_transducer(t, aut, [to_machine(t, delta, t.field.zero)])
    hit, _ = _component_walk(t.field, td)
    assert not hit[td.initials[0]]
    dec = decide_tiling(t, g, pset)
    assert dec.verdict == "tiling" and dec.pairs == ()


def test_component_walk_reaches_downstream(golden):
    # 0 -> {1, 2} (adjacency [[1, 1], [1, 0]], eigenvalue beta) and 0 -> 3 ->
    # 4 (a loop, eigenvalue 1); 5 has no edge; 6 <-> 7 is a 2-cycle (+-1)
    edges = [(0, 1), (1, 1), (1, 2), (2, 1), (0, 3), (3, 4), (4, 4), (6, 7), (7, 6)]
    td = DiffTransducer([None] * 8, [(s, d, 0, 0) for s, d in edges], [0])
    hit, radius = _component_walk(golden, td)
    assert hit == [True, True, True, False, False, False, False, False]
    assert radius[3:] == pytest.approx([1.0, 1.0, 0.0, 1.0, 1.0])


def _decide_per_pair(t, g, aut):
    """Reference decision: one difference machine per (delta, xrep) key, at a
    representative xrep strictly inside the window, each with its own
    component loop, stopping at the first passing component."""
    pairs, _ = qbeta_pairs(t, *difference_pairs(t, g))
    bounds = conj_block_bounds(t)
    beta_f = float(t.field.beta)
    done, overlapping, gaps = {}, [], []
    for delta, i, j in pairs:
        lo = max(g.J[i].lo, g.J[j].lo - delta)
        hi = min(g.J[i].hi, g.J[j].hi - delta)
        xrep = _small_orbit_rep_reference(t, lo, hi, bounds)
        key = (delta.coords, xrep.coords)
        if key not in done:
            td = build_diff_transducer(t, aut, [to_machine(t, delta, xrep)])
            n = len(td.states)
            adj = [[] for _ in range(n)]
            for s, d, _, _ in td.edges:
                adj[s].append(d)
            hit, worst = False, 0.0
            for comp in _sccs(n, adj):
                idx = {v: k for k, v in enumerate(comp)}
                m = [[0] * len(comp) for _ in comp]
                for u in comp:
                    for v in adj[u]:
                        if v in idx:
                            m[idx[u]][idx[v]] += 1
                if not any(map(any, m)):
                    continue
                if beta_is_eigenvalue(t.field, m):
                    hit = True
                    break
                worst = max(worst, max(abs(np.linalg.eigvals(np.array(m, dtype=float)))))
            done[key] = hit
            if not hit:
                gaps.append(beta_f - worst)
        if done[key]:
            overlapping.append((delta, g.vertices[i], g.vertices[j]))
    return ("multiple" if overlapping else "tiling"), overlapping, len(pairs), gaps


def _small_orbit_rep_reference(t, lo, hi, bounds):
    """One representative per call: a fresh lattice box per window and scale,
    the lexicographically first exact hit strictly inside (lo, hi) at the
    first scale 1, 2, 4, ... that has one.  Z[beta] is dense, so some scale
    has one, and a point of Z[beta] lies on every frame, as the starts of the
    difference machine must."""
    f = t.field
    flo = f._span(*_lcm_nums(lo.coords))[0]
    fhi = f._span(*_lcm_nums(hi.coords))[1]
    for scale in (2 ** k for k in range(13)):
        for coords in lattice_candidates(f, flo, fhi, [b * scale for b in bounds]):
            x = f.qb(coords)
            if qb_compare(x, lo) == GT and qb_compare(x, hi) == LT:
                return x
    raise AssertionError(f"no lattice point inside ({lo!r}, {hi!r})")


def _difference_pairs_reference(t, g):
    """difference_pairs without the float gate: every delta of the box with
    0 < delta < diam and every class pair (i, j), kept when the exact window
    max(J_i.lo, J_j.lo - delta) < min(J_i.hi, J_j.hi - delta)."""
    f = t.field
    diam = t.xmax - t.xmin
    triples, windows = [], []
    for coords in _difference_box(t):
        delta = f.qb(coords)
        if qb_compare(delta, f.zero) != GT or qb_compare(delta, diam) != LT:
            continue
        shifted = [(jj.lo - delta, jj.hi - delta) for jj in g.J]
        for i, ji in enumerate(g.J):
            for j, (jlo, jhi) in enumerate(shifted):
                lo, hi = max(ji.lo, jlo), min(ji.hi, jhi)
                if qb_compare(lo, hi) == LT:
                    triples.append((delta, i, j))
                    windows.append((lo, hi))
    return triples, windows


_REFERENCES = {}


# cubic_30m1_greedy (beta ~ 2.88) stops at depth 14: its depth-16 clouds
# hold about 2 * 10^7 points, 2.5 GB and half a minute
@pytest.mark.parametrize("name,depth", [(n, k) for n in RIGHT_CONTINUOUS for k in (12, 14, 16)
                                        if (n, k) != ("cubic_30m1_greedy", 16)])
def test_decision_indexes_match_per_call_references(name, depth):
    # the gated triples and their windows are those of the exact per-triple
    # test over the deltas of the neighbour core, whatever tile clouds the
    # graph holds
    t = config_transform(name)
    vd, g, pset = stage_cache(t)
    held = set(g._cloud_cache)
    clouds_at_depth(g, depth)
    try:
        pairs, windows = qbeta_pairs(t, *difference_pairs(t, g))
    finally:
        for k in set(g._cloud_cache) - held:
            del g._cloud_cache[k]
    ref, ref_windows = _core_references(name)
    assert [(x.coords, i, j) for x, i, j in pairs] == [(x.coords, i, j) for x, i, j in ref]
    assert windows == ref_windows
    assert pairs


def _core_references(name):
    """The reference triples and windows over the neighbour core, once per
    config (the reference takes seconds and reads no depth)."""
    if name not in _REFERENCES:
        t = config_transform(name)
        core = set(_neighbour_core(t))
        ref = [(p, w) for p, w in zip(*_difference_pairs_reference(t, stage_cache(t)[1]))
               if p[0].coords in core]
        _REFERENCES[name] = [p for p, _ in ref], [w for _, w in ref]
    return _REFERENCES[name]


@pytest.mark.parametrize("name", RIGHT_CONTINUOUS)
def test_integer_starts_match_qbeta_reference(name):
    # the machine's integer form: every delta is the reference's coordinates,
    # every window end the reference's numerators over the frame, and the
    # start states hold delta with the alive sets the automaton reads off
    # the QBeta window end lo at lo + delta and at lo
    t = config_transform(name)
    g = stage_cache(t)[1]
    aut = build_automaton(t)
    pairs, windows = difference_pairs(t, g)
    ref, ref_windows = _core_references(name)
    assert [(to_machine(t, d, t.field.zero)[0], i, j) for d, i, j in ref] == pairs
    assert [tuple(to_machine(t, t.field.zero, x)[1] for x in w) for w in ref_windows] == windows
    starts = [(d, lo) for (d, _, _), (lo, _) in zip(pairs, windows)]
    td = build_diff_transducer(t, aut, starts)
    assert [td.states[s] for s in td.initials] == [
        (to_machine(t, d, lo)[0], aut.alive(lo + d), aut.alive(lo))
        for (d, _, _), (lo, _) in zip(ref, ref_windows)]
    assert all(type(c) is int for st in td.states for c in st[0])


@pytest.mark.parametrize("name", ["golden_greedy", "golden_pm1", "tribonacci_symmetric"])
def test_shared_graph_matches_per_pair_machines(name):
    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    t = transform_from_config(json.loads(cfg.read_text()))
    vd, g, pset = stage_cache(t)
    aut = build_automaton(t)
    dec = decide_tiling(t, g, pset, automaton=aut)
    verdict, overlapping, checked, gaps = _decide_per_pair(t, g, aut)
    assert dec.verdict == verdict
    assert list(dec.pairs) == overlapping
    assert dec.candidates_checked == checked
    # the same component under another state numbering gives a float spectral
    # radius that may differ in the last bits
    assert list(dec.spectral_gaps) == pytest.approx(gaps, rel=1e-12)


def test_shared_graph_state_budget(golden_pm1):
    vd, g, pset = stage_cache(golden_pm1)
    with pytest.raises(BudgetExceeded) as err:
        decide_tiling(golden_pm1, g, pset, state_budget=5)
    info = err.value.info
    assert info["states"] == 5 and info["starts"] > 0
    assert info["core"] == len(_neighbour_core(golden_pm1))


def _in_box_reference(t):
    """Per-state escape test of the difference graph that does not use
    ``lattice_candidates``: float powers of the conjugates with a band of
    1e-6 (1 + sum |c|), settled inside the band by exact comparisons with
    diam and by certified conjugate bounds against twice b_j."""
    f = t.field
    d = f.degree
    caps = [2 * b for b in conj_block_bounds(t)]
    diam = t.xmax - t.xmin
    conj_pows = []
    for _, j in f.hblocks:
        disk = f.conj_enclosure(j)
        conj_pows.append([complex(float(disk.re), float(disk.im)) ** k for k in range(d)])
    disk0 = f.conj_enclosure(0)
    b1_pows = [float(disk0.re) ** k for k in range(d)]
    caps_f = [float(c) for c in caps]
    diam_f = float(diam)

    def in_box(co):
        band = 1e-6 * (1 + sum(abs(c) for c in co))
        v1 = abs(sum(c * p for c, p in zip(co, b1_pows)))
        if v1 > diam_f + band:
            return False
        if v1 >= diam_f - band:
            x = f.qb(co)
            if qb_compare(x, diam) == GT or qb_compare(x, -diam) == LT:
                return False
        for blk, (pows, cap, cap_q) in enumerate(zip(conj_pows, caps_f, caps)):
            vj = abs(sum(c * p for c, p in zip(co, pows)))
            if vj > cap + band:
                return False
            if vj >= cap - band and gamma_abs_upper(f.qb(co), f.hblocks[blk][1]) > cap_q:
                return False
        return True

    return in_box


@pytest.mark.parametrize("name", RIGHT_CONTINUOUS)
def test_difference_box_matches_per_state_reference(name):
    # the box is the per-state escape test run over a lattice box half as
    # large again in every direction
    t = config_transform(name)
    f = t.field
    dhi = 1.5 * f._span(*_lcm_nums((t.xmax - t.xmin).coords))[1]
    wide = lattice_candidates(f, -dhi, dhi, [3 * b for b in conj_block_bounds(t)])
    in_box = _in_box_reference(t)
    box = _difference_box(t)
    assert box == [co for co in wide if in_box(co)]
    assert len(box) > 1


@pytest.mark.parametrize("name", RIGHT_CONTINUOUS)
def test_recurrent_states_lie_in_the_certified_box(name):
    # in the whole-box graph, every state that reaches a recurrent component
    # has |x| <= diam and certified conjugates within twice b_j, so states the
    # box keeps beyond that bound cannot change a verdict; and its delta lies
    # in the neighbour core, so the core drops no state that matters
    t = config_transform(name)
    vd, g, pset = stage_cache(t)
    td = _decide_whole_box(t, g, build_automaton(t))[3]
    n = len(td.states)
    adj = [[] for _ in range(n)]
    radj = [[] for _ in range(n)]
    for s, d, _, _ in td.edges:
        adj[s].append(d)
        radj[d].append(s)
    # states of recurrent components (an internal edge), then all that reach one
    live = []
    for comp in map(set, _sccs(n, adj)):
        if any(w in comp for v in comp for w in adj[v]):
            live.extend(comp)
    seen = set(live)
    while live:
        for u in radj[live.pop()]:
            if u not in seen:
                seen.add(u)
                live.append(u)
    assert seen
    f = t.field
    diam = t.xmax - t.xmin
    caps = [2 * b for b in conj_block_bounds(t)]
    core = set(_neighbour_core(t))
    for s in seen:
        x = from_machine(t, td.states[s][0])
        assert qb_compare(abs(x), diam) != GT
        assert all(gamma_abs_upper(x, j) <= cap for (_, j), cap in zip(f.hblocks, caps))
        assert x.coords in core


def _decide_whole_box(t, g, aut):
    """The decision over the whole difference box: every delta of the box
    gives starts, and the fine graph keeps every successor inside the box.
    Returns the verdict, the overlapping pairs, the spectral gaps, the graph
    and the number of starts."""
    box = _difference_box(t)
    pairs, windows = difference_pairs(t, g, box)
    starts = [(delta, lo) for (delta, _, _), (lo, _) in zip(pairs, windows)]
    td = build_diff_transducer(t, aut, starts, core=box)
    hit, radius = _component_walk(t.field, td)
    overlapping = [(from_machine(t, delta), g.vertices[i], g.vertices[j])
                   for (delta, i, j), s in zip(pairs, td.initials) if hit[s]]
    gaps = [float(t.field.beta) - radius[s] for s in td.initials if not hit[s]]
    return ("multiple" if overlapping else "tiling"), overlapping, gaps, td, len(pairs)


@pytest.mark.parametrize("name", RIGHT_CONTINUOUS)
def test_core_decision_matches_whole_box_reference(name):
    # trimming the box to its core keeps the verdict and the overlapping
    # pairs; the starts it drops reach no recurrent component, so the only
    # spectral gaps that go are beta - 0, in the reference's order
    t = config_transform(name)
    vd, g, pset = stage_cache(t)
    aut = build_automaton(t)
    dec = decide_tiling(t, g, pset, automaton=aut)
    verdict, overlapping, gaps, _, starts = _decide_whole_box(t, g, aut)
    assert dec.verdict == verdict
    assert list(dec.pairs) == overlapping
    kept = iter(dec.spectral_gaps)
    want = next(kept, None)
    removed = []
    for gap in gaps:
        if want is not None and gap == pytest.approx(want, rel=1e-12):
            want = next(kept, None)
        else:
            removed.append(gap)
    assert want is None
    assert set(removed) <= {float(t.field.beta)}
    assert len(removed) == starts - dec.candidates_checked


def _neighbour_core_reference(t):
    """The coarse graph in field arithmetic: delta -> (delta + a - a') / beta
    for every digit pair, kept inside the box, trimmed by removing every
    state with no kept successor until nothing changes."""
    f = t.field
    box = _difference_box(t)
    inv = f.one / f.beta
    steps = {(a - b).coords: a - b for a in t.digits for b in t.digits}.values()
    succ = {co: {((f.qb(co) + dd) * inv).coords for dd in steps} for co in box}
    kept = set(box)
    while True:
        trimmed = {co for co in kept if succ[co] & kept}
        if trimmed == kept:
            return [co for co in box if co in kept]
        kept = trimmed


@pytest.mark.parametrize("name", RIGHT_CONTINUOUS + ["tetranacci_symmetric"])
def test_neighbour_core_matches_field_reference(name):
    t = (preset("symmetric", make_field(1, 1, 1, 1)) if name == "tetranacci_symmetric"
         else config_transform(name))
    core = _neighbour_core(t)
    assert core == _neighbour_core_reference(t)
    assert 0 < len(core) and (0,) * t.field.degree in core


def test_degree_four_greedy_decides_tiling():
    # x^4 - x^3 - 1, greedy: its difference box holds 18,625 points and the
    # starts over the whole box overflow the default state budget; those over
    # the neighbour core do not
    t = preset("greedy", make_field(1, 0, 0, 1))
    vd, g, pset = stage_cache(t)
    dec = decide_tiling(t, g, pset)
    assert dec.verdict == "tiling" and dec.pairs == ()


def test_forbidden_words_refuses_a_negative_length(golden_greedy):
    aut = build_automaton(golden_greedy)
    assert forbidden_words(aut, 0) == []
    with pytest.raises(ValidationError, match="maxlen must be nonnegative"):
        forbidden_words(aut, -1)


@pytest.mark.parametrize("entry", ["difference_pairs", "decide_tiling_g", "decide_tiling_automaton"])
def test_inputs_of_another_transform_are_refused(entry, golden_greedy, golden_symmetric,
                                                 tribonacci_symmetric):
    _, g_greedy, _ = stage_cache(golden_greedy)
    _, g_symmetric, _ = stage_cache(golden_symmetric)
    call = {"difference_pairs": lambda: difference_pairs(tribonacci_symmetric, g_greedy),
            "decide_tiling_g": lambda: decide_tiling(golden_greedy, g_symmetric, None),
            "decide_tiling_automaton": lambda: decide_tiling(
                golden_greedy, g_greedy, None, automaton=build_automaton(golden_symmetric))}
    with pytest.raises(ValidationError, match="built for another transform"):
        call[entry]()


@pytest.mark.parametrize("word", [[-1], [-1, -1], [7], [0, 5]],
                         ids=["negative", "negative_pair", "past_end", "second"])
def test_automaton_runs_refuse_a_bad_letter(golden_greedy, word):
    aut = build_automaton(golden_greedy)
    with pytest.raises(UnknownDigit):
        aut.run(word)
    with pytest.raises(UnknownDigit):
        aut.is_factor(word)


@pytest.mark.parametrize("start", [-1, 2, 9, 2.5, True, "0"],
                         ids=["negative", "past_end", "far_past_end", "float", "bool", "str"])
def test_automaton_run_refuses_a_start_that_is_no_state(golden_greedy, start):
    # golden greedy has two states: -1 must not wrap to the last one, nor 9
    # raise IndexError or 2.5 a bare TypeError
    aut = build_automaton(golden_greedy)
    assert aut.n_states == 2
    with pytest.raises(ValidationError, match="start .* is no state index below 2"):
        aut.run([0], start=start)
    with pytest.raises(ValidationError, match="start .* is no state index below 2"):
        aut.run([], start=start)
    assert aut.run([0], start=np.int64(1)) == aut.delta[1][0]
    assert aut.run([], start=0) == 0 and aut.run([0], start=None) == aut.run([0])


@pytest.mark.parametrize("x", [0.5, 1], ids=["float", "int"])
def test_alive_refuses_a_non_point(golden_greedy, x):
    with pytest.raises(TypeError, match="x must be a QBeta"):
        build_automaton(golden_greedy).alive(x)
