"""Symbolic layer: the admissible-word automaton and the exact tiling test.

The factors of the expansion shift are recognized by a deterministic
automaton whose states are cylinder images: after a word w the state is
T^|w| of the cylinder [w], the points whose expansion starts with w, a
finite union of half-open intervals (the follower-set presentation of a
sofic shift).  A digit intersects the state with its pieces, then maps the
parts by x -> beta*x - a; an empty image is the dead state.

The tiling decision runs one two-tape difference graph per decision, shared
by every candidate tile pair: states carry the exact value difference of the
two remaining rays, a point of one finite difference box that also supplies
the candidate differences, plus the alive-state sets of both tapes;
transitions prepend one digit per tape and divide the difference by beta.  A
state and its out-edges do not depend on which candidate reached it, so each
candidate is one start state of the graph.  A pair of tiles overlaps on
positive measure exactly when its start reaches a recurrent component whose
adjacency matrix has beta as an eigenvalue, which is tested exactly over the
integers, once per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .betamap import IntervalQB, _intersect, _merge_union, endpoint_words, expand
from .errors import BudgetExceeded, DigitsNotIntegral, ValidationError
from .numfield import (GT, LT, _beta_eigenvector, _float_span,
                       _minpoly_at_matrix, qb_compare, simple_rational_in)
from .tiling import conj_block_bounds, lattice_candidates, _require_integral_digits
# unused here: perfbench/workloads.py PATCHES still wraps sofic.clouds_at_depth
from .tiling import clouds_at_depth  # noqa: F401


# ---------------------------------------------------------------------------
# soficity

@dataclass(frozen=True)
class SoficityReport:
    sofic: bool
    endpoint_expansions: tuple   # ((digit_idx, piece_idx, lower, upper), ...)


def soficity_check(t):
    """Eventual periodicity of every endpoint expansion (always certified for
    field-element endpoints, by exact orbit closure)."""
    rows = []
    words = endpoint_words(t)
    for a, per_piece in enumerate(words):
        for i, (low, up) in enumerate(per_piece):
            rows.append((a, i, low, up))
    return SoficityReport(True, tuple(rows))


# ---------------------------------------------------------------------------
# the follower automaton

class ShiftAutomaton:
    """Deterministic automaton for the factors of the closed expansion shift.

    All live states are accepting; a word is a factor exactly when it labels a
    live path from the initial state.
    """

    def __init__(self, transform, states, delta, initial):
        self.transform = transform
        self.n_states = states
        self.delta = delta           # list of tuples, one per state; None = dead
        self.initial = initial
        self.alphabet = len(transform.digits)
        self._ray_cache = {}
        self._pred_cache = {}

    # -- runs ---------------------------------------------------------------

    def run(self, word, start=None):
        """Final state after the finite index word, or None if it dies."""
        s = self.initial if start is None else start
        for a in word:
            if s is None:
                return None
            s = self.delta[s][a]
        return s

    def is_factor(self, word):
        return self.run(word) is not None

    def accepts_ray(self, word):
        """Whether the eventually periodic ray stays alive from the start."""
        return self.initial in self.ray_alive_states(word)

    def ray_alive_states(self, word):
        """All states from which the infinite ray survives (memoized).

        For the ray of a point x that is x in the closure of the state's
        intervals, so x in the state when x is off their ends; every end lies
        in V, so callers pass rays of points off V."""
        key = (word.preperiod, word.period)
        if key in self._ray_cache:
            return self._ray_cache[key]
        cur = list(range(self.n_states))
        for a in word.preperiod:
            cur = [None if s is None else self.delta[s][a] for s in cur]
        if not word.period:
            out = frozenset(i for i, s in enumerate(cur) if s is not None)
            self._ray_cache[key] = out
            return out
        seen = set()
        state = tuple(cur)
        while state not in seen:
            seen.add(state)
            for a in word.period:
                cur = [None if s is None else self.delta[s][a] for s in cur]
            state = tuple(cur)
        # survivors of the closed cycle are alive forever
        out = frozenset(i for i, s in enumerate(state) if s is not None)
        self._ray_cache[key] = out
        return out

    def predecessor_set(self, alive, a):
        """States s with delta(s, a) inside the given alive set (memoized)."""
        key = (alive, a)
        if key not in self._pred_cache:
            self._pred_cache[key] = frozenset(
                s for s in range(self.n_states)
                if self.delta[s][a] is not None and self.delta[s][a] in alive)
        return self._pred_cache[key]

    # -- exports --------------------------------------------------------------

    def to_json(self):
        return {
            "states": self.n_states,
            "initial": self.initial,
            "transitions": [[(-1 if s is None else s) for s in row] for row in self.delta],
        }

    def to_dot(self):
        lines = ["digraph shift {", "  rankdir=LR;"]
        for i in range(self.n_states):
            shape = "doublecircle" if i == self.initial else "circle"
            lines.append(f'  q{i} [shape={shape}];')
        for i, row in enumerate(self.delta):
            for a, s in enumerate(row):
                if s is not None:
                    label = str(float(self.transform.digits[a]))
                    lines.append(f'  q{i} -> q{s} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"ShiftAutomaton({self.n_states} states, {self.alphabet} letters)"


def build_automaton(t, state_budget=200000):
    """Deterministic factor automaton: states are the cylinder images T^n[w].

    The initial state is the domain; digit a sends a state S to the merged
    union of beta*(S & p) - a over a's pieces p, and an empty image is the
    dead state.  States are keyed by their exact interval ends and explored
    last in, first out, at most ``state_budget`` of them.  A word is a factor
    exactly when its image is nonempty, because the map is onto and so every
    factor is a prefix.

    The automaton is minimal as built.  Two distinct states S != S' differ
    on a half-open interval, so some x lies inside one and at distance r > 0
    from the other.  On the cylinder [u] of a prefix u of x's expansion, T^n
    (n = |u|) is affine with slope beta^n, and T^n[u] lies in the domain, so
    [u] lies within diam/beta^n of x.  For n with diam/beta^n < r, u is read
    from S (it is in x's follower set) and dies from S' (no point of S' is
    in [u]).

    Needs the right-continuous orientation; any piece layout will do, also
    one whose digits' pieces interleave, since no order of the digits is
    used.
    """
    if t.side != "right":
        raise ValidationError("automaton construction expects the right-continuous map")
    beta = t.field.beta
    initial = tuple(t.components)
    index = {initial: 0}
    delta = [None]
    queue = [initial]
    while queue:
        state = queue.pop()
        row = []
        for a, dg in enumerate(t.digits):
            image = tuple(_merge_union(
                [IntervalQB(got.lo * beta - dg, got.hi * beta - dg)
                 for iv in state for p in t.parts[a]
                 if (got := _intersect(iv, p)) is not None]))
            if not image:
                row.append(None)
                continue
            if image not in index:
                if len(index) >= state_budget:
                    raise BudgetExceeded("automaton construction exceeded the state budget",
                                         states=len(index))
                index[image] = len(delta)
                delta.append(None)
                queue.append(image)
            row.append(index[image])
        delta[index[state]] = tuple(row)
    return ShiftAutomaton(t, len(delta), delta, 0)


def forbidden_words(aut, maxlen=6):
    """Minimal forbidden words up to the given length, as digit-index tuples.

    A word is minimal forbidden when it is not a factor but both its maximal
    proper factors are.
    """
    out = []
    frontier = [((), aut.initial)]
    for _ in range(maxlen):
        nxt = []
        for word, s in frontier:
            for a in range(aut.alphabet):
                to = aut.delta[s][a]
                cand = word + (a,)
                if to is None:
                    if aut.is_factor(cand[1:]):
                        out.append(cand)
                else:
                    nxt.append((cand, to))
        frontier = nxt
    return sorted(out)


# ---------------------------------------------------------------------------
# candidate differences between tile translates

def _span_sub(a, b):
    """Float interval a - b of two float intervals (ends stacked on the first
    axis), rounded outwards."""
    return np.array([np.nextafter(a[0] - b[1], -np.inf), np.nextafter(a[1] - b[0], np.inf)])


def _difference_box(t):
    """Integer tuples x, in lexicographic order, with |x| <= diam and every
    conjugate block within 2 b_j (b_j from ``conj_block_bounds``): the deltas
    of :func:`difference_pairs` and the states of the difference graph.

    |x| <= diam is decided exactly, by the certified float span unless it
    meets -diam or diam, else by ``qb_compare``.  The conjugate test is the
    float superset of ``lattice_candidates``.  That is safe: a state on an
    infinite path has Gamma_j(x) = -sum_k beta_j^k Gamma_j(dd_k) for the digit
    differences dd_k along it, so |Gamma_j(x)| <= 2 b_j, and a state beyond
    that bound reaches no recurrent component.
    """
    f = t.field
    diam = t.xmax - t.xmin
    dlo, dhi = _float_span(f, diam.coords)
    out = []
    for coords in lattice_candidates(f, -dhi, dhi, [2 * b for b in conj_block_bounds(t)]):
        lo, hi = _float_span(f, coords)
        if (-dlo <= lo and hi <= dlo) or (lo <= dhi and hi >= -dhi and
                                          qb_compare(abs(f.qb(coords)), diam) != GT):
            out.append(coords)
    return out


def difference_pairs(t, g):
    """Triples (delta, i, j) of candidate overlapping tile classes, and the
    window (lo, hi) of each: lo = max(J_i.lo, J_j.lo - delta) and
    hi = min(J_i.hi, J_j.hi - delta).

    delta runs over the points of the difference box (:func:`_difference_box`)
    with 0 < delta < diam; (i, j) over the interval classes whose translates
    meet, i.e. lo < hi.  Nothing geometric is screened here: the shared
    difference graph decides every start exactly, because a start has an
    infinite path only when its two tiles meet (the deltas of such starts are
    the neighbour set of Siegel and Thuswaldner, Topological properties of
    Rauzy fractals, 2009).

    The gate holds delta and the interval ends as certified float spans and
    runs an exact comparison only when the span of a window's length
    straddles zero; the exact window is built once per triple that passes.
    """
    _require_integral_digits(t)
    f = t.field
    diam = t.xmax - t.xmin
    deltas = [x for x in map(f.qb, _difference_box(t))
              if qb_compare(x, f.zero) == GT and qb_compare(x, diam) == LT]
    if not deltas:
        return [], []
    jlo = np.array([_float_span(f, iv.lo.coords) for iv in g.J]).T
    jhi = np.array([_float_span(f, iv.hi.coords) for iv in g.J]).T
    ds = np.array([_float_span(f, x.coords) for x in deltas]).T[:, :, None]
    lo = np.maximum(jlo[:, None, :, None], _span_sub(jlo[:, None, :], ds)[:, :, None, :])
    hi = np.minimum(jhi[:, None, :, None], _span_sub(jhi[:, None, :], ds)[:, :, None, :])
    gap = _span_sub(hi, lo)
    triples, windows = [], []
    for c, i, j in zip(*np.nonzero(gap[1] > 0)):
        delta = deltas[c]
        window = (max(g.J[i].lo, g.J[j].lo - delta), min(g.J[i].hi, g.J[j].hi - delta))
        if gap[0][c, i, j] <= 0 and qb_compare(*window) != LT:
            continue
        triples.append((delta, int(i), int(j)))
        windows.append(window)
    return triples, windows


def difference_candidates(t, g):
    """Zero, which is always a candidate difference, then the distinct deltas
    of the :func:`difference_pairs` triples in increasing order."""
    pairs, _ = difference_pairs(t, g)
    seen = {delta.coords: delta for delta, _, _ in pairs}
    return [t.field.zero] + sorted(seen.values())


# ---------------------------------------------------------------------------
# the difference machine

@dataclass
class DiffTransducer:
    """Two-tape difference graph shared by a set of candidate tile pairs."""
    states: list        # (diff QBeta, in_alive, out_alive)
    edges: list         # (src, dst, a_in, a_out)
    initials: list      # state index of each start, in the order given


def build_diff_transducer(t, aut, starts, state_budget=60000):
    """Reachable good part of the difference graph from every start.

    Each start is a candidate (delta0, in_ray, out_ray).  States combine the
    exact remaining-value difference with alive-state sets for both tapes; a
    state is good when both current rays are admissible from scratch.  A state
    and its out-edges do not depend on the start that reached it, so all
    starts share one graph, bounded by ``state_budget`` states.  Successors
    outside :func:`_difference_box` escape forever and are dropped.
    Differences stay in Z[beta], so the core runs on integer coordinate
    tuples.
    """
    f = t.field
    d = f.degree
    box = set(_difference_box(t))
    q0 = aut.initial
    minv = f.inv_beta_mat
    digit_co = [tuple(int(c) for c in dg.coords) for dg in t.digits]
    na = len(t.digits)
    ddiff = {(a, b): tuple(digit_co[a][k] - digit_co[b][k] for k in range(d))
             for a in range(na) for b in range(na)}

    index = {}
    states = []
    queue = []

    def intern(key):
        if key not in index:
            if len(states) >= state_budget:
                raise BudgetExceeded("difference graph exceeded the state budget",
                                     states=len(states), starts=len(starts))
            index[key] = len(states)
            states.append(key)
            queue.append(index[key])
        return index[key]

    initials = []
    for delta0, in_ray, out_ray in starts:
        p_in = aut.ray_alive_states(in_ray)
        p_out = aut.ray_alive_states(out_ray)
        if q0 not in p_in or q0 not in p_out:
            raise ValidationError("candidate rays are not admissible")
        if not delta0.is_integral():
            raise DigitsNotIntegral("difference must lie in Z[beta]")
        initials.append(intern((tuple(int(c) for c in delta0.coords), p_in, p_out)))
    pre = aut.predecessor_set
    edges = []
    rng = range(d)
    while queue:
        si = queue.pop()
        diff, pin, pout = states[si]
        for a_in in range(na):
            npin = pre(pin, a_in)
            if q0 not in npin:
                continue
            for a_out in range(na):
                npout = pre(pout, a_out)
                if q0 not in npout:
                    continue
                dd = ddiff[(a_in, a_out)]
                s = tuple(diff[k] + dd[k] for k in rng)
                nd = tuple(sum(minv[i][k] * s[k] for k in rng) for i in rng)
                if nd not in box:
                    continue
                edges.append((si, intern((nd, npin, npout)), a_in, a_out))
    qb_states = [(f.qb(co), pin, pout) for co, pin, pout in states]
    return DiffTransducer(qb_states, edges, initials)


# ---------------------------------------------------------------------------
# exact eigenvalue-beta test

def beta_is_eigenvalue(field, m):
    """Exact test: beta is an eigenvalue of the integer matrix m, i.e. q(M)
    is singular for the minimal polynomial q (numfield._beta_eigenvector)."""
    return _beta_eigenvector(field, m) is not None


def _sccs(n, adj):
    """Tarjan's strongly connected components (iterative)."""
    low = [0] * n
    num = [-1] * n
    on = [False] * n
    stack = []
    out = []
    counter = [0]
    for root in range(n):
        if num[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                num[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if num[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                elif on[w]:
                    low[v] = min(low[v], num[w])
            if recurse:
                continue
            if low[v] == num[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return out


def _component_walk(field, td):
    """Per state: whether it reaches a recurrent component with beta as an
    eigenvalue of its adjacency matrix, else the largest spectral radius it
    reaches (0.0 for none).  Tarjan emits every component after all those it
    reaches, so one pass tests each recurrent component at most once."""
    n = len(td.states)
    adj = [[] for _ in range(n)]
    for s, d, _, _ in td.edges:
        adj[s].append(d)
    comp_of = [0] * n
    hit, radius = [], []
    for c, comp in enumerate(_sccs(n, adj)):
        idx = {v: k for k, v in enumerate(comp)}
        m = [[0] * len(comp) for _ in comp]
        succ = set()
        for u in comp:
            comp_of[u] = c
            for v in adj[u]:
                if v in idx:
                    m[idx[u]][idx[v]] += 1
                else:
                    succ.add(comp_of[v])
        h = any(hit[s] for s in succ)
        r = max((radius[s] for s in succ), default=0.0)
        if not h and any(map(any, m)):       # recurrent: has an internal edge
            h = beta_is_eigenvalue(field, m)
            if not h:
                r = max(r, max(abs(np.linalg.eigvals(np.array(m, dtype=float)))))
        hit.append(h)
        radius.append(r)
    return [hit[c] for c in comp_of], [radius[c] for c in comp_of]


@dataclass(frozen=True)
class TilingDecision:
    verdict: str           # 'tiling' or 'multiple'
    pairs: tuple           # (delta, vx, vy) for overlapping pairs
    candidates_checked: int
    spectral_gaps: tuple   # per non-overlapping start: beta - reachable spectral radius


def decide_tiling(t, g, pset, depth=10, state_budget=60000, automaton=None):
    """Exact verdict: tiling, or a list of positive-measure overlapping pairs.

    Every triple of :func:`difference_pairs` gives one start of a single
    shared two-tape difference graph.  Its components are walked sinks first,
    so each recurrent one is tested once: a component is hit when a successor
    is, or when beta is an eigenvalue of its adjacency matrix.  A pair
    overlaps exactly when the component of its start is hit.  No tile cloud
    is read, so the verdict does not depend on a depth; ``pset`` and
    ``depth`` are unused and kept only for callers that still pass them.
    """
    _require_integral_digits(t)
    f = t.field
    aut = automaton if automaton is not None else build_automaton(t)
    pairs, windows = difference_pairs(t, g)
    ray_cache = {}

    def ray(x):
        if x.coords not in ray_cache:
            ray_cache[x.coords] = expand(t, x)
        return ray_cache[x.coords]

    # any representative of the class pair gives the same tiles; a lattice
    # point with small conjugates keeps the endpoint orbits short
    reps = _small_orbit_reps(t, windows)
    start_of = {}        # (delta, xrep) coordinates -> start index
    starts = []
    pair_starts = []
    for (delta, _, _), xrep in zip(pairs, reps):
        key = (delta.coords, xrep.coords)
        if key not in start_of:
            start_of[key] = len(starts)
            starts.append((delta, ray(xrep + delta), ray(xrep)))
        pair_starts.append(start_of[key])
    td = build_diff_transducer(t, aut, starts, state_budget=state_budget)
    hit, radius = _component_walk(f, td)
    overlapping = tuple((delta, g.vertices[i], g.vertices[j])
                        for (delta, i, j), k in zip(pairs, pair_starts)
                        if hit[td.initials[k]])
    beta_f = float(f.beta)
    gaps = tuple(beta_f - radius[s] for s in td.initials if not hit[s])
    verdict = "multiple" if overlapping else "tiling"
    return TilingDecision(verdict, overlapping, len(pairs), gaps)


def _small_orbit_reps(t, windows):
    """Per window (lo, hi), a field element x with lo < x < hi and a short
    forward orbit: the lexicographically first lattice point with conjugates
    within the certified bounds times 1, 2 or 4 (the first scale with one),
    else the simplest rational.  Each scale's box is enumerated once, over
    the float span of all windows; a window's candidates are the rows whose
    float real embedding lies in the certified span from its lo to its hi,
    widened as in ``lattice_candidates``.

    x stays off the window's ends, which are V points or V points shifted by
    delta, so the rays of x and x + delta are alive exactly in the states
    that contain them (:meth:`ShiftAutomaton.ray_alive_states`)."""
    f = t.field
    spans = [(_float_span(f, lo.coords)[0], _float_span(f, hi.coords)[1]) for lo, hi in windows]
    if not spans:
        return []
    glo, ghi = min(s[0] for s in spans), max(s[1] for s in spans)
    bounds = conj_block_bounds(t)
    b0 = f.vand[0].real
    boxes = {}

    def box(scale):
        if scale not in boxes:
            rows = np.array(lattice_candidates(f, glo, ghi, [b * scale for b in bounds]),
                            dtype=np.int64).reshape(-1, f.degree)
            boxes[scale] = rows, rows.astype(float) @ b0
        return boxes[scale]

    def rep(lo, hi, flo, fhi):
        for scale in (1, 2, 4):
            rows, vals = box(scale)
            for coords in rows[(vals >= flo - 1e-9) & (vals <= fhi + 1e-9)].tolist():
                x = f.qb(coords)
                if qb_compare(x, lo) == GT and qb_compare(x, hi) == LT:
                    return x
        return simple_rational_in(lo, hi)

    return [rep(lo, hi, *span) for (lo, hi), span in zip(windows, spans)]
