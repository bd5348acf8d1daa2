"""Symbolic layer: the admissible-word automaton and the exact tiling test.

The factors of the expansion shift are recognized by a deterministic
automaton whose states are cylinder images: after a word w the state is
T^|w| of the cylinder [w], the points whose expansion starts with w, a
finite union of half-open intervals (the follower-set presentation of a
sofic shift).  A digit intersects the state with its pieces, then maps the
parts by x -> beta*x - a; an empty image is the dead state.  The states
containing a point x, its alive set, are read by exact interval membership:
the state ends form one end table (:class:`numfield._EndTable`), as the
pieces of the map and its J intervals do, and a lookup is one bisection on
certified float spans, on integers where two spans overlap.  |x| <= diam
for the difference box is decided the same way.

The tiling decision works in two stages.  The coarse difference graph has
the points of one finite difference box as states and an edge
delta -> (delta + a - a') / beta per digit pair; its neighbour core, the
states with an infinite path, is found once by a few integer passes.  The
fine two-tape difference graph, shared by every candidate tile pair, has
states that carry the exact value difference of the two remaining rays, a
point of the core, plus the alive sets of both tapes; transitions prepend
one digit per tape and divide the difference by beta.  A fine path projects
onto a coarse path, so a difference outside the core has no infinite path:
the core supplies the candidate differences and bounds the fine graph.  A
state and its out-edges do not depend on which candidate reached it, so each
candidate is one start state of the graph, taken at the left end of its
window.  A pair of tiles overlaps on positive measure exactly when its start
reaches a recurrent component whose adjacency matrix has beta as an
eigenvalue, which is tested exactly over the integers, once per component.

Both layers run on integers read off end tables: the automaton's pieces
and initial state off the cells of the pieces table, the windows off those
of the J table.  A difference is its integer coordinates, a window end or
start point its numerators over the frame ``_q``.  Only the overlapping
pairs that :func:`decide_tiling` publishes become ``QBeta``s.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .betamap import _cut, _require_letters, _require_own
from .errors import BudgetExceeded, DigitsNotIntegral, ValidationError
from .numfield import (GT, LT, _beta_eigenvector, _EndTable, _num_cmp, _num_sign,
                       _span_compare)
from .tiling import (cell_frame, cell_keys, conj_block_bounds, lattice_candidates,
                     _require_integral_digits)
# unused here: perfbench/workloads.py PATCHES still wraps sofic.clouds_at_depth
# and sofic.expand
from .betamap import expand  # noqa: F401
from .tiling import clouds_at_depth  # noqa: F401


# ---------------------------------------------------------------------------
# the follower automaton

class ShiftAutomaton:
    """Deterministic automaton for the factors of the closed expansion shift.

    All live states are accepting; a word is a factor exactly when it labels a
    live path from the initial state.  ``images`` gives each state's interval
    union as (lo, hi) pairs of integer numerators over the transform's frame
    ``_q`` (none for an automaton given by its transitions alone).  They form
    one :class:`numfield._EndTable`: the state ends cut the line into cells
    on which membership in every state is constant, each labelled by its set
    of states, so :meth:`alive` is one bisection.
    """

    def __init__(self, transform, states, delta, initial, images):
        self.transform = transform
        self.n_states = states
        self.delta = delta           # list of tuples, one per state; None = dead
        self.initial = initial
        self.alphabet = len(transform.digits)
        self._table = _EndTable(transform.field, transform._q,
                                [(lo, hi, s) for s, img in enumerate(images) for lo, hi in img])
        self._pred_cache = {}

    # -- runs ---------------------------------------------------------------

    def run(self, word, start=None):
        """Final state after the finite index word, or None if it dies; a
        letter that is no digit index raises UnknownDigit, and a ``start``
        that is neither None nor a state index (an integer, not a bool,
        below ``n_states``) ValidationError."""
        _require_letters(self.alphabet, word)
        if start is not None and (isinstance(start, bool) or not isinstance(start, numbers.Integral)
                                  or not 0 <= start < self.n_states):
            raise ValidationError(f"start {start!r} is no state index below {self.n_states}")
        s = self.initial if start is None else start
        for a in word:
            if s is None:
                return None
            s = self.delta[s][a]
        return s

    def is_factor(self, word):
        return self.run(word) is not None

    def alive(self, x):
        """The states whose half-open intervals contain the point x.  This is
        the set :meth:`predecessor_set` steps back: x lies in S and in a piece
        of digit a exactly when beta*x - a lies in delta(S, a).  Raises
        FieldMismatch when x is not an element of the transform's field."""
        return self._table.of(x)

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
    dead state.  State ends stay in the transform's numerator frame ``_q``
    (the piece ends are in it, and beta*x - a keeps it), so a state is keyed
    by integer numerator tuples and an image end is one integer step.  Ends
    are compared on their certified float spans, and by
    :func:`numfield._num_sign` only where two spans overlap.  The keys also
    give the automaton its alive sets.  States are explored last in, first
    out, at most ``state_budget`` of them.  A word is a factor exactly when
    its image is nonempty, because the map is onto and so every factor is a
    prefix.

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
    f, q, qd = t.field, t._q, t._qd
    step, parts, cmp, ends = f._step, t._parts, _num_cmp(f, q), t._table.ends
    # the domain's hull cut by the pieces: the components, merged where they touch
    initial = tuple(_cut(cmp, [(ends[0], ends[-1])], [c[:2] for c in t._table.cells()]))
    index = {initial: 0}
    delta = [None]
    queue = [initial]
    while queue:
        state = queue.pop()
        out = []
        for a, pp in enumerate(parts):
            # the cut of the state by a's pieces is in order and merged where
            # it touches, and so is its image under the increasing branch
            image = tuple((step(x, qd[a]), step(y, qd[a]))
                          for x, y in _cut(cmp, state, pp))
            if not image:
                out.append(None)
                continue
            if image not in index:
                if len(index) >= state_budget:
                    raise BudgetExceeded("automaton construction exceeded the state budget",
                                         states=len(index))
                index[image] = len(delta)
                delta.append(None)
                queue.append(image)
            out.append(index[image])
        delta[index[state]] = tuple(out)
    return ShiftAutomaton(t, len(delta), delta, 0, list(index))


def forbidden_words(aut, maxlen=6):
    """Minimal forbidden words up to the given length, as digit-index tuples.

    A word is minimal forbidden when it is not a factor but both its maximal
    proper factors are.  A negative ``maxlen`` raises ValidationError rather
    than reading as a search that found no word.
    """
    if maxlen < 0:
        raise ValidationError(f"maxlen must be nonnegative, got {maxlen}")
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
    conjugate block within 2 b_j (b_j from ``conj_block_bounds``): the states
    of the coarse difference graph that :func:`_neighbour_core` trims.

    |x| <= diam is decided exactly on integer numerators over the transform's
    frame: by the certified float spans of x and of -diam and diam, and by
    :func:`numfield._num_sign` where they overlap.  The conjugate test is the
    float superset of ``lattice_candidates``.  That is safe: a state on an
    infinite path has Gamma_j(x) = -sum_k beta_j^k Gamma_j(dd_k) for the digit
    differences dd_k along it, so |Gamma_j(x)| <= 2 b_j, and a state beyond
    that bound reaches no recurrent component.
    """
    f, q = t.field, t._q
    diam = tuple(map(operator.sub, t._table.ends[-1], t._table.ends[0]))   # xmax - xmin
    dlo, dhi = f._span(diam, q)
    neg = tuple(-c for c in diam)
    out = []
    for coords in lattice_candidates(f, -dhi, dhi, [2 * b for b in conj_block_bounds(t)]):
        sx = f._span(coords, 1)
        if (_span_compare(f, diam, coords, q, (dlo, dhi), sx, q) != LT
                and _span_compare(f, neg, coords, q, (-dhi, -dlo), sx, q) != GT):
            out.append(coords)
    return out


def _digit_differences(t):
    """a - a' as integer coordinate tuples, keyed by the digit indices (a, a'),
    from the digits' numerators ``_qd`` over the frame ``_q``; the digits must
    lie in Z[beta]."""
    _require_integral_digits(t)
    q, qd = t._q, t._qd
    return {(a, b): tuple((x - y) // q for x, y in zip(ca, cb))
            for a, ca in enumerate(qd) for b, cb in enumerate(qd)}


def _neighbour_core(t):
    """The neighbour core: the points of :func:`_difference_box`, in its
    order, that have an infinite path in the coarse difference graph.

    The coarse graph's states are the box points; its edges are
    delta -> (delta + a - a') / beta for every pair of digits (a, a'), kept
    when the target lies in the box.  It carries no intervals and no alive
    sets, so it is a projection of the fine graph of
    :func:`build_diff_transducer`: a fine path projects onto a coarse path,
    and a start whose delta is outside the core has no infinite path.  The
    core is the neighbour set of Siegel and Thuswaldner (Topological
    properties of Rauzy fractals, 2009).

    Box points are keyed by :func:`tiling.cell_keys` over the box's frame,
    which keeps the lexicographic order, so each target inside the frame is
    one binary search.  States with no edge to a kept state are removed in
    one backward pass over predecessor lists, with a count of live
    successors per state.
    """
    f = t.field
    box = _difference_box(t)
    cols = tuple(np.array(box, dtype=np.int64).T)
    frame = cell_frame(cols)
    keys = cell_keys(cols, frame)
    src, dst = [], []
    for dd in set(_digit_differences(t).values()):
        nd = f._div(cols, dd)
        key = cell_keys(nd, frame)
        pos = np.minimum(np.searchsorted(keys, key), len(box) - 1)
        inside = np.logical_and.reduce([(c >= lo) & (c - lo < n)
                                        for c, lo, n in zip(nd, *frame)])
        (inside,) = np.nonzero(inside & (keys[pos] == key))
        src.extend(inside.tolist())
        dst.extend(pos[inside].tolist())
    live = [0] * len(box)
    pred = [[] for _ in box]
    for u, v in zip(src, dst):
        live[u] += 1
        pred[v].append(u)
    dead = [v for v, c in enumerate(live) if c == 0]
    for v in dead:                  # grows while it is read
        for u in pred[v]:
            live[u] -= 1
            if live[u] == 0:
                dead.append(u)
    return [co for co, c in zip(box, live) if c]


def difference_pairs(t, g, core=None):
    """Triples (delta, i, j) of candidate overlapping tile classes, and the
    window (lo, hi) of each: lo = max(J_i.lo, J_j.lo - delta) and
    hi = min(J_i.hi, J_j.hi - delta).  delta is a tuple of integer
    coordinates, lo and hi are tuples of integer numerators over the
    transform's frame ``_q``: the start form of :func:`build_diff_transducer`.

    delta runs over the positive points of the neighbour core
    (:func:`_neighbour_core`, computed when ``core`` is not given); (i, j)
    over the interval classes whose translates meet, i.e. lo < hi, which no
    delta >= diam allows.  A delta outside the core has no infinite path, so
    its pairs cannot overlap.  Nothing geometric is screened here: the shared
    difference graph decides every start exactly.

    delta, the interval ends and their differences are also held as
    certified float spans.  The spans decide each window end and whether a
    window is empty; only where two spans overlap does
    :func:`numfield._span_compare` fall back to :func:`numfield._num_sign`.
    A ``g`` of another transform raises ValidationError.
    """
    _require_integral_digits(t)
    _require_own(t, g, "g")
    f, q = t.field, t._q
    core = _neighbour_core(t) if core is None else core
    keep = [(co, f._span(co, 1)) for co in core if _num_sign(f, co) == GT]
    if not keep:
        return [], []
    jl, jh, _ = zip(*g.table.cells())
    jlo = np.array([f._span(x, q) for x in jl]).T
    jhi = np.array([f._span(x, q) for x in jh]).T
    ds = np.array([sx for _, sx in keep]).T[:, :, None]
    blo, bhi = _span_sub(jlo[:, None, :], ds), _span_sub(jhi[:, None, :], ds)
    lo = np.maximum(jlo[:, None, :, None], blo[:, :, None, :])
    hi = np.minimum(jhi[:, None, :, None], bhi[:, :, None, :])
    gap = _span_sub(hi, lo)
    jlo, jhi, blo, bhi = (np.moveaxis(a, 0, -1).tolist() for a in (jlo, jhi, blo, bhi))
    triples, windows = [], []
    for c, i, j in np.argwhere(gap[1] > 0).tolist():
        delta = keep[c][0]
        # each window end as (numerators, span): lo = max(J_i.lo, J_j.lo - delta)
        # and hi = min(J_i.hi, J_j.hi - delta)
        lo, hi = (jl[i], jlo[i]), (jh[i], jhi[i])
        b = tuple(u - q * v for u, v in zip(jl[j], delta))
        if _span_compare(f, lo[0], b, q, lo[1], blo[c][j]) == LT:
            lo = (b, blo[c][j])
        b = tuple(u - q * v for u, v in zip(jh[j], delta))
        if _span_compare(f, hi[0], b, q, hi[1], bhi[c][j]) == GT:
            hi = (b, bhi[c][j])
        if gap[0][c, i, j] <= 0 and _span_compare(f, lo[0], hi[0], q, lo[1], hi[1]) != LT:
            continue
        triples.append((delta, i, j))
        windows.append((lo[0], hi[0]))
    return triples, windows


# ---------------------------------------------------------------------------
# the difference machine

@dataclass
class DiffTransducer:
    """Two-tape difference graph shared by a set of candidate tile pairs."""
    states: list        # (diff as integer coordinates, in_alive, out_alive)
    edges: list         # (src, dst, a_in, a_out)
    initials: list      # state index of each start, in the order given


def build_diff_transducer(t, aut, starts, state_budget=60000, core=None):
    """Reachable good part of the difference graph from every start.

    Each start is a candidate (delta0, x) in the form of
    :func:`difference_pairs`: delta0 a tuple of integer coordinates, x a
    tuple of integer numerators over the transform's frame ``_q``, a point
    of the domain whose translate x + delta0 lies in the domain too.  States
    combine the exact remaining-value difference, integer coordinates, with
    the alive sets of both tapes, looked up in the automaton's end table at
    x + delta0 and at x (memoized by point); a state is good when both sets
    hold the initial state.  A state and its out-edges do not depend on the
    start that reached it, so all starts share one graph, bounded by
    ``state_budget`` states.  Successors outside the neighbour core
    (:func:`_neighbour_core`, computed when ``core`` is not given) are
    dropped: a fine path projects onto a coarse path, so they have no
    infinite path.  A successor is diff/beta plus (a - a')/beta, the first
    formed once per state and the second once per digit pair.
    """
    f, q = t.field, t._q
    core = set(_neighbour_core(t) if core is None else core)
    q0 = aut.initial
    div, zero = f._div, (0,) * f.degree
    na = len(t.digits)
    ddiv = {key: div(dd, zero) for key, dd in _digit_differences(t).items()}

    index = {}
    states = []
    queue = []
    alive_at = functools.cache(aut._table.at)

    def intern(key):
        if key not in index:
            if len(states) >= state_budget:
                raise BudgetExceeded("difference graph exceeded the state budget",
                                     states=len(states), starts=len(starts),
                                     core=len(core))
            index[key] = len(states)
            states.append(key)
            queue.append(index[key])
        return index[key]

    initials = []
    for delta0, x in starts:
        if not all(isinstance(c, int) for c in delta0):
            raise DigitsNotIntegral("difference must have integer coordinates")
        p_in = alive_at(tuple(a + q * b for a, b in zip(x, delta0)), q)
        p_out = alive_at(x, q)
        if q0 not in p_in or q0 not in p_out:
            raise ValidationError("start point x or x + delta lies outside the domain")
        initials.append(intern((tuple(delta0), p_in, p_out)))
    pre = aut.predecessor_set
    edges = []
    while queue:
        si = queue.pop()
        diff, pin, pout = states[si]
        base = div(diff, zero)
        for a_in in range(na):
            npin = pre(pin, a_in)
            if q0 not in npin:
                continue
            for a_out in range(na):
                npout = pre(pout, a_out)
                if q0 not in npout:
                    continue
                nd = tuple(map(operator.add, base, ddiv[a_in, a_out]))
                if nd not in core:
                    continue
                edges.append((si, intern((nd, npin, npout)), a_in, a_out))
    return DiffTransducer(states, edges, initials)


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

    The neighbour core (:func:`_neighbour_core`) is computed once and read by
    both stages: a fine path projects onto a coarse path, so a start whose
    delta is outside the core has no infinite path and is not made.  Every
    triple of :func:`difference_pairs` gives one start (delta, lo) of a
    single shared two-tape difference graph, at the left end lo of its
    window [lo, hi).  The window is half-open, so lo lies in J_i and
    lo + delta in J_j, and the tiles of the pair do not depend on the point
    chosen.  The graph's components are walked sinks first, so each recurrent
    one is tested once: a component is hit when a successor is, or when beta
    is an eigenvalue of its adjacency matrix.  A pair overlaps exactly when
    the component of its start is hit.  No tile cloud is read, so the verdict
    does not depend on a depth; ``pset`` and ``depth`` are unused and kept
    only for callers that still pass them.  A ``g`` or ``automaton`` of
    another transform raises ValidationError.
    """
    _require_integral_digits(t)
    _require_own(t, g, "g")
    if automaton is not None:
        _require_own(t, automaton, "automaton")
    f = t.field
    aut = automaton if automaton is not None else build_automaton(t)
    core = _neighbour_core(t)
    pairs, windows = difference_pairs(t, g, core)
    starts = [(delta, lo) for (delta, _, _), (lo, _) in zip(pairs, windows)]
    td = build_diff_transducer(t, aut, starts, state_budget=state_budget, core=core)
    hit, radius = _component_walk(f, td)
    overlapping = tuple((f.qb(delta), g.vertices[i], g.vertices[j])
                        for (delta, i, j), s in zip(pairs, td.initials) if hit[s])
    beta_f = float(f.beta)
    gaps = tuple(beta_f - radius[s] for s in td.initials if not hit[s])
    verdict = "multiple" if overlapping else "tiling"
    return TilingDecision(verdict, overlapping, len(pairs), gaps)
