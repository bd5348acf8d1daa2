"""Piecewise-linear expansion maps x -> beta*x - a on exact interval pieces.

A transform carries a digit set A in Q(beta) and, per digit, a finite union
of half-open intervals.  The ``side`` flag selects between the right-continuous
map (pieces [lo, hi)) and its left-continuous twin (pieces (lo, hi]).  All
membership tests, orbits, and expansions are exact.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from .errors import (BadAlpha, BudgetExceeded, EmptyPart, NoFixedPoint,
                     NotSurjective, OutOfDomain, Overlap, PediciniGapViolated,
                     UnknownDigit, ValidationError)
from .numfield import (GT, LT, QBeta, _beta_eigenvector, _cramer, _float_span, _mul_matrix,
                       _num_step, make_field, qb_ceil, qb_compare, qb_floor)


@dataclass(frozen=True)
class IntervalQB:
    """Half-open interval with exact endpoints; orientation given by context."""
    lo: QBeta
    hi: QBeta

    def length(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"[{float(self.lo):.6g}, {float(self.hi):.6g})"


def _merge_union(intervals):
    """Disjoint normal form of a union of half-open intervals."""
    ivs = sorted(intervals, key=lambda iv: iv.lo)
    out = []
    for iv in ivs:
        if qb_compare(iv.lo, iv.hi) != LT:
            continue
        if out and qb_compare(iv.lo, out[-1].hi) != GT:
            if qb_compare(iv.hi, out[-1].hi) == GT:
                out[-1] = IntervalQB(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return out


def _union_equal(a, b):
    a, b = _merge_union(a), _merge_union(b)
    if len(a) != len(b):
        return False
    return all(x.lo == y.lo and x.hi == y.hi for x, y in zip(a, b))


def _intersect(iv, jv):
    lo = iv.lo if qb_compare(iv.lo, jv.lo) == GT else jv.lo
    hi = iv.hi if qb_compare(iv.hi, jv.hi) == LT else jv.hi
    return IntervalQB(lo, hi) if qb_compare(lo, hi) == LT else None


class BetaTransform:
    """A validated expansion map.  Immutable; build with :func:`build_transform`."""

    def __init__(self, field, digits, parts, side, _validated=False):
        self.field = field
        self.digits = list(digits)
        self.parts = [list(p) for p in parts]
        self.side = side
        if not _validated:
            raise ValidationError("use build_transform()")
        self.pieces = sorted(
            ((iv, a) for a, pp in enumerate(self.parts) for iv in pp),
            key=lambda t: t[0].lo)
        self.xmin = self.pieces[0][0].lo
        self.xmax = self.pieces[-1][0].hi
        comps = []
        for iv, _ in self.pieces:
            if comps and comps[-1].hi == iv.lo:
                comps[-1] = IntervalQB(comps[-1].lo, iv.hi)
            else:
                comps.append(IntervalQB(iv.lo, iv.hi))
        self.components = comps
        self._float_pieces = tuple(
            (*_float_span(field, iv.lo.coords), *_float_span(field, iv.hi.coords), a)
            for iv, a in self.pieces)
        self._digit_den = math.lcm(*(c.denominator for d in self.digits for c in d.coords))

    # -- membership --------------------------------------------------------

    def _screen(self, coords, q=1):
        """Float screen of the point sum_k c_k beta^k / q.

        The point and every piece endpoint are held as float intervals
        [v - e, v + e], rounded outwards, around their float values v with
        the certified bounds e of :func:`numfield._float_value`.  Returns
        (digit index, False) when the point's interval lies inside a piece
        by these intervals, else (None, whether it meets a piece endpoint's
        interval and so needs the exact test).
        """
        lo, hi = _float_span(self.field, coords, q)
        right = self.side == "right"
        near = False
        for llo, lhi, rlo, rhi, a in self._float_pieces:
            if right:
                if lo >= lhi and hi < rlo:
                    return a, False
                if hi < llo or lo >= rhi:
                    continue
            else:
                if lo > lhi and hi <= rlo:
                    return a, False
                if hi <= llo or lo > rhi:
                    continue
            near = True
        return None, near

    def _exact_index(self, x):
        right = self.side == "right"
        for iv, a in self.pieces:
            if right:
                if qb_compare(x, iv.lo) != LT and qb_compare(x, iv.hi) == LT:
                    return a
            else:
                if qb_compare(x, iv.lo) == GT and qb_compare(x, iv.hi) != GT:
                    return a
        return None

    def digit_index_of(self, x):
        """Index of the digit whose piece contains x, or None.

        The float screen of :meth:`_screen` decides every point whose
        certified float interval lies inside a piece or clear of all pieces;
        only a point whose interval meets a piece endpoint's falls through
        to the exact comparisons of :meth:`_exact_index`.
        """
        a, near = self._screen(x.coords)
        return self._exact_index(x) if near else a

    def _index_num(self, n, q):
        """:meth:`digit_index_of` for the point n/q given by integer numerators.

        n_i / q rounds to the same float as the reduced coordinate, so the
        screen decides as in :meth:`digit_index_of`.
        """
        a, near = self._screen(n, q)
        return self._exact_index(_from_num(self.field, n, q)) if near else a

    def contains(self, x):
        return self.digit_index_of(x) is not None

    def step(self, x):
        """One application of the map: returns (digit, beta*x - digit)."""
        a, y = self.step_index(x)
        return self.digits[a], y

    def step_index(self, x):
        a = self.digit_index_of(x)
        if a is None:
            raise OutOfDomain(f"{x!r} is not in the domain")
        return a, x * self.field.beta - self.digits[a]

    def diam(self):
        return self.xmax - self.xmin

    def digit_lookup(self, value):
        for i, dg in enumerate(self.digits):
            if dg == value:
                return i
        raise UnknownDigit(f"{value!r} is not a digit of this transform")

    def twin(self):
        """The companion map with flipped interval sides; an involution."""
        return BetaTransform(self.field, self.digits, self.parts,
                             "left" if self.side == "right" else "right",
                             _validated=True)

    def digits_integral(self):
        return all(d.is_integral() for d in self.digits)

    # -- config ------------------------------------------------------------

    def to_config(self):
        return {
            "field": list(self.field.coeffs),
            "digits": [[str(c) for c in d.coords] for d in self.digits],
            "parts": [[{"lo": [str(c) for c in iv.lo.coords],
                        "hi": [str(c) for c in iv.hi.coords]} for iv in pp]
                      for pp in self.parts],
            "side": self.side,
        }

    def __repr__(self):
        return (f"BetaTransform({self.field.coeffs}, |A|={len(self.digits)}, "
                f"{sum(len(p) for p in self.parts)} pieces, {self.side})")


def build_transform(field, digits, parts, side="right"):
    """Validate digit pieces and the exact surjectivity identity.

    ``digits`` are field elements, ``parts`` one interval list per digit.
    Raises EmptyPart, Overlap, or NotSurjective.
    """
    if side not in ("right", "left"):
        raise ValidationError("side must be 'right' or 'left'")
    if not digits:
        raise EmptyPart("no digits")
    digits = [d if isinstance(d, QBeta) else field.qb([d]) for d in digits]
    norm_parts = []
    for a, pp in enumerate(parts):
        if not pp:
            raise EmptyPart(f"digit {digits[a]!r} has no interval")
        for iv in pp:
            if qb_compare(iv.lo, iv.hi) != LT:
                raise ValidationError(f"empty or reversed interval {iv!r}")
        norm_parts.append(_merge_union(pp))
    flat = sorted(((iv, a) for a, pp in enumerate(norm_parts) for iv in pp),
                  key=lambda t: t[0].lo)
    for (iv, a), (jv, b) in zip(flat, flat[1:]):
        if qb_compare(jv.lo, iv.hi) == LT:
            raise Overlap(f"{iv!r} (digit {digits[a]!r}) overlaps {jv!r} (digit {digits[b]!r})")
    beta = field.beta
    images = [IntervalQB(iv.lo * beta - digits[a], iv.hi * beta - digits[a])
              for a, pp in enumerate(norm_parts) for iv in pp]
    domain = [iv for iv, _ in flat]
    if not _union_equal(images, domain):
        raise NotSurjective(
            "images of the branches do not cover the domain exactly: "
            f"{[str(i) for i in _merge_union(images)]} vs {[str(i) for i in _merge_union(domain)]}")
    order = sorted(range(len(digits)), key=lambda a: norm_parts[a][0].lo)
    return BetaTransform(field, [digits[a] for a in order],
                         [norm_parts[a] for a in order], side, _validated=True)


# ---------------------------------------------------------------------------
# presets

def preset(kind, field, alpha=None, digits=None):
    """Standard transform families; ``alpha`` and ``digits`` as each needs."""
    one = field.one
    beta = field.beta
    if kind == "greedy":
        top = qb_ceil(beta) - 1
        ds = [field.qb([a]) for a in range(top + 1)]
        parts = [[IntervalQB(d.div_beta(), (d + 1).div_beta())] for d in ds[:-1]]
        parts.append([IntervalQB(ds[-1].div_beta(), one)])
        return build_transform(field, ds, parts, "right")
    if kind == "lazy":
        top = qb_ceil(beta) - 1
        ds = [field.qb([a]) for a in range(top + 1)]
        right = field.qb([top]) * (beta - one).inv()
        bounds = [field.zero] + [(right + field.qb([a])).div_beta() for a in range(top)] + [right]
        parts = [[IntervalQB(bounds[a], bounds[a + 1])] for a in range(top + 1)]
        return build_transform(field, ds, parts, "left")
    if kind == "pedicini":
        if not digits:
            raise ValidationError("pedicini preset needs a digit list")
        ds = sorted((d if isinstance(d, QBeta) else field.qb([d]) for d in digits))
        if not ds[0].is_zero():
            raise ValidationError("pedicini digits must start at 0")
        gap_bound = ds[-1] * (beta - one).inv()
        for lo, hi in zip(ds, ds[1:]):
            if qb_compare(hi - lo, gap_bound) == GT:
                raise PediciniGapViolated(f"digit gap {hi - lo!r} exceeds {gap_bound!r}")
        parts = [[IntervalQB(a.div_beta(), b.div_beta())] for a, b in zip(ds, ds[1:])]
        parts.append([IntervalQB(ds[-1].div_beta(), ds[-1] * (beta - one).inv())])
        return build_transform(field, ds, parts, "right")
    if kind == "linear_mod1":
        if alpha is None:
            raise ValidationError("linear_mod1 preset needs alpha")
        if qb_compare(alpha, field.zero) == LT or qb_compare(alpha, one) != LT:
            raise BadAlpha("alpha must satisfy 0 <= alpha < 1")
        top = qb_ceil(beta + alpha) - 1
        ds = [field.qb([i]) - alpha for i in range(top + 1)]
        bounds = [field.zero] + [(field.qb([i]) - alpha).div_beta() for i in range(1, top + 1)] + [one]
        parts = [[IntervalQB(bounds[i], bounds[i + 1])] for i in range(top + 1)]
        try:
            return build_transform(field, ds, parts, "right")
        except (NotSurjective, ValidationError) as exc:
            raise BadAlpha(str(exc)) from exc
    if kind == "minimal_weight":
        if alpha is None:
            raise ValidationError("minimal_weight preset needs alpha")
        if qb_compare(alpha, field.zero) != GT:
            raise BadAlpha("alpha must be positive")
        ds = [-one, field.zero, one]
        ba = beta * alpha
        parts = [[IntervalQB(-ba, -alpha)], [IntervalQB(-alpha, alpha)], [IntervalQB(alpha, ba)]]
        try:
            return build_transform(field, ds, parts, "right")
        except (NotSurjective, ValidationError) as exc:
            raise BadAlpha(str(exc)) from exc
    if kind == "symmetric":
        half = Fraction(1, 2)
        lo_d = qb_floor((one - beta) / 2)
        hi_d = qb_ceil((beta - one) / 2)
        ds = [field.qb([i]) for i in range(lo_d, hi_d + 1)]
        bounds = [field.qb([-half])]
        for i in range(lo_d, hi_d):
            bounds.append((field.qb([i]) + field.qb([half])).div_beta())
        bounds.append(field.qb([half]))
        parts = [[IntervalQB(bounds[k], bounds[k + 1])] for k in range(len(ds))]
        return build_transform(field, ds, parts, "right")
    raise ValidationError(f"unknown preset kind {kind!r}")


# ---------------------------------------------------------------------------
# expansions

@dataclass(frozen=True)
class Expansion:
    """Digit-index word: preperiod then infinitely repeated period."""
    preperiod: tuple
    period: tuple
    exact: bool = True

    def digit_at(self, k):
        if k < len(self.preperiod):
            return self.preperiod[k]
        if not self.period:
            raise IndexError("finite word")
        return self.period[(k - len(self.preperiod)) % len(self.period)]

    def tail(self, k):
        """The shifted word starting at position k, in canonical form."""
        if k <= len(self.preperiod):
            return Expansion(self.preperiod[k:], self.period, self.exact)
        if not self.period:
            raise IndexError("finite word")
        r = (k - len(self.preperiod)) % len(self.period)
        return Expansion((), self.period[r:] + self.period[:r], self.exact)

    def __len__(self):
        return len(self.preperiod) + len(self.period)


# Integer orbit kernel.  An orbit of x under x -> beta*x - d stays in
# (1/q) Z[beta] for q the lcm of the denominators of x and of the digits, so
# it is carried as integer numerator tuples over that one q: a step is the
# companion product minus q*digit, with no Fraction and no gcd.

def _from_num(field, n, q):
    return QBeta(field, tuple(Fraction(c, q) for c in n))


def _num_frame(t, x):
    """(q, numerators of x, numerators of q*digit per digit index)."""
    q = math.lcm(t._digit_den, *(c.denominator for c in x.coords))
    return q, _nums(x.coords, q), [_nums(d.coords, q) for d in t.digits]


def _nums(coords, q):
    return tuple(c.numerator * (q // c.denominator) for c in coords)


def expand(t, x, max_steps=100000):
    """The digit expansion of x under t, with certified eventual period.

    Orbit points are hashed exactly, so the returned preperiod and period are
    minimal.  Raises OutOfDomain if x is outside the domain and BudgetExceeded
    (a defect signal for field elements) if no revisit happens in max_steps.
    """
    q, cur, qd = _num_frame(t, x)
    row = t.field._pow_coords[t.field.degree]
    seen = {}
    word = []
    for k in range(max_steps):
        if cur in seen:
            j = seen[cur]
            return Expansion(tuple(word[:j]), tuple(word[j:]), True)
        seen[cur] = k
        a = t._index_num(cur, q)
        if a is None:
            raise OutOfDomain(f"{_from_num(t.field, cur, q)!r} is not in the domain")
        word.append(a)
        cur = _num_step(row, cur, qd[a])
    raise BudgetExceeded("no period detected", x=str(x), steps=max_steps)


def expansion_value(t, word):
    """Exact value sum(digit_k * beta^-k) of an eventually periodic word."""
    f = t.field
    if not word.period:
        raise ValidationError("word must be eventually periodic (nonempty period)")
    # period by Horner in beta over the digit denominator q, next to beta^n
    # over q; then one integer division by beta^n - 1, where q cancels, gives
    # numerators over a denominator den; then the preperiod by Horner in
    # 1/beta over lcm(q, den)
    q, acc, qd = _num_frame(t, f.zero)
    minus = [tuple(-c for c in v) for v in qd]
    zero = (0,) * f.degree
    pw = (q, *zero[1:])
    row = f._pow_coords[f.degree]
    for a in word.period:
        acc = _num_step(row, acc, minus[a])
        pw = _num_step(row, pw, zero)
    val, den = _cramer(_mul_matrix(f, (pw[0] - q, *pw[1:])), acc)
    q = math.lcm(t._digit_den, den)
    val = tuple(c * (q // den) for c in val)
    qd = [_nums(d.coords, q) for d in t.digits]
    minv = f.inv_beta_mat
    for a in reversed(word.preperiod):
        s = [c + e for c, e in zip(val, qd[a])]
        val = tuple(sum(m * c for m, c in zip(mrow, s)) for mrow in minv)
    return _from_num(f, val, q)


def word_from_digits(t, pre, per):
    """Digit-index word from digit values (ints, rationals, or QBeta)."""
    conv = lambda d: t.digit_lookup(d if isinstance(d, QBeta) else t.field.qb([d]))
    return Expansion(tuple(conv(d) for d in pre), tuple(conv(d) for d in per))


def is_admissible(t, word):
    """Whether the eventually periodic word is the expansion of its own value.

    Walks the orbit of x_0 = value(word) once: x_k must lie in the piece of
    the word's k-th digit a_k, and x_(k+1) = beta*x_k - d(a_k) is the value of
    the next tail.  Every distinct tail is visited, so this is exact tail-value
    membership, linear in the word length.
    """
    letters = tuple(itertools.chain(word.preperiod, word.period))
    for a in letters:
        if not 0 <= a < len(t.digits):
            raise UnknownDigit(f"digit index {a} out of range")
    q, cur, qd = _num_frame(t, expansion_value(t, word))
    row = t.field._pow_coords[t.field.degree]
    for a in letters:
        if t._index_num(cur, q) != a:
            return False
        cur = _num_step(row, cur, qd[a])
    return True


def endpoint_words(t):
    """Per digit and piece, the pair of bounding expansions: the expansion of
    the left endpoint under the right-continuous map and of the right endpoint
    under the left-continuous one."""
    tw = t.twin()
    right, left = (t, tw) if t.side == "right" else (tw, t)
    out = []
    for a, pp in enumerate(t.parts):
        rows = []
        for iv in pp:
            rows.append((expand(right, iv.lo), expand(left, iv.hi)))
        out.append(rows)
    return out


def prefix_interval_set(t, prefix):
    """Exact set {x : the expansion of x starts with the given index word}.

    Independent of the admissibility machinery: computed by pulling the digit
    pieces back through the branches.  Returns a disjoint interval list.
    """
    cur = [iv for iv, _ in t.pieces]
    for a in reversed(prefix):
        nxt = []
        for iv in cur:
            pre = IntervalQB((iv.lo + t.digits[a]).div_beta(),
                             (iv.hi + t.digits[a]).div_beta())
            for piece in t.parts[a]:
                got = _intersect(pre, piece)
                if got is not None:
                    nxt.append(got)
        cur = _merge_union(nxt)
        if not cur:
            return []
    return cur


# ---------------------------------------------------------------------------
# the boundary-orbit set

@dataclass
class VData:
    """Boundary-orbit points, the intervals they bound, and merge times."""
    V: list
    J: dict            # V point -> IntervalQB
    m: dict            # discontinuity -> merge time (None if the orbits never merge)
    intervals: list = dfield(default_factory=list)     # J in the order of V

    def __post_init__(self):
        self.intervals = [self.J[v] for v in self.V]

    def index_of_point(self, x):
        """Index of the interval containing x (exact, right-continuous)."""
        return interval_index(self.intervals, x)


def interval_index(intervals, x):
    """Index of the interval [lo, hi) of a sorted disjoint list that contains
    x, or None; one bisection and one exact comparison."""
    i = bisect.bisect_right(intervals, x, key=lambda iv: iv.lo) - 1
    if i < 0 or qb_compare(x, intervals[i].hi) != LT:
        return None
    return i


def compute_v(t, budget=20000):
    """Boundary-orbit set, intervals, and merge times of the two one-sided maps.

    For each interior discontinuity the orbits under the map and its twin are
    iterated in lockstep with exact equality tests; the loop stops at the merge
    time or, when the orbit pair closes a cycle without merging, after the pair
    cycle is complete (all orbit points collected).
    """
    if t.side != "right":
        raise ValidationError("boundary-orbit analysis expects the right-continuous map")
    tw = t.twin()
    pts = {iv.lo.coords: iv.lo for iv in t.components}
    m = {}
    for (iv, a), (jv, b) in zip(t.pieces, t.pieces[1:]):
        if iv.hi != jv.lo or a == b:
            continue
        e = jv.lo
        u, w = e, e
        seen_pairs = set()
        merge = None
        collected = []
        for k in range(1, budget + 1):
            _, u = t.step_index(u)
            _, w = tw.step_index(w)
            if u == w:
                merge = k
                break
            pair = (u.coords, w.coords)
            if pair in seen_pairs:
                break
            seen_pairs.add(pair)
            collected.append(u)
            collected.append(w)
        else:
            raise BudgetExceeded("orbit pair did not close", point=str(e), steps=budget)
        m[e] = merge
        for p in collected:
            if t.contains(p):
                pts[p.coords] = p
    vlist = sorted(pts.values())
    jmap = {}
    for comp in t.components:
        inside = [v for v in vlist if qb_compare(v, comp.lo) != LT and qb_compare(v, comp.hi) == LT]
        for v, nxt in zip(inside, inside[1:] + [None]):
            jmap[v] = IntervalQB(v, nxt if nxt is not None else comp.hi)
    vd = VData(vlist, jmap, m)
    total = _merge_union(list(jmap.values()))
    if not _union_equal(total, t.components):
        raise ValidationError("interval partition does not cover the domain")
    return vd


# ---------------------------------------------------------------------------
# transfer matrix, invariant density, support restriction

def branch_edges(t, vdata):
    """Per point V[i], the pairs (j, a), in digit order, of every digit a
    whose branch-a preimage (V[i] + a)/beta lies in piece a and in interval
    j."""
    out = [[] for _ in vdata.V]
    for row, v in zip(out, vdata.V):
        for a, dg in enumerate(t.digits):
            y = (v + dg).div_beta()
            if t.digit_index_of(y) == a:
                j = vdata.index_of_point(y)
                if j is None:
                    raise ValidationError("branch preimage escaped the interval partition")
                row.append((j, a))
    return out


def transfer_matrix(t, vdata):
    """Integer matrix E with E[i][j] = number of digits a such that the
    branch-a preimage of V[i] lands in interval j."""
    n = len(vdata.V)
    mat = [[0] * n for _ in range(n)]
    for i, row in enumerate(branch_edges(t, vdata)):
        for j, _ in row:
            mat[i][j] += 1
    return mat


def invariant_density(t, vdata):
    """Exact piecewise-constant invariant density weights, one per interval.

    An exact beta-eigenvector h of the transfer matrix E (beta h = E h, from
    :func:`numfield._beta_eigenvector`, on integers), signed nonnegative and
    normalized to total integral one.  Weights are proportional to the
    transverse measure of the interval's fiber.
    """
    f = t.field
    w = _beta_eigenvector(f, transfer_matrix(t, vdata))
    h = [] if w is None else [f.qb(c) for c in w]
    signs = {qb_compare(x, f.zero) for x in h}
    if not h or {LT, GT} <= signs:
        raise NoFixedPoint("no nonnegative transfer fixed vector found")
    if GT not in signs:
        h = [-x for x in h]
    inv = sum((x * vdata.J[v].length() for x, v in zip(h, vdata.V)), f.zero).inv()
    return [x * inv for x in h]


def restrict_to_support(t, weights, vdata):
    """Restriction of the transform to the union of positive-weight intervals."""
    f = t.field
    support = [vdata.J[v] for v, h in zip(vdata.V, weights)
               if qb_compare(h, f.zero) == GT]
    support = _merge_union(support)
    if _union_equal(support, t.components):
        return t
    new_parts = []
    new_digits = []
    for a, pp in enumerate(t.parts):
        kept = []
        for iv in pp:
            for sv in support:
                got = _intersect(iv, sv)
                if got is not None:
                    kept.append(got)
        if kept:
            new_digits.append(t.digits[a])
            new_parts.append(kept)
    return build_transform(f, new_digits, new_parts, t.side)


def supported(t, budget=20000):
    """Convenience pipeline: restrict t to the support of its invariant density."""
    vd = compute_v(t, budget)
    w = invariant_density(t, vd)
    return restrict_to_support(t, w, vd)


# ---------------------------------------------------------------------------
# config I/O

def transform_from_config(cfg):
    """Build a transform from a JSON-style dict (explicit pieces or preset)."""
    fld = make_field(*cfg["field"])
    if "preset" in cfg:
        alpha = fld.qb(cfg["alpha"]) if "alpha" in cfg else None
        digits = [fld.qb(d) for d in cfg["digits"]] if "digits" in cfg else None
        t = preset(cfg["preset"], fld, alpha=alpha, digits=digits)
    else:
        digits = [fld.qb(d) for d in cfg["digits"]]
        parts = [[IntervalQB(fld.qb(iv["lo"]), fld.qb(iv["hi"])) for iv in pp]
                 for pp in cfg["parts"]]
        t = build_transform(fld, digits, parts, cfg.get("side", "right"))
    if cfg.get("restrict_to_support"):
        t = supported(t)
    return t
