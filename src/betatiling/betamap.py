"""Piecewise-linear expansion maps x -> beta*x - a on exact interval pieces.

A transform carries a digit set A in Q(beta) and, per digit, a finite union
of half-open intervals.  The ``side`` flag selects between the right-continuous
map (pieces [lo, hi)) and its left-continuous twin (pieces (lo, hi]).  All
membership tests, orbits, and expansions are exact.  Which piece holds a
point, and which boundary-orbit interval J_v, is read from one end table per
family (:class:`numfield._EndTable`) by one bisection.
Transforms are validated on the integer orbit kernel, by one sort of the
piece ends and their images on one numerator frame, and restricted to the
support of the invariant density by the signs of an integer eigenvector.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BadAlpha, BudgetExceeded, EmptyPart, FieldMismatch, NoFixedPoint,
                     NotSurjective, OutOfDomain, Overlap, PediciniGapViolated,
                     UnknownDigit, ValidationError)
from .numfield import (GT, LT, QBeta, _beta_eigenvector, _EndTable, _lcm_nums, _nums,
                       _num_cmp, _num_sign, _num_sorted, _sole, make_field, qb_ceil,
                       qb_compare, qb_floor)


@dataclass(frozen=True)
class IntervalQB:
    """Half-open interval with exact endpoints; orientation given by context."""
    lo: QBeta
    hi: QBeta

    def length(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"[{float(self.lo):.6g}, {float(self.hi):.6g})"


def _merged(ivs):
    """Disjoint normal form of a union of half-open intervals (lo, hi), lo < hi,
    with ends ranked in one order: sorted, merged where they overlap or touch."""
    out = []
    for lo, hi in sorted(ivs):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def _cut(cmp, ivs, jvs):
    """The nonempty intersections of two sorted disjoint families of half-open
    intervals, (lo, hi) numerator pairs on one frame, in order and merged
    where they touch; ``cmp`` compares ends (:func:`numfield._num_cmp`)."""
    out = []
    for lo, hi in ivs:
        for jlo, jhi in jvs:
            x = lo if cmp(lo, jlo) != LT else jlo
            y = hi if cmp(hi, jhi) != GT else jhi
            if cmp(x, y) != LT:
                continue
            if out and out[-1][1] == x:
                out[-1] = (out[-1][0], y)
            else:
                out.append((x, y))
    return out


def _require_own(t, obj, name):
    """ValidationError unless obj (boundary-orbit data, a graph-directed
    system, an automaton) was built for the transform t itself."""
    if obj.transform is not t:
        raise ValidationError(f"{name} was built for another transform")


class BetaTransform:
    """A validated expansion map.  Immutable; build with :func:`build_transform`.

    Its piece ends live in one numerator frame: ``_q`` is the lcm of the
    denominators of the digits and of the piece ends, ``_qd`` holds the
    digits' numerators over ``_q``, and ``_table`` is the end table of the
    pieces over ``_q``, labelled by digit index (on the left-continuous side
    a point on an end lies in the lower piece); its cells are the pieces, and
    ``_parts`` holds each digit's (lo, hi) numerators.  Orbits of points in
    (1/q) Z[beta], q a multiple of ``_q``, are carried on integers
    (:func:`_num_frame`) and looked up in it.  Pieces, components and table
    come from the one sort of :func:`build_transform`.
    """

    def __init__(self, field, digits, parts, side, pieces, components, table):
        self.field, self.digits, self.parts, self.side = field, digits, parts, side
        self.pieces, self.components, self._table = pieces, components, table
        self.xmin, self.xmax = components[0].lo, components[-1].hi
        self._q = table.q
        self._qd = tuple(_nums(d.coords, table.q) for d in digits)
        self._parts = [[c[:2] for c in table.cells() if c[2] == a] for a in range(len(digits))]

    # -- membership --------------------------------------------------------

    def digit_index_of(self, x):
        """Index of the digit whose piece contains x, or None; raises
        FieldMismatch when x is not an element of the transform's field."""
        return self._table.of(x)

    def _piece_end(self, x):
        """The right end of the piece that contains x."""
        return _from_num(self.field, self._table.ends[self._table.cell_of(x)], self._q)

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

    def digit_lookup(self, value):
        for i, dg in enumerate(self.digits):
            if dg == value:
                return i
        raise UnknownDigit(f"{value!r} is not a digit of this transform")

    def twin(self):
        """The companion map with flipped interval sides; an involution."""
        return BetaTransform(self.field, self.digits, self.parts,
                             "left" if self.side == "right" else "right",
                             self.pieces, self.components, self._table.flipped())

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
    """Validate digit pieces and the exact surjectivity identity, on integers.

    ``digits`` are distinct field elements, ``parts`` one interval list per
    digit, all over one numerator frame q.  One :func:`numfield._num_sorted`
    ranks every piece end and image end beta*x - d (the field's ``_step``):
    reversed intervals, overlaps and the equality of the images' union with
    the domain are read off the ranks, and the same order gives the pieces,
    components and end table.  Raises EmptyPart, Overlap, NotSurjective,
    FieldMismatch or ValidationError.
    """
    if side not in ("right", "left"):
        raise ValidationError("side must be 'right' or 'left'")
    if not digits:
        raise EmptyPart("no digits")
    if len(parts) != len(digits):
        raise ValidationError(f"{len(digits)} digits but {len(parts)} interval lists")
    digits = [d if isinstance(d, QBeta) else field.qb([d]) for d in digits]
    ends = [x for pp in parts for iv in pp for x in (iv.lo, iv.hi)]
    if any(x.field != field for x in (*digits, *ends)):
        raise FieldMismatch("digits and interval ends must lie in the transform's field")
    for k, d in enumerate(digits):
        if d in digits[:k]:
            raise ValidationError(f"digit {d!r} is given twice")
    q = math.lcm(*(c.denominator for x in (*digits, *ends) for c in x.coords))
    qd, step = [_nums(d.coords, q) for d in digits], field._step
    nparts = [[(_nums(iv.lo.coords, q), _nums(iv.hi.coords, q)) for iv in pp] for pp in parts]
    images = [(step(lo, qd[a]), step(hi, qd[a])) for a, npp in enumerate(nparts) for lo, hi in npp]
    order, spans = _num_sorted(
        field, {e for iv in itertools.chain(*nparts, images) for e in iv}, q)
    rank, value, ranked = {e: k for k, e in enumerate(order)}, {}, []
    for a, (pp, npp) in enumerate(zip(parts, nparts)):
        if not pp:
            raise EmptyPart(f"digit {digits[a]!r} has no interval")
        for iv, (lo, hi) in zip(pp, npp):
            if rank[lo] >= rank[hi]:
                raise ValidationError(f"empty or reversed interval {iv!r}")
            value[rank[lo]], value[rank[hi]] = iv.lo, iv.hi
        ranked.append(_merged((rank[lo], rank[hi]) for lo, hi in npp))
    flat = sorted(((*iv, a) for a, pp in enumerate(ranked) for iv in pp), key=lambda r: r[0])
    ivq = {lo: IntervalQB(value[lo], value[hi]) for lo, hi, _ in flat}
    for (lo, hi, a), (nxt, _, b) in zip(flat, flat[1:]):
        if nxt < hi:
            raise Overlap(f"{ivq[lo]!r} (digit {digits[a]!r}) overlaps "
                          f"{ivq[nxt]!r} (digit {digits[b]!r})")
    domain, image = _merged(r[:2] for r in flat), _merged((rank[x], rank[y]) for x, y in images)
    if image != domain:
        show = lambda ivs: [str(IntervalQB(*(_from_num(field, order[k], q) for k in iv)))
                            for iv in ivs]
        raise NotSurjective("images of the branches do not cover the domain exactly: "
                            f"{show(image)} vs {show(domain)}")
    # the frame of the transform, the lcm of the denominators of the digits and
    # of the ends that remain, is q/g for the gcd g of q and their numerators
    used = sorted({k for r in flat for k in r[:2]})
    g = math.gcd(q, *(c for k in used for c in order[k]), *itertools.chain(*qd))
    num = {k: tuple(c // g for c in order[k]) for k in used}
    perm = sorted(range(len(digits)), key=lambda a: ranked[a][0][0])
    new = {a: k for k, a in enumerate(perm)}
    table = _EndTable(field, q // g, [(num[lo], num[hi], new[a]) for lo, hi, a in flat], _sole,
                      side == "left", ([num[k] for k in used], [spans[k] for k in used]))
    return BetaTransform(field, [digits[a] for a in perm],
                         [[ivq[lo] for lo, _ in ranked[a]] for a in perm], side,
                         [(ivq[lo], new[a]) for lo, _, a in flat],
                         [IntervalQB(value[lo], value[hi]) for lo, hi in domain], table)


# ---------------------------------------------------------------------------
# presets

def preset(kind, field, alpha=None, digits=None):
    """Standard transform families; ``alpha`` (a QBeta) and ``digits`` as each
    needs.  Each gives digit k the interval between the bounds k and k + 1."""
    one, beta, side = field.one, field.beta, "right"
    if alpha is None and kind in ("linear_mod1", "minimal_weight"):
        raise ValidationError(f"{kind} preset needs alpha")
    if alpha is not None and not isinstance(alpha, QBeta):
        raise TypeError(f"alpha must be a QBeta, not {type(alpha).__name__}")
    if kind in ("greedy", "lazy"):
        top = qb_ceil(beta) - 1
        ds = [field.qb([a]) for a in range(top + 1)]
        bounds = [d.div_beta() for d in ds] + [one]
        if kind == "lazy":
            right, side = ds[-1] * (beta - one).inv(), "left"
            bounds = [field.zero] + [(right + d).div_beta() for d in ds[:-1]] + [right]
    elif kind == "pedicini":
        if not digits:
            raise ValidationError("pedicini preset needs a digit list")
        ds = sorted((d if isinstance(d, QBeta) else field.qb([d]) for d in digits))
        if not ds[0].is_zero():
            raise ValidationError("pedicini digits must start at 0")
        gap_bound = ds[-1] * (beta - one).inv()
        for lo, hi in zip(ds, ds[1:]):
            if qb_compare(hi - lo, gap_bound) == GT:
                raise PediciniGapViolated(f"digit gap {hi - lo!r} exceeds {gap_bound!r}")
        bounds = [d.div_beta() for d in ds] + [gap_bound]
    elif kind == "linear_mod1":
        if qb_compare(alpha, field.zero) == LT or qb_compare(alpha, one) != LT:
            raise BadAlpha("alpha must satisfy 0 <= alpha < 1")
        top = qb_ceil(beta + alpha) - 1
        ds = [field.qb([i]) - alpha for i in range(top + 1)]
        bounds = [field.zero] + [d.div_beta() for d in ds[1:]] + [one]
    elif kind == "minimal_weight":
        if qb_compare(alpha, field.zero) != GT:
            raise BadAlpha("alpha must be positive")
        ds, ba = [-one, field.zero, one], beta * alpha
        bounds = [-ba, -alpha, alpha, ba]
    elif kind == "symmetric":
        half = field.qb([Fraction(1, 2)])
        ds = [field.qb([i]) for i in range(qb_floor((one - beta) / 2),
                                           qb_ceil((beta - one) / 2) + 1)]
        bounds = [-half] + [(d + half).div_beta() for d in ds[:-1]] + [half]
    else:
        raise ValidationError(f"unknown preset kind {kind!r}")
    parts = [[IntervalQB(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    try:
        return build_transform(field, ds, parts, side)
    except ValidationError as exc:
        if kind not in ("linear_mod1", "minimal_weight"):
            raise
        raise BadAlpha(str(exc)) from exc


# ---------------------------------------------------------------------------
# expansions

@dataclass(frozen=True)
class Expansion:
    """Digit-index word: preperiod then infinitely repeated period."""
    preperiod: tuple
    period: tuple
    exact: bool = True

    def digit_at(self, k):
        _require_position(k)
        if k < len(self.preperiod):
            return self.preperiod[k]
        if not self.period:
            raise ValidationError(f"position {k} is past the end of a finite word")
        return self.period[(k - len(self.preperiod)) % len(self.period)]

    def tail(self, k):
        """The shifted word starting at position k, in canonical form."""
        _require_position(k)
        if k <= len(self.preperiod):
            return Expansion(self.preperiod[k:], self.period, self.exact)
        if not self.period:
            raise ValidationError(f"position {k} is past the end of a finite word")
        r = (k - len(self.preperiod)) % len(self.period)
        return Expansion((), self.period[r:] + self.period[:r], self.exact)

    def __len__(self):
        return len(self.preperiod) + len(self.period)


def _require_position(k):
    """TypeError naming k unless it is an integer (a bool is not), and
    ValidationError when it is negative."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise TypeError(f"k must be an integer position, not {type(k).__name__}")
    if k < 0:
        raise ValidationError(f"position must be nonnegative, got {k}")


def _require_letters(n, word):
    """UnknownDigit for a letter of the word that is no digit index: an
    integer, not a bool, below n."""
    for a in word:
        integral = type(a) is int or isinstance(a, numbers.Integral) and not isinstance(a, bool)
        if not (integral and 0 <= a < n):
            raise UnknownDigit(f"letter {a!r} is no digit index below {n}")


# Integer orbit kernel.  An orbit of x under x -> beta*x - d stays in
# (1/q) Z[beta] for q the lcm of the denominators of x and of the transform's
# frame ``_q``, which the digits' divide, so it is carried as integer
# numerator tuples over that one q, with no Fraction and no gcd.  Both
# directions are shifts of the coordinates, done by the field's straight-line
# kernels: a step beta*x - d (``field._step``) adds the top coordinate times
# the row of beta^d, a division (x + d)/beta (``field._div``) the constant
# coordinate times the row of 1/beta.  The digits' numerators over ``_q``
# are held on the transform (``_qd``) and scaled to a larger frame; the
# inverse of 1 - beta^p that a period's value needs comes from the field's
# period table, which grows on demand.

def _from_num(field, n, q):
    return QBeta(field, tuple(Fraction(c, q) for c in n))


def _digit_nums(t, q):
    """The digits' numerators over q, a multiple of the frame ``_q``: the
    transform's ``_qd``, scaled by q/_q."""
    s = q // t._q
    return t._qd if s == 1 else [tuple(s * c for c in v) for v in t._qd]


def _num_frame(t, x):
    """(q, numerators of x, numerators of q*digit per digit index), for q the
    lcm of the transform's frame ``_q`` and the denominators of x; raises
    TypeError when x is no QBeta and FieldMismatch when it is not an element
    of the transform's field."""
    if not isinstance(x, QBeta):
        raise TypeError(f"x must be a QBeta, not {type(x).__name__}")
    if x.field != t.field:
        raise FieldMismatch("point and transform belong to different fields")
    n, q = _lcm_nums(x.coords, t._q)
    return q, n, _digit_nums(t, q)


def expand(t, x, max_steps=100000):
    """The digit expansion of x under t, with certified eventual period.

    Orbit points are hashed exactly, so the returned preperiod and period are
    minimal.  Raises OutOfDomain if x is outside the domain and BudgetExceeded
    (a defect signal for field elements) if no revisit happens in max_steps.
    """
    q, cur, qd = _num_frame(t, x)
    step, at = t.field._step, t._table.at
    seen = {}
    word = []
    for k in range(max_steps):
        if cur in seen:
            j = seen[cur]
            return Expansion(tuple(word[:j]), tuple(word[j:]), True)
        seen[cur] = k
        a = at(cur, q)
        if a is None:
            raise OutOfDomain(f"{_from_num(t.field, cur, q)!r} is not in the domain")
        word.append(a)
        cur = step(cur, qd[a])
    raise BudgetExceeded("no period detected", x=str(x), steps=max_steps)


def _value_nums(t, word):
    """(q, numerators over q) of the value of an eventually periodic word,
    q a multiple of the frame ``_q``; raises TypeError when the word is no
    Expansion and UnknownDigit for a letter that is no digit index.

    The period d_1 .. d_p by Horner in beta over ``_q``, on steps of the
    orbit kernel: its numerators A stand for -sum_k d_k beta^(p-k), so the
    period's value is A / (_q (1 - beta^p)).  The field's inverse of
    1 - beta^p (:meth:`numfield.PisotField._period_inverse`), integer rows
    over D, turns A into numerators over D, reduced to their lowest
    denominator den, so over q = _q den; then the preperiod by Horner in
    1/beta, on divisions of the kernel, over q."""
    if not isinstance(word, Expansion):
        raise TypeError(f"word must be an Expansion, not {type(word).__name__}")
    if not word.period:
        raise ValidationError("word must be eventually periodic (nonempty period)")
    _require_letters(len(t.digits), itertools.chain(word.preperiod, word.period))
    f = t.field
    acc, qd, step = (0,) * f.degree, t._qd, f._step
    for a in word.period:
        acc = step(acc, qd[a])
    rows, den = f._period_inverse(len(word.period))
    val = [sum(map(operator.mul, r, acc)) for r in rows]
    g = math.gcd(den, *val)
    q, val = t._q * (den // g), tuple(c // g for c in val)
    qd, div = _digit_nums(t, q), f._div
    for a in reversed(word.preperiod):
        val = div(val, qd[a])
    return q, val


def expansion_value(t, word):
    """Exact value sum(digit_k * beta^-k) of an eventually periodic word;
    raises TypeError for a word that is no Expansion and UnknownDigit for a
    letter that is no digit index."""
    q, val = _value_nums(t, word)
    return _from_num(t.field, val, q)


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
    q, cur = _value_nums(t, word)
    qd, step, at = _digit_nums(t, q), t.field._step, t._table.at
    for a in itertools.chain(word.preperiod, word.period):
        if at(cur, q) != a:
            return False
        cur = step(cur, qd[a])
    return True


def endpoint_words(t):
    """Per digit and piece, the pair of bounding expansions: the expansion of
    the left endpoint under the right-continuous map and of the right endpoint
    under the left-continuous one."""
    tw = t.twin()
    right, left = (t, tw) if t.side == "right" else (tw, t)
    return [[(expand(right, iv.lo), expand(left, iv.hi)) for iv in pp] for pp in t.parts]


def prefix_interval_set(t, prefix):
    """Exact set {x : the expansion of x starts with the given index word}.

    Independent of the admissibility machinery: computed by pulling the digit
    pieces back through the branches (the field's ``_div``) and cutting
    them by the digit's pieces (:func:`_cut`) on the frame ``_q``.  Returns a
    disjoint interval list; a letter that is no digit index raises UnknownDigit.
    """
    _require_letters(len(t.digits), prefix)
    f, q, div = t.field, t._q, t.field._div
    cmp, cur = _num_cmp(f, q), [(lo, hi) for lo, hi, _ in t._table.cells()]
    for a in reversed(prefix):
        pre = [(div(lo, t._qd[a]), div(hi, t._qd[a])) for lo, hi in cur]
        cur = _cut(cmp, pre, t._parts[a])
        if not cur:
            return []
    return [IntervalQB(_from_num(f, lo, q), _from_num(f, hi, q)) for lo, hi in cur]


# ---------------------------------------------------------------------------
# the boundary-orbit set

@dataclass
class VData:
    """Boundary-orbit points, the intervals they bound, and merge times."""
    V: list
    J: dict            # V point -> IntervalQB
    m: dict            # discontinuity -> merge time (None if the orbits never merge)
    table: object      # numfield._EndTable of the J intervals, labelled by index
    intervals: list    # J in the order of V
    transform: object  # the map the points were computed for


def compute_v(t, budget=20000):
    """Boundary-orbit set, intervals, and merge times of the two one-sided maps.

    For each interior discontinuity the orbits under the map and its twin are
    iterated in lockstep on the integer orbit kernel, over the transform's
    frame, with exact equality of numerators; the loop stops at the merge
    time or, when the orbit pair closes a cycle without merging, after the
    pair cycle is complete (all orbit points collected).  Discontinuities and
    component starts and ends are read off the cells of the pieces table.  One
    sort (:func:`numfield._num_sorted`) of the points and component ends gives
    J_v, from v to the next, and the end table ``table`` of J, labelled by index.
    """
    if t.side != "right":
        raise ValidationError("boundary-orbit analysis expects the right-continuous map")
    f = t.field
    tw = t.twin()
    q, qd, kernel = t._q, t._qd, f._step

    def step(s, x):
        a = s._table.at(x, q)
        if a is None:
            raise OutOfDomain(f"{_from_num(f, x, q)!r} is not in the domain")
        return kernel(x, qd[a])

    cells = t._table.cells()
    los, his = {c[0] for c in cells}, {c[1] for c in cells}
    pts, ends, m = los - his, his - los, {}      # the component starts and ends
    for x in (lo for lo, _, _ in cells if lo in his):
        u, w, p = x, x, _from_num(f, x, q)
        seen_pairs, merge, collected = set(), None, []
        for k in range(1, budget + 1):
            u, w = step(t, u), step(tw, w)
            if u == w:
                merge = k
                break
            if (u, w) in seen_pairs:
                break
            seen_pairs.add((u, w))
            collected += (u, w)
        else:
            raise BudgetExceeded("orbit pair did not close", point=str(p), steps=budget)
        m[p] = merge
        pts.update(p for p in collected if t._table.at(p, q) is not None)
    order = _num_sorted(f, pts | ends, q)
    rows = [(v, w) for v, w in zip(order[0], order[0][1:]) if v in pts]
    ivs = [IntervalQB(_from_num(f, lo, q), _from_num(f, hi, q)) for lo, hi in rows]
    vlist = [iv.lo for iv in ivs]
    table = _EndTable(f, q, [(*r, i) for i, r in enumerate(rows)], _sole, order=order)
    return VData(vlist, dict(zip(vlist, ivs)), m, table, ivs, t)


# ---------------------------------------------------------------------------
# transfer matrix, invariant density, support restriction

def branch_edges(t, vdata):
    """Per point V[i], the pairs (j, a), in digit order, of every digit a
    whose branch-a preimage (V[i] + a)/beta lies in piece a and in interval
    j.  The preimages are formed on the numerators of the J table's cells,
    over the frame ``_q``, and both lookups bisect an end table: the
    transform's pieces and the J intervals of ``vdata.table``.  A ``vdata``
    of another transform raises ValidationError."""
    _require_own(t, vdata, "vdata")
    q, div, out = t._q, t.field._div, []
    for n, _, _ in vdata.table.cells():
        row = []
        for a, d in enumerate(t._qd):
            y = div(n, d)
            if t._table.at(y, q) == a:
                j = vdata.table.at(y, q)
                if j is None:
                    raise ValidationError("branch preimage escaped the interval partition")
                row.append((j, a))
        out.append(row)
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


def _density_signs(t, vdata):
    """The exact beta-eigenvector w of the transfer matrix (beta w = E w, on
    integers: :func:`numfield._beta_eigenvector`), signed nonnegative, and the
    signs of its entries; NoFixedPoint when w has entries of both signs."""
    f = t.field
    w = _beta_eigenvector(f, transfer_matrix(t, vdata)) or []
    signs = [_num_sign(f, c) for c in w]
    if not w or LT in signs and GT in signs:
        raise NoFixedPoint("no nonnegative transfer fixed vector found")
    if GT not in signs:
        w, signs = [tuple(-c for c in x) for x in w], [-s for s in signs]
    return w, signs


def invariant_density(t, vdata):
    """Exact piecewise-constant invariant density weights, one per interval:
    the eigenvector of :func:`_density_signs` normalized to total integral
    one.  Weights are proportional to the transverse measure of the
    interval's fiber.
    """
    f = t.field
    h = [f.qb(c) for c in _density_signs(t, vdata)[0]]
    inv = sum((x * vdata.J[v].length() for x, v in zip(h, vdata.V)), f.zero).inv()
    return [x * inv for x in h]


def restrict_to_support(t, weights, vdata):
    """Restriction of the transform to the union of positive-weight intervals,
    for one weight per point of ``vdata.V`` (field elements or numbers): t if
    all are positive, as the J intervals tile the domain, else the positive J
    intervals cut out of each digit's pieces on t's frame (:func:`_cut`).  A
    ``vdata`` of another transform raises ValidationError."""
    _require_own(t, vdata, "vdata")
    if len(weights) != len(vdata.V):
        raise ValidationError(f"{len(weights)} weights for {len(vdata.V)} intervals")
    keep = [h > 0 for h in weights]
    if all(keep):
        return t
    f, q = t.field, t._q
    cmp, support = _num_cmp(f, q), [(lo, hi) for lo, hi, i in vdata.table.cells() if keep[i]]
    cuts = [_cut(cmp, pp, support) for pp in t._parts]
    return build_transform(f, [d for d, c in zip(t.digits, cuts) if c],
                           [[IntervalQB(_from_num(f, lo, q), _from_num(f, hi, q)) for lo, hi in c]
                            for c in cuts if c], t.side)


def supported(t, budget=20000):
    """Restrict t to the support of its invariant density.  No weight is
    formed: the signs of the integer beta-eigenvector (:func:`_density_signs`)
    have the support of the normalized weights, and stand in for them."""
    vd = compute_v(t, budget)
    return restrict_to_support(t, _density_signs(t, vd)[1], vd)


# ---------------------------------------------------------------------------
# config I/O

def _config_entry(cfg, key, parse):
    """parse(cfg[key]), raising ValidationError naming the key when it is
    missing or ``parse`` refuses its value (TypeError, ValueError, KeyError)."""
    if key not in cfg:
        raise ValidationError(f"config needs {key!r}")
    try:
        return parse(cfg[key])
    except (TypeError, ValueError, KeyError) as exc:
        raise ValidationError(f"config {key!r}: {exc}") from None


def transform_from_config(cfg):
    """Build a transform from a JSON-style dict (explicit pieces or preset);
    a missing or malformed key raises ValidationError naming it.  Float
    coordinates, which would be read as binary fractions, a ``side`` beside a
    ``preset`` and a ``restrict_to_support`` that is not a bool are refused."""
    fld = _config_entry(cfg, "field", lambda c: make_field(*c))

    def qb(x):
        if isinstance(x, (list, tuple)) and any(isinstance(c, float) for c in x):
            raise TypeError(f"float coordinate in {x}; give it as an int or a 'p/q' string")
        return fld.qb(x)

    qbs = lambda xs: [qb(x) for x in xs]
    restrict = cfg.get("restrict_to_support", False)
    if not isinstance(restrict, bool):
        raise ValidationError(f"config 'restrict_to_support': {restrict!r} is not a bool")
    if "preset" in cfg:
        if "side" in cfg:
            raise ValidationError("config 'side': a preset fixes its own side")
        alpha = _config_entry(cfg, "alpha", qb) if "alpha" in cfg else None
        digits = _config_entry(cfg, "digits", qbs) if "digits" in cfg else None
        t = preset(cfg["preset"], fld, alpha=alpha, digits=digits)
    else:
        digits = _config_entry(cfg, "digits", qbs)
        parts = _config_entry(cfg, "parts", lambda pps: [
            [IntervalQB(qb(iv["lo"]), qb(iv["hi"])) for iv in pp] for pp in pps])
        side = cfg.get("side", "right")
        if side not in ("right", "left"):
            raise ValidationError(f"config 'side': {side!r} is not 'right' or 'left'")
        t = build_transform(fld, digits, parts, side)
    return supported(t) if restrict else t
