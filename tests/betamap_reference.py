"""The construction of transforms on exact ``QBeta`` arithmetic, kept as the
reference that the integer construction of :mod:`betatiling.betamap` is
checked against: interval unions merged and intersected by ``qb_compare``,
images formed by ``QBeta`` products, and the pieces, components, frame and end
table of a transform computed from its parts as :class:`BetaTransform` used
to.  A reference transform is a namespace with the attributes that the
comparison reads.
"""

import math
from types import SimpleNamespace

from betatiling.betamap import IntervalQB
from betatiling.errors import EmptyPart, NotSurjective, Overlap, ValidationError
from betatiling.numfield import GT, LT, QBeta, _EndTable, _nums, _sole, qb_compare


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


def reference_transform(field, digits, parts, side):
    """The attributes of a validated transform, each computed on its own:
    pieces sorted by ``QBeta`` order, components by :func:`_merge_union`,
    the frame as an lcm of denominators and the end table by its own sort."""
    digits, parts = list(digits), [list(p) for p in parts]
    pieces = sorted(((iv, a) for a, pp in enumerate(parts) for iv in pp),
                    key=lambda t: t[0].lo)
    q = math.lcm(*(c.denominator for x in (*digits, *(
        e for iv, _ in pieces for e in (iv.lo, iv.hi))) for c in x.coords))
    table = _EndTable(field, q, [(_nums(iv.lo.coords, q), _nums(iv.hi.coords, q), a)
                                 for iv, a in pieces], _sole, side == "left")
    return SimpleNamespace(
        field=field, digits=digits, parts=parts, side=side, pieces=pieces,
        xmin=pieces[0][0].lo, xmax=pieces[-1][0].hi,
        components=_merge_union([iv for iv, _ in pieces]), _q=q, _table=table,
        twin=lambda: reference_transform(field, digits, parts,
                                         "left" if side == "right" else "right"))


def build_transform_reference(field, digits, parts, side="right"):
    """Validate digit pieces and the exact surjectivity identity on
    ``QBeta`` arithmetic."""
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
            f"{[str(i) for i in _merge_union(images)]} vs "
            f"{[str(i) for i in _merge_union(domain)]}")
    order = sorted(range(len(digits)), key=lambda a: norm_parts[a][0].lo)
    return reference_transform(field, [digits[a] for a in order],
                               [norm_parts[a] for a in order], side)


def restrict_to_support_reference(t, weights, vdata):
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
    return build_transform_reference(f, new_digits, new_parts, t.side)
