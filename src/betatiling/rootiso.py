"""Certified isolation of polynomial roots.

Real roots are isolated with exact Sturm sequences and refined by bisection,
so their enclosures are rational intervals that are correct by construction.
The refinement runs on integers: the two ends share one denominator, which
doubles at every halving, and the sign of p at a midpoint n/m is the sign of
the integer p(n/m) m^deg, by homogeneous Horner; Fractions are formed only
for the returned ends.
Complex roots start from high-precision numeric approximations and are then
certified with the classical bound: for a monic polynomial p of degree d and
any point z with p'(z) != 0, the disk around z of radius d*|p(z)/p'(z)|
contains at least one root of p.  When the d disks obtained this way are
pairwise disjoint, each contains exactly one root.  All disk arithmetic is
done over exact rationals; square roots are replaced by certified rational
upper/lower bounds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

from .errors import ValidationError


# ---------------------------------------------------------------------------
# exact polynomial helpers (coefficients ascending: p[0] + p[1] x + ...)

def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p):
    return [c * k for k, c in enumerate(p)][1:]


def poly_divmod(p, q):
    """Exact division of rational polynomials; returns (quotient, remainder)."""
    p = list(p)
    q = list(q)
    dq = len(q) - 1
    quot = [Fraction(0)] * max(1, len(p) - dq)
    while len(p) - 1 >= dq and any(c != 0 for c in p):
        while p and p[-1] == 0:
            p.pop()
        if len(p) - 1 < dq:
            break
        k = len(p) - 1 - dq
        f = p[-1] / q[-1]
        quot[k] = f
        for i, c in enumerate(q):
            p[i + k] -= f * c
        p.pop()
    while p and p[-1] == 0:
        p.pop()
    return quot, p


def int_poly_divides(g, p):
    """True iff integer polynomial g divides integer polynomial p exactly."""
    q, r = poly_divmod([Fraction(c) for c in p], [Fraction(c) for c in g])
    return not r and all(c.denominator == 1 for c in q)


# ---------------------------------------------------------------------------
# Sturm sequences

def sturm_chain(p):
    chain = [list(p), poly_deriv(p)]
    while True:
        a, b = chain[-2], chain[-1]
        if not any(c != 0 for c in b):
            chain.pop()
            break
        _, r = poly_divmod(a, b)
        if not any(c != 0 for c in r):
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(chain, x):
    signs = []
    for q in chain:
        v = poly_eval(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(chain, lo, hi):
    """Number of distinct real roots in (lo, hi], by Sturm's theorem."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def cauchy_bound(p):
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_real_roots(p):
    """Disjoint rational intervals (lo, hi], one per distinct real root."""
    chain = sturm_chain(p)
    bound = cauchy_bound(p)
    lo, hi = -bound - 1, bound + 1
    total = count_real_roots(chain, lo, hi)
    out = []
    stack = [(Fraction(lo), Fraction(hi), total)]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        while poly_eval(p, mid) == 0:
            # nudge the split point off a root
            mid = (a + 2 * mid) / 3
        nl = count_real_roots(chain, a, mid)
        stack.append((a, mid, nl))
        stack.append((mid, b, n - nl))
    out.sort()
    return out


def _sign_at(p, n, m):
    """Sign of p(n/m) for integer coefficients p and an integer m > 0: the
    sign of p(n/m) m^deg, by homogeneous Horner on integers."""
    acc, mk = p[-1], 1
    for c in reversed(p[:-1]):
        mk *= m
        acc = acc * n + c * mk
    return (acc > 0) - (acc < 0)


def refine_root(p, lo, hi, width):
    """Shrink an interval (lo, hi] that isolates a simple root of p by
    bisection until hi - lo <= width.

    p is scaled to integer coefficients and the ends are held as integer
    numerators a, b over one denominator m; a halving doubles m, so the
    midpoint is (a + b) / 2m and its sign comes from :func:`_sign_at`.  When
    p vanishes at the excluded left end, the sign just right of it is that of
    p' there.  A midpoint that is a root is returned inside an interval around
    it.  Raises ValidationError when p and p' both vanish at lo.
    """
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    scale = math.lcm(*(Fraction(c).denominator for c in p))
    p = [int(c * scale) for c in p]
    m = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (m // lo.denominator), hi.numerator * (m // hi.denominator)
    sign_lo = _sign_at(p, a, m) or _sign_at(poly_deriv(p), a, m)
    if not sign_lo:
        raise ValidationError(f"multiple root at the left end {lo}")
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * m:
        mid = a + b
        s = _sign_at(p, mid, 2 * m)
        if s == 0:
            x, w = Fraction(mid, 2 * m), Fraction(b - a, m)
            eps = w / 16 if w <= width * 8 else width / 2
            return x - eps, x + eps
        a, b, m = (mid, 2 * b, 2 * m) if s == sign_lo else (2 * a, mid, 2 * m)
    return Fraction(a, m), Fraction(b, m)


# ---------------------------------------------------------------------------
# certified square-root bounds

def sqrt_upper(s, guard_bits=64):
    """Rational u with u >= sqrt(s), s a nonnegative Fraction.

    Uses integer square roots at ``guard_bits`` of extra scale, so the
    relative overshoot is at most 2**-guard_bits.
    """
    s = Fraction(s)
    if s == 0:
        return Fraction(0)
    num, den = s.numerator, s.denominator
    k = 1 << guard_bits
    r = math.isqrt(num * den * k * k)
    return Fraction(r + 1, den * k)


def sqrt_lower(s, guard_bits=64):
    s = Fraction(s)
    if s <= 0:
        return Fraction(0)
    num, den = s.numerator, s.denominator
    k = 1 << guard_bits
    return Fraction(math.isqrt(num * den * k * k), den * k)


def _cabs2(re, im):
    return re * re + im * im


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cpoly_eval(p, z):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(p):
        acc = _cmul(acc, z)
        acc = (acc[0] + c, acc[1])
    return acc


def mpf_to_fraction(x):
    """Exact conversion of an mpmath mpf to Fraction (full mantissa, no
    re-rounding through the active context)."""
    if x == 0:
        return Fraction(0)
    sign, man, exp, _ = x._mpf_
    val = Fraction(man) * (Fraction(2) ** exp)
    return -val if sign else val


class RootDisk:
    """A certified complex enclosure: one root inside |z - center| <= radius."""

    def __init__(self, center_re, center_im, radius):
        self.re = center_re       # Fraction
        self.im = center_im       # Fraction
        self.radius = radius      # Fraction

    def abs_upper(self):
        return sqrt_upper(_cabs2(self.re, self.im)) + self.radius

    def abs_lower(self):
        lo = sqrt_lower(_cabs2(self.re, self.im)) - self.radius
        return lo if lo > 0 else Fraction(0)

    def __repr__(self):
        return f"RootDisk({float(self.re):.6g}{float(self.im):+.6g}j, r<={float(self.radius):.2g})"


def _certify_disk(p, dp, z_re, z_im, degree):
    pv = _cpoly_eval(p, (z_re, z_im))
    dv = _cpoly_eval(dp, (z_re, z_im))
    dv2 = _cabs2(*dv)
    if dv2 == 0:
        return None
    num = sqrt_upper(_cabs2(*pv))
    den = sqrt_lower(dv2)
    if den == 0:
        return None
    return RootDisk(z_re, z_im, degree * num / den)


def certified_complex_roots(p, n_complex, dps=60, max_tries=8):
    """Certified disks for the n_complex non-real roots of p (conjugate pairs).

    Returns disks sorted deterministically, with the Im > 0 member of every
    conjugate pair immediately followed by its mirror.
    """
    if n_complex == 0:
        return []
    coeffs = [Fraction(c) for c in p]
    dp = poly_deriv(coeffs)
    degree = len(p) - 1
    for _ in range(max_tries):
        with mpmath.workdps(dps):
            roots = mpmath.polyroots([mpmath.mpf(str(c)) for c in reversed(p)],
                                     maxsteps=200, extraprec=80)
        cand = sorted(roots, key=lambda z: -abs(mpmath.im(z)))[:n_complex]
        ups = [z for z in cand if mpmath.im(z) > 0]
        if 2 * len(ups) != n_complex:
            dps *= 2
            continue
        disks = []
        ok = True
        for z in sorted(ups, key=lambda z: (mpmath.re(z), mpmath.im(z))):
            re, im = mpf_to_fraction(mpmath.re(z)), mpf_to_fraction(mpmath.im(z))
            disk = _certify_disk(coeffs, dp, re, im, degree)
            if disk is None or disk.radius >= im:
                ok = False
                break
            disks.append(disk)
            disks.append(RootDisk(re, -im, disk.radius))
        if ok and _pairwise_disjoint(disks):
            return disks
        dps *= 2
    raise ArithmeticError("could not certify complex roots of %r" % (p,))


def _pairwise_disjoint(disks):
    for a, b in itertools.combinations(disks, 2):
        d2 = _cabs2(a.re - b.re, a.im - b.im)
        if sqrt_lower(d2) <= a.radius + b.radius:
            return False
    return True


# ---------------------------------------------------------------------------
# irreducibility over Q for monic integer polynomials

def _mignotte_bound(p):
    norm2 = sqrt_upper(sum(Fraction(c) ** 2 for c in p))
    return norm2


def is_irreducible_monic(p):
    """Brute-force irreducibility test for a monic integer polynomial.

    Searches for a monic integer factor of degree <= deg/2 with coefficients
    inside the Mignotte bound; adequate for the small degrees used here.
    """
    d = len(p) - 1
    if d <= 1:
        return True
    if p[0] == 0:
        return False  # x divides
    bound2 = _mignotte_bound(p)
    for k in range(1, d // 2 + 1):
        bk = int(Fraction(2) ** k * bound2) + 1
        # constant term of a factor divides p(0)
        consts = set()
        c0 = abs(p[0])
        for t in range(1, c0 + 1):
            if c0 % t == 0:
                consts.update((t, -t))
        mid_ranges = [range(-bk, bk + 1)] * (k - 1)
        for const in sorted(consts):
            for mids in itertools.product(*mid_ranges):
                g = [const, *mids, 1]
                if int_poly_divides(g, p):
                    return False
    return True
