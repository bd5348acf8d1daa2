"""Certified isolation of polynomial roots.

Real roots are isolated with exact Sturm sequences and refined by bisection,
so their enclosures are rational intervals that are correct by construction.
The refinement runs on integers: the two ends share one denominator, which
doubles at every halving, and the sign of p at a midpoint n/m is the sign of
the integer p(n/m) m^deg, by homogeneous Horner; Fractions are formed only
for the returned ends.
Complex roots are seeded by ``numpy.roots`` and polished by Newton steps on
Gaussian dyadics (a + b i) / 2^k, with p(z) 2^(k deg) from homogeneous Horner
on Gaussian integers and k doubled at every step.  They are certified with
the classical bound: for a polynomial p of degree d and any point z with
p'(z) != 0, the disk around z of radius d*|p(z)/p'(z)| contains at least one
root of p; the radius is rounded up by integer square roots.  When the disks
of the non-real roots are pairwise disjoint and each has radius below its
|Im z|, each contains exactly one of them.  A disk is refined in place by
Newton steps from its own centre, and the new disk is kept only when it lies
inside the old one, so it holds the same root.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

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
    """True iff the monic integer polynomial g divides the integer polynomial
    p exactly (ascending coefficients): long division on integers, exact as
    g is monic, then a scan of the remainder that stops at its first nonzero
    coefficient."""
    r, dg = list(p), len(g) - 1
    for k in range(len(r) - 1 - dg, -1, -1):
        f = r[k + dg]
        if f:
            for i in range(dg):
                r[k + i] -= f * g[i]
    return not any(r[:dg])


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


def isolate_real_roots(p):
    """Disjoint rational intervals (lo, hi], one per distinct real root."""
    chain = sturm_chain(p)
    bound = 1 + max(abs(c) for c in p[:-1]) / abs(p[-1])    # Cauchy
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
    """Rational u >= sqrt(s) for a nonnegative Fraction s with denominator q,
    by integer square roots at ``guard_bits`` of extra scale:
    u - sqrt(s) <= 2**-guard_bits / q."""
    s = Fraction(s)
    return sqrt_lower(s, guard_bits) + Fraction(1, s.denominator << guard_bits) if s else s


def sqrt_lower(s, guard_bits=64):
    """Rational l <= sqrt(s), as in :func:`sqrt_upper`; 0 for s <= 0."""
    s = Fraction(s)
    if s <= 0:
        return Fraction(0)
    k = 1 << guard_bits
    return Fraction(math.isqrt(s.numerator * s.denominator * k * k), s.denominator * k)


def _cabs2(re, im):
    return re * re + im * im


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

    def mirror(self):
        return RootDisk(self.re, -self.im, self.radius)

    def dyadic(self):
        """(a, b, k) with centre (a + b i) / 2^k, for a Gaussian dyadic centre."""
        k = max(self.re.denominator, self.im.denominator).bit_length() - 1
        return (self.re.numerator << (k + 1 - self.re.denominator.bit_length()),
                self.im.numerator << (k + 1 - self.im.denominator.bit_length()), k)

    def __repr__(self):
        return f"RootDisk({float(self.re):.6g}{float(self.im):+.6g}j, r<={float(self.radius):.2g})"


def _gauss_horner(p, a, b, k):
    """p(z) 2^(k (len(p) - 1)) at z = (a + b i) / 2^k, for integer
    coefficients p, as a Gaussian integer (re, im): homogeneous Horner on
    integers."""
    re, im, mk = p[-1], 0, 1
    for c in reversed(p[:-1]):
        mk <<= k
        re, im = re * a - im * b + c * mk, re * b + im * a
    return re, im


def _polish(p, zs, bits, accept):
    """Certified disks around the Gaussian dyadics z = (a + b i) / 2^k of
    zs = [(a, b, k)] for the integer polynomial p of degree d.

    Newton steps z - p(z)/p'(z), each rounded to twice as many bits, run on
    integers until k >= ``bits``; the disk around the last z has the radius
    d |p(z)| / |p'(z)|, rounded up by integer square roots, so it holds a
    root.  The disks are returned once ``accept(disks)`` holds; each failed
    try doubles ``bits``.  Raises ArithmeticError after eight tries.
    """
    dp = poly_deriv(p)
    for _ in range(8):
        disks = []
        for i, (a, b, k) in enumerate(zs):
            while True:
                pr, pi = _gauss_horner(p, a, b, k)
                dr, di = _gauss_horner(dp, a, b, k)
                n2 = dr * dr + di * di
                if k >= bits or not n2:
                    break
                # 2^(2k) p(z)/p'(z) = 2^k P conj(D) / |D|^2 for the P, D above
                nr, ni = (pr * dr + pi * di) << k, (pi * dr - pr * di) << k
                a, b, k = ((a << k) - (2 * nr + n2) // (2 * n2),
                           (b << k) - (2 * ni + n2) // (2 * n2), 2 * k)
            zs[i] = a, b, k
            num = math.isqrt(pr * pr + pi * pi)
            num += num * num < pr * pr + pi * pi
            disks.append(n2 and RootDisk(Fraction(a, 1 << k), Fraction(b, 1 << k),
                                         Fraction((len(p) - 1) * num, math.isqrt(n2) << k)))
        if all(disks) and accept(disks):
            return disks
        bits *= 2
    raise ArithmeticError(f"could not certify the roots of {p!r}")


def certified_complex_roots(p, n_complex):
    """Certified disks for the n_complex non-real roots of the integer
    polynomial p (conjugate pairs).

    The roots of Im > 0 are seeded by ``numpy.roots`` and polished by
    :func:`_polish` to 256 bits: radii near 2^-200 need no refinement for
    double-precision embeddings; the disks certify when each has radius
    < Im z and all, with their mirrors, are pairwise disjoint.  Returns the
    disks sorted by centre, with the Im > 0 member of every conjugate pair
    immediately followed by its mirror.
    """
    if n_complex == 0:
        return []
    p = [int(c) for c in p]
    seeds = sorted(np.roots(p[::-1]), key=lambda z: -abs(z.imag))[:n_complex]
    zs = [(round(float(z.real) * 2.0 ** 64), round(float(z.imag) * 2.0 ** 64), 64)
          for z in seeds if z.imag > 0]
    if 2 * len(zs) != n_complex:
        raise ArithmeticError(f"could not certify the roots of {p!r}")
    ups = sorted(_polish(p, zs, 256, lambda ups: all(
        dk.radius < dk.im for dk in ups) and _pairwise_disjoint(
            ups + [dk.mirror() for dk in ups])), key=lambda dk: (dk.re, dk.im))
    return [m for dk in ups for m in (dk, dk.mirror())]


def refine_disk(p, disk, radius):
    """A certified disk of radius <= ``radius`` inside ``disk``, which isolates
    a root of the integer polynomial p; its centre is a Gaussian dyadic.

    Newton steps run from the centre of ``disk`` (:func:`_polish`); the new
    disk is accepted only when it lies inside ``disk``, so it holds the same
    root.
    """
    p = [int(c) for c in p]
    a, b, k = disk.dyadic()
    bits = max(k + 1, radius.denominator.bit_length() - radius.numerator.bit_length() + 16)
    new, = _polish(p, [(a, b, k)], bits, lambda ds: ds[0].radius <= radius and sqrt_upper(
        _cabs2(ds[0].re - disk.re, ds[0].im - disk.im)) + ds[0].radius <= disk.radius)
    return new


def _pairwise_disjoint(disks):
    return all(sqrt_lower(_cabs2(a.re - b.re, a.im - b.im)) > a.radius + b.radius
               for a, b in itertools.combinations(disks, 2))


# ---------------------------------------------------------------------------
# irreducibility over Q for monic integer polynomials

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
    bound2 = sqrt_upper(sum(Fraction(c) ** 2 for c in p))   # Mignotte
    for k in range(1, d // 2 + 1):
        bk = int(Fraction(2) ** k * bound2) + 1
        # constant term of a factor divides p(0)
        c0 = abs(p[0])
        consts = sorted(s * t for t in range(1, c0 + 1) if c0 % t == 0 for s in (1, -1))
        mid_ranges = [range(-bk, bk + 1)] * (k - 1)
        for const in consts:
            for mids in itertools.product(*mid_ranges):
                g = [const, *mids, 1]
                if int_poly_divides(g, p):
                    return False
    return True
