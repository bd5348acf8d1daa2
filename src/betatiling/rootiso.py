"""Certified isolation of polynomial roots: one certificate for every root.

All roots of a squarefree integer polynomial p of degree d are seeded by
``numpy.roots`` (a real seed on the axis, b = 0) and polished by Newton steps
on Gaussian dyadics (a + b i) / 2^k, with p(z) 2^(k d) from homogeneous Horner
on Gaussian integers and k doubled at every step.  Around the last point z
the disk of radius d |p(z)/p'(z)|, rounded up by integer square roots, holds
at least one root (the classical bound).  The real seeds and the seeds of
Im > 0 are polished, and the Im < 0 roots are the mirrors of the latter.  The
roots are certified by counting: when the d disks, the mirrors included, are
pairwise disjoint, each holds exactly one root.  A disk centred on the axis is
its own mirror, so its root is real; a disk disjoint from its mirror misses
the axis, so its root is not.  Newton steps from a point on the axis stay on
it, so a real disk keeps its centre there.  A disk is refined in place by
Newton steps from its own centre, and the new disk is kept only when it lies
inside the old one, so it holds the same root.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# exact polynomial helpers (coefficients ascending: p[0] + p[1] x + ...)

def poly_deriv(p):
    return [c * k for k, c in enumerate(p)][1:]


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
# certified disks

def _ceil_scaled(r, k):
    """The least integer >= r 2^k, for a Fraction r."""
    return -(-(r.numerator << k) // r.denominator)


class RootDisk:
    """A certified complex enclosure: one root inside |z - c| <= radius, for
    the Gaussian dyadic centre c = (a + b i) / 2^k; ``re`` and ``im`` are its
    parts as Fractions.  Comparisons of disks run on integers at the finer of
    their two scales."""

    def __init__(self, a, b, k, radius):
        self.a, self.b, self.k = a, b, k
        self.re, self.im = Fraction(a, 1 << k), Fraction(b, 1 << k)
        self.radius = radius      # Fraction

    def abs_upper(self):
        return Fraction(math.isqrt(self.a ** 2 + self.b ** 2) + 1, 1 << self.k) + self.radius

    def abs_lower(self):
        lo = Fraction(math.isqrt(self.a ** 2 + self.b ** 2), 1 << self.k) - self.radius
        return lo if lo > 0 else Fraction(0)

    def mirror(self):
        return RootDisk(self.a, -self.b, self.k, self.radius)

    def _gap2(self, other, k):
        """|c - c'|^2 2^(2k) for the other disk's centre c', at k >= both scales."""
        da = (self.a << (k - self.k)) - (other.a << (k - other.k))
        db = (self.b << (k - self.k)) - (other.b << (k - other.k))
        return da * da + db * db

    def apart(self, other):
        """True only when the two disks are disjoint, |c - c'| > r + r':
        the radii are rounded up."""
        k = max(self.k, other.k)
        reach = _ceil_scaled(self.radius, k) + _ceil_scaled(other.radius, k)
        return self._gap2(other, k) > reach * reach

    def inside(self, other):
        """True only when this disk lies in the other, |c - c'| + r <= r':
        the room r' - r is rounded down."""
        k = max(self.k, other.k)
        room = -_ceil_scaled(self.radius - other.radius, k)
        return room >= 0 and self._gap2(other, k) <= room * room

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
            disks.append(n2 and RootDisk(a, b, k, Fraction((len(p) - 1) * num,
                                                         math.isqrt(n2) << k)))
        if all(disks) and accept(disks):
            return disks
        bits *= 2
    raise ArithmeticError(f"could not certify the roots of {p!r}")


def certified_roots(p):
    """Certified disks for all d roots of the squarefree integer polynomial p
    of degree d: the real ones ascending, then the non-real ones sorted by
    centre, the Im > 0 member of every conjugate pair immediately followed by
    its mirror.

    The real seeds and those of Im > 0 are polished by :func:`_polish` to 256
    bits (radii near 2^-200 need no refinement for double-precision
    embeddings); the disks certify when, with the mirrors of those seeded
    off the axis, they are d and pairwise disjoint.  Raises ArithmeticError
    when they do not certify.
    """
    seeds = sorted(np.roots(p[::-1]), key=lambda z: z.imag != 0)
    m = sum(1 for z in seeds if z.imag == 0)
    zs = [(round(float(z.real) * 2.0 ** 64), round(float(z.imag) * 2.0 ** 64), 64)
          for z in seeds if z.imag >= 0]
    if not len(seeds) == m + 2 * (len(zs) - m) == len(p) - 1:
        raise ArithmeticError(f"could not certify the roots of {p!r}")
    disks = _polish(p, zs, 256, lambda ds: all(x.apart(y) for x, y in itertools.combinations(
        ds + [dk.mirror() for dk in ds[m:]], 2)))
    ups = sorted(disks[m:], key=lambda dk: (dk.re, dk.im))
    return sorted(disks[:m], key=lambda dk: dk.re) + [x for dk in ups for x in (dk, dk.mirror())]


def refine_disk(p, disk, radius):
    """A certified disk of radius <= ``radius`` inside ``disk``, which isolates
    a root of the integer polynomial p; its centre is a Gaussian dyadic.

    Newton steps run from the centre of ``disk`` (:func:`_polish`); the new
    disk is accepted only when it lies inside ``disk``, so it holds the same
    root.
    """
    bits = max(disk.k + 1, radius.denominator.bit_length() - radius.numerator.bit_length() + 16)
    new, = _polish(p, [(disk.a, disk.b, disk.k)], bits,
                   lambda ds: ds[0].radius <= radius and ds[0].inside(disk))
    return new


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
    norm2 = sum(c * c for c in p)
    for k in range(1, d // 2 + 1):
        bk = math.isqrt(norm2 << 2 * k) + 1     # Mignotte: 2^k |p|_2
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
