"""Exact arithmetic in Q(beta) for a Pisot unit beta.

A field element is a rational coordinate vector in the power basis
{1, beta, ..., beta^(d-1)}.  All arithmetic (including division by beta,
which stays in Z[beta] because the norm of beta is a unit) is exact.
Comparisons and floors are exact as well.  A float filter runs first: the
float Horner value v of sum c_k beta^k comes with a certified bound
e >= |v - sum c_k beta^k| made of the beta term d*delta*S, the coordinate
rounding u*S and the Horner rounding gamma_2d*S (Higham), where
S = sum |c_k| B^k, delta bounds |beta - float beta|, B >= beta and u = 2^-53;
the sum is doubled to cover the rounding of the bound itself.  Only when v is
within e of zero (or of an integer, for the floor) does the exact path run:
the certified embedding of :func:`_embed`, refined until the sign is
decided.  One routine, :func:`_num_sign`, decides every sign this way, on
coordinates given as integer numerators over one denominator; a comparison
forms its difference and calls it, and callers that hold points with
certified float spans reach it only when two spans overlap:
:func:`_span_compare` (sorting ends, the automaton's intersections, the
difference box, the delta filter and windows of the tiling decision, the
merge-witness range) and :func:`_num_bisect`.  Every "which interval holds
x" lookup is one :func:`_num_bisect` over an :class:`_EndTable`: the pieces
of a map, its J intervals and the cells of the automaton's states.

Orbits run on the integer orbit kernel: a point of (1/q) Z[beta] is a tuple
of integer numerators over q, and both directions of x -> beta*x - d are
shifts of it.  A step (:func:`_num_step`) moves the coordinates up one power
and adds the top one times the row of beta^d; a division (x + d)/beta
(:func:`_num_div`) moves them down one power and adds the constant one times
the row of 1/beta = (beta^(d-1) - c1 beta^(d-2) - ... - c(d-1))/cd, integral
because cd = +-1.  Each costs about d multiplications.  A transform holds
its digits' numerators over its own frame once; the field holds the integer
rows of beta^k in a table that grows on demand (:meth:`PisotField._power`).

Every conjugate beta_j, real or not, is one certified disk with a Gaussian
dyadic centre, and one counting argument certifies them all
(:mod:`.rootiso`): d pairwise disjoint disks that each hold a root hold one
each.  Every embedding Gamma_j(x), for the float value, the floor, the sign
and the hyperplane, is one routine (:func:`_embed`): integer Horner at the
disk's centre plus the radius times a derivative bound.

Every exact linear solve is one fraction-free forward elimination on
integers (:func:`_bareiss`) and one back-substitution: inverses, periodic
word values and ``pi1`` (:func:`_cramer`), and the beta-eigenvectors behind
the invariant density and the tiling decision (:func:`_beta_eigenvector`).

The geometric side lives in R^d: the companion matrix, its eigenvectors
v_1..v_d normalized so that v_1 + ... + v_d = e_1, the lattice map psi,
and the projection phi to the contracting hyperplane H spanned by the
real and imaginary parts of v_2..v_d.  Coordinates on H are taken in the
basis (Re v_2[, Im v_2], Re v_3, ...); in these coordinates the companion
action is an exact block rotation-scaling, so the Euclidean coordinate
norm contracts by |beta_j| blockwise.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FieldMismatch, NotIrreducible, NotPisot, NotUnit, ValidationError
from .rootiso import (_ceil_scaled, _gauss_horner, certified_roots, is_irreducible_monic,
                      poly_deriv, refine_disk)

LT, EQ, GT = -1, 0, 1

_FLOAT_SLACK = 1e-13
_FLOAT_SUM_MAX = 2.0 ** 1000     # above it the float filter gives no bound
_CIRCLE_TRIES = 4                # squarings of a disk radius that straddles |z| = 1


# ---------------------------------------------------------------------------
# numeric helpers

def _to_float_up(fr):
    """Float upper bound of a nonnegative Fraction."""
    f = float(fr)
    return math.nextafter(f, math.inf) if Fraction(f) < fr else f


class Enclosure:
    """Numeric presentation of a certified complex enclosure."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        self.center = complex(center)
        self.radius = float(radius)

    def __repr__(self):
        return f"Enclosure({self.center:.12g}, r<={self.radius:.3g})"


# ---------------------------------------------------------------------------

class PisotField:
    """Algebraic environment for a Pisot unit: conjugates, companion matrix,
    normalized eigenvectors and the contracting-hyperplane basis.

    Every conjugate, real or not, is one disk in ``_disks`` with a Gaussian
    dyadic centre, certified by one counting argument (:mod:`.rootiso`): the
    d disks from Newton steps, with the mirrors of the non-real ones, are
    pairwise disjoint, so each holds exactly one root, real exactly when the
    disk is centred on the axis.  A request for a tighter enclosure refines a
    disk in place by Newton steps from its own centre (a non-real disk's
    mirror partner takes the mirror image); a new disk is kept only inside
    the old one, so index j names the same root for the life of the field.
    Every embedding x -> Gamma_j(x) is one routine, :func:`_embed`: integer
    Horner at the disk's centre plus the radius times a derivative bound.
    Construct with :func:`make_field`; instances are immutable apart from
    these monotone refinement caches, and safe to share between threads.
    """

    def __init__(self, coeffs):
        if any(int(c) != c for c in coeffs):
            raise ValidationError(f"coefficients {coeffs} are not all integers")
        coeffs = tuple(int(c) for c in coeffs)
        d = len(coeffs)
        if d < 2:
            raise ValidationError("degree must be at least 2")
        if abs(coeffs[-1]) != 1:
            raise NotUnit(f"constant coefficient {coeffs[-1]} is not a unit")
        self.coeffs = coeffs
        self.degree = d
        # minimal polynomial x^d - c1 x^(d-1) - ... - cd, ascending coefficients
        self.min_poly = [-c for c in reversed(coeffs)] + [1]
        if not is_irreducible_monic(self.min_poly):
            raise NotIrreducible(f"x^{d} - " + " - ".join(
                f"{c}*x^{d - i - 1}" for i, c in enumerate(coeffs)) + " factors over Q")
        self._init_conjugates()
        self._init_float_filter()
        self._init_linear_data()
        self._init_geometry()

    # -- conjugate certification ------------------------------------------

    def _init_conjugates(self):
        disks = certified_roots(self.min_poly)
        # conjugates[0] is beta itself, the largest real root; then the real
        # conjugates ascending, then complex conjugate pairs (Im > 0 first,
        # mirror second)
        n_real = sum(1 for dk in disks if not dk.im)
        if not n_real or disks[n_real - 1].re - disks[n_real - 1].radius <= 1:
            raise NotPisot("expected exactly one real root > 1")
        self._disks = dict(enumerate([disks[n_real - 1]] + disks[:n_real - 1] + disks[n_real:]))
        for j in range(1, self.degree):
            # a disk that straddles the unit circle is refined in place
            for _ in range(_CIRCLE_TRIES):
                disk = self._disks[j]
                if disk.abs_upper() < 1:
                    break
                if disk.abs_lower() > 1:
                    raise NotPisot(f"conjugate {disk!r} outside unit circle")
                self._refine_disk(j, disk.radius ** 2)
            else:
                raise NotPisot("conjugate not certified inside unit circle")
        rho = max(self.conj_abs_upper(j) for j in range(1, self.degree))
        if rho >= 1:
            raise NotPisot("contraction ratio not below 1")
        self.rho = _to_float_up(rho) * (1 + 1e-12)

    def _init_float_filter(self):
        # beta-hat, delta >= |beta - beta-hat| and a float B >= beta-hat + delta
        # for the bound of _float_value, from the current beta enclosure
        disk = self._disks[0]
        b = float(disk.re)
        delta = _to_float_up(abs(disk.re - Fraction(b)) + disk.radius)
        big = Fraction(b) + Fraction(delta)
        d = self.degree
        u = 2.0 ** -53
        self._float_beta = b
        self._float_big = _to_float_up(big)
        self._float_rel = 2 * (d * delta + u + 2 * d * u / (1 - 2 * d * u))
        # underflow: each of the at most 4d roundings adds at most 2^-1075
        self._float_abs = _to_float_up(sum(big ** k for k in range(d)) / 2 ** 1000)

    def _refine_disk(self, j, radius):
        disk = self._disks[j]
        if disk.radius > radius:
            disk = self._disks[j] = refine_disk(self.min_poly, disk, radius)
            if disk.im:
                self._disks[j + 1 if disk.im > 0 else j - 1] = disk.mirror()
        return disk

    def conj_kind(self, j):
        return "complex" if self._disks[j].im else "real"

    def conj_enclosure(self, j, width=Fraction(1, 2 ** 60)):
        """Certified disk of radius <= ``width`` around the j-th conjugate
        (0-based; 0 is beta)."""
        return self._refine_disk(j, width)

    def conj_abs_upper(self, j):
        return self._disks[j].abs_upper()

    # -- linear data --------------------------------------------------------

    def _init_linear_data(self):
        d = self.degree
        c = self.coeffs
        self.companion = tuple(
            tuple(c[k] if i == 0 else (1 if k == i - 1 else 0) for k in range(d))
            for i in range(d))
        # columns M^k e1 for psi, and the inverse change of basis for pi1
        cols = []
        v = [1] + [0] * (d - 1)
        for _ in range(d):
            cols.append(tuple(v))
            v = [sum(self.companion[i][k] * v[k] for k in range(d)) for i in range(d)]
        self._psi_cols = tuple(cols)
        inv = [_cramer(tuple(zip(*cols)), [int(i == j) for i in range(d)]) for j in range(d)]
        self._pi1_rows = tuple(zip(*([Fraction(x, den) for x in num] for num, den in inv)))
        # integer powers beta^0 .. beta^(2d-2) in the basis, for reduction after
        # products; row d, beta^d = c1 beta^(d-1) + ... + cd, is the step of
        # the integer orbit kernel, and the table grows on demand
        self._pow_coords = tuple(tuple(int(i == j) for i in range(d)) for j in range(d))
        self._pow_coords += (tuple(reversed(c)),)
        self._power(2 * d - 2)
        # 1/beta = (beta^(d-1) - c1 beta^(d-2) - ... - c(d-1)) / cd, integral
        # as cd = +-1: the step of the kernel's division (:func:`_num_div`)
        self._inv_row = tuple(-c[d - 2 - k] * c[d - 1] if k < d - 1 else c[d - 1]
                              for k in range(d))
        self._inv_beta = tuple(Fraction(x) for x in self._inv_row)

    def _power(self, k):
        """Integer coordinates of beta^k, k >= 0.  The table only grows, by
        a longer copy swapped in whole, so a row once read never changes."""
        pows = self._pow_coords
        if k >= len(pows):
            row, zero, rows = pows[self.degree], (0,) * self.degree, list(pows)
            while len(rows) < max(k + 1, 2 * len(pows)):
                rows.append(_num_step(row, rows[-1], zero))
            pows = self._pow_coords = tuple(rows)
        return pows[k]

    # -- geometry ------------------------------------------------------------

    def _init_geometry(self):
        d = self.degree
        centers = []
        for j in range(d):
            disk = self.conj_enclosure(j, Fraction(1, 2 ** 70))
            centers.append(complex(float(disk.re), float(disk.im)))
        dp = poly_deriv(self.min_poly)
        vs = []
        for b in centers:
            dpb = complex(sum(float(c) * b ** k for k, c in enumerate(dp)))
            vec = np.array([b ** (d - 1 - i) for i in range(d)], dtype=complex) / dpb
            vs.append(vec)
        self.v = vs
        # float conjugate Vandermonde (row j: the powers of conjugate j) and
        # its inverse, for the lattice enumerators
        self.vand = np.array([[b ** k for k in range(d)] for b in centers])
        self.vand_inv = np.linalg.inv(self.vand)
        resid = abs(sum(vs) - np.eye(d)[0]).max()
        if resid > 1e-8:
            raise ValidationError(f"eigenvector normalization failed, residual {resid:.2e}")

        blocks = []   # ('real', j) or ('pair', j) with j the Im>0 member
        j = 1
        while j < d:
            if self.conj_kind(j) == "real":
                blocks.append(("real", j))
                j += 1
            else:
                blocks.append(("pair", j))
                j += 2
        self.hblocks = blocks
        rows = []
        mh = np.zeros((d - 1, d - 1))
        k = 0
        for kind, j in blocks:
            bj = centers[j]
            if kind == "real":
                rows.append(vs[j].real)
                mh[k, k] = bj.real
                k += 1
            else:
                rows.append(vs[j].real)
                rows.append(vs[j].imag)
                mh[k, k] = bj.real
                mh[k, k + 1] = bj.imag
                mh[k + 1, k] = -bj.imag
                mh[k + 1, k + 1] = bj.real
                k += 2
        self.hmat = np.array(rows)          # rows are the hyperplane basis vectors
        self.contract_mat = mh              # action of the companion matrix on H coordinates
        full = np.column_stack([vs[0].real] + [r for r in self.hmat])
        self.det_factor = abs(np.linalg.det(full))
        mv = self.hmat.T @ mh
        chk = np.array(self.companion, dtype=float) @ self.hmat.T
        if np.abs(mv - chk).max() > 1e-9:
            raise ValidationError("hyperplane action inconsistent with companion matrix")

    # -- element constructors -------------------------------------------------

    def qb(self, coords):
        """Element from a coordinate sequence (rationals, ints, or 'p/q' strings);
        a string, which would give one coordinate per character, or a scalar
        raises TypeError.  A float coordinate is read as its exact binary
        fraction (0.3 as 5404319552844595/2^54); configs refuse floats."""
        if isinstance(coords, str) or not hasattr(coords, "__iter__"):
            raise TypeError(f"coords must be a sequence of rationals, not {type(coords).__name__}")
        coords = list(coords)
        if len(coords) > self.degree:
            raise ValidationError("too many coordinates")
        coords += [0] * (self.degree - len(coords))
        return QBeta(self, tuple(Fraction(c) for c in coords))

    @property
    def zero(self):
        return self.qb([0])

    @property
    def one(self):
        return self.qb([1])

    @property
    def beta(self):
        return self.qb([0, 1])

    def __repr__(self):
        return f"PisotField({self.coeffs})"

    def __eq__(self, other):
        return isinstance(other, PisotField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def _num_step(row, n, qd):
    """Numerators of beta*x - d from those of x and of d, with row = beta^deg:
    n shifted up one power, plus its top coordinate times row."""
    top = n[-1]
    return tuple([c + top * r - e for c, r, e in zip((0, *n), row, qd)])


def _num_div(irow, n, qd):
    """Numerators of (x + d)/beta from those of x and of d, with irow the
    integer coordinates of 1/beta: n + qd shifted down one power, plus its
    constant coordinate times irow.  The coordinates may be ints or numpy
    integer columns, one entry per point."""
    low = n[0] + qd[0]
    return tuple([c + e + low * r for c, e, r in zip((*n[1:], 0), (*qd[1:], 0), irow)])


def _bareiss(m):
    """Forward fraction-free (Bareiss) elimination of an integer matrix: the
    echelon rows U, one per pivot, and the pivot columns pc; a column with no
    pivot left is skipped.  After r pivots U[i][j] is the minor of the
    row-permuted matrix on rows 0..r-1, i and columns pc_0..pc_(r-1), j, so
    each division by the previous pivot is exact."""
    a = [list(row) for row in m]
    n, cols = len(a), len(a[0]) if a else 0
    pcols, prev = [], 1
    for c in range(cols):
        r = piv = len(pcols)
        while piv < n and not a[piv][c]:
            piv += 1
        if piv == n:
            continue
        a[r], a[piv] = a[piv], a[r]
        p, tail = a[r][c], a[r][c + 1:]
        for row in a[r + 1:]:
            x = row[c]
            if x:
                row[c + 1:] = [(u * p - x * v) // prev for u, v in zip(row[c + 1:], tail)]
            elif p != prev:
                row[c + 1:] = [u * p // prev for u in row[c + 1:]]
            row[c] = 0
        prev = p
        pcols.append(c)
    return a[:len(pcols)], pcols


def _back_substitute(u, pcols, f):
    """Cramer numerators y and the leading minor D (the last pivot) for the
    echelon rows U and pivot columns pc of :func:`_bareiss`: U_p y = D U_f
    for any column f, by y_i = (D U_i,f - sum_(j>i) U_i,pc_j y_j) / U_i,pc_i.
    By Cramer's rule every y_i is an integer, so each division is exact."""
    den = u[-1][pcols[-1]] if u else 1
    y = [0] * len(u)
    for i in range(len(u) - 1, -1, -1):
        row = u[i]
        acc = den * row[f]
        for j in range(i + 1, len(u)):
            acc -= row[pcols[j]] * y[j]
        y[i] = acc // row[pcols[i]]
    return y, den


def _cramer(m, b):
    """The solution of the integer system m x = b as (num, den) with
    m num = den b, den > 0 and gcd(den, *num) = 1: one elimination of
    [m | b] and one back-substitution; no Fraction is formed.  Raises
    ZeroDivisionError when m is singular."""
    n = len(m)
    u, pcols = _bareiss([[*row, bi] for row, bi in zip(m, b)])
    if pcols[:n] != list(range(n)):
        raise ZeroDivisionError("singular system")
    num, den = _back_substitute(u[:n], pcols[:n], n)
    g = math.gcd(den, *num) * (1 if den > 0 else -1)
    return [c // g for c in num], den // g


def _minpoly_at_matrix(field, m):
    """q(M) for the minimal polynomial q, over the integers.

    q(M) = M^d - c1 M^(d-1) - ... - cd I is built by Horner; each product
    with M adds multiples of M's rows, holding only their nonzero entries.
    """
    n = len(m)
    c = field.coeffs
    rows = [[(j, v) for j, v in enumerate(r) if v] for r in m]
    out = [[m[i][j] - (c[0] if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, field.degree):
        prod = []
        for i, r in enumerate(out):
            acc = [0] * n
            for l, a in enumerate(r):
                if a:
                    for j, v in rows[l]:
                        acc[j] += a * v
            acc[i] -= c[k]
            prod.append(acc)
        out = prod
    return out


def _beta_eigenvector(field, m):
    """An exact w != 0 with m w = beta w for the integer matrix m, one row of
    integer Z[beta] coordinates per entry, or None when q(M) is nonsingular.

    w = r(M) v for q(x) = (x - beta) r(x) and an integer v != 0 with
    q(M) v = 0; the beta^l coordinate of r(x) is p_(d-1-l)(x) for p_0 = 1,
    p_k = x p_(k-1) - c_k.  Any rational v != 0 will do: q has simple roots,
    so v = sum_j v_j with M v_j = beta_j v_j, and r(M) v = q'(beta) v_0; as v
    is rational the v_j are the Galois conjugates of v_0, so v_0 != 0.
    """
    n = len(m)
    u, pcols = _bareiss(_minpoly_at_matrix(field, m))
    if len(pcols) == n:
        return None
    f = next(c for c in range(n) if c not in pcols)
    y, den = _back_substitute(u, pcols, f)
    v = [0] * n
    v[f] = den
    for c, yc in zip(pcols, y):
        v[c] = -yc
    ps = [v]
    for ck in field.coeffs[:-1]:
        ps.append([sum(a * x for a, x in zip(row, ps[-1])) - ck * vi
                   for row, vi in zip(m, v)])
    return list(zip(*reversed(ps)))


def _mul_matrix(field, n):
    """Integer matrix of multiplication by the element with integer
    coordinates n: its columns are n, n beta, ..., n beta^(d-1)."""
    row, zero = field._pow_coords[field.degree], (0,) * field.degree
    cols = [n]
    for _ in range(field.degree - 1):
        cols.append(_num_step(row, cols[-1], zero))
    return tuple(zip(*cols))


def make_field(*coeffs):
    """Validated Pisot-unit field from minimal-polynomial coefficients c1..cd.

    Raises NotUnit, NotIrreducible, or NotPisot when the polynomial does not
    define a Pisot unit.
    """
    if len(coeffs) == 1 and isinstance(coeffs[0], (list, tuple)):
        coeffs = tuple(coeffs[0])
    return PisotField(coeffs)


# ---------------------------------------------------------------------------

class QBeta:
    """An element of Q(beta) as an exact rational vector over {1, beta, ...}."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    # -- ring operations

    def _chk(self, other):
        if isinstance(other, int):
            other = self.field.qb([other])
        if not isinstance(other, QBeta):
            raise TypeError(f"cannot combine QBeta with {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch("operands belong to different fields")
        return other

    def __add__(self, other):
        other = self._chk(other)
        return QBeta(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._chk(other)
        return QBeta(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return QBeta(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QBeta(self.field, tuple(a * other for a in self.coords))
        other = self._chk(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b != 0:
                    prod[i + j] += a * b
        out = list(prod[:d])
        pows = self.field._pow_coords
        for k in range(d, 2 * d - 1):
            if prod[k] != 0:
                row = pows[k]
                for i in range(d):
                    out[i] += prod[k] * row[i]
        return QBeta(self.field, tuple(out))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QBeta(self.field, tuple(a / other for a in self.coords))
        other = self._chk(other)
        return self * other.inv()

    def div_beta(self):
        """Exact division by beta (stays in Z[beta] for integral elements)."""
        return self * QBeta(self.field, self.field._inv_beta)

    def inv(self):
        """Exact multiplicative inverse, on integers: with the coordinates
        written as integer numerators n over one q, 1/x = q/n solves
        M_n y = q e_1 for the integer multiplication matrix M_n of n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        q = math.lcm(*(c.denominator for c in self.coords))
        n = tuple(c.numerator * (q // c.denominator) for c in self.coords)
        num, den = _cramer(_mul_matrix(self.field, n), (q,) + (0,) * (len(n) - 1))
        return QBeta(self.field, tuple(Fraction(c, den) for c in num))

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.qb([other])
        return isinstance(other, QBeta) and self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.coords, self.field.coeffs))

    def __lt__(self, other):
        return qb_compare(self, self._chk(other)) == LT

    def __le__(self, other):
        return qb_compare(self, self._chk(other)) != GT

    def __gt__(self, other):
        return qb_compare(self, self._chk(other)) == GT

    def __ge__(self, other):
        return qb_compare(self, self._chk(other)) != LT

    def __float__(self):
        v, _, _, den = _embed(self.field, self.coords, 0, Fraction(1, 2 ** 61))
        return v / den

    def __abs__(self):
        return -self if qb_compare(self, self.field.zero) == LT else self

    def __repr__(self):
        return "QB(" + ", ".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# embeddings

def _embed(fld, coords, j, radius, q=1):
    """The j-th embedding of sum_k c_k beta^k / q, for coordinates c (ints or
    Fractions) and an integer q > 0, as integers (re, im, rad, den): the
    value lies within rad / den of (re + im i) / den, and rad / den <=
    ``radius``.

    (re + im i) / den is the value at the Gaussian dyadic centre z of the
    conjugate's disk, by integer Horner (:func:`_gauss_horner`) on the
    numerators n_k over one denominator m.  Every point of a disk of radius
    r holds |.| <= B for the integer B = floor(|Re z| + |Im z|) + 1 + ceil(r),
    so the value moves by at most r sum_k k |n_k| B^(k-1) / m across it.
    While that exceeds ``radius`` the disk is refined in place.
    """
    m = math.lcm(*(c.denominator for c in coords))
    n = [c.numerator * (m // c.denominator) for c in coords]
    shift, m = len(n) - 1, m * q
    while True:
        disk = fld._disks[j]
        a, b, e = disk.a, disk.b, disk.k
        big = ((abs(a) + abs(b)) >> e) + 1 + _ceil_scaled(disk.radius, 0)
        slope = sum(k * abs(c) * big ** (k - 1) for k, c in enumerate(n) if k)
        den = m << (e * shift)
        rad = _ceil_scaled(disk.radius, e * shift) * slope
        if rad * radius.denominator <= radius.numerator * den:
            re, im = _gauss_horner(n, a, b, e)
            return re, im, rad, den
        fld._refine_disk(j, min(disk.radius / 2, radius * m / (2 * slope)))


def gamma(x, j, precision=53):
    """Certified numeric enclosure of the j-th embedding of x (0-based).

    ``precision`` is in bits: the returned radius is at most 2**(1-precision)
    times max(1, |x|) plus float-conversion slack.
    """
    target = Fraction(1, 2 ** precision) * (1 + sum(abs(c) for c in x.coords))
    re, im, rad, den = _embed(x.field, x.coords, j, target)
    center = complex(re / den, im / den)
    conv = (abs(Fraction(re, den) - Fraction(center.real))
            + abs(Fraction(im, den) - Fraction(center.imag)))
    return Enclosure(center, _to_float_up(Fraction(rad, den) + conv) + 5e-324)


def gamma_abs_upper(x, j):
    """Certified rational upper bound for |Gamma_j(x)|."""
    re, im, rad, den = _embed(x.field, x.coords, j, Fraction(1, 2 ** 30))
    return Fraction(math.isqrt(re * re + im * im) + 1 + rad, den)


def _float_value(fld, coords, q=1):
    """Float value v of sum_k c_k beta^k / q and the certified bound
    e >= |v - sum_k c_k beta^k / q| of the module docstring, plus an
    underflow term.

    ``coords`` are Fractions or ints; each c_k / q is rounded once to the
    nearest float.  e is infinite when a coordinate has no finite float or
    S overflows.
    """
    try:
        cs = [c.numerator / (c.denominator * q) for c in coords]
    except OverflowError:
        return 0.0, math.inf
    b, big = fld._float_beta, fld._float_big
    v = s = 0.0
    for c in reversed(cs):
        v = v * b + c
        s = s * big + abs(c)
    if not s < _FLOAT_SUM_MAX:
        return v, math.inf
    return v, fld._float_rel * s + fld._float_abs


def _float_span(fld, coords, q=1):
    """[v - e, v + e] from :func:`_float_value`, rounded outwards: a float
    interval certified to hold the real value of sum_k c_k beta^k / q."""
    v, e = _float_value(fld, coords, q)
    return math.nextafter(v - e, -math.inf), math.nextafter(v + e, math.inf)


def _num_sign(fld, n, q=1):
    """Sign of sum_k n_k beta^k / q, as LT, EQ or GT, for coordinates n
    (integers or Fractions) and an integer q > 0.

    The sign of the float value v of :func:`_float_value` is returned when
    |v| exceeds its certified bound e; inside that band all-zero coordinates
    are EQ, and otherwise the exact loop runs: :func:`_embed` at beta,
    narrowed by 2^-64 per round until it excludes zero.  Every exact
    comparison of the library ends here, on a difference it has formed.
    """
    v, e = _float_value(fld, n, q)
    if v > e:
        return GT
    if -v > e:
        return LT
    if not any(n):
        return EQ
    radius = Fraction(1, 2 ** 64)
    while True:
        v, _, rad, _ = _embed(fld, n, 0, radius, q)
        if v > rad:
            return GT
        if v < -rad:
            return LT
        radius /= 2 ** 64


def _span_compare(fld, x, y, q, sx, sy, ys=1):
    """Three-way comparison of the points x/q and ys*y/q, given by integer
    numerators and their certified float spans sx and sy
    (:func:`_float_span`): disjoint spans decide, else :func:`_num_sign`
    of x - ys*y."""
    if sx[1] < sy[0]:
        return LT
    if sx[0] > sy[1]:
        return GT
    return _num_sign(fld, tuple(a - ys * b for a, b in zip(x, y)), q)


def _num_sorted(fld, pts, q):
    """The points pts of (1/q) Z[beta], given by integer numerators, sorted by
    value with :func:`_span_compare`, and their float spans in that order."""
    span = {p: _float_span(fld, p, q) for p in pts}
    out = sorted(span, key=functools.cmp_to_key(
        lambda x, y: _span_compare(fld, x, y, q, span[x], span[y])))
    return out, [span[p] for p in out]


def _num_cmp(fld, q):
    """Three-way comparison of points of (1/q) Z[beta] given by integer
    numerators (:func:`_span_compare`), on float spans cached per point."""
    span = {}
    look = lambda e: span.get(e) or span.setdefault(e, _float_span(fld, e, q))
    return lambda x, y: _span_compare(fld, x, y, q, look(x), look(y))


def _num_bisect(fld, ends, spans, n, q, s=1, left=False):
    """How many points of ``ends``, sorted integer numerators over q/s with
    their float spans, are <= n/q, or < n/q when ``left``: a bisection that
    compares the point's certified float span with each end's inline and
    calls :func:`_num_sign` of the difference only where the two overlap.
    The point's span is :func:`_float_span`'s, formed inline: this is the
    lookup of every orbit step."""
    b, big, v, sm = fld._float_beta, fld._float_big, 0.0, 0.0
    try:
        for c in reversed(n):
            c = c.numerator / (c.denominator * q)
            v = v * b + c
            sm = sm * big + abs(c)
    except OverflowError:
        sm = math.inf
    e = fld._float_rel * sm + fld._float_abs if sm < _FLOAT_SUM_MAX else math.inf
    xlo, xhi = math.nextafter(v - e, -math.inf), math.nextafter(v + e, math.inf)
    lo, hi = 0, len(ends)
    while lo < hi:
        mid = (lo + hi) // 2
        elo, ehi = spans[mid]
        c = LT if xhi < elo else GT if xlo > ehi else _num_sign(
            fld, tuple(a - s * b for a, b in zip(n, ends[mid])), q)
        if c == LT or (left and c == EQ):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _nums(coords, q):
    """Integer numerators over q of coordinates whose denominators divide q."""
    return tuple(c.numerator * (q // c.denominator) for c in coords)


def _sole(labels):
    """The label of a cell of a disjoint family: its one label, or None."""
    return labels[0] if labels else None


class _EndTable:
    """The lookup table of a family of half-open intervals (lo, hi, label),
    ends given as integer numerators over the frame q.

    It holds the distinct ends sorted by value (:func:`_num_sorted`), their
    certified float spans, and one label per cell: cell k is
    [ends[k-1], ends[k]), or (ends[k-1], ends[k]] with ``left``, cell 0 lies
    below every end and the last cell above them.  A cell's label is ``cell``
    of the labels of the intervals that cover it: their set by default,
    :func:`_sole` for a disjoint family.  A caller that has sorted the ends
    already passes them with their spans as ``order``.  Every lookup is one
    :func:`_num_bisect`.  The labelled bounded cells (:meth:`cells`) are the
    intervals of a disjoint family whose touching members differ in label.
    """

    __slots__ = ("field", "q", "unit", "left", "ends", "spans", "labels")

    def __init__(self, fld, q, intervals, cell=frozenset, left=False, order=None):
        self.field, self.q, self.unit, self.left = fld, q, Fraction(1, q), left
        self.ends, self.spans = order or _num_sorted(
            fld, {e for lo, hi, _ in intervals for e in (lo, hi)}, q)
        pos = {e: k for k, e in enumerate(self.ends)}
        cells = [[] for _ in range(len(self.ends) + 1)]
        for lo, hi, label in intervals:
            for k in range(pos[lo] + 1, pos[hi] + 1):
                cells[k].append(label)
        self.labels = [cell(c) for c in cells]

    def flipped(self):
        """The same cells, each closed at its other end."""
        out = copy.copy(self)
        out.left = not self.left
        return out

    def cells(self):
        """The bounded cells not labelled None, as (lo, hi, label) in order."""
        return [c for c in zip(self.ends, self.ends[1:], self.labels[1:]) if c[2] is not None]

    def at(self, n, q):
        """The label of the point n/q, for integer numerators n over a
        multiple q of the table's frame."""
        return self.labels[_num_bisect(self.field, self.ends, self.spans, n, q,
                                       q // self.q, self.left)]

    def cell_of(self, x):
        """The cell of the field element x, bisected on its rational
        coordinates (an end is its numerators times ``unit``); raises
        TypeError when x is no QBeta and FieldMismatch when it is not in the
        table's field."""
        if not isinstance(x, QBeta):
            raise TypeError(f"x must be a QBeta, not {type(x).__name__}")
        if x.field is not self.field and x.field != self.field:
            raise FieldMismatch("point and intervals belong to different fields")
        return _num_bisect(self.field, self.ends, self.spans, x.coords, 1, self.unit, self.left)

    def of(self, x):
        """The label of the field element x (:meth:`cell_of`)."""
        return self.labels[self.cell_of(x)]


def qb_compare(x, y):
    """Exact three-way comparison; -1, 0, 1 for <, =, >: equal coordinates
    are EQ, else :func:`_num_sign` of the difference x - y."""
    if x.field != y.field:
        raise FieldMismatch("cannot compare elements of different fields")
    if x.coords == y.coords:
        return EQ
    return _num_sign(x.field, tuple(a - b for a, b in zip(x.coords, y.coords)))


def qb_floor(x):
    """Exact floor of a field element.

    Returns the floor of the float interval of :func:`_float_span` when both
    its ends have the same floor; otherwise narrows the enclosure of x from
    :func:`_embed` until its ends have the same floor.
    """
    if x.is_rational():
        return math.floor(x.coords[0])
    lo, hi = _float_span(x.field, x.coords)
    if hi - lo < 1 and math.floor(lo) == math.floor(hi):
        return math.floor(lo)
    radius = Fraction(1, 32)
    while True:
        v, _, rad, den = _embed(x.field, x.coords, 0, radius)
        if (v - rad) // den == (v + rad) // den:
            return (v - rad) // den
        radius /= 256


def qb_ceil(x):
    if x.is_rational():
        return math.ceil(x.coords[0])
    return qb_floor(x) + 1


# ---------------------------------------------------------------------------
# lattice and hyperplane maps

@dataclass(frozen=True)
class HPoint:
    """A point of the contracting hyperplane in basis coordinates, with a
    certified error radius (Euclidean in these coordinates)."""
    coords: tuple
    err: float

    def __iter__(self):
        return iter(self.coords)


def psi(x):
    """Exact lattice embedding: psi(x) = sum_k q_k M^k e_1 (rational vector)."""
    cols = x.field._psi_cols
    d = x.field.degree
    out = [Fraction(0)] * d
    for k, q in enumerate(x.coords):
        if q != 0:
            col = cols[k]
            for i in range(d):
                out[i] += q * col[i]
    return tuple(out)


def pi1(vec, field):
    """Exact inverse of psi: the Q(beta) element whose lattice image is vec."""
    d = field.degree
    try:
        vec = tuple(Fraction(v) for v in vec)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"vec must be a sequence of rationals: {exc}") from None
    if len(vec) != d:
        raise ValidationError("vector length does not match field degree")
    rows = field._pi1_rows
    coords = tuple(sum(rows[k][i] * vec[i] for i in range(d)) for k in range(d))
    return QBeta(field, coords)


def phi(x, precision=53):
    """Certified hyperplane component of psi(x), in hyperplane coordinates."""
    fld = x.field
    coords = []
    err = 0.0
    for kind, j in fld.hblocks:
        enc = gamma(x, j, precision)
        if kind == "real":
            coords.append(enc.center.real)
            err += enc.radius ** 2
        else:
            coords.append(2 * enc.center.real)
            coords.append(-2 * enc.center.imag)
            err += 8 * enc.radius ** 2
    return HPoint(tuple(coords), math.sqrt(err) * (1 + 1e-12) + _FLOAT_SLACK)
