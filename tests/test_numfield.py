import functools
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betatiling.betamap import Expansion, expand, expansion_value, transform_from_config
from betatiling.errors import NotIrreducible, NotPisot, NotUnit, ValidationError
from betatiling import rootiso
from betatiling.numfield import (EQ, GT, LT, PisotField, _back_substitute, _bareiss, _cramer,
                                 _float_value, _num_div, _num_step, gamma,
                                 make_field, phi, pi1, psi, qb_compare, qb_floor)
from betatiling.rootiso import certified_roots, is_irreducible_monic
from conftest import CUBIC_UNITS, gamma_interval

coord = st.fractions(min_value=-50, max_value=50, max_denominator=40)


# ---------------------------------------------------------------------------
# construction

def test_golden_field_data(golden):
    assert golden.degree == 2
    assert golden.companion == ((1, 1), (1, 0))
    b = (1 + math.sqrt(5)) / 2
    # v1 = (b^2, b) / (b^2 + 1), v2 = (1, -b) / (b^2 + 1)
    v1 = np.array([b * b, b]) / (b * b + 1)
    v2 = np.array([1.0, -b]) / (b * b + 1)
    assert np.allclose(golden.v[0].real, v1, atol=1e-12)
    assert np.allclose(golden.v[1].real, v2, atol=1e-12)
    assert abs(golden.rho - 1 / b) < 1e-9


def test_tribonacci_conjugate_pair(tribonacci):
    # independent root computation
    roots = np.roots([1, -1, -1, -1])
    complexes = sorted([r for r in roots if abs(r.imag) > 1e-9], key=lambda z: z.imag)
    assert len(complexes) == 2
    assert abs(complexes[0] - complexes[1].conjugate()) < 1e-9
    g2 = gamma(tribonacci.beta, 1)
    g3 = gamma(tribonacci.beta, 2)
    assert abs(g2.center - g3.center.conjugate()) < 1e-9
    assert abs(g2.center) < 1
    assert {round(abs(g2.center - c), 6) for c in complexes} & {0.0}


def test_not_unit():
    with pytest.raises(NotUnit):
        make_field(0, 2)


def test_not_irreducible():
    with pytest.raises(NotIrreducible):
        make_field(0, 1)          # x^2 - 1
    with pytest.raises(NotIrreducible):
        make_field(2, 0, -2, 1)   # has rational root 1


@pytest.mark.parametrize("coeffs", [(1.5, 1), (Fraction(3, 2), 1), (1, 1.000001)])
def test_non_integer_coefficients_are_refused(coeffs):
    with pytest.raises(ValidationError):
        make_field(*coeffs)
    with pytest.raises(ValidationError):
        transform_from_config({"preset": "greedy", "field": list(coeffs)})
    assert make_field(1.0, Fraction(1)) == make_field(1, 1)


def test_not_pisot():
    with pytest.raises(NotPisot):
        make_field(-1, 1)     # roots 0.618, -1.618: no real root > 1
    with pytest.raises(NotPisot):
        make_field(1, -1)     # x^2 - x + 1, complex roots on the unit circle


# ---------------------------------------------------------------------------
# arithmetic

def test_minimal_polynomial_relation(golden):
    b = golden.beta
    assert (b * b - b - golden.one).is_zero()


def test_inv_beta_golden(golden):
    inv = golden.one.div_beta()
    assert inv.coords == (Fraction(-1), Fraction(1))
    assert (inv * golden.beta) == golden.one


def test_inv_beta_tribonacci(tribonacci):
    inv = tribonacci.one.div_beta()
    # beta^2 - beta - 1, checked by symbolic multiplication
    assert inv.coords == (Fraction(-1), Fraction(-1), Fraction(1))
    assert (inv * tribonacci.beta) == tribonacci.one


def test_general_inverse(tribonacci):
    x = tribonacci.qb(["2/3", "-1/5", "4"])
    assert (x * x.inv()) == tribonacci.one


# ---------------------------------------------------------------------------
# integer division against the Fraction Gauss-Jordan reference

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
FIELDS = sorted({tuple(json.loads(p.read_text())["field"]) for p in CONFIGS.glob("*.json")}
                | {(1, 1, 1, 1)})
QUERY_TRANSFORMS = ["golden_greedy", "golden_lazy", "golden_minweight",
                    "tribonacci_symmetric", "smallest_pisot_symmetric"]


def _invert_rational_matrix(m):
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                g = a[r][col]
                a[r] = [x - g * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _mul_matrix(x):
    """Matrix of multiplication by x: columns x, x beta, ..., x beta^(d-1)."""
    d = x.field.degree
    cols = [(x * x.field.beta ** k).coords for k in range(d)]
    return [[cols[k][i] for k in range(d)] for i in range(d)]


def _inv_reference(x):
    """1/x as the first column of the inverse multiplication matrix, by
    Fraction Gauss-Jordan elimination."""
    inv = _invert_rational_matrix(_mul_matrix(x))
    return x.field.qb([row[0] for row in inv])


@pytest.mark.parametrize("coeffs", FIELDS)
def test_inverse_matches_gauss_jordan_reference(coeffs):
    f = make_field(*coeffs)
    d = f.degree
    rng = random.Random(hash(coeffs))
    small = [f.qb([rng.randint(-9, 9) for _ in range(d)]) for _ in range(12)]
    rational = [f.qb([Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 60))
                      for _ in range(d)]) for _ in range(12)]
    huge = [f.qb([Fraction(rng.choice((-1, 1)) * rng.randint(2 ** 200, 2 ** 210),
                           rng.choice((1, 1, 3, 2 ** 70 + 1))) for _ in range(d)])
            for _ in range(6)]
    # -x and x*beta flip the sign of the norm in odd degree and wherever
    # N(beta) = -1, so every field meets both signs
    xs = [y for x in small + rational + huge if not x.is_zero()
          for y in (x, -x, x * f.beta, -x * f.beta)]
    signs = {np.sign(np.linalg.det(np.array(_mul_matrix(x), dtype=float)))
             for x in small if not x.is_zero()}
    assert signs == {-1.0, 1.0}
    assert max(abs(c) for x in huge for c in x.coords) > 2 ** 200
    for x in xs:
        inv = x.inv()
        assert inv == _inv_reference(x), x
        assert x * inv == f.one
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()


@pytest.mark.parametrize("coeffs", FIELDS)
def test_pi1_rows_match_gauss_jordan_reference(coeffs):
    f = make_field(*coeffs)
    d = f.degree
    cols = [psi(f.qb([0] * k + [1])) for k in range(d)]
    ref = _invert_rational_matrix([[cols[k][i] for k in range(d)] for i in range(d)])
    assert [list(row) for row in f._pi1_rows] == ref


def test_cramer_contract():
    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-2 ** 80, 2 ** 80) for _ in range(n)]
        ref = _invert_rational_matrix(m) if np.linalg.matrix_rank(np.array(m)) == n else None
        if ref is None:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                _cramer(m, b)
            continue
        num, den = _cramer(m, b)
        assert den > 0 and math.gcd(den, *num) == 1
        assert [sum(a * c for a, c in zip(row, num)) for row in m] == [den * c for c in b]
        assert [Fraction(c, den) for c in num] == [sum(r * c for r, c in zip(row, b))
                                                   for row in ref]
    assert singular > 10


def test_bareiss_kernel_of_known_rank():
    # m = L R with L (n x k) and R (k x cols) each holding a k x k identity
    # block, so rank m = k; every free column gives a kernel vector
    rng = random.Random(12)
    for _ in range(300):
        n, cols = rng.randint(1, 7), rng.randint(1, 8)
        k = rng.randint(0, min(n, cols))
        left = [[int(i == j) if i < k else rng.randint(-4, 4) for j in range(k)]
                for i in range(n)]
        rng.shuffle(left)
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
        for i, c in enumerate(rng.sample(range(cols), k)):
            for j in range(k):
                right[j][c] = int(i == j)
        m = [[sum(row[j] * right[j][c] for j in range(k)) for c in range(cols)] for row in left]
        u, pcols = _bareiss(m)
        assert len(u) == len(pcols) == k and pcols == sorted(set(pcols))
        assert all(not any(row[:c]) and row[c] for row, c in zip(u, pcols))
        for f in set(range(cols)) - set(pcols):
            y, den = _back_substitute(u, pcols, f)
            v = [0] * cols
            v[f] = den
            for c, yc in zip(pcols, y):
                v[c] = -yc
            assert den != 0
            assert [sum(a * x for a, x in zip(row, v)) for row in m] == [0] * n


@pytest.mark.parametrize("name", QUERY_TRANSFORMS)
def test_expansion_value_matches_reference_division(name):
    # sum_k a_k beta^(n-k) times the reference inverse of beta^n - 1, then
    # the preperiod by division by beta, on the expansions of sample points
    # and on random words with periods above 200
    t = transform_from_config(json.loads((CONFIGS / f"{name}.json").read_text()))
    f = t.field
    rng = random.Random(name)
    b = float(f.beta)
    words = []
    for q in (3, 7, 13, 61, 97):
        pts = []
        while len(pts) < 4:
            rest = [rng.randint(-2 * q, 2 * q) for _ in range(f.degree - 1)]
            shift = sum(c * b ** (k + 1) for k, c in enumerate(rest))
            a0 = math.floor(q * rng.uniform(float(t.xmin), float(t.xmax)) - shift)
            x = f.qb([Fraction(c, q) for c in [a0] + rest])
            if t.contains(x):
                pts.append(x)
        words += [expand(t, x) for x in pts]
    for n in (1, 2, 57, 201, 333):
        words.append(Expansion(tuple(rng.randrange(len(t.digits)) for _ in range(rng.randint(0, 6))),
                               tuple(rng.randrange(len(t.digits)) for _ in range(n))))
    assert len(words) > 15 and max(len(w.period) for w in words) > 200
    for w in words:
        acc = f.zero
        for a in w.period:
            acc = acc * f.beta + t.digits[a]
        val = acc * _inv_reference(f.beta ** len(w.period) - f.one)
        for a in reversed(w.preperiod):
            val = (val + t.digits[a]).div_beta()
        assert expansion_value(t, w) == val, (name, w)


def test_compare_examples(golden, smallest_pisot):
    b = golden.beta
    assert qb_compare(b * b, b + golden.one) == EQ
    assert qb_compare(golden.one.div_beta(), golden.one) == LT
    # 3 - 2*beta for the smallest Pisot number: the root is ~1.3247 (mpmath
    # refinement is the independent oracle), so the sign is positive
    with mpmath.workdps(30):
        root = mpmath.findroot(lambda x: x ** 3 - x - 1, 1.3)
        assert 3 - 2 * root > 0.3
    assert qb_compare(smallest_pisot.qb([3, -2]), smallest_pisot.zero) == GT


def test_gamma_examples(golden):
    b = golden.beta
    enc = gamma(b, 1)
    assert abs(enc.center - (-1 / ((1 + math.sqrt(5)) / 2))) <= enc.radius + 1e-12
    five = gamma(golden.qb([5]), 1)
    assert five.center == 5 and five.radius < 1e-12


def test_gamma_precision_request(golden):
    # float presentation is capped by the double width; exact enclosures are not
    enc = gamma(golden.qb(["1/3", "2/7"]), 1, precision=120)
    assert enc.radius < 2 ** -50
    lo, hi = gamma_interval(golden.qb(["1/3", "2/7"]), 1, Fraction(1, 2 ** 120))
    assert hi - lo <= Fraction(1, 2 ** 120)


# ---------------------------------------------------------------------------
# lattice and hyperplane maps

def test_psi_examples(golden):
    assert psi(golden.zero) == (0, 0)
    assert psi(golden.one) == (1, 0)
    assert psi(golden.beta) == (1, 1)
    assert phi(golden.zero).coords == (0.0,)


def test_pi1_roundtrip_100(golden):
    import random
    rng = random.Random(7)
    for _ in range(100):
        x = golden.qb([rng.randint(-50, 50), rng.randint(-50, 50)])
        assert pi1(psi(x), golden) == x


@given(a=coord, b=coord)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(golden, a, b):
    x = golden.qb([a, b])
    assert pi1(psi(x), golden) == x


@given(a=coord, b=coord, c=coord, d=coord)
@settings(max_examples=40, deadline=None)
def test_psi_homomorphism(golden, a, b, c, d):
    x, y = golden.qb([a, b]), golden.qb([c, d])
    px, py = psi(x), psi(y)
    assert psi(x + y) == tuple(u + v for u, v in zip(px, py))
    m = golden.companion
    assert psi(x * golden.beta) == tuple(
        sum(Fraction(m[i][k]) * px[k] for k in range(2)) for i in range(2))


@given(a=coord, b=coord, c=coord)
@settings(max_examples=25, deadline=None)
def test_conjugation_consistency(tribonacci, a, b, c):
    x = tribonacci.qb([a, b, c])
    target = np.zeros(3, dtype=complex)
    for j in range(3):
        target += gamma(x, j, 80).center * tribonacci.v[j]
    got = np.array([float(v) for v in psi(x)], dtype=complex)
    assert np.abs(target - got).max() < 1e-7 * (1 + np.abs(got).max())


@given(a=coord, b=coord, c=coord, d=coord)
@settings(max_examples=40, deadline=None)
def test_ordering_consistency(golden, a, b, c, d):
    x, y = golden.qb([a, b]), golden.qb([c, d])
    lo_x, hi_x = gamma_interval(x, 0, Fraction(1, 2 ** 80))
    lo_y, hi_y = gamma_interval(y, 0, Fraction(1, 2 ** 80))
    if hi_x < lo_y:
        assert qb_compare(x, y) == LT
    elif hi_y < lo_x:
        assert qb_compare(x, y) == GT


@given(px=st.floats(-5, 5), py=st.floats(-5, 5))
@settings(max_examples=40, deadline=None)
def test_hyperplane_contraction(tribonacci, px, py):
    p = np.array([px, py])
    assert np.linalg.norm(tribonacci.contract_mat @ p) <= \
        tribonacci.rho * np.linalg.norm(p) + 1e-9


def test_floor_and_simple_rational(golden):
    assert qb_floor(golden.beta) == 1
    assert qb_floor(golden.qb(["7/2"])) == 3


# ---------------------------------------------------------------------------
# float filter against the exact interval loop

def _imul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps)


def _horner_interval(coords, lo, hi):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coords):
        acc = _imul(acc, (lo, hi))
        acc = (acc[0] + c, acc[1] + c)
    return acc


def _beta_interval(f, width):
    disk = f.conj_enclosure(0, width / 2)
    return disk.re - disk.radius, disk.re + disk.radius


def _ref_compare(x, y):
    """qb_compare without the float filter: Fraction interval Horner on a
    rational interval around beta."""
    if x.coords == y.coords:
        return EQ
    diff = tuple(a - b for a, b in zip(x.coords, y.coords))
    width = Fraction(1, 2 ** 64)
    while True:
        lo, hi = _beta_interval(x.field, width)
        vlo, vhi = _horner_interval(diff, lo, hi)
        if vlo > 0:
            return GT
        if vhi < 0:
            return LT
        width /= 2 ** 64


def _ref_floor(x):
    width = Fraction(1, 16)
    while True:
        lo, hi = _beta_interval(x.field, width)
        vlo, vhi = _horner_interval(x.coords, lo, hi)
        if math.floor(vlo) == math.floor(vhi):
            return math.floor(vlo)
        width /= 2 ** 16


def _near_ties(f):
    """Pairs (x, y) whose difference lies in or near the float band."""
    zero, one, b = f.zero, f.one, f.beta
    inv = one.div_beta()
    pows = [one]
    for _ in range(60):
        pows.append(pows[-1] * inv)
    pairs = [(p, zero) for p in pows] + [(-p, zero) for p in pows]
    pairs += [(p, r) for p, r in zip(pows, pows[1:])]
    pairs += [(pows[k], pows[k] + pows[60]) for k in range(0, 61, 5)]
    # F_(n+1) - F_n beta on golden, T_(n+1) - T_n beta on Tribonacci
    seq = [0, 1] if f.degree == 2 else [0, 0, 1]
    while len(seq) < 84:
        seq.append(sum(seq[-f.degree:]))
    for n in range(1, 81):
        x = f.qb([seq[n + 1]]) - f.qb([seq[n]]) * b
        pairs += [(x, zero), (x + pows[40], zero), (x, x + pows[60])]
    # consecutive points of a 200-step orbit under x -> (x + a) / beta, whose
    # coordinates grow like beta^k while the values stay bounded
    rng = random.Random(5)
    orbit = [f.qb(["1/3"])]
    for _ in range(200):
        orbit.append((orbit[-1] + rng.randint(0, 1)).div_beta())
    pairs += list(zip(orbit, orbit[1:])) + list(zip(orbit, orbit[2:]))
    pairs += [(p - q + one, one) for p, q in zip(orbit, orbit[1:])]
    # equal values with different denominators
    x = f.qb(["1/3", "2/7"])
    pairs += [(x, f.qb([Fraction(2, 6), Fraction(4, 14)])), (x * 3 / 3, x)]
    return pairs


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1)])
def test_float_filter_matches_exact_loop(coeffs):
    f = make_field(*coeffs)
    pairs = _near_ties(f)
    banded = 0
    for x, y in pairs:
        assert qb_compare(x, y) == _ref_compare(x, y), (x, y)
        assert qb_compare(y, x) == _ref_compare(y, x), (x, y)
        d = x - y
        for z in (d, d + f.one, -d, d * 2 + f.one):
            if not z.is_rational():
                assert qb_floor(z) == _ref_floor(z), z
        v, e = _float_value(f, d.coords)
        banded += not abs(v) > e
    assert banded > len(pairs) // 4


def test_float_filter_huge_coordinates_take_exact_path(golden, tribonacci):
    big = 10 ** 400
    for f in (golden, tribonacci):
        eps = f.one.div_beta() ** 60
        tiny = f.qb([0] * (f.degree - 1) + [Fraction(1, big)])
        for x in (f.qb([big + 1, -big]), f.qb([Fraction(big, 3), 1]),
                  f.qb([big]) * (f.beta - f.qb([Fraction(big + 1, big)]))):
            assert _float_value(f, x.coords)[1] == math.inf
            for y in (f.zero, x + eps, x - eps, x + f.one, x + tiny):
                assert qb_compare(x, y) == _ref_compare(x, y), (x, y)
                assert qb_compare(y, x) == _ref_compare(y, x), (x, y)
            if not x.is_rational():
                assert qb_floor(x) == _ref_floor(x), x
        # a coordinate whose float underflows to zero is covered by the bound
        for x in (tiny, -tiny, f.one + tiny, f.one - tiny):
            for y in (f.zero, f.one):
                assert qb_compare(x, y) == _ref_compare(x, y), (x, y)
            assert qb_floor(x) == _ref_floor(x), x


# ---------------------------------------------------------------------------
# certified complex conjugates

DISK_FIELDS = sorted({tuple(json.loads(p.read_text())["field"]) for p in CONFIGS.glob("*.json")}
                     | set(CUBIC_UNITS)
                     | {(1, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 1, 1)})


def test_cubic_units_of_the_survey_range():
    # make_field accepts exactly these 19 of x^3 - a x^2 - b x - c with
    # a in [-1, 3], b in [-2, 3], c = +-1
    accepted = []
    for a, b, c in itertools.product(range(-1, 4), range(-2, 4), (1, -1)):
        try:
            make_field(a, b, c)
        except (NotIrreducible, NotPisot):
            continue
        accepted.append((a, b, c))
    assert sorted(accepted) == CUBIC_UNITS


def _oracle_roots(p):
    # every root of p by mpmath at 150 digits, far below any radius; a root
    # of |Im| below 10^-100 is real
    with mpmath.workdps(150):
        roots = mpmath.polyroots([int(c) for c in reversed(p)], maxsteps=400, extraprec=200)
        return [mpmath.mpf(mpmath.re(r)) if abs(mpmath.im(r)) < mpmath.mpf(10) ** -100 else r
                for r in roots]


def _holds(disk, root):
    with mpmath.workdps(150):
        c = mpmath.mpc(mpmath.mpf(disk.re.numerator) / disk.re.denominator,
                       mpmath.mpf(disk.im.numerator) / disk.im.denominator)
        return abs(root - c) < mpmath.mpf(disk.radius.numerator) / disk.radius.denominator


def _inside(inner, outer):
    # |c_inner - c_outer| + r_inner <= r_outer, exactly
    gap = outer.radius - inner.radius
    return gap >= 0 and (inner.re - outer.re) ** 2 + (inner.im - outer.im) ** 2 <= gap ** 2


@pytest.mark.parametrize("coeffs", DISK_FIELDS)
def test_complex_conjugate_disks_are_certified(coeffs):
    # every conjugate's disk, the real ones included, against mpmath
    f = make_field(*coeffs)
    d, disks = f.degree, f._disks
    oracle = _oracle_roots(f.min_poly)
    assert sorted(disks) == list(range(d)) and len(oracle) == d
    held = []
    for j, disk in disks.items():
        # each disk holds exactly one root; the axis-centred ones hold the
        # real roots, the others the non-real ones
        (root,) = [r for r in oracle if _holds(disk, r)]
        held.append(root)
        assert isinstance(root, mpmath.mpf) == (disk.im == 0) == (f.conj_kind(j) == "real")
    assert len({id(r) for r in held}) == d
    for a, b in itertools.combinations(disks.values(), 2):
        gap = (a.re - b.re) ** 2 + (a.im - b.im) ** 2
        assert gap > (a.radius + b.radius) ** 2
    # beta, then the real conjugates ascending, then the pairs: Im > 0 first,
    # its mirror second, the pairs by centre
    kinds = [f.conj_kind(j) for j in range(d)]
    n_real = kinds.count("real")
    assert kinds == ["real"] * n_real + ["complex"] * (d - n_real)
    assert held[0] > 1 and all(held[j] < held[j + 1] for j in range(1, n_real - 1))
    ups = [disks[j] for j in range(n_real, d, 2)]
    for j in range(n_real, d, 2):
        up, down = disks[j], disks[j + 1]
        assert up.im > 0 and (down.re, down.im, down.radius) == (up.re, -up.im, up.radius)
    assert ups == sorted(ups, key=lambda dk: (dk.re, dk.im))
    # rho bounds every other conjugate and is below 1; the float filter's
    # bound on beta covers |beta - beta-hat|
    assert f.rho < 1 and all(abs(r) <= f.rho for r in held[1:])
    v, e = _float_value(f, (0, 1) + (0,) * (d - 2))
    assert v == f._float_beta
    with mpmath.workdps(150):
        assert abs(held[0] - mpmath.mpf(v)) <= e / (2 * d * f._float_big)
        assert held[0] <= f._float_big


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (2, -1, 1), (1, 1, 1, 1, 1), (3, 0, -1),
                                    (1, 1, 1, 1)])
def test_refined_disk_lies_inside_the_disk_it_refined(coeffs):
    f = PisotField(coeffs)
    oracle = _oracle_roots(f.min_poly)
    for j in range(f.degree):
        before = dict(f._disks)
        old = before[j]
        new = f.conj_enclosure(j, Fraction(1, 2 ** 300))
        assert new.radius <= Fraction(1, 2 ** 300) and _inside(new, old)
        assert sum(_holds(new, r) for r in oracle) == 1
        assert (new.im == 0) == (old.im == 0)
        # a pair's mirror partner took the mirror image; a real disk wrote
        # no mirror, and no other disk changed
        partner = j + 1 if new.im > 0 else j - 1 if new.im < 0 else None
        if partner is not None:
            mirror = f._disks[partner]
            assert (mirror.re, mirror.im, mirror.radius) == (new.re, -new.im, new.radius)
        assert all(f._disks[k] is before[k] for k in before if k not in (j, partner))
        assert f.conj_enclosure(j, Fraction(1, 2 ** 300)) is new


def _duplicate_real_seed(zs):
    reals = [z for z in zs if z.imag == 0]
    return [reals[0] if z == reals[1] else z for z in zs]


def _real_seed_as_pair(zs):
    x = next(z for z in zs if z.imag == 0)
    return [w for z in zs for w in ((x.real + 1e-30j, x.real - 1e-30j) if z == x else (z,))]


def _two_real_seeds_as_a_pair(zs):
    # the seed count and the pair count stay right; only the mirror catches it
    x, y = [z for z in zs if z.imag == 0][:2]
    return [x.real + 1e-30j if z == x else x.real - 1e-30j if z == y else z for z in zs]


@pytest.mark.parametrize("coeffs", [(1, 1), (3, 0, -1), (1, 1, 1, 1)])
@pytest.mark.parametrize("mutate", [_duplicate_real_seed, _real_seed_as_pair,
                                    _two_real_seeds_as_a_pair,
                                    lambda zs: zs[1:], lambda zs: zs[:-1]])
def test_miscounted_seeds_are_refused(coeffs, mutate, monkeypatch):
    # seeds that do not name every root once each never certify
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda p: np.array(mutate(list(roots(p))), dtype=complex))
    with pytest.raises(ArithmeticError):
        make_field(*coeffs)


def test_monic_units_of_degree_two_to_four_are_certified():
    # every irreducible x^d - c1 x^(d-1) - ... - cd with c in [-3, 3] and
    # cd = +-1: d disks, as many of them axis-centred as mpmath finds real roots
    polys = [[-cd] + [-c for c in reversed(cs)] + [1] for d in (2, 3, 4)
             for cs in itertools.product(range(-3, 4), repeat=d - 1) for cd in (1, -1)]
    polys = [p for p in polys if is_irreducible_monic(p)]
    assert len(polys) == 616
    for p in polys:
        disks = certified_roots(p)
        assert len(disks) == len(p) - 1
        roots = mpmath.polyroots(p[::-1], maxsteps=50)
        assert sum(1 for dk in disks if not dk.im) == sum(1 for r in roots if mpmath.im(r) == 0), p


def _nearest_double(x):
    sign, man, exp, _ = x._mpf_
    return float((-1) ** sign * Fraction(man) * Fraction(2) ** exp)


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1), (0, 1, 1)])
def test_float_is_the_nearest_double(coeffs):
    f = make_field(*coeffs)
    rng = random.Random(f"float-{coeffs}")
    with mpmath.workdps(100):
        beta = mpmath.findroot(lambda x: mpmath.polyval(f.min_poly[::-1], x), f._float_beta)
        for _ in range(200):
            q, k = rng.randint(1, 10 ** 6), rng.randint(1, 40)
            x = f.qb([Fraction(rng.randint(-10 ** k, 10 ** k), q) for _ in range(f.degree)])
            want = sum(mpmath.mpf(c.numerator) / c.denominator * beta ** i
                       for i, c in enumerate(x.coords))
            assert float(x) == _nearest_double(want), x


def test_not_pisot_and_not_irreducible_quintics():
    with pytest.raises(NotPisot):
        make_field(0, 0, 0, 1, 1)       # x^5 - x - 1
    with pytest.raises(NotIrreducible):
        make_field(1, 0, 0, 0, 1)       # x^5 - x^4 - 1 = (x^2 - x + 1)(x^3 - x - 1)
    with pytest.raises(NotPisot):
        make_field(1, 1, 1, -1)         # Salem: two conjugates on the unit circle


# ---------------------------------------------------------------------------
# the integer orbit kernel: a step and a division, and the power table

_kernel_field = functools.cache(lambda coeffs: make_field(*coeffs))
kernel_ints = st.integers(-10 ** 30, 10 ** 30)


@pytest.mark.parametrize("coeffs", FIELDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_num_step_and_num_div_are_inverse_shifts(coeffs, data):
    # numerators n of x and e of a digit over a random q: the division undoes
    # the step, and both agree with x*beta - d and (x + d).div_beta()
    f = _kernel_field(coeffs)
    d = f.degree
    q = data.draw(st.integers(1, 10 ** 6))
    n = tuple(data.draw(st.lists(kernel_ints, min_size=d, max_size=d)))
    e = tuple(data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=d, max_size=d)))
    step = _num_step(f._pow_coords[d], n, e)
    assert _num_div(f._inv_row, step, e) == n
    elem = lambda m: f.qb([Fraction(c, q) for c in m])
    assert elem(step) == elem(n) * f.beta - elem(e)
    assert elem(_num_div(f._inv_row, n, e)) == (elem(n) + elem(e)).div_beta()


@pytest.mark.parametrize("coeffs", FIELDS)
def test_num_div_on_numpy_columns_matches_tuples(coeffs):
    f = _kernel_field(coeffs)
    rng = np.random.default_rng(len(coeffs))
    pts = rng.integers(-10 ** 6, 10 ** 6, size=(50, f.degree))
    e = tuple(int(c) for c in rng.integers(-3, 4, size=f.degree))
    cols = np.column_stack(_num_div(f._inv_row, tuple(pts.T), e))
    assert [tuple(r) for r in cols.tolist()] == [
        _num_div(f._inv_row, tuple(int(c) for c in r), e) for r in pts]


@pytest.mark.parametrize("coeffs", FIELDS)
def test_power_table_grows_on_demand(coeffs):
    f = make_field(*coeffs)
    d = f.degree
    first = f._pow_coords
    assert 2 * d - 1 <= len(first) < 300
    ks = [0, d, 2 * d - 2, 2 * d - 1, 7 * d, 300, 150, 301]
    for k in ks:
        assert f.qb(f._power(k)) == f.beta ** k, k
    # the table only grows, and a row once read never changes
    assert len(f._pow_coords) > 301
    assert f._pow_coords[:len(first)] == first


# ---------------------------------------------------------------------------
# irreducibility: the integer division against the Fraction one

def _poly_divmod(p, q):
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


def _divides_reference(g, p):
    q, r = _poly_divmod([Fraction(c) for c in p], [Fraction(c) for c in g])
    return not r and all(c.denominator == 1 for c in q)


@pytest.mark.parametrize("coeffs", FIELDS + [(1, 0, 0, 1), (1, 1, 1, 1, 1), (1, 0, 0, 0, 1)])
def test_int_poly_divides_matches_fraction_division(coeffs, monkeypatch):
    # every candidate factor that make_field's irreducibility test tries;
    # x^5 - x^4 - 1 = (x^2 - x + 1)(x^3 - x - 1) also meets a true divisor
    seen = []

    def checked(g, p):
        verdict = int_poly_divides(g, p)
        assert verdict == _divides_reference(g, p), (g, p)
        seen.append(verdict)
        return verdict

    int_poly_divides = rootiso.int_poly_divides
    monkeypatch.setattr(rootiso, "int_poly_divides", checked)
    try:
        make_field(*coeffs)
    except NotIrreducible:
        assert coeffs == (1, 0, 0, 0, 1)
    assert seen and seen[-1] == (coeffs == (1, 0, 0, 0, 1)) and True not in seen[:-1]
    for g, p in [([1, 1], [1, 2, 1]), ([-1, 0, 1], [1, 0, -1]), ([2, 1], [3, 1]),
                 ([1, 1], []), ([0, 1], [0, 0, 5]), ([1, 0, 1], [1])]:
        assert int_poly_divides(g, p) == _divides_reference(g, p), (g, p)


@pytest.mark.parametrize("coords", ["3/10", 0.3, 3, None], ids=["str", "float", "int", "none"])
def test_qb_refuses_a_string_or_a_scalar(golden, coords):
    # a string would be read one character per coordinate
    with pytest.raises(TypeError, match="coords must be a sequence"):
        golden.qb(coords)


def test_pi1_refuses_a_non_rational_entry(golden):
    with pytest.raises(TypeError, match="vec must be a sequence of rationals"):
        pi1(["a", 1], golden)
