import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from betatiling.betamap import (Expansion, IntervalQB, _num_frame,
                                build_transform, compute_v, endpoint_words,
                                expand, expansion_value, invariant_density,
                                is_admissible, prefix_interval_set, preset,
                                restrict_to_support, transfer_matrix,
                                transform_from_config, word_from_digits)
from betatiling.errors import (BudgetExceeded, NotSurjective, OutOfDomain,
                               Overlap, PediciniGapViolated, UnknownDigit)
from betatiling.numfield import EQ, GT, LT, make_field, psi, qb_compare

from conftest import EXTRA_TRANSFORMS, extra_transform, stage_cache


def digits_of(t, word):
    pre = [int(t.digits[a].coords[0]) for a in word.preperiod]
    per = [int(t.digits[a].coords[0]) for a in word.period]
    return pre, per


# ---------------------------------------------------------------------------
# construction and presets

def test_build_golden_greedy(golden, golden_greedy):
    inv = golden.one.div_beta()
    (iv0, a0), (iv1, a1) = golden_greedy.pieces
    assert iv0.lo == golden.zero and iv0.hi == inv
    assert iv1.lo == inv and iv1.hi == golden.one
    assert golden_greedy.digits[a0] == golden.zero
    assert golden_greedy.digits[a1] == golden.one


def test_not_surjective(golden):
    inv = golden.one.div_beta()
    with pytest.raises(NotSurjective):
        build_transform(golden, [golden.zero, golden.one],
                        [[IntervalQB(golden.zero, inv)],
                         [IntervalQB(inv, golden.qb([2]))]])


def test_overlap(golden):
    with pytest.raises(Overlap):
        build_transform(golden, [golden.zero, golden.one],
                        [[IntervalQB(golden.zero, golden.one)],
                         [IntervalQB(golden.one.div_beta(), golden.one)]])


def test_tribonacci_minweight_valid(tribonacci):
    alpha = (tribonacci.beta + tribonacci.one).inv()
    t = preset("minimal_weight", tribonacci, alpha=alpha)
    assert len(t.pieces) == 3
    assert t.pieces[0][0].lo == -alpha * tribonacci.beta


def test_symmetric_pieces(golden, golden_symmetric):
    half = golden.qb(["1/2"])
    two_beta_inv = half.div_beta()
    mids = [iv for iv, a in golden_symmetric.pieces
            if golden_symmetric.digits[a].is_zero()]
    assert mids[0].lo == -two_beta_inv and mids[0].hi == two_beta_inv


def test_pedicini_golden(golden):
    t = preset("pedicini", golden, digits=[golden.zero, golden.qb([0, 2]), golden.qb([5])])
    assert len(t.digits) == 3
    # gap condition fails for a field with beta > 2
    big = make_field(3, 1)
    with pytest.raises(PediciniGapViolated):
        preset("pedicini", big, digits=[big.zero, big.one])


def test_lazy_is_left_continuous(golden):
    t = preset("lazy", golden)
    assert t.side == "left"
    top = golden.one * (golden.beta - golden.one).inv()
    assert t.pieces[-1][0].hi == top
    # the left endpoint of the domain is excluded for the left-continuous map
    assert not t.contains(golden.zero)
    assert t.contains(top)


# ---------------------------------------------------------------------------
# stepping and expansion

def test_step_examples(golden, golden_greedy, golden_symmetric):
    inv = golden.one.div_beta()
    d, nxt = golden_greedy.step(inv)
    assert d == golden.one and nxt.is_zero()
    d, nxt = golden_greedy.step(golden.zero)
    assert d.is_zero() and nxt.is_zero()
    half = golden.qb(["1/2"])
    d, nxt = golden_symmetric.step(half.div_beta())
    assert d == golden.one and nxt == -half
    with pytest.raises(OutOfDomain):
        golden_greedy.step(golden.qb([2]))


def test_expand_examples(golden_greedy, tribonacci_symmetric, tribonacci):
    golden = golden_greedy.field
    w = expand(golden_greedy, golden.one.div_beta())
    assert digits_of(golden_greedy, w) == ([1], [0])
    x = (tribonacci.beta ** 3).inv()
    w = expand(tribonacci_symmetric, x)
    assert digits_of(tribonacci_symmetric, w) == ([], [0, 1, -1])


def test_expand_minweight_alpha(tribonacci):
    alpha = (tribonacci.beta + tribonacci.one).inv()
    t = preset("minimal_weight", tribonacci, alpha=alpha)
    w = expand(t, alpha)
    assert digits_of(t, w) == ([1], [0, -1, 0])


def test_expansion_value_roundtrip(golden_greedy):
    golden = golden_greedy.field
    for num in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 8)):
        x = golden.qb([num])
        w = expand(golden_greedy, x)
        assert expansion_value(golden_greedy, w) == x


def test_twin(golden, golden_greedy, golden_symmetric):
    tw = golden_greedy.twin()
    d, nxt = tw.step(golden.one)
    assert d == golden.one and nxt == golden.one.div_beta()
    assert tw.twin().to_config() == golden_greedy.to_config()
    half = golden.qb(["1/2"])
    d, nxt = golden_symmetric.twin().step(-half.div_beta())
    assert d == -golden.one and nxt == half


# ---------------------------------------------------------------------------
# admissibility

def test_admissible_examples(golden_greedy, tribonacci_symmetric):
    w = word_from_digits(golden_greedy, [1, 1], [0])
    assert not is_admissible(golden_greedy, w)
    w = word_from_digits(tribonacci_symmetric, [], [1, 0, 0, 0, 0, 1, -1])
    assert not is_admissible(tribonacci_symmetric, w)


def test_expansions_are_admissible(golden_greedy):
    golden = golden_greedy.field
    rng = random.Random(3)
    for _ in range(50):
        x = golden.qb([Fraction(rng.randint(0, 30), 31)])
        w = expand(golden_greedy, x)
        assert is_admissible(golden_greedy, w)
        assert expansion_value(golden_greedy, w) == x


@given(num=st.integers(0, 62), num2=st.integers(0, 62))
@settings(max_examples=30, deadline=None)
def test_monotonicity(golden_greedy, num, num2):
    # ordered digits, single intervals: expansions sort like the points
    golden = golden_greedy.field
    x, y = golden.qb([Fraction(num, 63)]), golden.qb([Fraction(num2, 63)])
    wx, wy = expand(golden_greedy, x), expand(golden_greedy, y)
    # two distinct eventually periodic words differ within this horizon
    horizon = (len(wx.preperiod) + len(wy.preperiod)
               + math.lcm(max(1, len(wx.period)), max(1, len(wy.period))) + 1)
    order = EQ
    for k in range(horizon):
        a, b = wx.digit_at(k), wy.digit_at(k)
        if a != b:
            order = GT if a > b else LT
            break
    assert qb_compare(x, y) == order


@given(num=st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_step_conjugation(golden_greedy, num):
    golden = golden_greedy.field
    x = golden.qb([Fraction(num, 41)])
    d, nxt = golden_greedy.step(x)
    m = golden.companion
    px = psi(x)
    expect = tuple(sum(Fraction(m[i][k]) * px[k] for k in range(2)) for i in range(2))
    expect = tuple(e - p for e, p in zip(expect, psi(d)))
    assert psi(nxt) == expect


def test_prefix_interval_oracle(golden_greedy):
    ivs = prefix_interval_set(golden_greedy, (1, 1))
    assert ivs == []
    ivs = prefix_interval_set(golden_greedy, (1, 0))
    assert len(ivs) == 1


# ---------------------------------------------------------------------------
# boundary-orbit data

def test_v_golden_greedy(golden, golden_greedy):
    vd = compute_v(golden_greedy)
    assert vd.V == [golden.zero, golden.one.div_beta()]
    assert vd.m[golden.one.div_beta()] is None
    ivs = [vd.J[v] for v in vd.V]
    assert ivs[0].lo == golden.zero and ivs[0].hi == golden.one.div_beta()
    assert ivs[1].hi == golden.one


def test_v_golden_minweight(golden, golden_minweight):
    vd = compute_v(golden_minweight)
    assert len(vd.V) == 15
    alpha = golden.qb(["17/5", "-9/5"])
    assert vd.m[alpha] == 5 and vd.m[-alpha] == 5
    # the discontinuities themselves do not subdivide the domain
    assert alpha not in vd.J and -alpha not in vd.J


def test_v_golden_symmetric(golden, golden_symmetric):
    vd = compute_v(golden_symmetric)
    half = golden.qb(["1/2"])
    b2 = (half.div_beta()).div_beta()
    expect = [-half, -half.div_beta(), -b2, b2, half.div_beta()]
    assert vd.V == expect


def test_endpoint_words_smallest_pisot_minweight(smallest_pisot):
    beta = smallest_pisot.beta
    alpha = beta ** 6 * (beta ** 8 - smallest_pisot.one).inv()
    t = preset("minimal_weight", smallest_pisot, alpha=alpha)
    tw = t.twin()
    up = expand(tw, alpha)
    assert digits_of(t, up) == ([], [0, 1, 0, 0, 0, 0, 0, 0])


def test_partition_covers_domain(golden_symmetric_r):
    vd = compute_v(golden_symmetric_r)
    total = sum((vd.J[v].length() for v in vd.V), golden_symmetric_r.field.zero)
    dom = sum((iv.length() for iv, _ in golden_symmetric_r.pieces),
              golden_symmetric_r.field.zero)
    assert total == dom


# ---------------------------------------------------------------------------
# invariant density and support

def test_density_golden_greedy(golden, golden_greedy):
    vd = compute_v(golden_greedy)
    h = invariant_density(golden_greedy, vd)
    assert all(qb_compare(x, golden.zero) == GT for x in h)
    # classical piecewise-constant density: ratio of the two plateaus is beta
    assert h[0] == h[1] * golden.beta
    total = sum((hx * vd.J[v].length() for hx, v in zip(h, vd.V)), golden.zero)
    assert total == golden.one


def test_density_golden_symmetric_middle_zero(golden, golden_symmetric):
    vd = compute_v(golden_symmetric)
    h = invariant_density(golden_symmetric, vd)
    mid = vd.V.index(-(golden.qb(["1/2"]).div_beta().div_beta()))
    assert h[mid].is_zero()
    assert sum(1 for x in h if x.is_zero()) == 1


def test_transfer_fixed_point_exact(golden_symmetric):
    golden = golden_symmetric.field
    vd = compute_v(golden_symmetric)
    h = invariant_density(golden_symmetric, vd)
    mat = transfer_matrix(golden_symmetric, vd)
    n = len(h)
    for i in range(n):
        lhs = golden.beta * h[i]
        rhs = sum((golden.qb([mat[i][j]]) * h[j] for j in range(n)), golden.zero)
        assert lhs == rhs
    resid = max(abs(float(golden.beta * h[i])
                    - sum(mat[i][j] * float(h[j]) for j in range(n)))
                for i in range(n))
    assert resid < 1e-12


def test_restrict_golden_symmetric(golden, golden_symmetric):
    vd = compute_v(golden_symmetric)
    h = invariant_density(golden_symmetric, vd)
    r = restrict_to_support(golden_symmetric, h, vd)
    half = golden.qb(["1/2"])
    b2 = half.div_beta().div_beta()
    spans = [(iv.lo, iv.hi) for iv, _ in r.pieces]
    assert spans == [(-half, -half.div_beta()), (-half.div_beta(), -b2),
                     (b2, half.div_beta()), (half.div_beta(), half)]
    zero_digit_pieces = [iv for iv, a in r.pieces if r.digits[a].is_zero()]
    assert len(zero_digit_pieces) == 2


def test_restrict_greedy_unchanged(golden_greedy):
    vd = compute_v(golden_greedy)
    h = invariant_density(golden_greedy, vd)
    r = restrict_to_support(golden_greedy, h, vd)
    assert r.to_config() == golden_greedy.to_config()


def _qb_kernel_reference(a_rows, field):
    """Kernel basis of an exact matrix over Q(beta), by Gauss-Jordan."""
    rows = [list(r) for r in a_rows]
    n = len(rows)
    cols = len(rows[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(cols) if c not in piv_cols):
        vec = [field.zero] * cols
        vec[fc] = field.one
        for ridx, pc in enumerate(piv_cols):
            vec[pc] = -rows[ridx][fc]
        basis.append(vec)
    return basis


def _invariant_density_reference(t, vdata):
    """The first sign-definite kernel vector of E - beta over Q(beta),
    normalized to total integral one."""
    mat = transfer_matrix(t, vdata)
    f = t.field
    n = len(mat)
    a_rows = [[f.qb([mat[i][j]]) - (f.beta if i == j else f.zero) for j in range(n)]
              for i in range(n)]
    for vec in _qb_kernel_reference(a_rows, f):
        signs = [qb_compare(x, f.zero) for x in vec]
        if all(s != LT for s in signs) and any(s == GT for s in signs):
            break
        if all(s != GT for s in signs) and any(s == LT for s in signs):
            vec = [-x for x in vec]
            break
    else:
        raise AssertionError("no nonnegative transfer fixed vector")
    total = sum((h * vdata.J[v].length() for h, v in zip(vec, vdata.V)), f.zero)
    return [h / total for h in vec]


def _two_component_golden():
    # the golden greedy map on [0, 1) and a copy shifted by 2 on [2, 3):
    # beta is a double eigenvalue of the transfer matrix
    f = make_field(1, 1)
    b = f.beta
    iv = lambda lo, hi: IntervalQB(f.qb([lo]) if isinstance(lo, int) else lo,
                                   f.qb([hi]) if isinstance(hi, int) else hi)
    return build_transform(f, [f.zero, f.one, 2 * b - 2, 2 * b - 1],
                           [[iv(0, b - 1)], [iv(b - 1, 1)], [iv(2, b + 1)], [iv(b + 1, 3)]])


def _density_transforms():
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    out = {}
    for p in sorted(root.glob("*.json")):
        cfg = json.loads(p.read_text())
        t = transform_from_config(cfg)
        if t.side != "right":
            continue
        out[p.stem] = t
        if cfg.pop("restrict_to_support", False):
            out[p.stem + "_unrestricted"] = transform_from_config(cfg)
    for name in EXTRA_TRANSFORMS:
        out[name] = extra_transform(name)
    out["golden_two_components"] = _two_component_golden()
    return out


def test_density_matches_q_beta_kernel_reference():
    # the integer beta-eigenvector gives the weights of the Gauss-Jordan
    # elimination over Q(beta), coordinate for coordinate
    transforms = _density_transforms()
    assert len(transforms) == 22
    for name, t in transforms.items():
        vd = compute_v(t)
        h = invariant_density(t, vd)
        assert h == _invariant_density_reference(t, vd), name
    t = transforms["golden_two_components"]
    mat = transfer_matrix(t, compute_v(t))
    assert len(_qb_kernel_reference(
        [[t.field.qb([x]) - (t.field.beta if i == j else t.field.zero)
          for j, x in enumerate(row)] for i, row in enumerate(mat)], t.field)) == 2


def test_restrict_smallest_pisot(smallest_pisot, smallest_pisot_symmetric_r):
    # the restricted domain has the four displayed components
    f = smallest_pisot
    b = f.beta
    half = f.qb(["1/2"])
    comps = smallest_pisot_symmetric_r.components
    assert len(comps) == 4
    assert comps[0].lo == -half
    assert comps[0].hi == (b * b) / 2 - b
    assert comps[1].lo == b * b - b / 2 - f.qb(["3/2"])
    assert comps[1].hi == b / 2 - f.one
    assert comps[2].lo == f.one - b / 2
    assert comps[3].hi == half


# ---------------------------------------------------------------------------
# integer orbit kernel against the Fraction reference

def _ref_expand(t, x, max_steps=100000):
    """Orbit loop on exact field elements through ``step_index``."""
    seen, word, cur = {}, [], x
    for k in range(max_steps):
        if cur.coords in seen:
            j = seen[cur.coords]
            return Expansion(tuple(word[:j]), tuple(word[j:]))
        seen[cur.coords] = k
        a, cur = t.step_index(cur)
        word.append(a)
    raise BudgetExceeded("no period detected")


def _ref_value(t, word):
    """Horner form on Fraction field elements."""
    f = t.field
    acc = f.zero
    for a in word.period:
        acc = acc * f.beta + t.digits[a]
    val = acc * (f.beta ** len(word.period) - f.one).inv()
    for a in reversed(word.preperiod):
        val = (val + t.digits[a]).div_beta()
    return val


def _ref_admissible(t, word):
    """Definition: every tail's value lies in the piece of its first digit."""
    for k in range(len(word)):
        tail = word.tail(k)
        a = tail.preperiod[0] if tail.preperiod else tail.period[0]
        if t.digit_index_of(_ref_value(t, tail)) != a:
            return False
    return True


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except (OutOfDomain, BudgetExceeded) as exc:
        return type(exc)


def _kernel_transforms():
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    out = {p.stem: transform_from_config(json.loads(p.read_text()))
           for p in sorted(root.glob("*.json"))}
    golden, tribonacci = make_field(1, 1), make_field(1, 1, 1)
    out["golden_mod1"] = preset("linear_mod1", golden, alpha=golden.qb(["2/5"]))
    out["tribonacci_mod1"] = preset("linear_mod1", tribonacci, alpha=tribonacci.qb(["1/3"]))
    out["tribonacci_lazy"] = preset("lazy", tribonacci)
    return out


def test_orbit_kernel_matches_fraction_reference():
    # the quadratic admissibility reference runs on words of at most 64
    # letters; longer orbits are still checked by expand and value
    rng = random.Random(11)
    for name, t in _kernel_transforms().items():
        f = t.field
        b = float(f.beta)
        pts = [iv.lo for iv, _ in t.pieces] + [iv.hi for iv, _ in t.pieces]
        pts.append(t.xmax + f.one)
        while len(pts) < 2 * len(t.pieces) + 13:
            q = rng.randint(1, 6)
            rest = [rng.randint(-2 * q, 2 * q) for _ in range(f.degree - 1)]
            shift = sum(c * b ** (k + 1) for k, c in enumerate(rest))
            a0 = math.floor(q * rng.uniform(float(t.xmin), float(t.xmax)) - shift)
            x = f.qb([Fraction(a0, q)] + [Fraction(c, q) for c in rest])
            if t.contains(x):
                pts.append(x)
        words = []
        for x in pts:
            w = _outcome(expand, t, x)
            assert w == _outcome(_ref_expand, t, x), (name, x)
            if not isinstance(w, Expansion):
                assert w is OutOfDomain, (name, x)
                continue
            assert expansion_value(t, w) == x, (name, x)
            assert is_admissible(t, w), (name, x)
            with pytest.raises(BudgetExceeded):
                expand(t, x, max_steps=len(w))
            assert expand(t, x, max_steps=len(w) + 1) == w
            k = rng.randrange(len(w))
            letters = list(w.preperiod + w.period)
            letters[k] = rng.randrange(len(t.digits))
            n = len(w.preperiod)
            words.append(Expansion(tuple(letters[:n]), tuple(letters[n:])))
        for _ in range(12):
            words.append(Expansion(
                tuple(rng.randrange(len(t.digits)) for _ in range(rng.randint(0, 3))),
                tuple(rng.randrange(len(t.digits)) for _ in range(rng.randint(1, 4)))))
        assert any(not is_admissible(t, w) for w in words), name
        for w in words:
            assert expansion_value(t, w) == _ref_value(t, w), (name, w)
            if len(w) <= 64:
                assert is_admissible(t, w) == _ref_admissible(t, w), (name, w)
        for bad in (-1, len(t.digits)):
            with pytest.raises(UnknownDigit):
                is_admissible(t, Expansion((bad,), (0,)))


# ---------------------------------------------------------------------------
# the certified float screen against the exact piece lookup

def test_screen_matches_exact_index():
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    configs = {p.stem: transform_from_config(json.loads(p.read_text()))
               for p in sorted(root.glob("*.json"))}
    assert len(configs) == 13 and configs["golden_lazy"].side == "left"
    # mod-1 maps with alpha = beta^-k have a breakpoint (1 - alpha)/beta with
    # large coordinates within beta^-(k+1) of 1/beta, whose coordinates are
    # small: there the endpoint's own float error decides the screen
    extra = {}
    for f in (make_field(1, 1), make_field(1, 1, 1)):
        for k in range(30, 51, 2):
            alpha = f.one.div_beta() ** k
            extra[f"mod1_{f.degree}_{k}"] = (preset("linear_mod1", f, alpha=alpha),
                                             [f.one.div_beta()])
    cases = {name: (t, []) for name, t in configs.items()} | extra
    for name, (t, pts) in cases.items():
        eps = t.field.one.div_beta() ** 40
        for iv, _ in t.pieces:
            for e in (iv.lo, iv.hi):
                pts += [e, e + eps, e - eps]
        for x in pts:
            want = t._exact_index(x)
            assert t.digit_index_of(x) == want, (name, x)
            q, n, _ = _num_frame(t, x)
            assert t._index_num(n, q) == want, (name, x)
