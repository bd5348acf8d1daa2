import functools
import json
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betatiling import betamap
from betatiling.betamap import (Expansion, IntervalQB, _num_frame, branch_edges,
                                build_transform, compute_v, endpoint_words,
                                expand, expansion_value, invariant_density,
                                is_admissible, prefix_interval_set, preset,
                                restrict_to_support, supported, transfer_matrix,
                                transform_from_config, word_from_digits)
from betatiling.errors import (BetaError, BudgetExceeded, FieldMismatch, NotSurjective,
                               OutOfDomain, Overlap, PediciniGapViolated,
                               UnknownDigit, ValidationError)
from betatiling.numfield import EQ, GT, LT, _nums, make_field, psi, qb_compare
from betatiling.sofic import build_automaton
from betatiling.tiling import gifs_build

from betamap_reference import build_transform_reference, restrict_to_support_reference
from conftest import (CONFIG_DIR, CUBIC_UNITS, EXTRA_TRANSFORMS, RIGHT_CONTINUOUS_CONFIGS,
                      extra_transform, stage_cache)


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


def test_expansion_value_rejects_unknown_digit_indices(golden_greedy):
    # a negative index must not wrap around to the last digit
    for bad in (-1, 5):
        for w in (Expansion((), (bad,)), Expansion((bad,), (0,)), Expansion((0,), (1, bad))):
            with pytest.raises(UnknownDigit):
                expansion_value(golden_greedy, w)
            with pytest.raises(UnknownDigit):
                is_admissible(golden_greedy, w)


@functools.cache
def _value_transform(name):
    return transform_from_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))


@given(name=st.sampled_from(sorted(p.stem for p in CONFIG_DIR.glob("*.json"))),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_expansion_value_matches_geometric_sum(name, data):
    # sum_k d_k beta^-(k+1) over the preperiod, plus beta^-n times the
    # period's digit sum over 1 - beta^-p, on Fraction field elements; words
    # of up to about 200 letters reach past the field's power table
    t = _value_transform(name)
    f = t.field
    letter = st.integers(0, len(t.digits) - 1)
    n, m = data.draw(st.integers(0, 60)), data.draw(st.integers(1, 150))
    pre = data.draw(st.lists(letter, min_size=n, max_size=n))
    per = data.draw(st.lists(letter, min_size=m, max_size=m))
    ib = f.beta.inv()
    val, scale = f.zero, f.one
    for a in pre:
        scale = scale * ib
        val = val + t.digits[a] * scale
    tail, pw = f.zero, f.one
    for a in per:
        pw = pw * ib
        tail = tail + t.digits[a] * pw
    val = val + scale * tail * (f.one - pw).inv()
    assert expansion_value(t, Expansion(tuple(pre), tuple(per))) == val


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
# the integer construction against the QBeta reference

def _assert_same_transform(t, r, name):
    for attr in ("side", "digits", "parts", "pieces", "components", "xmin", "xmax", "_q"):
        assert getattr(t, attr) == getattr(r, attr), (name, attr)
    for attr in ("q", "left", "ends", "spans", "labels"):
        assert getattr(t._table, attr) == getattr(r._table, attr), (name, attr)


def _both_paths(monkeypatch, build):
    """build() with the library's build_transform and with the reference's:
    each the transform, or the class of the ValidationError it raised.  build
    must look it up as ``betamap.build_transform``, as the presets do."""
    out = []
    for impl in (build_transform, build_transform_reference):
        with monkeypatch.context() as m:
            m.setattr(betamap, "build_transform", impl)
            try:
                out.append(build())
            except ValidationError as exc:
                out.append(type(exc))
    return out


def _split_golden_greedy(f):
    # the digit-0 piece given as two overlapping intervals whose inner ends,
    # thirds and quarters, leave the frame when merged
    third, quarter, inv = f.qb(["1/3"]), f.qb(["1/4"]), f.one.div_beta()
    parts = [[IntervalQB(f.zero, third), IntervalQB(quarter, inv)], [IntervalQB(inv, f.one)]]
    return betamap.build_transform(f, [0, 1], parts)


def _construction_cases():
    """name -> (field coefficients, builder from the field, restricted too)"""
    cases = {}
    for p in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(p.read_text())
        restrict = cfg.pop("restrict_to_support", False)
        cases[p.stem] = (cfg["field"], lambda f, cfg=cfg: transform_from_config(cfg), restrict)
    for coeffs in CUBIC_UNITS:
        for kind in ("greedy", "symmetric"):
            cases[f"{kind}_{coeffs}"] = (coeffs, functools.partial(preset, kind),
                                         kind == "symmetric")
    for coeffs in ((1, 1), (1, 1, 1), (0, 1, 1)):
        for alpha in ("1/5", "2/5", "1/2", "3/4"):
            cases[f"linear_mod1_{coeffs}_{alpha}"] = (coeffs, lambda f, a=alpha: preset(
                "linear_mod1", f, alpha=f.qb([a])), False)
        for alpha in ("2/5", "1/2", "3/5"):
            cases[f"minimal_weight_{coeffs}_{alpha}"] = (coeffs, lambda f, a=alpha: preset(
                "minimal_weight", f, alpha=f.qb([a])), False)
    for digits in ([[0], [1]], [[0], [1], [1, 1]], [[0], [0, 2], [5]], [[0], [1], [2]],
                   [[0], ["1/2"], [0, 1]]):
        cases[f"pedicini_{digits}"] = ((1, 1), lambda f, d=digits: preset(
            "pedicini", f, digits=[f.qb(x) for x in d]), False)
    cases["golden_greedy_split"] = ((1, 1), _split_golden_greedy, False)
    return cases


def test_construction_matches_qbeta_reference(monkeypatch):
    # the integer build gives the digits, parts, pieces, components, frame,
    # end table and twin of the QBeta construction, and the sign-based
    # support restriction the weight-based one of the QBeta reference
    fields = {}
    restricted = []
    for name, (coeffs, build, restrict) in _construction_cases().items():
        f = fields.setdefault(tuple(coeffs), make_field(*coeffs))
        t, r = _both_paths(monkeypatch, lambda: build(f))
        _assert_same_transform(t, r, name)
        _assert_same_transform(t.twin(), r.twin(), name + " twin")
        _assert_same_transform(t.twin().twin(), t, name + " twin twin")
        if restrict:
            vd = compute_v(t)
            ref = restrict_to_support_reference(t, invariant_density(t, vd), vd)
            _assert_same_transform(supported(t), ref, name + " supported")
            _assert_same_transform(restrict_to_support(t, invariant_density(t, vd), vd), ref,
                                   name + " restricted")
            restricted += [name] if ref is not t else []
    # the five bundled restricted configs, and the symmetric presets of the
    # same four cubic fields
    assert len(restricted) == 9, restricted


def _invalid_cases(f):
    z, one, inv, two = f.zero, f.one, f.one.div_beta(), f.qb([2])
    iv, build = IntervalQB, lambda *args: betamap.build_transform(*args)
    return {
        "overlap": lambda: build(f, [z, one], [[iv(z, one)], [iv(inv, one)]]),
        "overlap at one end": lambda: build(f, [z, one], [[iv(z, inv)], [iv(z, one)]]),
        "not surjective": lambda: build(f, [z, one], [[iv(z, inv)], [iv(inv, two)]]),
        "empty part": lambda: build(f, [z, one], [[iv(z, inv)], []]),
        "no digits": lambda: build(f, [], []),
        "reversed": lambda: build(f, [z, one], [[iv(inv, z)], [iv(inv, one)]]),
        "empty interval": lambda: build(f, [z, one], [[iv(z, z)], [iv(inv, one)]]),
        "reversed before an empty part": lambda: build(
            f, [z, one], [[iv(inv, z)], []]),
        "bad side": lambda: build(f, [z, one], [[iv(z, inv)], [iv(inv, one)]], "up"),
        "alpha too large": lambda: preset("minimal_weight", f, alpha=two),
        "alpha too small": lambda: preset("minimal_weight", f, alpha=f.qb(["1/10"])),
        "alpha out of range": lambda: preset("linear_mod1", f, alpha=one),
        "pedicini gap": lambda: preset("pedicini", make_field(3, 1), digits=[0, 1]),
    }


@pytest.mark.parametrize("case", list(_invalid_cases(make_field(1, 1))))
def test_invalid_inputs_raise_the_reference_class(monkeypatch, case):
    build = _invalid_cases(make_field(1, 1))[case]
    got, ref = _both_paths(monkeypatch, build)
    assert isinstance(ref, type) and issubclass(ref, ValidationError)
    assert got is ref


@pytest.mark.parametrize("n_parts", [2, 4])
def test_digits_and_parts_must_pair_up(golden, n_parts):
    inv = golden.one.div_beta()
    one, two, three = golden.one, golden.qb([2]), golden.qb([3])
    parts = [[IntervalQB(golden.zero, inv)], [IntervalQB(inv, one)],
             [IntervalQB(one, two)], [IntervalQB(two, three)]]
    with pytest.raises(ValidationError, match="3 digits but"):
        build_transform(golden, [0, 1, 2], parts[:n_parts])


def test_duplicate_digits_are_refused(golden):
    # two pieces for the digit 0 would make a valid map with two indices for
    # one digit, whose index words digit_lookup cannot give back
    half_inv, inv = golden.qb(["1/2"]).div_beta(), golden.one.div_beta()
    parts = [[IntervalQB(golden.zero, half_inv)], [IntervalQB(half_inv, inv)],
             [IntervalQB(inv, golden.one)]]
    with pytest.raises(ValidationError, match=r"digit QB\(0, 0\) is given twice"):
        build_transform(golden, [0, 0, 1], parts)
    merged = build_transform(golden, [0, 1], [parts[0] + parts[1], parts[2]])
    assert merged.parts == preset("greedy", golden).parts


def test_restrict_refuses_weights_of_the_wrong_length(tribonacci_symmetric):
    vd = compute_v(tribonacci_symmetric)
    w = invariant_density(tribonacci_symmetric, vd)
    for bad in (w[:3], w + [w[0]]):
        with pytest.raises(ValidationError, match="weights for"):
            restrict_to_support(tribonacci_symmetric, bad, vd)


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
# the piece table against the exact piece lookup

def _exact_index_reference(t, x):
    """The piece lookup by qb_compare against every piece end, in order."""
    right = t.side == "right"
    for iv, a in t.pieces:
        if right:
            if qb_compare(x, iv.lo) != LT and qb_compare(x, iv.hi) == LT:
                return a
        elif qb_compare(x, iv.lo) == GT and qb_compare(x, iv.hi) != GT:
            return a
    return None


def test_piece_table_matches_exact_index():
    # every bundled config and the left-continuous twin of every
    # right-continuous one: on a twin a point on a piece end falls into the
    # lower piece
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    configs = {p.stem: transform_from_config(json.loads(p.read_text()))
               for p in sorted(root.glob("*.json"))}
    assert len(configs) == 13 and configs["golden_lazy"].side == "left"
    configs |= {f"{name}_twin": t.twin() for name, t in configs.items() if t.side == "right"}
    assert len(configs) == 25
    # mod-1 maps with alpha = beta^-k have a breakpoint (1 - alpha)/beta with
    # large coordinates within beta^-(k+1) of 1/beta, whose coordinates are
    # small: there the endpoint's own float error decides the lookup
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
            want = _exact_index_reference(t, x)
            assert t.digit_index_of(x) == want, (name, x)
            q, n, _ = _num_frame(t, x)
            assert t._table.at(n, q) == want, (name, x)


def test_lookups_reject_a_point_of_another_field(golden_greedy):
    x = make_field(2, 1).qb([0, "1/3"])
    aut = build_automaton(golden_greedy)
    vd, g, _ = stage_cache(golden_greedy)
    for lookup in (golden_greedy.contains, golden_greedy.digit_index_of,
                   lambda x: expand(golden_greedy, x), aut.alive, g.vertex_index,
                   lambda x: qb_compare(x, golden_greedy.xmin), lambda x: x < golden_greedy.xmax):
        with pytest.raises(FieldMismatch):
            lookup(x)


# ---------------------------------------------------------------------------
# boundary orbits on the integer kernel against QBeta steps

def _compute_v_reference(t):
    """V, J and m by QBeta steps (``step_index``) of each discontinuity
    under the map and its twin, sorted by exact comparison."""
    tw = t.twin()
    pts = {iv.lo.coords: iv.lo for iv in t.components}
    m = {}
    for (iv, a), (jv, b) in zip(t.pieces, t.pieces[1:]):
        if iv.hi != jv.lo or a == b:
            continue
        u = w = jv.lo
        seen, merge, collected = set(), None, []
        for k in range(1, 20001):
            u, w = t.step_index(u)[1], tw.step_index(w)[1]
            if u == w:
                merge = k
                break
            if (u.coords, w.coords) in seen:
                break
            seen.add((u.coords, w.coords))
            collected += (u, w)
        m[jv.lo] = merge
        pts.update((p.coords, p) for p in collected if t.contains(p))
    vs = sorted(pts.values())
    jmap = {}
    for comp in t.components:
        inside = [v for v in vs if comp.lo <= v < comp.hi]
        for v, nxt in zip(inside, inside[1:] + [None]):
            jmap[v] = IntervalQB(v, comp.hi if nxt is None else nxt)
    return vs, jmap, m


@pytest.mark.parametrize("name", RIGHT_CONTINUOUS_CONFIGS)
def test_compute_v_matches_step_index_reference(name):
    t = transform_from_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    vd = compute_v(t)
    vs, jmap, m = _compute_v_reference(t)
    assert vd.V == vs
    assert vd.J == jmap and list(vd.J) == list(jmap)
    assert vd.m == m


# a missing or malformed config key is a ValidationError that names it (the
# parent raised KeyError, ValueError or TypeError, or split a string alpha into
# one coordinate per character)
@pytest.mark.parametrize("cfg,key", [
    ({}, "field"),
    ({"field": "x"}, "field"),
    ({"field": [1, 1], "preset": "linear_mod1", "alpha": 0.3}, "alpha"),
    ({"field": [1, 1], "preset": "linear_mod1", "alpha": "3/10"}, "alpha"),
    ({"field": [1, 1], "digits": [[0], [1]]}, "parts"),
    ({"field": [1, 1], "preset": "symmetric", "restrict_to_support": "no"}, "restrict_to_support"),
    ({"field": [1, 1], "preset": "symmetric", "restrict_to_support": "false"},
     "restrict_to_support"),
    ({"field": [1, 1], "preset": "greedy", "side": "left"}, "side"),
    ({"field": [1, 1], "preset": "linear_mod1", "alpha": [0.3]}, "alpha"),
    ({"field": [1, 1], "preset": "pedicini", "digits": [[0], [1.0]]}, "digits"),
    ({"field": [1, 1], "digits": [[-1], [1]],
      "parts": [[{"lo": [-1], "hi": [0]}], [{"lo": [0.0], "hi": [1]}]]}, "parts"),
    (dict(json.loads((CONFIG_DIR / "golden_pm1.json").read_text()), side="up"), "side"),
    (dict(json.loads((CONFIG_DIR / "golden_pm1.json").read_text()), side=None), "side"),
], ids=["no_field", "field_string", "alpha_float", "alpha_string", "no_parts",
        "restrict_string_no", "restrict_string_false", "side_beside_preset",
        "alpha_float_coordinate", "digits_float_coordinate", "parts_float_coordinate",
        "side_up", "side_null"])
def test_config_errors_name_the_key(cfg, key):
    with pytest.raises(ValidationError, match=f"'{key}'"):
        transform_from_config(cfg)


def test_expand_refuses_a_float_point(golden_greedy):
    with pytest.raises(TypeError, match="x must be a QBeta"):
        expand(golden_greedy, 0.5)


def test_preset_refuses_a_float_alpha(golden):
    with pytest.raises(TypeError, match="alpha must be a QBeta"):
        preset("linear_mod1", golden, alpha=0.3)


def test_restrict_to_support_takes_json_bools(golden):
    cfg = {"field": [1, 1], "preset": "symmetric"}
    full = transform_from_config(dict(cfg, restrict_to_support=False))
    assert full.pieces == preset("symmetric", golden).pieces
    restricted = transform_from_config(dict(cfg, restrict_to_support=True))
    assert restricted.pieces == supported(full).pieces != full.pieces


# ---------------------------------------------------------------------------
# the numerator record: every interval family's numerators are the cells of
# its end table

@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json"))
                         + ["tetranacci_greedy", "tetranacci_symmetric"])
def test_end_table_cells_are_the_numerator_record(name):
    if name.startswith("tetranacci_"):
        t = preset(name.split("_")[1], make_field(1, 1, 1, 1))
    else:
        t = transform_from_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    for s in (t, t.twin()):
        nums = lambda iv: (_nums(iv.lo.coords, s._q), _nums(iv.hi.coords, s._q))
        cells = s._table.cells()
        assert cells == [(*nums(iv), a) for iv, a in s.pieces], name
        assert s._parts == [[nums(iv) for iv in pp] for pp in s.parts], name
        merged = []
        for lo, hi, _ in cells:
            if merged and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        assert merged == [nums(iv) for iv in s.components], name
        if s.side == "right":
            vd = compute_v(s)
            assert vd.table.cells() == [(*nums(vd.J[v]), i) for i, v in enumerate(vd.V)], name
            assert vd.intervals == [vd.J[v] for v in vd.V], name


# ---------------------------------------------------------------------------
# inputs built for another transform, letters and positions out of range, and
# points that are no field element

@pytest.mark.parametrize("entry", ["branch_edges", "gifs_build", "transfer_matrix",
                                   "invariant_density", "restrict_to_support"])
def test_boundary_data_of_another_transform_is_refused(entry, golden_greedy, golden_symmetric):
    vd = compute_v(golden_symmetric)
    call = {"branch_edges": lambda: branch_edges(golden_greedy, vd),
            "gifs_build": lambda: gifs_build(golden_greedy, vd),
            "transfer_matrix": lambda: transfer_matrix(golden_greedy, vd),
            "invariant_density": lambda: invariant_density(golden_greedy, vd),
            "restrict_to_support": lambda: restrict_to_support(golden_greedy, [1, 0, 1, 1], vd)}
    with pytest.raises(ValidationError, match="vdata was built for another transform"):
        call[entry]()


@pytest.mark.parametrize("prefix", [(-1,), (5,), (0, 2)], ids=["negative", "past_end", "second"])
def test_prefix_interval_set_refuses_a_bad_letter(golden_greedy, prefix):
    with pytest.raises(UnknownDigit):
        prefix_interval_set(golden_greedy, prefix)


@pytest.mark.parametrize("where", ["digit_at", "tail"])
def test_expansion_refuses_a_negative_position(where):
    word = Expansion((0,), (1, 0))
    with pytest.raises(ValidationError, match="position must be nonnegative"):
        getattr(word, where)(-1)
    assert word.digit_at(0) == 0 and word.tail(0) == word


@pytest.mark.parametrize("where,k", [("digit_at", 2), ("digit_at", 5), ("tail", 3)])
def test_finite_word_refuses_a_position_past_its_end(where, k):
    # a BetaError, not a bare IndexError
    word = Expansion((0, 1), ())
    with pytest.raises(BetaError, match=f"position {k} is past the end of a finite word"):
        getattr(word, where)(k)
    assert word.digit_at(1) == 1 and word.tail(2) == Expansion((), ())


@pytest.mark.parametrize("where", ["digit_at", "tail"])
@pytest.mark.parametrize("k", [True, 1.5, "1"], ids=["bool", "float", "str"])
def test_expansion_refuses_a_position_that_is_no_integer(where, k):
    # True is no position 1
    word = Expansion((0,), (1, 0))
    with pytest.raises(TypeError, match="k must be an integer position"):
        getattr(word, where)(k)
    assert word.digit_at(np.int64(1)) == 1


@pytest.mark.parametrize("word", [Expansion((0,), (1.5,)), Expansion((1.0,), (0,)),
                                  Expansion((True,), (0,)), Expansion((), ("a",))],
                         ids=["float_period", "integral_float", "bool", "str"])
@pytest.mark.parametrize("entry", [expansion_value, is_admissible])
def test_word_values_refuse_a_letter_that_is_no_integer(golden_greedy, word, entry):
    # refused before the orbit kernel would index the digits with it
    with pytest.raises(UnknownDigit, match="is no digit index below 2"):
        entry(golden_greedy, word)


@pytest.mark.parametrize("word", ["abc", (0, 1), None], ids=["str", "tuple", "none"])
@pytest.mark.parametrize("entry", [expansion_value, is_admissible])
def test_word_values_refuse_a_word_that_is_no_expansion(golden_greedy, word, entry):
    # a TypeError naming the argument, not an AttributeError
    with pytest.raises(TypeError, match="word must be an Expansion"):
        entry(golden_greedy, word)


@pytest.mark.parametrize("lookup", ["contains", "digit_index_of", "step", "step_index"])
@pytest.mark.parametrize("x", [0.5, 1], ids=["float", "int"])
def test_point_lookups_refuse_a_non_point(golden_greedy, lookup, x):
    with pytest.raises(TypeError, match="x must be a QBeta"):
        getattr(golden_greedy, lookup)(x)
