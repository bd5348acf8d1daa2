import dataclasses
import json
import pathlib
from fractions import Fraction

import pytest

from betatiling import betamap, tiling
from betatiling.betamap import IntervalQB, build_transform, preset, supported
from betatiling.errors import ValidationError
from betatiling.numfield import _embed, make_field

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
RIGHT_CONTINUOUS_CONFIGS = [
    p.stem for p in sorted(CONFIG_DIR.glob("*.json"))
    if betamap.transform_from_config(json.loads(p.read_text())).side == "right"]


def gamma_interval(x, j, width):
    """Certified rational interval of width <= ``width`` for a real
    embedding of x (0-based j): the real-axis view of :func:`_embed`."""
    if x.field.conj_kind(j) != "real":
        raise ValidationError("gamma_interval needs a real conjugate")
    re, _, rad, den = _embed(x.field, x.coords, j, Fraction(width) / 2)
    return Fraction(re - rad, den), Fraction(re + rad, den)


@pytest.fixture(scope="session")
def golden():
    return make_field(1, 1)


@pytest.fixture(scope="session")
def tribonacci():
    return make_field(1, 1, 1)


@pytest.fixture(scope="session")
def smallest_pisot():
    return make_field(0, 1, 1)


@pytest.fixture(scope="session")
def golden_greedy(golden):
    return preset("greedy", golden)


@pytest.fixture(scope="session")
def golden_symmetric(golden):
    return preset("symmetric", golden)


@pytest.fixture(scope="session")
def golden_symmetric_r(golden_symmetric):
    return supported(golden_symmetric)


@pytest.fixture(scope="session")
def golden_minweight(golden):
    return preset("minimal_weight", golden, alpha=golden.qb(["17/5", "-9/5"]))


@pytest.fixture(scope="session")
def golden_pm1(golden):
    one = golden.one
    return build_transform(
        golden, [-one, one],
        [[IntervalQB(-one, golden.zero)], [IntervalQB(golden.zero, one)]])


@pytest.fixture(scope="session")
def tribonacci_symmetric(tribonacci):
    return preset("symmetric", tribonacci)


@pytest.fixture(scope="session")
def tribonacci_symmetric_r(tribonacci_symmetric):
    return supported(tribonacci_symmetric)


@pytest.fixture(scope="session")
def smallest_pisot_symmetric_r(smallest_pisot):
    return supported(preset("symmetric", smallest_pisot))


def stage_cache(t, _cache={}):
    """Shared heavy pipeline stages keyed by the transform's config.  Equal
    configs build the same map, so the stages of an earlier transform are
    handed out bound to t, as the library refuses those of another map."""
    key = str(t.to_config())
    if key not in _cache:
        vd = betamap.compute_v(t)
        g = tiling.gifs_build(t, vd)
        pset = tiling.purely_periodic_points(t)
        _cache[key] = (vd, g, pset)
    vd, g, pset = _cache[key]
    if vd.transform is not t:
        vd, g = dataclasses.replace(vd, transform=t), dataclasses.replace(g, transform=t)
    return vd, g, pset


# the difference machine's integer form (sofic.difference_pairs and
# sofic.build_diff_transducer): a difference is a tuple of integer
# coordinates, a window end or a start point a tuple of integer numerators
# over the transform's frame _q

def to_machine(t, delta, x):
    """The start (delta, x) of two QBetas in the machine's form.  A delta off
    Z[beta] keeps its rational coordinates, for the machine to refuse."""
    q = t._q
    assert all(q % c.denominator == 0 for c in x.coords), f"{x!r} is off the frame {q}"
    d = tuple(int(c) for c in delta.coords) if delta.is_integral() else delta.coords
    return d, tuple(int(c * q) for c in x.coords)


def from_machine(t, n, q=1):
    """The QBeta of integer numerators n over q: q = 1 for a difference,
    t._q for a window end or a start point."""
    return t.field.qb([Fraction(c, q) for c in n])


# the cubic units x^3 - a x^2 - b x - c with a in [-1, 3], b in [-2, 3] and
# c = +-1, the 19 that make_field accepts
CUBIC_UNITS = [(0, 1, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, -1, 1), (2, 0, 1),
               (2, 1, -1), (2, 1, 1), (2, 2, 1), (2, 3, 1), (3, -2, 1), (3, -1, 1),
               (3, 0, -1), (3, 0, 1), (3, 1, -1), (3, 1, 1), (3, 2, -1), (3, 2, 1),
               (3, 3, 1)]


# transforms beyond the bundled configs that several modules check: name ->
# (field coefficients, builder from the field)
EXTRA_TRANSFORMS = {
    "tribonacci_symmetric_unrestricted": ((1, 1, 1), lambda f: preset("symmetric", f)),
    "smallest_pisot_symmetric_unrestricted": ((0, 1, 1), lambda f: preset("symmetric", f)),
    "golden_linear_mod1_2_5": ((1, 1), lambda f: preset(
        "linear_mod1", f, alpha=f.qb([Fraction(2, 5)]))),
    "tribonacci_linear_mod1_1_3": ((1, 1, 1), lambda f: preset(
        "linear_mod1", f, alpha=f.qb([Fraction(1, 3)]))),
    "golden_pedicini_0_1_beta2": ((1, 1), lambda f: preset(
        "pedicini", f, digits=[f.zero, f.one, f.beta ** 2])),
    "smallest_pisot_minweight_1_2": ((0, 1, 1), lambda f: preset(
        "minimal_weight", f, alpha=f.qb([Fraction(1, 2)]))),
}


def extra_transform(name):
    coeffs, build = EXTRA_TRANSFORMS[name]
    return build(make_field(*coeffs))
