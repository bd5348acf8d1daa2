import itertools
import json
import math
import pathlib
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from betatiling import tiling
from betatiling.betamap import (compute_v, expand, invariant_density, preset,
                                transform_from_config)
from betatiling.errors import (BudgetExceeded, DigitsNotIntegral, OutOfDomain,
                               ValidationError)
from betatiling.numfield import phi, psi, qb_compare
from betatiling.sofic import decide_tiling
from betatiling.tiling import (box_count_measure, check_f, check_w,
                               clouds_at_depth, conj_block_bounds,
                               covering_degree_estimate, gifs_build,
                               lattice_candidates, natext_domain,
                               purely_periodic_points, tile_cloud,
                               tiles_containing, torus_translates,
                               weak_finiteness_epsilon,
                               _height_ordered_range)

from conftest import stage_cache


def test_gifs_golden_greedy(golden, golden_greedy):
    vd, g, _ = stage_cache(golden_greedy)
    assert [float(v) for v in g.vertices] == pytest.approx([0.0, 0.618033988749])
    # tile(0) = M tile(0) + phi(0)  union  M tile(1/beta) + phi(1)
    assert sorted(g.edges[0]) == [(0, 0), (1, 1)]
    assert g.edges[1] == [(0, 0)]


def test_gifs_needs_integral_digits(golden):
    t = preset("linear_mod1", golden, alpha=golden.qb(["1/3"]))
    vd = compute_v(t)
    with pytest.raises(DigitsNotIntegral):
        gifs_build(t, vd)


def test_cloud_depth_zero(golden_pm1):
    vd, g, _ = stage_cache(golden_pm1)
    c = tile_cloud(g, 0, 0)
    assert len(c.points) == 1 and np.all(c.points == 0)
    assert c.err == g.cloud_constant


def test_fig5_cloud_extremes(golden, golden_pm1):
    vd, g, _ = stage_cache(golden_pm1)
    b = float(golden.beta)
    expect = {round(-1.0, 9): (-1 / b, b * b), round(-1 / b, 9): (-b * b, b * b),
              round(1 / b, 9): (-b * b, 1 / b)}
    clouds, err = clouds_at_depth(g, 20)
    assert err < 1e-3
    for i, v in enumerate(g.vertices):
        lo, hi = expect[round(float(v), 9)]
        assert abs(clouds[i].min() - lo) <= err
        assert abs(clouds[i].max() - hi) <= err


def test_unrestricted_symmetric_middle_is_origin(golden, golden_symmetric):
    vd, g, _ = stage_cache(golden_symmetric)
    mid = golden.qb(["1/10"])  # inside the middle interval
    for depth in (0, 5, 12):
        c = tile_cloud(g, mid, depth)
        assert len(c.points) == 1 and np.allclose(c.points, 0)


def test_gifs_refinement_identity(golden_pm1):
    vd, g, _ = stage_cache(golden_pm1)
    mh = g.field.contract_mat
    prev, perr = clouds_at_depth(g, 5)
    cur, _ = clouds_at_depth(g, 6)
    for i in range(len(g.vertices)):
        union = np.vstack([prev[j] @ mh.T + g.phi_digits[a] for j, a in g.edges[i]])
        a, b = np.sort(cur[i], axis=0), np.unique(union, axis=0)
        d = np.abs(a[:, None, :] - b[None, :, :]).sum(-1)
        assert d.min(axis=1).max() < 1e-9 and d.min(axis=0).max() < 1e-9


def test_natext_area_golden_greedy(golden_greedy):
    vd, g, _ = stage_cache(golden_greedy)
    ne = natext_domain(golden_greedy, vd, g, 22)
    assert ne.err < 1e-3
    assert abs(ne.area - 1.0) < 0.02


def test_natext_area_golden_symmetric_restricted(golden_symmetric_r):
    vd, g, _ = stage_cache(golden_symmetric_r)
    ne = natext_domain(golden_symmetric_r, vd, g, 22)
    assert abs(ne.area - 1.0) < 0.02


def test_natext_area_fig5(golden_pm1):
    vd, g, _ = stage_cache(golden_pm1)
    ne = natext_domain(golden_pm1, vd, g, 22)
    assert abs(ne.area - 4.0) < 0.08


# ---------------------------------------------------------------------------
# purely periodic points

def test_p_golden_greedy(golden, golden_greedy):
    _, _, pset = stage_cache(golden_greedy)
    assert [p.coords for p in pset.points] == [(0, 0)]
    assert check_f(pset)


def test_p_golden_symmetric_restricted(golden, golden_symmetric_r):
    _, _, pset = stage_cache(golden_symmetric_r)
    assert {p.coords for p in pset.points} == {(2, -1), (-2, 1)}
    assert not check_f(pset)


def test_p_fig5(golden, golden_pm1):
    _, _, pset = stage_cache(golden_pm1)
    vals = sorted(float(p) for p in pset.points)
    b = float(golden.beta)
    assert vals == pytest.approx([-1.0, -1 / b, -1 / b ** 2, 0.0, 1 / b ** 2])


def test_f_for_quadratic_above_two():
    from betatiling.numfield import make_field
    f = make_field(2, 1)            # beta = 1 + sqrt(2) > 2
    t = preset("symmetric", f)
    pset = purely_periodic_points(t)
    assert check_f(pset)


def test_p_closed_under_map(golden_symmetric_r):
    _, _, pset = stage_cache(golden_symmetric_r)
    pts = {p.coords for p in pset.points}
    for p in pset.points:
        _, nxt = golden_symmetric_r.step(p)
        assert nxt.coords in pts


def test_periodicity_cross_check_cloud(golden, golden_greedy):
    # the negated projection of a periodic point sits inside its tile cloud,
    # and a non-periodic one stays clear once the cloud error is small
    vd, g, pset = stage_cache(golden_greedy)
    clouds, err = clouds_at_depth(g, 24)
    for p in pset.points:
        i = g.vertex_index(p)
        target = -np.array(phi(p, 60).coords)
        d = np.abs(clouds[i] - target).min()
        assert d <= err + 1e-9
    x = golden.qb([2, -1])   # 2 - beta, eventually but not purely periodic
    i = g.vertex_index(x)
    target = -np.array(phi(x, 60).coords)
    d = np.abs(clouds[i] - target).min()
    assert d > err + 0.1


# ---------------------------------------------------------------------------
# membership

def test_tiles_containing_fig5(golden, golden_pm1):
    _, _, pset = stage_cache(golden_pm1)
    rep = tiles_containing(golden_pm1, pset, golden.one)
    assert rep.count == 4


def test_membership_stability(golden, golden_pm1):
    _, _, pset = stage_cache(golden_pm1)
    rep = tiles_containing(golden_pm1, pset, golden.qb([2]))
    lcm = 1
    for p in pset.periods:
        lcm = lcm * p // math.gcd(lcm, p)
    zz = golden.qb([2])
    for _ in range(rep.k + lcm):
        zz = zz.div_beta()
    # recompute by hand at k + lcm and compare owner sets
    owners = set()
    for y in pset.points:
        cur = y + zz
        for _ in range(rep.k + lcm):
            _, cur = golden_pm1.step(cur)
        owners.add(cur.coords)
    assert owners == {o.coords for o in rep.owners}


def test_tiles_containing_cubics(tribonacci_symmetric_r, smallest_pisot_symmetric_r):
    f3 = tribonacci_symmetric_r.field
    _, _, pset3 = stage_cache(tribonacci_symmetric_r)
    rep = tiles_containing(tribonacci_symmetric_r, pset3, f3.qb([4]))
    # owners 3 - beta^2 and 4 - 2*beta; both verified against the exact
    # orbit conditions and stable under a full period round
    assert {o.coords for o in rep.owners} == {(3, 0, -1), (4, -2, 0)}
    assert rep.count == 2
    fs = smallest_pisot_symmetric_r.field
    _, _, psets = stage_cache(smallest_pisot_symmetric_r)
    rep = tiles_containing(smallest_pisot_symmetric_r, psets, fs.qb([2]))
    assert {o.coords for o in rep.owners} == {(3, -2, 0), (0, -3, 2)}


def test_covering_golden_greedy(golden, golden_greedy):
    _, _, pset = stage_cache(golden_greedy)
    mn, hist = covering_degree_estimate(
        golden_greedy, pset, [golden.qb([n]) for n in range(1, 11)])
    assert mn == 1


def test_covering_fig5(golden, golden_pm1):
    _, _, pset = stage_cache(golden_pm1)
    samples = [golden.one, golden.beta, golden.qb([2]), golden.one + golden.beta,
               golden.qb([3])]
    mn, hist = covering_degree_estimate(golden_pm1, pset, samples)
    assert mn == 4 and hist == {4: 5}


# ---------------------------------------------------------------------------
# uniform witnesses

def test_check_w_golden_symmetric(golden, golden_symmetric_r):
    _, _, pset = stage_cache(golden_symmetric_r)
    eps = weak_finiteness_epsilon(golden_symmetric_r, pset)
    # the binding orbit point is -1/beta^2, whose piece ends at -1/(2 beta)
    inv2 = golden.one.div_beta().div_beta()
    assert eps == (inv2 - golden.qb(["1/2"]).div_beta()) * golden.beta
    assert eps.coords == (Fraction(-3, 2), Fraction(1))  # 1/(2 beta^3)
    rep = check_w(golden_symmetric_r, pset)
    assert rep.status == "holds"
    assert rep.x.coords == (2, -1)
    for y, (z, k) in rep.witnesses.items():
        assert z.coords == (-8, 5) and k == 3   # z = 1/beta^5
    chains = {y.coords: [c.coords for c in ch] for y, ch in rep.chains.items()}
    b = golden.beta
    inv = golden.one.div_beta()
    two = golden.qb([2])
    assert chains[(2, -1)] == [
        (two * inv ** 3).coords, (-inv ** 3).coords, (-inv ** 2).coords,
        (inv ** 2).coords]
    assert chains[(-2, 1)] == [
        (-two * inv ** 4).coords, (-two * inv ** 3).coords, (inv ** 3).coords,
        (inv ** 2).coords]


def test_check_w_trivial_when_single(golden_greedy):
    _, _, pset = stage_cache(golden_greedy)
    rep = check_w(golden_greedy, pset)
    assert rep.status == "holds"
    assert rep.witnesses[pset.points[0]][1] == 0


def test_check_w_tribonacci_budget(tribonacci_symmetric_r):
    _, _, pset = stage_cache(tribonacci_symmetric_r)
    rep = check_w(tribonacci_symmetric_r, pset, z_height=12, k_budget=60,
                  max_candidates=400)
    assert rep.status == "fails_by_budget"


def _check_w_reference(t, pset, z_height=40, k_budget=300, max_candidates=20000):
    """The (W) search with exact QBeta chains stepped by ``step_index``."""
    f = t.field
    eps = weak_finiteness_epsilon(t, pset)
    pts = list(pset.points)
    tried = 0
    for coords in _height_ordered_range_reference(f, 0.0, float(eps), z_height):
        z = f.qb(coords)
        if qb_compare(z, f.zero) < 0 or qb_compare(z, eps) >= 0:
            continue
        tried += 1
        if tried > max_candidates:
            break
        cur = [y + z for y in pts]
        chains = [[c] for c in cur]
        seen = set()
        for k in range(k_budget + 1):
            if len({c.coords for c in cur}) == 1 and cur[0] in pts:
                return "holds", cur[0], {y: (z, k) for y in pts}, eps, dict(zip(pts, chains))
            state = tuple(c.coords for c in cur)
            if state in seen:
                break
            seen.add(state)
            try:
                cur = [t.step_index(c)[1] for c in cur]
            except OutOfDomain:
                break
            for ch, c in zip(chains, cur):
                ch.append(c)
    return "fails_by_budget", None, {}, eps, {}


def test_check_w_matches_step_index_reference():
    # every right-continuous bundled config, at the default budgets
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    outcomes = set()
    for path in sorted(root.glob("*.json")):
        t = transform_from_config(json.loads(path.read_text()))
        if t.side != "right":
            continue
        pset = purely_periodic_points(t)
        rep = check_w(t, pset)
        ref = _check_w_reference(t, pset)
        assert (rep.status, rep.x, rep.witnesses, rep.epsilon, rep.chains) == ref, path.name
        outcomes.add(rep.status)
    assert outcomes == {"holds", "fails_by_budget"}


def test_check_w_memory_stays_small():
    # the (W) candidates come from a (d-1)-dimensional slab grid; the full
    # 81^3 meshgrid at z_height 40 peaked at 40.5 MB
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "tribonacci_symmetric.json"
    t = transform_from_config(json.loads(path.read_text()))
    pset = purely_periodic_points(t)
    rep = check_w(t, pset)
    tracemalloc.start()
    try:
        assert check_w(t, pset) == rep
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# lattice enumeration

def _conj_vandermonde(field):
    """Float Vandermonde of the current certified conjugate enclosures."""
    cs = []
    for j in range(field.degree):
        disk = field.conj_enclosure(j)
        cs.append(complex(float(disk.re), float(disk.im)))
    return np.array([[c ** k for k in range(field.degree)] for c in cs])


def _lattice_candidates_reference(field, g1_lo, g1_hi, block_bounds):
    """The enumerator over the full d-dimensional meshgrid of the box."""
    vand = _conj_vandermonde(field)
    vinv = np.linalg.inv(vand)
    bvec = [max(abs(g1_lo), abs(g1_hi))]
    for (kind, j), r in zip(field.hblocks, block_bounds):
        bvec.append(float(r))
        if kind == "pair":
            bvec.append(float(r))
    bvec = np.array(bvec)
    ranges = np.abs(vinv) @ bvec * (1 + 1e-9) + 0.5001
    axes = [np.arange(-int(r), int(r) + 1) for r in ranges]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    vals0 = coords.astype(float) @ vand[0].real
    keep = (vals0 >= g1_lo - 1e-9) & (vals0 <= g1_hi + 1e-9)
    for (kind, j), r in zip(field.hblocks, block_bounds):
        row = vand[j]
        zj = coords.astype(float) @ row.real + 1j * (coords.astype(float) @ row.imag)
        keep &= np.abs(zj) <= float(r) * (1 + 1e-9) + 1e-9
    coords = coords[keep]
    order = np.lexsort(coords.T[::-1])
    return [tuple(int(c) for c in row) for row in coords[order]]


def _height_ordered_range_reference(field, g1_lo, g1_hi, height):
    """The (height, lex) enumerator over the full d-dimensional meshgrid."""
    d = field.degree
    vand = _conj_vandermonde(field)
    ax = np.arange(-height, height + 1)
    mesh = np.meshgrid(*([ax] * d), indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    vals = coords.astype(float) @ vand[0].real
    keep = (vals >= g1_lo - 1e-9) & (vals <= g1_hi + 1e-9)
    coords = coords[keep]
    rows = [tuple(int(c) for c in r) for r in coords]
    rows.sort(key=lambda c: (max(abs(x) for x in c), c))
    return rows


BUNDLED = sorted(p.stem for p in
                 (pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("name", BUNDLED)
def test_field_vandermonde_matches_conjugate_enclosures(name):
    # the table kept by the field is the Vandermonde of the certified
    # conjugates bit for bit, also after beta's enclosure is narrowed
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    f = transform_from_config(json.loads(path.read_text())).field
    assert np.array_equal(f.vand, _conj_vandermonde(f))
    assert np.array_equal(f.vand_inv, np.linalg.inv(_conj_vandermonde(f)))
    f.conj_enclosure(0, Fraction(1, 2 ** 300))
    assert np.array_equal(f.vand, _conj_vandermonde(f))


@pytest.mark.parametrize("name", BUNDLED)
def test_slab_enumerators_match_meshgrid_reference(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    t = transform_from_config(json.loads(path.read_text()))
    f = t.field
    bounds = conj_block_bounds(t)
    diam = float(t.xmax - t.xmin)
    domain = lattice_candidates(f, float(t.xmin), float(t.xmax), bounds)
    assert domain == _lattice_candidates_reference(f, float(t.xmin), float(t.xmax), bounds)
    wide = [2 * b for b in bounds]
    assert lattice_candidates(f, -diam, diam, wide) == \
        _lattice_candidates_reference(f, -diam, diam, wide)
    # thin windows around lattice values, with the 1e-9 widening landing on them
    vand = _conj_vandermonde(f)
    hits = 0
    for coords in domain[::max(1, len(domain) // 12)]:
        v = float(np.array(coords, dtype=float) @ vand[0].real)
        for lo, hi in ((v - 1e-7, v + 1e-7), (v + 1e-9, v + 1e-7), (v - 1e-7, v - 1e-9)):
            for scale in (1, 4):
                bb = [b * scale for b in bounds]
                got = lattice_candidates(f, lo, hi, bb)
                assert got == _lattice_candidates_reference(f, lo, hi, bb), (coords, lo, hi)
                hits += coords in got
    assert hits > 0
    eps = [0.3]
    if t.side == "right":
        eps.append(float(weak_finiteness_epsilon(t, purely_periodic_points(t))))
    for e in eps:
        assert _height_ordered_range(f, 0.0, e, 40) == _height_ordered_range_reference(f, 0.0, e, 40)
    for h in range(1, 8):
        assert _height_ordered_range(f, 0.0, math.inf, h) == \
            _height_ordered_range_reference(f, 0.0, math.inf, h)


def _default_samples_reference(field, count):
    """Samples rebuilt from the reference range for each height 1..7."""
    out = []
    h = 1
    while len(out) < count and h < 8:
        out = []
        for coords in _height_ordered_range_reference(field, 0.0, math.inf, h):
            z = field.qb(coords)
            if qb_compare(z, field.zero) > 0:
                out.append(z)
            if len(out) >= count:
                break
        h += 1
    return out[:count]


@pytest.mark.parametrize("name", BUNDLED)
def test_default_samples_match_reference(name):
    from betatiling.cli import default_samples
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    f = transform_from_config(json.loads(path.read_text())).field
    for count in (1, 20, 50, 400, 10 ** 6):
        assert default_samples(f, count) == _default_samples_reference(f, count), count


def test_left_continuous_map_rejected(golden):
    t = preset("lazy", golden)
    pset = purely_periodic_points(t)
    with pytest.raises(ValidationError, match="right-continuous"):
        check_w(t, pset)
    with pytest.raises(ValidationError, match="right-continuous"):
        tiles_containing(t, pset, golden.one)


# ---------------------------------------------------------------------------
# torus translates

def test_torus_golden_greedy(golden_greedy):
    vd, g, _ = stage_cache(golden_greedy)
    scene = torus_translates(golden_greedy, vd, g, 18, resolution=100)
    cov = scene.coverage
    assert cov.get(1, 0) > 0.85
    mean = sum(k * v for k, v in cov.items())
    assert abs(mean - 1.0) < 0.1


def test_torus_fig5_sublattice(golden_pm1):
    vd, g, _ = stage_cache(golden_pm1)
    scene = torus_translates(golden_pm1, vd, g, 18, scale=2, resolution=100)
    cov = scene.coverage
    assert cov.get(1, 0) > 0.8


def test_torus_golden_symmetric(golden_symmetric_r):
    vd, g, _ = stage_cache(golden_symmetric_r)
    scene = torus_translates(golden_symmetric_r, vd, g, 18, resolution=100)
    assert scene.coverage.get(1, 0) > 0.85


# ---------------------------------------------------------------------------
# integer cell keys and the one-pass translates against the row kernels they
# replaced: np.unique(axis=0) on snapped float rows and on floored cells, and
# one shifted copy of the scene per lattice translate

def _clouds_reference(g, depth, snap_threshold=4000):
    f = g.field
    dim = f.degree - 1
    clouds, err = [np.zeros((1, dim)) for _ in g.vertices], g.cloud_constant
    for _ in range(depth):
        err = f.rho * err + g.phi_err + tiling._FLOAT_STEP_SLACK
        grid = max(err / 128, 1e-9)
        nxt = []
        for i in range(len(g.vertices)):
            pts = np.vstack([clouds[j] @ f.contract_mat.T + g.phi_digits[a] for j, a in g.edges[i]])
            if len(pts) > snap_threshold:
                pts = np.unique(np.round(pts / grid) * grid, axis=0)
            nxt.append(np.unique(pts, axis=0))
        clouds = nxt
        err += grid * math.sqrt(dim) * 0.5
    return clouds, err


def _box_count_reference(points, cell):
    cells = np.unique(np.floor(points / cell).astype(np.int64), axis=0)
    return len(cells) * cell ** points.shape[1]


def _translates_reference(scene, lattice_box, scale, resolution):
    d = scene.shape[1]
    h = scale / resolution
    if lattice_box is None:
        lo_m = np.floor(-scene.max(axis=0) / scale).astype(int) - 1
        hi_m = np.ceil((scale - scene.min(axis=0)) / scale).astype(int) + 1
    else:
        lo_m = np.full(d, -lattice_box, dtype=int)
        hi_m = np.full(d, lattice_box, dtype=int)
    counts = np.zeros((resolution,) * d, dtype=np.int16)
    translates = []
    for mv in itertools.product(*[range(int(lo_m[i]), int(hi_m[i]) + 1) for i in range(d)]):
        shifted = scene + np.array(mv, dtype=float) * scale
        inside = np.all((shifted >= 0) & (shifted < scale), axis=1)
        if not inside.any():
            continue
        translates.append(mv)
        idx = np.clip(np.floor(shifted[inside] / h).astype(int), 0, resolution - 1)
        flat = np.zeros((resolution,) * d, dtype=bool)
        flat[tuple(idx.T)] = True
        counts += flat.astype(np.int16)
    vals, freq = np.unique(counts, return_counts=True)
    return tuple(translates), {int(v): c / counts.size for v, c in zip(vals, freq)}


def _assert_translates_match(t, vd, g, depth, **kw):
    scene = torus_translates(t, vd, g, depth, **kw)
    ref = _translates_reference(scene.scene_points, kw.get("lattice_box"),
                                kw.get("scale", 1), kw.get("resolution", 120))
    assert (scene.translates, scene.coverage) == ref, kw
    return scene


@pytest.mark.parametrize("name,depth", [("golden_greedy", 20), ("golden_pm1", 20),
                                        ("tribonacci_symmetric", 15),
                                        ("cubic_2m11_symmetric", 15)])
def test_cell_keys_match_row_reference(name, depth):
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    t = transform_from_config(json.loads(path.read_text()))
    vd = compute_v(t)
    g = gifs_build(t, vd)
    clouds, err = clouds_at_depth(g, depth)
    ref, ref_err = _clouds_reference(g, depth)
    assert err == ref_err
    assert len(clouds) == len(ref) and all(map(np.array_equal, clouds, ref))
    for cell in (2 * err, 0.01):
        assert [box_count_measure(c, cell) for c in clouds] == \
            [_box_count_reference(c, cell) for c in ref]
    area = sum(float(iv.length()) * _box_count_reference(c, 2 * err) for iv, c in zip(g.J, ref))
    assert natext_domain(t, vd, g, depth).area == area * g.field.det_factor
    if g.field.degree == 2:
        for kw in ({}, {"scale": 2, "resolution": 100}, {"scale": 0.7}, {"lattice_box": 1},
                   {"lattice_box": 0}):
            _assert_translates_match(t, vd, g, 11, **kw)
    else:
        _assert_translates_match(t, vd, g, 6, resolution=30)


def test_translates_match_loop_where_x_over_scale_rounds():
    # a stand-in graph whose scene is every pair of the given coordinates:
    # the interval [x, x] and v1 = (1, 0) give the first, the cloud the second
    xs = []
    for scale in (0.7, 1.5, 0.3):
        for k in range(-3, 4):
            x = k * scale
            for _ in range(4):
                xs.append(x)
                x = np.nextafter(x, -np.inf)
    field = types.SimpleNamespace(degree=2, v=[np.array([1.0, 0.0])],
                                  hmat=np.array([[0.0, -1.0]]))
    cloud = np.array(xs)[:, None]
    g = types.SimpleNamespace(field=field, J=[types.SimpleNamespace(lo=x, hi=x) for x in xs],
                              _cloud_cache={1: ([cloud] * len(xs), 0.0)})
    rounded = 0
    for scale in (0.7, 1.5, 0.3):
        m = -np.floor(np.array(xs) / scale)
        rounded += int(np.sum(np.array(xs) + m * scale < 0))
        for kw in ({}, {"lattice_box": 2}, {"resolution": 7}):
            scene = _assert_translates_match(None, None, g, 1, scale=scale, **kw)
            assert len(scene.translates) > 1
    assert rounded > 0      # the scene does hold points where x/scale rounds up


def test_byte_budget_stops_large_allocations(monkeypatch, golden_pm1, tribonacci):
    t = golden_pm1
    vd = compute_v(t)
    g = gifs_build(t, vd)
    limit = 8000 * 8        # depth 16 stacks 5778 one-coordinate points, depth 17 9349
    monkeypatch.setattr(tiling, "_BYTE_LIMIT", limit)
    with pytest.raises(BudgetExceeded, match="cloud level") as ei:
        clouds_at_depth(g, 20)
    assert ei.value.info == {"points": 9349, "bytes": 9349 * 8, "limit": limit}
    assert max(g._cloud_cache) == 16
    assert sum(len(c) for c in clouds_at_depth(g, 16)[0]) == 5778
    with pytest.raises(BudgetExceeded, match="translate scene") as ei:
        torus_translates(t, vd, g, 16)
    assert ei.value.info["bytes"] > limit
    assert torus_translates(t, vd, g, 6, resolution=10).coverage
    # the decision allocates no cloud, so it fits under the same limit
    pset = purely_periodic_points(t)
    assert decide_tiling(t, g, pset).verdict == "multiple"
    monkeypatch.setattr(tiling, "_BYTE_LIMIT", 1000)
    with pytest.raises(BudgetExceeded, match="lattice box") as ei:
        purely_periodic_points(preset("symmetric", tribonacci))
    assert set(ei.value.info) == {"points", "bytes", "limit"}


# ---------------------------------------------------------------------------
# lattice digit identity

def test_kth_digit_lattice_test(golden, golden_greedy):
    vd, g, _ = stage_cache(golden_greedy)
    clouds, err = clouds_at_depth(g, 22)
    v1 = golden.v[0].real
    hmat = golden.hmat
    regions = []
    for i, v in enumerate(g.vertices):
        amb = clouds[i] @ hmat
        for a in range(len(golden_greedy.digits)):
            pieces = [iv for iv, aa in golden_greedy.pieces if aa == a]
            for iv in pieces:
                lo = max(float(iv.lo), float(g.J[i].lo))
                hi = min(float(iv.hi), float(g.J[i].hi))
                if lo >= hi:
                    continue
                ts = np.linspace(lo, hi, 40, endpoint=False)
                pts = ts[:, None, None] * v1[None, None, :] - amb[None, :, :]
                regions.append((a, pts.reshape(-1, 2)))
    rng = random.Random(11)
    for _ in range(6):
        x = golden.qb([Fraction(rng.randint(1, 60), 61)])
        word = expand(golden_greedy, x)
        bf = float(golden.beta)
        for k in range(1, 13):
            target = (bf ** (k - 1) * float(x)) * v1
            a_expect = word.digit_at(k - 1)
            # the shifted point must lie inside the region of its digit
            # (regions of different digits overlap only near boundaries)
            dist = None
            for a, pts in regions:
                if a != a_expect:
                    continue
                d = pts - target[None, :]
                d -= np.round(d)   # reduce mod the unit lattice
                got = np.abs(d).sum(axis=1).min()
                dist = got if dist is None else min(dist, got)
            assert dist < 5 * err + 0.05


def test_density_matches_cloud_measure(golden, golden_greedy, golden_symmetric_r):
    for t in (golden_greedy, golden_symmetric_r):
        vd, g, _ = stage_cache(t)
        h = invariant_density(t, vd)
        clouds, err = clouds_at_depth(g, 24)
        lens = [box_count_measure(c, 2 * err) for c in clouds]
        hf = [float(x) for x in h]
        # weights are proportional to transverse measures within 5 percent
        ratios = [l / w for l, w in zip(lens, hf) if w > 1e-12]
        mid = sorted(ratios)[len(ratios) // 2]
        assert all(abs(r / mid - 1) < 0.05 for r in ratios)
        for l, w in zip(lens, hf):
            if w < 1e-12:
                assert l < 3 * err
