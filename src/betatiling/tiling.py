"""Geometric layer: fiber tiles on the contracting hyperplane.

The closure of the admissible pasts of a point x, mapped through the
contracting embeddings, is a compact tile; tiles are constant on the
boundary-orbit intervals, satisfy a graph-directed system of contractions
indexed by digit branches, and translate to a covering of the hyperplane by
lattice points of the domain.  This module builds the graph, iterates the
contractions into certified point clouds, enumerates purely periodic points,
decides point/tile membership exactly, and samples covering degrees.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field as dfield

import numpy as np

from .betamap import _from_num, _num_frame, branch_edges, expand
from .errors import (BudgetExceeded, DigitsNotIntegral,
                     UnrenderableDimension, ValidationError)
from .numfield import GT, LT, QBeta, _num_sign, _span_compare, gamma_abs_upper, phi, qb_compare

_FLOAT_STEP_SLACK = 1e-12
_BYTE_LIMIT = 1 << 30       # largest cloud level, translate scene or lattice box
_SLICE_ROWS = 1 << 14       # scene rows per slice of the translate pass
_SNAP_POINTS = 4000         # cloud size above which a level is snapped to its grid
_STEPS = np.array([0, 1, -1])   # translate steps from -floor(x/scale) tried in the
                                # rounding band of torus_translates, indexed by step


def _require_integral_digits(t):
    if not t.digits_integral():
        raise DigitsNotIntegral("tiling operations need digits in Z[beta]")


def _check_bytes(points, width, what):
    nbytes = points * width * 8
    if nbytes > _BYTE_LIMIT:
        raise BudgetExceeded(f"{what} exceeds the memory budget",
                             points=points, bytes=nbytes, limit=_BYTE_LIMIT)


def conj_block_bounds(t):
    """Certified per-block radius of all past sums: max_a |G_j(a)| / (1-|b_j|)."""
    f = t.field
    out = []
    for kind, j in f.hblocks:
        num = max(gamma_abs_upper(d, j) for d in t.digits)
        den = 1 - f.conj_abs_upper(j)
        out.append(num / den)
    return out


# ---------------------------------------------------------------------------
# graph-directed system

@dataclass
class GifsGraph:
    """Vertices are interval representatives; an edge (i -> j, a) records that
    the branch-a preimage of vertex i lies in interval j, so tile(i) contains
    the contracted tile(j) translated by the digit projection."""
    transform: object
    vertices: list
    J: list
    edges: list                    # edges[i] = [(j, digit_index), ...]
    phi_digits: np.ndarray         # hyperplane coordinates of each digit
    phi_err: float
    cloud_constant: float          # Hausdorff bound for the depth-0 seed
    table: object                  # numfield._EndTable of J, labelled by vertex index
    _cloud_cache: dict = dfield(default_factory=dict)

    @property
    def field(self):
        return self.transform.field

    def vertex_index(self, x):
        """Index of the interval J_i that contains x, or None."""
        return self.table.of(x)


def gifs_build(t, vdata):
    """Exact edge set of the graph-directed system for the interval tiles."""
    _require_integral_digits(t)
    verts = list(vdata.V)
    edges = branch_edges(t, vdata)
    for v, row in zip(verts, edges):
        if not row:
            raise ValidationError(f"vertex {v!r} has no branch preimage")
    phis = [phi(d, 60) for d in t.digits]
    phi_mat = np.array([p.coords for p in phis])
    phi_err = max(p.err for p in phis)
    bounds = conj_block_bounds(t)
    # block coordinates are (2 Re G, -2 Im G) for a conjugate pair, G for a real one
    sq = sum((2 * float(b)) ** 2 if kind == "pair" else float(b) ** 2
             for (kind, _), b in zip(t.field.hblocks, bounds))
    cconst = math.sqrt(sq) * (1 + 1e-9) + 1e-9
    return GifsGraph(t, verts, list(vdata.intervals), edges, phi_mat, phi_err, cconst,
                     vdata.table)


@dataclass(frozen=True)
class TileCloud:
    """Depth-k point cloud of one tile with a certified Hausdorff error."""
    owner: object
    depth: int
    points: np.ndarray      # shape (n, d-1), hyperplane coordinates
    err: float

    def __len__(self):
        return len(self.points)


def cell_frame(columns):
    """Offset and span of integer columns; their mixed-radix keys must fit int64."""
    lo = np.array([c.min() for c in columns])
    span = np.array([c.max() for c in columns]) - lo + 1
    if math.prod(int(s) for s in span) >= 1 << 63:
        raise BudgetExceeded("cell keys overflow int64", span=[int(s) for s in span])
    return lo, span


def cell_keys(columns, frame):
    """One int64 key per integer row inside the frame, in lexicographic row
    order: offset by the frame's minimum, then mixed radix over its span.
    The rows are given as a sequence of integer columns."""
    lo, span = frame
    keys = columns[0] - lo[0]
    for k in range(1, len(columns)):
        keys = keys * span[k] + (columns[k] - lo[k])
    return keys


def _sorted_distinct(a, kind=None):
    """The distinct elements of a 1-d array in ascending order: one sort, then
    a mask of equal neighbours.  A stable sort keeps the first of equal
    elements in input order."""
    a = np.sort(a, kind=kind)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _key_rows(keys, frame):
    """The integer rows of cell keys, the inverse of :func:`cell_keys`: one
    divmod per column, written straight into the rows."""
    lo, span = frame
    rows = np.empty((len(keys), len(span)), dtype=np.int64)
    for k in range(len(span) - 1, 0, -1):
        keys = np.divmod(keys, span[k], out=(None, rows[:, k]))[0]
    rows[:, 0] = keys
    rows += lo
    return rows


def unique_cells(columns):
    """The distinct rows of integer columns, in lexicographic order.

    The rows' cell keys are sorted once and equal neighbours masked; no
    counts are built, and the rows come back from the distinct keys.
    """
    frame = cell_frame(columns)
    return _key_rows(_sorted_distinct(cell_keys(columns, frame)), frame)


def unique_rows(points):
    """The distinct float rows, in lexicographic order.

    Rows equal under ``==`` are one row, kept as the first of them in input
    order, so of two rows differing only in the sign of a zero the earlier
    stays.  A row of width 1 or 2 is one float64 or complex128 element,
    which numpy orders lexicographically, so one stable sort of those
    elements orders the rows; wider rows take ``np.lexsort`` of the columns.
    Equal neighbours are masked after the sort and no counts are built.
    Both sorts are several times faster than numpy's row-wise unique, which
    sorts through a structured dtype.
    """
    width = points.shape[1]
    if width <= 2:
        elems = np.ascontiguousarray(points).view(np.complex128 if width == 2 else np.float64)
        rows = _sorted_distinct(elems.ravel(), kind="stable")
    else:
        rows = points[np.lexsort(points.T[::-1])]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in rows.T])
        rows = rows[keep]
    return rows.view(np.float64).reshape(-1, width)


def clouds_at_depth(g, depth):
    """Point clouds for every vertex, cached and built by backward iteration.

    Returns (list of arrays, err).  Each level is built from the one below it,
    starting at the deepest cached level.  A level of at most ``_SNAP_POINTS``
    points per vertex holds its distinct float points in lexicographic row
    order; a larger one is snapped to a grid, its cells formed column by
    column.  The error bound accounts for truncation at the given depth, for
    grid snapping, and for float slack.  A depth that is not an integer of at
    least 0 raises ``ValidationError``.
    """
    if not (isinstance(depth, numbers.Integral) and depth >= 0):
        raise ValidationError(f"cloud depth must be a non-negative integer, got {depth!r}")
    if depth in g._cloud_cache:
        return g._cloud_cache[depth]
    f = g.field
    dim = f.degree - 1
    g._cloud_cache.setdefault(0, ([np.zeros((1, dim)) for _ in g.vertices], g.cloud_constant))
    mh = f.contract_mat
    for level in range(max(k for k in g._cloud_cache if k <= depth) + 1, depth + 1):
        prev, perr = g._cloud_cache[level - 1]
        err = f.rho * perr + g.phi_err + _FLOAT_STEP_SLACK
        grid = max(err / 128, 1e-9)
        _check_bytes(sum(len(prev[j]) for es in g.edges for j, _ in es), dim, "cloud level")
        contracted = [p @ mh.T for p in prev]
        clouds = []
        for es in g.edges:
            if sum(len(contracted[j]) for j, _ in es) > _SNAP_POINTS:
                cells = [np.round(np.concatenate([contracted[j][:, k] + g.phi_digits[a, k]
                                                  for j, a in es]) / grid).astype(np.int64)
                         for k in range(dim)]
                clouds.append(unique_cells(cells) * grid)
            else:
                clouds.append(unique_rows(np.vstack([contracted[j] + g.phi_digits[a]
                                                     for j, a in es])))
        # snapping displacement enters contracted at later depths; charge it now
        err += grid * math.sqrt(dim) * 0.5
        g._cloud_cache[level] = (clouds, err)
    return g._cloud_cache[depth]


def tile_cloud(g, x, depth):
    """Certified depth-k cloud of the tile of vertex x (an index), or of the
    interval containing the point x."""
    i = x if isinstance(x, numbers.Integral) and not isinstance(x, bool) else g.vertex_index(x)
    if i is None or not 0 <= i < len(g.vertices):
        raise ValidationError(f"{x!r} is neither a vertex index nor a point of the domain")
    clouds, err = clouds_at_depth(g, depth)
    return TileCloud(g.vertices[i], depth, clouds[i], err)


def box_count_measure(points, cell):
    """Box-counting measure of a point cloud at the given cell size.

    The cells' keys are sorted once and their distinct values counted; no
    rows and no counts are built.  The cell size must satisfy
    0 < cell < inf, or ``ValidationError`` is raised.
    """
    if not 0 < cell < math.inf:
        raise ValidationError(f"box cell size must be finite and positive, got {cell}")
    if len(points) == 0:
        return 0.0
    cells = [np.floor(c / cell).astype(np.int64) for c in points.T]
    keys = cell_keys(cells, cell_frame(cells))
    return len(_sorted_distinct(keys)) * cell ** points.shape[1]


@dataclass(frozen=True)
class NatExtDomain:
    """Product representation of the invertible extension's domain."""
    pieces: tuple          # (vertex, interval, cloud) triples
    area: float
    err: float
    det_factor: float


def natext_domain(t, vdata, g, depth):
    """Interval-times-tile product pieces plus a volume estimate.

    The volume is the sum over pieces of interval length times the
    box-counting measure of the tile cloud, scaled by the exact change of
    basis to ambient coordinates.
    """
    clouds, err = clouds_at_depth(g, depth)
    cell = 2 * err
    pieces = []
    vol = 0.0
    for i, v in enumerate(g.vertices):
        cl = TileCloud(v, depth, clouds[i], err)
        pieces.append((v, g.J[i], cl))
        vol += float(g.J[i].length()) * box_count_measure(clouds[i], cell)
    return NatExtDomain(tuple(pieces), vol * g.field.det_factor, err, g.field.det_factor)


# ---------------------------------------------------------------------------
# lattice enumeration under conjugate bounds

def _slab_rows(vand, r0, axes, g1_lo, g1_hi):
    """Integer rows (c_0, c_1, ..., c_{d-1}) with |c_0| <= r0 and c_k over
    axes[k-1] whose float real embedding c_0 + sum_k c_k beta^k lies in
    [g1_lo - 1e-9, g1_hi + 1e-9], in lexicographic order.

    Only the grid of c_1..c_{d-1} is enumerated: on each of its slabs the
    window fixes c_0 to an integer range, solved directly and widened by one
    on either side for float rounding, before the window test itself.
    """
    b0 = vand[0].real
    _check_bytes(math.prod(len(a) for a in axes), len(axes), "lattice box")
    rest = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    s = rest.astype(float) @ b0[1:]
    lo = np.clip(np.ceil(g1_lo - 1e-9 - s) - 1, -r0, r0 + 1).astype(np.int64)
    hi = np.clip(np.floor(g1_hi + 1e-9 - s) + 1, -r0 - 1, r0).astype(np.int64)
    n = np.maximum(hi - lo + 1, 0)
    total = int(n.sum())
    _check_bytes(total, len(b0), "lattice box")
    c0 = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(total)
    coords = np.column_stack([c0, np.repeat(rest, n, axis=0)])
    vals = coords.astype(float) @ b0
    coords = coords[(vals >= g1_lo - 1e-9) & (vals <= g1_hi + 1e-9)]
    return coords[np.lexsort(coords.T[::-1])]


def lattice_candidates(field, g1_lo, g1_hi, block_bounds):
    """Integer coordinate vectors whose embeddings fit the given box, in
    lexicographic order.

    The real embedding is confined to [g1_lo, g1_hi] and each conjugate block
    to the corresponding radius.  Both float tests are inflated, so the
    result is a superset.  Callers re-check the real embedding exactly and
    keep the conjugate superset, which is safe for each: every purely
    periodic point and every difference on an infinite path of the difference
    graph meets the bounds.
    """
    vand = field.vand
    bvec = [max(abs(g1_lo), abs(g1_hi))]
    for (kind, j), r in zip(field.hblocks, block_bounds):
        bvec.append(float(r))
        if kind == "pair":
            bvec.append(float(r))
    bvec = np.array(bvec)
    ranges = [int(r) for r in np.abs(field.vand_inv) @ bvec * (1 + 1e-9) + 0.5001]
    coords = _slab_rows(vand, ranges[0], [np.arange(-r, r + 1) for r in ranges[1:]],
                        g1_lo, g1_hi)
    keep = np.ones(len(coords), dtype=bool)
    for (kind, j), r in zip(field.hblocks, block_bounds):
        row = vand[j]
        zj = coords.astype(float) @ row.real + 1j * (coords.astype(float) @ row.imag)
        keep &= np.abs(zj) <= float(r) * (1 + 1e-9) + 1e-9
    return [tuple(int(c) for c in row) for row in coords[keep]]


# ---------------------------------------------------------------------------
# purely periodic points

@dataclass(frozen=True)
class PeriodicSet:
    points: tuple
    periods: tuple
    words: tuple

    def __len__(self):
        return len(self.points)


def purely_periodic_points(t):
    """All integral points of the domain whose full orbit returns exactly.

    Enumerates the certified conjugate box that any such point must satisfy
    (its hyperplane image lies in the bounded set of past sums), then keeps
    the points whose exact orbit revisits the start.
    """
    _require_integral_digits(t)
    f = t.field
    bounds = conj_block_bounds(t)
    lo, hi = float(t.xmin), float(t.xmax)
    pts, periods, words = [], [], []
    for coords in lattice_candidates(f, lo, hi, bounds):
        x = f.qb(coords)
        if not t.contains(x):
            continue
        word = expand(t, x)
        if not word.preperiod:
            pts.append(x)
            periods.append(len(word.period))
            words.append(word)
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    return PeriodicSet(tuple(pts[i] for i in order),
                       tuple(periods[i] for i in order),
                       tuple(words[i] for i in order))


def check_f(pset):
    """Single-orbit-point criterion: the origin sits in exactly one tile."""
    return len(pset) == 1


# ---------------------------------------------------------------------------
# exact tile membership for lattice points

@dataclass(frozen=True)
class MembershipReport:
    z: object
    k: int
    owners: tuple
    count: int


def tiles_containing(t, pset, z, k_budget=400):
    """The exact set of tiles whose translate contains the projection of z.

    Picks the smallest shift k making the orbit test of every purely periodic
    point valid, then re-checks at k plus the full period round for stability.
    """
    if not isinstance(z, QBeta):
        raise TypeError(f"z must be a QBeta, not {type(z).__name__}")
    _require_integral_digits(t)
    if t.side != "right":
        raise ValidationError("tile membership expects the right-continuous map")
    f = t.field
    if not z.is_integral():
        raise DigitsNotIntegral("z must lie in Z[beta]")
    if qb_compare(z, f.zero) == LT:
        raise ValidationError("z must be nonnegative")
    if not len(pset):
        raise ValidationError("empty periodic set")
    ends = [t._piece_end(y) for y in pset.points]

    def owners_at(k):
        zk = z
        for _ in range(k):
            zk = zk.div_beta()
        res = []
        for y, r in zip(pset.points, ends):
            if not t.contains(y + zk):
                return None
            if qb_compare(y + zk.div_beta(), r) != LT:
                return None
            cur = y + zk
            for _ in range(k):
                _, cur = t.step_index(cur)
            res.append(cur)
        seen = {}
        for x in res:
            seen[x.coords] = x
        return tuple(sorted(seen.values()))

    k = 0
    while k <= k_budget:
        owners = owners_at(k)
        if owners is not None:
            break
        k += 1
    else:
        raise BudgetExceeded("no valid shift found", z=str(z))
    again = owners_at(k + math.lcm(*pset.periods))
    if again != owners:
        raise ValidationError("owner set unstable under a full period round")
    return MembershipReport(z, k, owners, len(owners))


def covering_degree_estimate(t, pset, samples):
    """Minimum owner count over the samples plus the full histogram.

    Every sampled count is at least the covering degree, so the minimum is an
    attained candidate for it (exact when an exclusive sample is hit).  An
    empty sample list has no minimum and raises ValidationError."""
    if not samples:
        raise ValidationError("no samples to estimate the covering degree from")
    counts = [tiles_containing(t, pset, z).count for z in samples]
    return min(counts), dict(Counter(counts))


# ---------------------------------------------------------------------------
# weak-finiteness witnesses

@dataclass(frozen=True)
class WitnessReport:
    status: str            # 'holds' or 'fails_by_budget'
    x: object
    witnesses: dict        # y -> (z, k)
    epsilon: object
    chains: dict           # y -> orbit value list (length k+1)


def weak_finiteness_epsilon(t, pset):
    """Exact search radius: min over periodic points of the scaled distance to
    the right end of the containing piece."""
    if t.side != "right":
        raise ValidationError("weak-finiteness search expects the right-continuous map")
    return min(((t._piece_end(y) - y) * t.field.beta for y in pset.points), default=None)


def _height_ordered_range(field, g1_lo, g1_hi, height):
    """Integer coordinate tuples with sup norm <= height whose real embedding
    lies in [g1_lo, g1_hi], ordered by (height, lex)."""
    ax = np.arange(-height, height + 1)
    coords = _slab_rows(field.vand, height, [ax] * (field.degree - 1), g1_lo, g1_hi)
    order = np.lexsort(tuple(coords.T[::-1]) + (np.abs(coords).max(axis=1),))
    return [tuple(int(c) for c in row) for row in coords[order]]


def check_w(t, pset, z_height=40, k_budget=300, max_candidates=20000):
    """Search for a uniform merge witness: a small nonnegative lattice z and a
    shift k sending every periodic point plus z to one common periodic point.

    A found witness certifies the tiling property.  Exhausting the budget is
    reported as such, never as a refutation.  The chains run on the integer
    orbit kernel of :mod:`betamap`: the periodic points, z and the digits lie
    in Z[beta], so every chain point is a tuple of integer numerators over the
    transform's frame ``_q``.  Chains of different candidates meet the same
    points again and again, so one table per search maps a point's numerators
    to its successor's (None outside the domain) and each distinct point is
    looked up and stepped once.  A negative budget raises ValidationError, as
    a search that never ran must not read as one that ran out.
    """
    if min(z_height, k_budget, max_candidates) < 0:
        raise ValidationError("z_height, k_budget and max_candidates must be nonnegative")
    _require_integral_digits(t)
    f = t.field
    eps = weak_finiteness_epsilon(t, pset)
    cands = _height_ordered_range(f, 0.0, float(eps), z_height)
    pts = list(pset.points)
    q, qd = t._q, t._qd
    ys = [_num_frame(t, y)[1] for y in pts]
    periodic = set(ys)
    kernel = f._step
    succ = {}

    def step(c):
        if c not in succ:
            a = t._table.at(c, q)
            succ[c] = None if a is None else kernel(c, qd[a])
        return succ[c]

    # 0 <= z < eps on the float spans, and on integers where they overlap
    qe, en, _ = _num_frame(t, eps)
    seps = f._span(en, qe)
    tried = 0
    for coords in cands:
        if (_num_sign(f, coords) == LT
                or _span_compare(f, en, coords, qe, seps, f._span(coords, 1), qe) != GT):
            continue
        tried += 1
        if tried > max_candidates:
            break
        cur = [tuple(a + q * b for a, b in zip(y, coords)) for y in ys]
        chains = [[c] for c in cur]
        seen_states = set()
        for k in range(k_budget + 1):
            nxt = [step(c) for c in cur]
            if None in nxt:
                break
            state = tuple(cur)
            if len(set(state)) == 1 and state[0] in periodic:
                z = f.qb(coords)
                return WitnessReport(
                    "holds", _from_num(f, state[0], q),
                    {y: (z, k) for y in pts},
                    eps,
                    {y: [_from_num(f, c, q) for c in ch] for y, ch in zip(pts, chains)})
            if state in seen_states:
                break
            seen_states.add(state)
            cur = nxt
            for ch, c in zip(chains, cur):
                ch.append(c)
    return WitnessReport("fails_by_budget", None, {}, eps, {})


# ---------------------------------------------------------------------------
# torus translates

@dataclass(frozen=True)
class TorusScene:
    scene_points: np.ndarray    # ambient R^d points of the base domain
    translates: tuple           # integer vectors used
    coverage: dict              # multiplicity -> fraction of sampled cells
    resolution: int
    scale: float


def _step_keys(xs, scale, h, resolution, lo_m, hi_m, frame):
    """(translate, cell) keys of the rows of xs, given column-major, in every
    translate m0 + e of the box that holds them, with m0 = -floor(x/scale)
    and e in _STEPS per coordinate: the exact product for the rounding band."""
    m0s = -np.floor(xs / scale)
    # ok[k][e]: coordinate k of translate m0 + e is in the box and lands in [0, scale)
    ok = []
    for x, m0, lo, hi in zip(xs, m0s, lo_m, hi_m):
        m = m0 + _STEPS[:, None]
        sh = x + m * scale
        ok.append((sh >= 0) & (sh < scale) & (m >= lo) & (m <= hi))
    part = [np.zeros(0, dtype=np.int64)]
    for off in itertools.product(_STEPS, repeat=len(xs)):
        sel = np.flatnonzero(np.logical_and.reduce([ok[k][e] for k, e in enumerate(off)]))
        if len(sel):
            ms = [m0s[k, sel] + e for k, e in enumerate(off)]
            cells = [np.clip(np.floor((xs[k, sel] + m * scale) / h).astype(np.int64),
                             0, resolution - 1) for k, m in enumerate(ms)]
            part.append(cell_keys([m.astype(np.int64) for m in ms] + cells, frame))
    return np.concatenate(part)


def torus_translates(t, vdata, g, depth, lattice_box=None, scale=1, resolution=120):
    """Lattice translates of the extension domain with a coverage histogram.

    Samples the domain as ambient points (interval grid times tile cloud) and
    counts how many translates hit each cell of the fundamental domain of the
    scaled lattice, in one pass over slices of the scene, a coordinate at a
    time.  Point x lies in a translate m of the box when
    0 <= x + m*scale < scale, in floats.  Each coordinate is tried once, at
    m = -floor(x/scale), giving the shift sh = x + m*scale and its cell.

    The rounding band.  Let X be the largest |x| of the coordinate's column
    and u = 2**-53.  For m' = m + e with e in (0, 1, -1),
    |m'| <= (1 + u)*X/scale + 2, so the float x + m'*scale, two roundings,
    is within E <= u*(3X + 4*scale)*(1 + 3u) + 2**-1074 of its exact value.
    The band is delta = 16*ulp(X + scale) > 2E wide.  If
    delta <= sh < scale - delta, the exact x + m*scale lies in
    (E, scale - E), so x + (m + 1)*scale computes to more than scale and
    x + (m - 1)*scale to less than 0: only m can hold the coordinate.  A row
    with a coordinate in the band, where x/scale can round, takes the exact
    product of the steps in ``_STEPS`` per coordinate instead; on the bundled
    render scenes that is at most two rows.  Where X/scale reaches 2**48 the
    band covers [0, scale) and every row takes the product.

    The scale must be finite and positive, the resolution an integer of at
    least 1 and the lattice box None or an integer of at least 0, or
    ``ValidationError`` is raised.  A scene or coverage grid above the
    memory budget raises ``BudgetExceeded`` before the scene is built.
    """
    if not (isinstance(resolution, numbers.Integral) and resolution >= 1
            and 0 < scale < math.inf
            and (lattice_box is None
                 or isinstance(lattice_box, numbers.Integral) and lattice_box >= 0)):
        raise ValidationError(
            f"translates need scale > 0 and resolution >= 1 (a finite scale, an integer "
            f"resolution) and lattice_box None or an integer >= 0, got scale {scale}, "
            f"resolution {resolution} and lattice_box {lattice_box}")
    f = g.field
    d = f.degree
    if d > 3:
        raise UnrenderableDimension("translate scenes are limited to degree <= 3")
    clouds, err = clouds_at_depth(g, depth)
    v1 = f.v[0].real
    h = scale / resolution
    ends = [(float(iv.lo), float(iv.hi)) for iv in g.J]
    ns = [max(2, int((hi - lo) / (h / 2)) + 1) for lo, hi in ends]
    size = sum(n * len(c) for n, c in zip(ns, clouds))
    _check_bytes(size, d, "translate scene")
    ncells = int(resolution) ** d
    _check_bytes(ncells, 1, "coverage grid")
    # the scene column-major: row k of cols holds coordinate k of every point
    cols = np.empty((d, size))
    r = 0
    for (lo, hi), n, c in zip(ends, ns, clouds):
        line = np.linspace(lo, hi, n, endpoint=False)
        amb = c @ f.hmat
        for k in range(d):
            # a contiguous slice, so reshape gives a view for outer to fill
            np.subtract.outer(line * v1[k], amb[:, k],
                              out=cols[k, r:r + n * len(c)].reshape(n, len(c)))
        r += n * len(c)
    top, bottom = cols.max(axis=1), cols.min(axis=1)
    if lattice_box is None:
        lo_m = np.floor(-top / scale).astype(int) - 1
        hi_m = np.ceil((scale - bottom) / scale).astype(int) + 1
    else:
        lo_m = np.full(d, -lattice_box, dtype=int)
        hi_m = np.full(d, lattice_box, dtype=int)
    # (translate, cell) keys: translates in the box, cells in [0, resolution)
    frame = cell_frame(np.array([np.r_[lo_m, [0] * d], np.r_[hi_m, [resolution - 1] * d]]).T)
    # cell_keys' mixed radix is linear: a key is sum((column - lo) * weight)
    weights = [math.prod(int(s) for s in frame[1][k + 1:]) for k in range(2 * d)]
    band = [16 * math.ulp(max(-a, b) + scale) for a, b in zip(bottom, top)]
    keys = []
    for s in range(0, cols.shape[1], _SLICE_ROWS):
        xs = cols[:, s:s + _SLICE_ROWS]
        key = np.zeros(xs.shape[1], dtype=np.int64)
        clear = np.ones(xs.shape[1], dtype=bool)    # no coordinate in the band
        boxed = np.ones(xs.shape[1], dtype=bool)    # m in the box
        for k, x in enumerate(xs):
            m = -np.floor(x / scale)
            sh = x + m * scale
            clear &= (sh >= band[k]) & (sh < scale - band[k])
            boxed &= (m >= lo_m[k]) & (m <= hi_m[k])
            cell = np.clip(np.floor(sh / h).astype(np.int64), 0, resolution - 1)
            key += (m.astype(np.int64) - lo_m[k]) * weights[k] + cell * weights[d + k]
        part = [key[clear & boxed]]
        rows = np.flatnonzero(~clear)
        if len(rows):
            part.append(_step_keys(xs[:, rows], scale, h, resolution, lo_m, hi_m, frame))
        keys.append(_sorted_distinct(np.concatenate(part)))
    keys = _sorted_distinct(np.concatenate(keys))
    translates = tuple(map(tuple, _key_rows(_sorted_distinct(keys // ncells),
                                            (lo_m, frame[1][:d])).tolist()))
    counts = np.bincount(keys % ncells, minlength=ncells)
    freq = np.bincount(counts)
    hist = {int(v): freq[v] / counts.size for v in np.flatnonzero(freq)}
    return TorusScene(cols.T, translates, hist, resolution, scale)
