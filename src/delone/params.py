"""Delone parameters: the closest pair and the covering radius R.

r is half the distance of the closest pair of distinct points.  A periodic
set finds it among the range-query hits about each motif point; a window
pairs points in neighbouring cells of its cell table, deciding exactly only
the pairs whose float distance is within rounding of the least seen.

R is the largest distance from a site to a vertex of its Voronoi cell
(Conway and Sloane, *Sphere Packings, Lattices and Groups*, ch. 2).  The
cells are exact in any dimension, clipped one bisector at a time, with no
external geometry library: on ints for a handle with a scale, and in the
handle's field (or floats) otherwise.  Periodic sets get R exactly from
their motif's cells; a window's R is a lower-bound estimate from the
vertices whose empty balls fit in its trusted region.

This module imports its helpers from ``sets``; the cached entry points
there (``delone_params``, ``min_dist_sq``) import it inside the function,
when they first compute a value, so either module may load first.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, product
from operator import add, mul, sub

from .geometry import fdiv, p_add, p_dot
from .scalars import Radical
from .sets import (DeloneParams, WindowTooSmallError, _common_denominator, _inset,
                   _on_grid, _sq, as_radius, min_dist_sq)


def _min_dist_sq(handle):
    """Squared distance of the closest pair of distinct points.

    Periodic sets: the least d2 to another point among the :meth:`_ball`
    hits about each motif point m, whose radius is the shortest reduced
    basis vector's length b (m and m + b are a pair).  Windows: the pairs
    in neighbouring cells of the window's cell table, each decided exactly
    only when its float distance is within rounding of the least float
    distance seen.  That minimum is exact once it is provably shorter than
    the cell side, since no closer pair can straddle a cell; otherwise (or
    with no table) every pair is scanned exactly.
    """
    tol = handle.tol
    grid = handle._grid()
    if handle.mode == "periodic":
        radius = tol.sqrt(min(p_dot(b, b) for b in handle.lattice.reduced))
        best = None
        for m in handle.motif:
            scale2, hits = handle._ball(m, radius)
            for d2, _, p in hits:
                if not tol.same_point(p, m) and (best is None or d2 < best):
                    best = d2
        return handle._lift(best, scale2)
    if len(handle.points) < 2:
        raise ValueError("packing radius needs at least two points")
    pts = handle.points if grid is None else grid[1]
    index, best = handle._index(), None
    if index is not None:
        mag, origin, side, dims, fpts, table = index
        pad, near = 1e-9 * (side + mag), math.inf  # pad bounds float error
        for i, j in _near_pairs(table, _ahead(1, dims)):
            f = math.dist(fpts[i], fpts[j])
            if f <= near + 2 * pad:
                near = min(near, f)
                d2 = _sq(pts[i], pts[j])
                if best is None or d2 < best:
                    best = d2
        if near + 2 * pad >= side:
            best = None  # a closer pair may straddle non-neighbouring cells
    if best is None:
        best = min(_sq(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])
    return best if grid is None else handle._lift(best, grid[0] ** 2)


def _near_pairs(table, steps):
    """Index pairs (i, j) of points in one cell of a uniform cell hash, i
    listed first, or in cells ``steps`` ahead: each pair once when the steps
    hold one of each two opposite cell offsets (:func:`_ahead`)."""
    for cell, members in table.items():
        ahead = [c for c in (table.get(tuple(map(add, cell, o))) for o in steps) if c]
        for a, i in enumerate(members):
            for other in chain((members[a + 1:],), ahead):
                for j in other:
                    yield i, j


def _ahead(k, dims):
    """The cell offsets up to k cells away on each axis, of a table with
    ``dims`` cells per axis, that are lexicographically positive."""
    zero = (0,) * len(dims)
    return [o for o in product(*[range(-min(k, m - 1), min(k, m - 1) + 1) for m in dims])
            if o > zero]


def _neighbours(table, cell):
    """The members of the 3^d cells of a uniform cell hash around ``cell``;
    the empty key () is a table of one cell."""
    return [m for o in product((-1, 0, 1), repeat=len(cell))
            for m in table.get(tuple(a + b for a, b in zip(cell, o)), ())]


def _compute_params(handle):
    r = handle.tol.sqrt(fdiv(min_dist_sq(handle), 4))
    big_r, flag = _covering(handle)
    r_flag = "exact" if handle.mode == "periodic" else "window-estimate"
    return DeloneParams(r=r, R=big_r, r_exactness=r_flag, R_exactness=flag)


def _covering(handle):
    """(R, flag) in any dimension: R^2 is the largest squared distance from a
    site to a vertex of its Voronoi cell (Conway-Sloane, SPLAG, ch. 2).

    Periodic cells start from a box wider than the bound (1/2) sum |b_i| on
    R, so the motif's cells give R exactly.  Window cells start from the
    trusted region, and a vertex counts when its empty ball fits there.  On
    an exact window with a scale the whole loop runs in grid units: sites
    and vertices are tested against the region on ints and Fractions
    (bd >= 0 and bd^2 >= r2), and queries take a rational radius, so no
    Radical is built; other windows test a vertex by ``hosts_ball``.

    Widening.  A cell is clipped from the offsets K of the site's
    neighbours within a query radius.  Its need is twice its reach, with
    1e-6 of slack for float jitter: no point further away can cut it.  A
    query short of the need is widened, and the next site starts from the
    need.  Exact radii are padded by the factor 1025/1024, never by a
    length, so the work does not depend on the unit.

    Sharing.  The cell from K touches a set F of box faces, those in its
    vertices' tight sets.  No vertex lies on another face, so no other face
    cuts it: it is P(K) cut by the half-spaces of F alone, and offsets
    beyond its need do not cut it either.  So a site y has this cell when
    (i) its faces in F sit where they sat, (ii) its other faces lie strictly
    beyond every vertex, and (iii) its neighbours within the need, or the
    offsets it would clip from, are K.  Under a float tolerance (i) holds
    within eps_abs, (ii) beyond eps_abs, and (iii) through the tolerance's
    ``offset_map``.  Every cell clipped is kept (:func:`_new_cell`) and
    looked up before the next clip (:func:`_known_cell`).

    Sweep.  Grid and float windows read neighbours from one sweep of the
    window's cell table (:func:`_sweep`), made once, after the second site,
    to 9/8 of the larger need of the first two.  A query is a prefix of the
    site's list: :meth:`_ball`'s hits in the order they are sorted here.  A
    radius past the sweep goes to ``_ball``, which on a window with a hole
    costs less than sweeping every site again to the widest need.
    """
    tol, d = handle.tol, handle.dim
    grid = handle._grid()
    scale = grid[0] if grid else 1
    ints = grid is not None and tol.exact and handle.mode == "window"
    if handle.mode == "periodic":
        h = Fraction(math.ceil(sum(math.sqrt(float(p_dot(b, b)))
                                   for b in handle.lattice.reduced)) + 1, 2) * scale
        h = h if tol.exact else float(h)
        lo, hi, margin = (-h,) * d, (h,) * d, 0
        sites = [(None, x, _on_grid(x, scale) if grid else x) for x in handle.motif]
        sweep = False
    else:
        lo, hi, margin = grid[2] if grid else (*handle.bounds, handle.margin)
        keys = grid[1] if grid else handle.points
        if ints:
            inside = [i for i, k in enumerate(keys) if _inset(k, lo, hi, margin) >= 0]
        else:
            zero = as_radius(0, tol)
            inside = [i for i, p in enumerate(handle.points) if handle.hosts_ball(p, zero)]
        sites = [(i, handle.points[i], keys[i]) for i in inside]
        # the sweep keys points as _ball does: grid ints (exact) or floats
        sweep = (ints or grid is None and not tol.exact) and handle._index() is not None
    lo = tuple(a + margin for a in lo)
    hi = tuple(a - margin for a in hi)
    eps = 0 if tol.exact else tol.eps_abs
    cells, best, near, reach = {}, None, None, 0.0
    rho_f = 2 * math.sqrt(float(min_dist_sq(handle)))
    for n, (i, x, base) in enumerate(sites):
        at = (0,) * d if i is None else base
        box = (tuple(map(sub, lo, at)), tuple(map(sub, hi, at)))
        if near is not None:  # the offsets of the site's swept neighbours
            d2s, js = near[i]
            swept = d2s, [tuple(map(sub, keys[j], base)) for j in js]
        cell = None if near is None else _known_cell(cells, *swept, (reach * scale) ** 2, box)
        while cell is None:  # widen the query until no site beyond it can cut the cell
            if not tol.exact:
                radius = rho_f
            else:  # at least rho_f, by a factor, without building a Radical on ints
                radius = Fraction(rho_f) * Fraction(1025, 1024)
                radius = radius if ints else Radical.of(radius)
            if near is not None and float(radius) + eps <= reach:
                d2s, offs = swept
                m = (bisect_right(d2s, radius.numerator ** 2 * scale * scale
                                  // radius.denominator ** 2) if ints else
                     bisect_right(d2s, radius + eps, key=math.sqrt))
            else:
                hits = sorted(handle._ball(x, radius)[1], key=lambda t: float(t[0]))
                hits = [(float(t[0]), o) for t, o in
                        ((t, tuple(map(sub, t[1], base))) for t in hits) if any(o)]
                d2s, offs = [t[0] for t in hits], [t[1] for t in hits]
                m = len(offs)
            d2s, offsets = d2s[:m], tuple(offs[:m])
            # the query's offsets are all this cell is clipped from
            cell = (_known_cell(cells, d2s, offsets, math.inf, box)
                    or _new_cell(cells, d2s, offsets, box, tol, eps, scale))
            if cell[3] > rho_f * 1.0000004:  # past jitter; the need has 1e-6 of slack
                rho_f = min(cell[3], 2 * rho_f)  # a cell cut only by its box reaches far
                cell = None
        rho_f = cell[3]  # the next site starts from this cell's need
        if sweep:  # once, after the second site, to 9/8 of the larger need
            reach = max(reach, 1.125 * rho_f)
            if n:
                near, sweep = _sweep(handle, keys, reach), False
        for r2, c, on_box in cell[1]:
            if best is not None and r2 <= best:
                break
            if on_box:
                continue
            if ints:
                bd = _inset(p_add(base, c), lo, hi, 0)
                if bd >= 0 and bd * bd >= r2:
                    best = r2
            elif handle.mode == "periodic" or handle.hosts_ball(
                    tuple(a + fdiv(b, scale) for a, b in zip(x, c)),
                    tol.sqrt(fdiv(r2, scale * scale))):
                best = r2
    if best is None:
        raise WindowTooSmallError("no Voronoi vertex fits inside the trusted window")
    flag = "exact" if handle.mode == "periodic" else "lower-bound-estimate"
    return tol.sqrt(fdiv(best, scale * scale) if grid else best), flag


def _known_cell(cells, d2s, offs, known, box):
    """A stored cell that is this site's, or None (see :func:`_covering`).

    ``cells`` maps each stored need, as a squared length tau in grid units,
    to an ``offset_map`` from a cell's offsets within tau to [(fence,
    cell)].  d2s and offs list the site's neighbours in order, all of those
    with d2 <= known.  A fence holds, for each box face (axis, hi?), the closed
    interval the face must lie in (a touched face) or the bound it must lie
    strictly beyond (the vertices' extreme on that axis)."""
    for tau, stored in cells.items():
        if tau > known:
            continue
        for fence, cell in stored.get(tuple(offs[:bisect_right(d2s, tau)])) or ():
            for k, side, bound, touched in fence:
                b = box[side][k]
                if not (bound[0] <= b <= bound[1] if touched else
                        b > bound if side else b < bound):
                    break
            else:
                return cell
    return None


def _new_cell(cells, d2s, offsets, box, tol, eps, scale):
    """The cell of these offsets and box as (max |c|^2, vertices, touched
    faces, need in the set's units), stored for :func:`_known_cell`; eps is
    the float zero of the fences, 0 on an exact tolerance."""
    top, verts, faces = _voronoi_cell(box, offsets, tol)
    need = 2.000001 * math.sqrt(float(top))  # slack for rounding
    fence = []
    for k in range(len(box[0])):
        coords = [c[k] for _, c, _ in verts]
        for side, f in ((1, 2 * k), (0, 2 * k + 1)):
            b = box[side][k]
            fence.append((k, side, (b - eps, b + eps), True) if f in faces else
                         (k, side, max(coords) + eps if side else min(coords) - eps, False))
    cell = (top, verts, faces, need / scale)
    # needs within float jitter share one tau: any threshold past 4 top works
    tau = need * need
    tau = next((t for t in cells if abs(t - tau) <= 1e-7 * tau), tau)
    stored = cells.setdefault(tau, tol.offset_map())
    key = offsets[:bisect_right(d2s, tau)]
    entries = stored.get(key)
    if entries is None:
        entries = stored[key] = []
    entries.append((fence, cell))
    return cell


def _sweep(handle, keys, reach):
    """For each window point i, ([d2], [index]) of the other points within
    float distance reach of it, sorted by (d2, index): the order in which the
    covering sorts :meth:`_ball` hits by float d2, as an int d2 below 2^53
    converts exactly.  Keys are grid ints or float points, as ``_ball`` keys
    them, and d2 is ``_sq`` of the keys, as ``_ball`` takes it.

    One pass over the window's cell table pairs each cell with the cells
    ahead of it that hold points closer than reach: within k cells per axis,
    and not so far apart that the cells themselves are further.  A pair's
    distance is filtered in floats, padded as in ``_window_candidates``,
    then taken exactly, once for both points."""
    mag, _, side, dims, fpts, table = handle._index()
    cut = reach + 1e-9 * (reach + 2 * mag) + 1e-300
    # cells further apart than cut hold no pair closer than cut
    steps = [o for o in _ahead(int(cut / side * (1 + 1e-9)) + 1, dims)
             if side * side * sum(max(abs(a) - 1, 0) ** 2 for a in o) <= cut * cut]
    lists = [[] for _ in keys]
    dist = math.dist
    for i, j in _near_pairs(table, steps):
        if dist(fpts[i], fpts[j]) <= cut:
            d2 = _sq(keys[j], keys[i])
            if d2 or keys[j] != keys[i]:
                lists[i].append((d2, j))
                lists[j].append((d2, i))
    for i, li in enumerate(lists):
        li.sort()
        lists[i] = [d2 for d2, _ in li], [j for _, j in li]
    return lists


def _voronoi_cell(box, offsets, tol):
    """The cell {c in box : o.c <= |o|^2 / 2 for each offset o} as (max |c|^2,
    [(|c|^2, vertex c, on the box)] largest first, the box faces its vertices
    touch): face 2i is hi[i] and face 2i + 1 is lo[i].

    Half-spaces clip the box one at a time, skipping an o with |o|^2 >= 4 |c|^2
    at every vertex (it cannot cut).  Vertex c = V / w is beyond o's bisector
    if s = 2 o.V - |o|^2 w > 0; cut edge (u, x) gives V = s_u V_x - s_x V_u,
    w = s_u w_x - s_x w_u, ints cut by their gcd for int offsets, a rational
    box and an exact tolerance, else divided back to w = 1.  An exact
    tolerance takes the sign of s as it is (an int on the grid); a float one
    makes s a signed distance, 0 within eps_abs.  Vertices carry their tight
    constraints; a cut edge joins two unless a third is tight on all they
    share (double description method)."""
    lo, hi = box
    d = len(lo)
    ints = tol.exact and all(type(a) is int for a in chain(*offsets))
    den = _common_denominator(chain(lo, hi)) if ints else None
    verts = []
    for corner in product(*[((hi[i], 2 * i), (lo[i], 2 * i + 1)) for i in range(d)]):
        c, t = zip(*corner)
        v = c if den is None else _on_grid(c, den)
        verts.append((v, den or 1, sum(map(mul, v, v)), frozenset(t)))
    for j, o in enumerate(offsets, 2 * d):
        n2 = sum(map(mul, o, o))
        if all(4 * n <= n2 * w * w for _, w, n, _ in verts):  # 4 |V / w|^2 <= |o|^2
            continue
        if tol.exact:
            s = [2 * sum(map(mul, o, v)) - n2 * w for v, w, _, _ in verts]
            side = [(v > 0) - (v < 0) for v in s]
        else:
            unit, eps = 0.5 / math.sqrt(n2), tol.eps_abs
            s = [(2 * sum(map(mul, o, v)) - n2 * w) * unit for v, w, _, _ in verts]
            side = [0 if abs(v) <= eps else 1 if v > 0 else -1 for v in s]
        if 1 not in side:
            continue
        new = [(v, w, n, t | {j} if g == 0 else t)
               for (v, w, n, t), g in zip(verts, side) if g < 1]
        outside = [i for i, g in enumerate(side) if g == 1]
        inside = [i for i, g in enumerate(side) if g == -1]
        for u, x in product(outside, inside):
            (vu, wu, _, tu), (vx, wx, _, tx) = verts[u], verts[x]
            common = tu & tx
            if len(common) < d - 1 or any(common <= t for z, (_, _, _, t) in enumerate(verts)
                                          if z != u and z != x):
                continue
            if den is None:
                f = fdiv(s[u], s[u] - s[x])
                v, w = tuple(p + f * (r - p) for p, r in zip(vu, vx)), 1
            else:
                v, w = [s[u] * b - s[x] * a for a, b in zip(vu, vx)], s[u] * wx - s[x] * wu
                g = math.gcd(w, *v)
                v, w = tuple(a // g for a in v), w // g
            new.append((v, w, sum(map(mul, v, v)), common | {j}))
        verts = new
    out, faces = [], set()
    for v, w, n, t in verts:
        if w != 1:
            n, v = Fraction(n, w * w), tuple(Fraction(a, w) for a in v)
        touched = [f for f in t if f < 2 * d]
        faces.update(touched)
        out.append((n, v, bool(touched)))
    out.sort(key=lambda v: v[0], reverse=True)
    return out[0][0], out, frozenset(faces)
