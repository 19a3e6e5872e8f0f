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
from fractions import Fraction
from itertools import chain, product

from .geometry import fdiv, p_add, p_dot, p_sub
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
        mag, origin, side, _, fpts, table = index
        pad, near = 1e-9 * (side + mag), math.inf  # pad bounds float error
        for i, j in _near_pairs(table):
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


def _near_pairs(table):
    """Index pairs i < j of points in the same or neighbouring cells."""
    for cell, members in table.items():
        near = _neighbours(table, cell)
        for i in members:
            for j in near:
                if i < j:
                    yield i, j


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
    Radical is built; other windows test a vertex by ``hosts_ball``.  A
    cell clear of its box depends only on the offsets to its neighbors
    (ints on the handle's grid), so sites share it through the tolerance's
    ``offset_map``, float sites whose offsets agree within eps_abs too.  A
    query stops when it reaches the cell's need to within float jitter:
    need carries 1e-6 of slack over twice the cell's reach.
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
        sites = handle.motif
    else:
        lo, hi, margin = grid[2] if grid else (*handle.bounds, handle.margin)
        sites = ([p for p, k in zip(handle.points, grid[1]) if _inset(k, lo, hi, margin) >= 0]
                 if ints else handle.interior_points(as_radius(0, tol)))
    cells, best = tol.offset_map(), None
    rho_f = 2 * math.sqrt(float(min_dist_sq(handle)))
    for x in sites:
        base = _on_grid(x, scale) if grid else x
        at = (0,) * d if handle.mode == "periodic" else base
        box = [tuple(a + m - c for a, c in zip(b, at)) for b, m in ((lo, margin), (hi, -margin))]
        while True:  # widen the query until no site beyond it can cut the cell
            # as tol.radius_at_least(rho_f), without building a Radical on ints
            radius = Fraction(rho_f) + Fraction(1, 1024) if ints else tol.radius_at_least(rho_f)
            hits = sorted(handle._ball(x, radius)[1], key=lambda t: float(t[0]))
            offsets = tuple(o for o in (p_sub(k, base) for _, k, _ in hits) if any(o))
            cell = cells.get(offsets) or _voronoi_cell(box, offsets, tol)
            need = 2.000001 * math.sqrt(float(cell[0])) / scale  # slack for rounding
            if need <= rho_f * 1.0000004:  # within jitter; need has 1e-6 slack
                break
            rho_f = min(need, 2 * rho_f)  # a cell cut only by its box reaches far
        rho_f = need  # the next site starts from this cell's reach
        if cell[2]:
            cells[offsets] = cell
        for r2, c, on_box in cell[1]:
            if best is not None and r2 <= best:
                break
            if on_box:
                continue
            if ints:
                bd = _inset(p_add(base, c), lo, hi, margin)
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


def _voronoi_cell(box, offsets, tol):
    """The cell {c in box : o.c <= |o|^2 / 2 for each offset o} as (max |c|^2,
    [(|c|^2, vertex c, on the box)] largest first, whether none is on it).

    Half-spaces clip the box one at a time, skipping an o with |o|^2 >= 4 |c|^2
    at every vertex (it cannot cut).  Vertex c = V / w is beyond o's bisector
    if s = 2 o.V - |o|^2 w > 0; cut edge (u, x) gives V = s_u V_x - s_x V_u,
    w = s_u w_x - s_x w_u, ints cut by their gcd for int offsets, a rational
    box and an exact tolerance, else divided back to w = 1 (a float tolerance
    makes s a signed distance, 0 within eps_abs).  Vertices carry their tight
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
        verts.append((v, den or 1, p_dot(v, v), frozenset(t)))
    for j, o in enumerate(offsets, 2 * d):
        n2 = p_dot(o, o)
        if all(4 * n <= n2 * w * w for _, w, n, _ in verts):  # 4 |V / w|^2 <= |o|^2
            continue
        unit = 1 if tol.exact else 0.5 / math.sqrt(n2)
        s = [(2 * p_dot(o, v) - n2 * w) * unit for v, w, _, _ in verts]
        side = [0 if tol.is_zero(v) else 1 if v > 0 else -1 for v in s]
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
            new.append((v, w, p_dot(v, v), common | {j}))
        verts = new
    out = []
    for v, w, n, t in verts:
        if w != 1:
            n, v = Fraction(n, w * w), tuple(Fraction(a, w) for a in v)
        out.append((n, v, min(t) < 2 * d))
    out.sort(key=lambda v: v[0], reverse=True)
    return out[0][0], out, not any(v[2] for v in out)
