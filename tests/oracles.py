"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the production code paths (fingerprints, profile
filters, greedy frames, complement completion): matchings are enumerated
from raw point tuples with only norm/Gram pruning, window transitivity
is verified by mapping every window point, and Voronoi cells are found by
trying every intersection of d facets rather than by clipping.  Their
linear algebra is cofactor expansion, Cramer's rule and Gram determinants,
not the elimination in ``delone.geometry`` that they check.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from delone.geometry import Isometry, dist_sq, mat_mul, p_dot, p_sub
from delone.scalars import ssign


def cofactor_det(m):
    """Determinant by cofactor (Laplace) expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, x in enumerate(m[0]) if x != 0)


def cramer_solve(a, rhs):
    """The x with a @ x = rhs by Cramer's rule, or None when det a = 0."""
    det = cofactor_det([list(r) for r in a])
    if det == 0:
        return None
    det = Fraction(det) if isinstance(det, int) else det
    return tuple(cofactor_det([list(r[:k]) + [b] + list(r[k + 1:]) for r, b in zip(a, rhs)]) / det
                 for k in range(len(a)))


def minor_rank(vectors):
    """Size of the largest square minor with a nonzero determinant."""
    for k in range(min(len(vectors), len(vectors[0]) if vectors else 0), 0, -1):
        for rows in combinations(vectors, k):
            for cols in combinations(range(len(rows[0])), k):
                if cofactor_det([[r[c] for c in cols] for r in rows]) != 0:
                    return k
    return 0


def gram_independent(vectors):
    """Linear independence: the Gram matrix has a nonzero determinant."""
    return cofactor_det([[p_dot(u, v) for v in vectors] for u in vectors]) != 0


def _first_frame(offsets):
    """First full-rank tuple of offsets, scanning in the given order."""
    d = len(offsets[0])
    frame = []
    for v in offsets:
        if gram_independent(frame + [v]):
            frame.append(v)
            if len(frame) == d:
                return frame
    return None


def brute_force_linear_maps(offs_a, offs_b):
    """All orthogonal maps sending offs_a onto offs_b (full-rank, exact).

    Enumerates images for one fixed frame over all same-norm candidates,
    prunes by Gram equality, solves the linear system and verifies the
    whole bijection.
    """
    if len(offs_a) != len(offs_b):
        return []
    offs_a = sorted(offs_a)
    offs_b = sorted(offs_b)
    frame = _first_frame(offs_a)
    if frame is None:
        raise ValueError("oracle requires a full-rank cluster")
    d = len(frame)
    set_b = frozenset(offs_b)
    found = []

    def recurse(i, images):
        if i == d:
            # row k of o solves frame @ x = (k-th coordinates of the images)
            o = tuple(cramer_solve(frame, [t[k] for t in images]) for k in range(d))
            q = tuple(tuple(sum(o[r][i2] * o[r][j2] for r in range(d))
                            for j2 in range(d)) for i2 in range(d))
            if any(q[i2][j2] != (1 if i2 == j2 else 0)
                   for i2 in range(d) for j2 in range(d)):
                return
            for v in offs_a:
                img = tuple(sum(o[r][c] * v[c] for c in range(d)) for r in range(d))
                if img not in set_b:
                    return
            if o not in found:
                found.append(o)
            return
        for t in offs_b:
            if p_dot(t, t) != p_dot(frame[i], frame[i]):
                continue
            if any(p_dot(t, images[j]) != p_dot(frame[i], frame[j]) for j in range(i)):
                continue
            recurse(i + 1, images + [t])

    recurse(0, [])
    return found


def brute_force_group_order(c):
    """Order of the center-fixing group of a full-rank cluster."""
    offs = list(c.offsets())
    return len(brute_force_linear_maps(offs, offs))


def check_matrix_closure(group):
    """Raise AssertionError unless the group's linear parts are closed under
    inverse and under every pairwise product, multiplied as matrices."""
    for g in group.elements:
        if not group.contains_linear(g.inverse().linear):
            raise AssertionError("cluster group not closed under inverse")
    for g in group.elements:
        for h in group.elements:
            if not group.contains_linear(mat_mul(g.linear, h.linear)):
                raise AssertionError("cluster group not closed under composition")


def is_permutation_group(perms):
    """Whether the permutations (tuples of images) hold the identity, every
    inverse and every pairwise composition."""
    members = set(perms)
    if not perms or tuple(range(len(perms[0]))) not in members:
        return False
    for p in perms:
        inverse = [0] * len(p)
        for i, j in enumerate(p):
            inverse[j] = i
        if tuple(inverse) not in members:
            return False
    return all(tuple(p[i] for i in q) in members for p in perms for q in perms)


def distance_table_fingerprint(c):
    """The cluster fingerprint from the full n^2 table of squared distances
    between cluster points: per point (d2 to the center, sorted row of d2 to
    every cluster point), sorted; ints in units of 1/scale**2 on a grid,
    otherwise field scalars or floats."""
    center, points = c.grid or (c.center, c.points)
    n = len(points)
    table = [[dist_sq(points[i], points[j]) for j in range(n)] for i in range(n)]
    return tuple(sorted((dist_sq(p, center), tuple(sorted(row)))
                        for p, row in zip(points, table)))


def window_isometries(handle, x, y):
    """Candidate isometries g with g(x)=y built from max-radius clusters."""
    bd_x = handle.boundary_distance(x)
    bd_y = handle.boundary_distance(y)
    rho = bd_x if ssign(bd_x - bd_y) <= 0 else bd_y
    from delone.sets import cluster, as_radius
    radius = as_radius(rho, handle.tol)
    ca = cluster(handle, x, radius)
    cb = cluster(handle, y, radius)
    if ca.size != cb.size:
        return []
    out = []
    for o in brute_force_linear_maps(list(ca.offsets()), list(cb.offsets())):
        shift = p_sub(y, tuple(sum(o[i][j] * x[j] for j in range(len(x)))
                               for i in range(len(x))))
        out.append(Isometry(o, shift))
    return out


def maps_window_onto_itself(handle, g):
    """Window-overlap test: g(p) inside the trusted region must be a point."""
    gi = g.inverse()
    count = 0
    for p in handle.points:
        for h in (g, gi):
            q = h(p)
            bd = handle.boundary_distance(q)
            if ssign(bd) >= 0:
                count += 1
                if not handle.contains(q):
                    return False
    return count > 0


def window_transitivity_oracle(handle, pairs):
    """True when every pair admits an isometry x -> y fixing the window.

    This is the desk-scale meaning of a transitive symmetry group.
    """
    for x, y in pairs:
        if not any(maps_window_onto_itself(handle, g)
                   for g in window_isometries(handle, x, y)):
            return False, (x, y)
    return True, None


def grid_covering_estimate(handle, samples=60):
    """Float lower bound of the covering radius by dense grid sampling."""
    lo, hi = handle.bounds
    lo_f = [float(v) for v in lo]
    hi_f = [float(v) for v in hi]
    pts = [[float(c) for c in p] for p in handle.points]
    # stay away from the boundary so the sampled deep hole is genuine
    inset = [0.25 * (h - l) for l, h in zip(lo_f, hi_f)]
    best = 0.0
    for i in range(samples + 1):
        for j in range(samples + 1):
            gx = lo_f[0] + inset[0] + (hi_f[0] - lo_f[0] - 2 * inset[0]) * i / samples
            gy = lo_f[1] + inset[1] + (hi_f[1] - lo_f[1] - 2 * inset[1]) * j / samples
            d2 = min((gx - p[0]) ** 2 + (gy - p[1]) ** 2 for p in pts)
            best = max(best, d2)
    return best ** 0.5


def _det(rows):
    """Determinant by cofactor expansion along the first row (d <= 3)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def brute_force_voronoi_vertices(box, offsets):
    """{vertex: lies on a box face} of {c in box : o.c <= |o|^2 / 2 for
    each offset o}.

    Every d of the 2d box facets and the bisectors is intersected by
    Cramer's rule in the inputs' field (ints and floats become exact
    Fractions), and an intersection point is kept when it satisfies every
    inequality.
    """
    def exact(x):
        return Fraction(x) if isinstance(x, (int, float)) else x

    lo, hi = ([exact(a) for a in b] for b in box)
    d = len(lo)
    facets = []  # (normal, bound): normal . c <= bound
    for i in range(d):
        unit = [Fraction(int(k == i)) for k in range(d)]
        facets += [(unit, hi[i]), ([-a for a in unit], -lo[i])]
    for o in offsets:
        o = [exact(a) for a in o]
        facets.append((o, sum(a * a for a in o) / 2))
    out = {}
    for chosen in combinations(facets, d):
        rows = [n for n, _ in chosen]
        det = _det(rows)
        if det == 0:
            continue
        c = tuple(_det([n[:j] + [b] + n[j + 1:] for n, b in chosen]) / det
                  for j in range(d))
        slack = [sum(a * b for a, b in zip(n, c)) - b for n, b in facets]
        if all(ssign(s) <= 0 for s in slack):
            out[c] = any(s == 0 for s in slack[:2 * d])
    return out


def brute_force_window_r2(points, bounds, margin):
    """R^2 of a window as the covering radius defines it, by brute force:
    the largest |c|^2 over sites x of the trusted region (the bounds inset
    by margin) and vertices x + c of x's Voronoi cell against every other
    point, clipped to that region, where x + c is off the region's faces
    and the closed ball of radius |c| about it fits inside; None when no
    vertex fits.  Cells come from :func:`brute_force_voronoi_vertices`."""
    lo = [a + margin for a in bounds[0]]
    hi = [b - margin for b in bounds[1]]

    def inset(p):
        return min(min(a - l, h - a) for a, l, h in zip(p, lo, hi))

    best = None
    for x in points:
        if inset(x) < 0:
            continue
        box = (tuple(l - a for l, a in zip(lo, x)), tuple(h - a for h, a in zip(hi, x)))
        offsets = [p_sub(p, x) for p in points if p != x]
        for c, on_box in brute_force_voronoi_vertices(box, offsets).items():
            r2 = p_dot(c, c)
            bd = inset(tuple(a + b for a, b in zip(x, c)))
            if not on_box and bd >= 0 and bd * bd >= r2 and (best is None or r2 > best):
                best = r2
    return best


def brute_force_points_in_box(handle, lo, hi):
    """The points of a periodic set in the closed box [lo, hi] (each face
    moved out by eps_abs under a float tolerance), by a box walk: for each
    motif point m, every lattice vector whose coefficients lie within one
    of the range that the box's corners, less m, span (coefficients are
    linear, so every point of the box is in that range), tested against the
    box in the set's field or floats."""
    lat, tol = handle.lattice, handle.tol
    eps = 0 if tol.exact else tol.eps_abs
    corners = list(product(*zip(lo, hi)))
    out = []
    for m in handle.motif:
        coords = [[float(k) for k in lat.coords(p_sub(c, m))] for c in corners]
        ranges = [range(math.floor(min(col)) - 1, math.ceil(max(col)) + 2)
                  for col in zip(*coords)]
        for ks in product(*ranges):
            p = tuple(a + sum(k * b[j] for k, b in zip(ks, lat.reduced))
                      for j, a in enumerate(m))
            if all(l - eps <= a <= h + eps for a, l, h in zip(p, lo, hi)):
                out.append(p)
    return out


def brute_force_min_dist_sq(handle):
    """Least squared distance from a motif point to another point of a
    periodic set, over the points of a box about each motif point whose
    half-side exceeds the shortest basis vector's length."""
    side = 1 + min(math.sqrt(float(p_dot(b, b))) for b in handle.lattice.reduced)
    best = None
    for m in handle.motif:
        box = [tuple(a + s * Fraction(side) for a in m) for s in (-1, 1)]
        for p in brute_force_points_in_box(handle, *box):
            if not handle.tol.same_point(p, m):
                d2 = dist_sq(p, m)
                if best is None or d2 < best:
                    best = d2
    return best


def pairwise_coset_reps(points, lam, tol):
    """The first of the sorted points in each coset of lam: each point is
    tested against every point kept so far."""
    reps = []
    for p in sorted(points):
        if not any(lam.contains(p_sub(p, q), tol) for q in reps):
            reps.append(p)
    return reps
