"""Delone set handles: periodic and finite-window point sets.

A periodic handle is a lattice plus a motif and answers range queries for
the infinite set exactly.  A window handle is a finite list of points cut
from a larger set; statistics at radius rho are only offered for points
whose rho-ball stays inside the trusted region (bounds inset by the
validity margin), because a truncated set is not Delone near its edge.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import (Lattice, Tolerance, dist_sq, fdiv, mat_solve, p_add,
                       p_dot, p_sub, point_is_exact)
from .scalars import QuadExt, Radical, is_exact_scalar, sfloat, ssign

__all__ = [
    "PointSetHandle",
    "DeloneParams",
    "Cluster",
    "DistanceSpectrum",
    "Chain",
    "TruncationError",
    "WindowTooSmallError",
    "as_radius",
    "radius_covers",
    "build_periodic",
    "build_window",
    "packing_radius",
    "covering_radius",
    "delone_params",
    "cluster",
    "distance_spectrum",
    "two_r_chain",
    "crop_to_window",
]


class TruncationError(Exception):
    """A query ran off the trusted part of a finite window."""


class WindowTooSmallError(Exception):
    """The window has no interior points at the requested radius."""


def as_radius(rho, tol):
    """Normalize a user-facing radius to a Radical (exact) or float."""
    if tol.exact:
        if isinstance(rho, Radical):
            return rho
        if is_exact_scalar(rho):
            if ssign(rho) < 0:
                raise ValueError("radius must be nonnegative")
            return Radical.of(rho)
        raise TypeError(f"exact mode needs an exact radius, got {type(rho).__name__}")
    return float(rho)


def radius_covers(radius, d2, tol):
    """Whether sqrt(d2) <= radius (closed-ball membership)."""
    if tol.exact:
        return _radius_sign(radius, d2) >= 0
    return math.sqrt(d2) <= radius + tol.eps_abs


def radius_lt(radius, d2, tol):
    """Whether sqrt(d2) < radius strictly (used by 2R-chains)."""
    if tol.exact:
        return _radius_sign(radius, d2) > 0
    return math.sqrt(d2) < radius - tol.eps_abs


def _radius_sign(radius, d2):
    """Exact sign of radius - sqrt(d2).

    Floats decide a rational d2 outside the radius's square band; ties,
    irrational d2 and values too large for a float go to the exact kernel.
    """
    band = radius.square_band()
    if band is not None and isinstance(d2, (int, Fraction)):
        try:
            f = float(d2)
        except OverflowError:
            f = math.nan  # compares false both ways
        if f < band[0]:
            return 1
        if f > band[1]:
            return -1
    sq = radius.square_scalar()
    if sq is not None:
        return ssign(sq - d2)
    return radius.cmp_sqrt(d2)


def _reach(radius, tol):
    """A float at least the distance of every point radius_covers accepts,
    or None when floats cannot bound it."""
    if not tol.exact:
        return float(radius) + tol.eps_abs
    band = radius.square_band()
    return None if band is None else math.sqrt(band[1])


def _float_index(points):
    """Float copies of sorted window points plus a bound on every
    coordinate's magnitude, or None if a conversion overflows or the
    float first coordinates are out of order."""
    try:
        fpts, mag = zip(*(_float_point(p) for p in points))
    except OverflowError:
        return None
    xs = [q[0] for q in fpts]
    if not all(map(math.isfinite, mag)) or any(a > b for a, b in zip(xs, xs[1:])):
        return None
    return xs, fpts, max(mag)


def _float_point(p):
    """(float copy of p, bound on its parts' magnitudes); a + b*sqrt(d)
    converts with error relative to |a| + |b|*sqrt(d), not to its value."""
    out, mag = [], 0.0
    for c in p:
        if isinstance(c, QuadExt):
            a, b = float(c.a), float(c.b) * math.sqrt(c.d)
            out.append(a + b)
            mag = max(mag, abs(a) + abs(b))
        else:
            out.append(float(c))
            mag = max(mag, abs(out[-1]))
    return tuple(out), mag


@dataclass(frozen=True)
class DeloneParams:
    """Packing radius r and covering radius R with exactness flags."""

    r: object
    R: object
    r_exactness: str
    R_exactness: str

    def __post_init__(self):
        if not (sfloat(self.r) > 0):
            raise ValueError("packing radius must be positive")


@dataclass(frozen=True)
class Cluster:
    """A center point together with all set points within a closed radius."""

    center: tuple
    radius: object
    points: tuple  # lexicographically sorted, includes the center

    @property
    def dim(self):
        return len(self.center)

    @property
    def size(self):
        return len(self.points)

    def offsets(self):
        """Points relative to the center (center excluded)."""
        return tuple(p_sub(p, self.center) for p in self.points if p != self.center)


@dataclass(frozen=True)
class DistanceSpectrum:
    """Sorted distinct distances from a center to other set points."""

    center: tuple
    cutoff: object
    distances: tuple          # increasing Radicals (exact) or floats
    dist_sqs: tuple = ()      # the squared distances the roots come from


@dataclass(frozen=True)
class Chain:
    """Point sequence with consecutive gaps < 2R linking two set points."""

    vertices: tuple

    def gaps_sq(self):
        return tuple(dist_sq(a, b) for a, b in zip(self.vertices, self.vertices[1:]))


class PointSetHandle:
    """Immutable handle for a Delone set; see module docstring."""

    def __init__(self, mode, dim, tol, lattice=None, motif=None,
                 points=None, bounds=None, margin=0):
        self.mode = mode
        self.dim = dim
        self.tol = tol
        self.lattice = lattice
        self.motif = motif
        self.points = points
        self.bounds = bounds
        self.margin = margin
        self._cache = {}

    # -- membership -------------------------------------------------------

    def contains(self, p):
        if len(p) != self.dim:
            raise ValueError("dimension mismatch")
        if self.mode == "window":
            return p in self._member_set()
        if self.tol.exact:
            return self.lattice.reduce_point(p) in self._member_set()
        # lattice-coordinate test avoids cell-boundary flapping
        return any(self.lattice.contains(p_sub(p, m), self.tol)
                   for m in self.motif)

    def _member_set(self):
        """The motif (periodic) or the points (window), for membership."""
        if "member_set" not in self._cache:
            pts = self.motif if self.mode == "periodic" else self.points
            self._cache["member_set"] = self.tol.point_set(pts)
        return self._cache["member_set"]

    # -- range queries ----------------------------------------------------

    def points_in_ball(self, center, radius):
        """All set points p with |p - center| <= radius, as (d2, p) pairs."""
        rho_f = sfloat(radius)
        out = []
        if self.mode == "periodic":
            pad = 1e-9 * (1.0 + abs(rho_f))
            for m in self.motif:
                v = p_sub(center, m)
                for k in self.lattice.offsets_in_ball(v, rho_f + pad):
                    p = p_add(m, self.lattice.from_coords(k))
                    d2 = dist_sq(p, center)
                    if radius_covers(radius, d2, self.tol):
                        out.append((d2, p))
        else:
            for p in self._window_candidates(center, radius):
                d2 = dist_sq(p, center)
                if radius_covers(radius, d2, self.tol):
                    out.append((d2, p))
        return out

    def _window_candidates(self, center, radius):
        """Window points that may lie within radius of center, in order.

        Bisects the sorted float first coordinates to a strip and drops
        points whose float distance exceeds the reach; the pad bounds the
        conversion and rounding error, so no covered point is dropped.
        """
        if "index" not in self._cache:
            self._cache["index"] = _float_index(self.points)
        index = self._cache["index"]
        reach = _reach(radius, self.tol)
        if index is None or reach is None:
            return self.points
        xs, fpts, mag = index
        try:
            fc, cmag = _float_point(center)
        except OverflowError:
            return self.points
        reach += 1e-9 * (reach + mag + cmag) + 1e-300
        if not math.isfinite(reach):
            return self.points
        lo = bisect.bisect_left(xs, fc[0] - reach)
        hi = bisect.bisect_right(xs, fc[0] + reach)
        reach2 = reach * reach
        return [self.points[i] for i in range(lo, hi)
                if sum((a - b) * (a - b) for a, b in zip(fpts[i], fc)) <= reach2]

    def neighborhood(self, center, radius):
        """Cached variant of points_in_ball keyed by the center point.

        The cache holds the pairs sorted by float d2, so the answer is a
        prefix: pairs below the radius's float band are in, the first pair
        above it ends the scan, and only pairs inside the band are tested
        exactly.  Irrational d2 have no certified float order and are all
        tested exactly.
        """
        key = ("nbhd", center)
        rho_f = sfloat(radius)
        hit = self._cache.get(key)
        if hit is None or hit[0] < rho_f:
            grow = max(rho_f * 1.25, rho_f + 0.01)
            pairs = self.points_in_ball(center, self.tol.radius_at_least(grow))
            keyed = sorted((sfloat(d2), p, d2) for d2, p in pairs)
            hit = (grow, [(d2, p) for _, p, d2 in keyed], [f for f, _, _ in keyed],
                   all(isinstance(d2, (int, Fraction)) for d2, _ in pairs))
            self._cache[key] = hit
        _, pairs, fl, rational = hit
        tol = self.tol
        band = radius.square_band() if tol.exact and rational else None
        hi2 = band[1] if band else math.inf
        out = []
        for t, f in zip(pairs, fl):
            if radius_covers(radius, t[0], tol):
                out.append(t)
            elif f > hi2 or not tol.exact:
                break  # float covers is monotone in d2, so no later pair is in
        return out

    def points_in_box(self, lo, hi):
        """All set points inside the closed axis-aligned box [lo, hi]."""
        if self.mode == "window":
            return [p for p in self.points if _in_box(p, lo, hi, self.tol)]
        corner_radius = math.sqrt(sum((sfloat(a) - sfloat(b)) ** 2
                                      for a, b in zip(lo, hi))) / 2 + 1e-9
        center = tuple(_half(a + b) for a, b in zip(lo, hi))
        out = []
        for m in self.motif:
            v = p_sub(center, m)
            for k in self.lattice.offsets_in_ball(v, corner_radius + 0.01):
                p = p_add(m, self.lattice.from_coords(k))
                if _in_box(p, lo, hi, self.tol):
                    out.append(p)
        return out

    # -- interior bookkeeping ----------------------------------------------

    def boundary_distance(self, p):
        """Distance from p to the trusted-region boundary (window mode)."""
        if self.mode != "window":
            raise ValueError("boundary distance is a window-mode notion")
        lo, hi = self.bounds
        raw = min(v for a, l, h in zip(p, lo, hi) for v in (a - l, h - a))
        return raw - self.margin

    def interior_points(self, radius):
        """Points able to host a closed radius-ball inside the trusted region."""
        if self.mode == "periodic":
            return list(self.motif)
        return [p for p in self.points
                if self.tol.ge(self.boundary_distance(p), radius)]

    def population(self, radius):
        """Classification population: motif points or interior points."""
        pts = self.interior_points(radius)
        if not pts:
            raise WindowTooSmallError(
                f"no interior points at radius {sfloat(radius):g}")
        return pts

    def capacity(self):
        """Largest radius for which some interior point exists."""
        if self.mode == "periodic":
            return None
        return max(self.boundary_distance(p) for p in self.points)

    def __repr__(self):
        if self.mode == "periodic":
            return f"<periodic set d={self.dim} motif={len(self.motif)}>"
        return f"<window set d={self.dim} n={len(self.points)}>"


def _half(x):
    return x / 2 if not isinstance(x, int) else Fraction(x, 2)


def _in_box(p, lo, hi, tol):
    return all(tol.ge(a, l) and tol.le(a, h) for a, l, h in zip(p, lo, hi))


# ---------------------------------------------------------------------------
# constructors

def _autoscale_eps(handle):
    """Default floating eps_abs is 1e-9 times the estimated packing radius."""
    try:
        r = math.sqrt(min_dist_sq(handle)) / 2
    except ValueError:
        return handle
    if r > 0:
        handle.tol = Tolerance.floating(1e-9 * r)
        handle._cache.clear()
    return handle


def build_periodic(basis, motif, tol=None):
    """Handle for the infinite periodic set motif + Lambda.

    ``basis`` is a Lattice or a sequence of d basis vectors; motif points
    are reduced into the fundamental cell and must be distinct mod Lambda.
    In floating mode with no explicit tolerance, eps_abs defaults to
    1e-9 times the packing radius (a scale-invariant band).
    """
    lattice = basis if isinstance(basis, Lattice) else Lattice(basis)
    autoscale = tol is None and not lattice.exact
    if tol is None:
        tol = Tolerance.exact_mode() if lattice.exact else Tolerance.floating()
    if tol.exact and not lattice.exact:
        raise ValueError("exact mode requires an exact lattice basis")
    motif = list(motif)
    if not motif:
        raise ValueError("motif must be nonempty")
    if any(len(m) != lattice.dim for m in motif):
        raise ValueError("motif dimension mismatch")
    reduced = sorted(lattice.reduce_point(tuple(m)) for m in motif)
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            if lattice.contains(p_sub(reduced[i], reduced[j]), tol):
                raise ValueError(
                    f"motif points {motif[i]} and {motif[j]} coincide mod the lattice")
    handle = PointSetHandle("periodic", lattice.dim, tol,
                            lattice=lattice, motif=tuple(reduced))
    return _autoscale_eps(handle) if autoscale else handle


def build_window(points, bounds, margin=0, tol=None):
    """Handle for a finite window cut from a larger set.

    ``bounds`` is (lo, hi); all listed points must lie inside.  ``margin``
    insets the trusted region: statistics at radius rho use only points at
    distance >= rho + margin from the bounds.  Floating-point input with no
    explicit tolerance gets eps_abs = 1e-9 times the packing radius.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise ValueError("window point list is empty")
    dim = len(points[0])
    lo, hi = tuple(bounds[0]), tuple(bounds[1])
    if len(lo) != dim or len(hi) != dim:
        raise ValueError("bounds dimension mismatch")
    autoscale = False
    if tol is None:
        exact_pts = all(point_is_exact(p) for p in points)
        tol = Tolerance.exact_mode() if exact_pts else Tolerance.floating()
        autoscale = not exact_pts
    if any(h < l for l, h in zip(lo, hi)):
        raise ValueError("bounds are inverted")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    for p in points:
        if len(p) != dim:
            raise ValueError("point dimension mismatch")
        if not _in_box(p, lo, hi, tol):
            raise ValueError(f"point {p} lies outside the window bounds")
    points.sort()
    if any(tol.same_point(a, b) for a, b in zip(points, points[1:])):
        raise ValueError("window points are not pairwise distinct")
    handle = PointSetHandle("window", dim, tol, points=tuple(points),
                            bounds=(lo, hi), margin=margin)
    return _autoscale_eps(handle) if autoscale else handle


def crop_to_window(handle, lo, hi, margin=0):
    """Materialize a periodic (or larger window) set on a finite box."""
    pts = handle.points_in_box(tuple(lo), tuple(hi))
    return build_window(pts, (tuple(lo), tuple(hi)), margin=margin, tol=handle.tol)


# ---------------------------------------------------------------------------
# Delone parameters

def packing_radius(handle):
    """r = half the minimum pairwise distance; exact for periodic sets."""
    return delone_params(handle).r


def covering_radius(handle):
    """R = sup over space of the distance to the nearest set point.

    Computed from Delaunay circumradii (d <= 3); window handles yield a
    lower-bound estimate (see DeloneParams.R_exactness).
    """
    return delone_params(handle).R


def delone_params(handle):
    if "params" not in handle._cache:
        handle._cache["params"] = _compute_params(handle)
    return handle._cache["params"]


def min_dist_sq(handle):
    if "min_d2" not in handle._cache:
        handle._cache["min_d2"] = _min_dist_sq(handle)
    return handle._cache["min_d2"]


def _min_dist_sq(handle):
    tol = handle.tol
    if handle.mode == "periodic":
        lat = handle.lattice
        best = min(p_dot(b, b) for b in lat.reduced)
        for i in range(len(handle.motif)):
            for j in range(i, len(handle.motif)):
                v = p_sub(handle.motif[j], handle.motif[i])
                rad = math.sqrt(sfloat(best)) + 1e-9
                for k in lat.offsets_in_ball(tuple(-c for c in v), rad):
                    w = p_add(v, lat.from_coords(k))
                    if all(tol.is_zero(c) for c in w):
                        continue
                    best = min(best, p_dot(w, w))
        return best
    pts = handle.points
    if len(pts) < 2:
        raise ValueError("packing radius needs at least two points")
    best = None
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            dx = q[0] - p[0]
            if best is not None and dx * dx >= best:
                break  # points are sorted by first coordinate
            d2 = dist_sq(p, q)
            if best is None or d2 < best:
                best = d2
    return best


def _compute_params(handle):
    r = handle.tol.sqrt(fdiv(min_dist_sq(handle), 4))
    big_r, flag = _covering(handle)
    r_flag = "exact" if handle.mode == "periodic" else "window-estimate"
    return DeloneParams(r=r, R=big_r, r_exactness=r_flag, R_exactness=flag)


def _circumcenter(simplex_points, exact):
    """Exact circumcenter of an affinely independent simplex, or None."""
    p0 = simplex_points[0]
    rows = []
    rhs = []
    for p in simplex_points[1:]:
        rows.append(tuple(2 * (a - b) for a, b in zip(p, p0)))
        rhs.append(p_dot(p, p) - p_dot(p0, p0))
    d = len(p0)
    if len(rows) != d:
        return None
    sol = mat_solve(tuple(rows), (tuple(rhs),), exact=exact)
    if sol is None:
        return None
    return sol[0]


def _covering(handle):
    tol = handle.tol
    d = handle.dim
    if d == 1:
        return _covering_1d(handle)
    if d > 3:
        return _covering_grid(handle)
    try:
        from scipy.spatial import Delaunay, QhullError
    except ImportError as exc:  # pragma: no cover
        raise RuntimeError("scipy is required for covering radii in d >= 2") from exc

    if handle.mode == "periodic":
        lat = handle.lattice
        span = max(math.sqrt(sum(sfloat(c) ** 2 for c in b)) for b in lat.reduced)
        center = tuple(_half(sum(col)) for col in zip(*lat.reduced))
        patch_r = 2.5 * span + math.sqrt(sum(sfloat(c) ** 2 for c in center)) + 1.0
        pts = [p for _, p in handle.points_in_ball(
            p_sub(center, center), tol.radius_at_least(patch_r))]
    else:
        pts = list(handle.points)
    coords = [[sfloat(c) for c in p] for p in pts]
    if len(coords) < d + 1:
        raise WindowTooSmallError("too few points for a covering-radius estimate")
    try:
        tri = Delaunay(coords)
    except QhullError:
        tri = Delaunay(coords, qhull_options="QJ")
    candidates = []
    for simplex in tri.simplices:
        sp = [pts[i] for i in simplex]
        cc = _circumcenter(sp, exact=tol.exact)
        if cc is None:
            continue
        r2 = dist_sq(cc, sp[0])
        if handle.mode == "periodic":
            ks = handle.lattice.coords(cc)
            if not all(-0.35 <= sfloat(k) <= 1.35 for k in ks):
                continue
        else:
            if not tol.ge(handle.boundary_distance(cc), tol.sqrt(r2)):
                continue
        candidates.append((sfloat(r2), r2, cc))
    if not candidates:
        raise WindowTooSmallError("no circumball fits inside the trusted window")
    candidates.sort(key=lambda t: -t[0])
    best = None
    for _, r2, cc in candidates:
        if _circumball_empty(handle, cc, r2):
            best = r2
            break
    if best is None:  # float Delaunay produced only sliver artifacts
        raise RuntimeError("covering-radius triangulation could not be verified")
    radius = tol.sqrt(best)
    flag = "exact" if handle.mode == "periodic" else "lower-bound-estimate"
    return radius, flag


def _circumball_empty(handle, center, r2):
    """No set point strictly inside the open circumball (float slivers fail)."""
    tol = handle.tol
    rad = tol.radius_at_least(math.sqrt(sfloat(r2)) * (1 + 1e-12))
    for d2, _ in handle.points_in_ball(center, rad):
        inside = (ssign(r2 - d2) > 0) if tol.exact \
            else d2 < r2 - 2 * tol.eps_abs * math.sqrt(sfloat(r2))
        if inside:
            return False
    return True


def _covering_1d(handle):
    if handle.mode == "periodic":
        xs = sorted(m[0] for m in handle.motif)
        xs.append(xs[0] + abs(handle.lattice.reduced[0][0]))
        flag = "exact"
    else:
        xs = [p[0] for p in handle.points]
        flag = "lower-bound-estimate"
    if len(xs) < 2:
        raise WindowTooSmallError("need two points for a 1-d covering estimate")
    gap = max(b - a for a, b in zip(xs, xs[1:]))
    return as_radius(_half(gap), handle.tol), flag


def _covering_grid(handle):
    """Grid-sampled lower bound for d >= 4 (flagged estimate)."""
    if handle.mode != "window":
        raise NotImplementedError("d >= 4 covering radii only for windows")
    lo, hi = handle.bounds
    r = math.sqrt(sfloat(min_dist_sq(handle))) / 2
    step = max(r / 2, 1e-6)
    axes = [
        [sfloat(l) + step * i for i in range(int((sfloat(h) - sfloat(l)) / step) + 1)]
        for l, h in zip(lo, hi)]
    coords = [[sfloat(c) for c in p] for p in handle.points]
    best = 0.0
    from itertools import product
    for g in product(*axes):
        dmin = min(sum((a - b) ** 2 for a, b in zip(g, c)) for c in coords)
        best = max(best, dmin)
    return math.sqrt(best), "grid-estimate"


def two_r_bound_sq(handle):
    """(2R)^2 as a field scalar (exact) or float."""
    params = delone_params(handle)
    if handle.tol.exact:
        sq = params.R.square_scalar()
        return 4 * sq
    return (2 * params.R) ** 2


# ---------------------------------------------------------------------------
# clusters, spectra, chains

def _require_member(handle, x):
    if not handle.contains(x):
        raise ValueError(f"point {x} is not in the set")


def _require_interior(handle, x, radius):
    if handle.mode != "window":
        return
    if not handle.tol.ge(handle.boundary_distance(x), radius):
        raise TruncationError(
            f"point {tuple(map(sfloat, x))} is within {sfloat(radius):g} of the window boundary")


def cluster(handle, x, rho):
    """The rho-cluster of x: all set points at closed distance <= rho."""
    x = tuple(x)
    radius = as_radius(rho, handle.tol)
    _require_member(handle, x)
    _require_interior(handle, x, radius)
    pairs = handle.neighborhood(x, radius)
    pts = sorted(p for _, p in pairs)
    return Cluster(center=x, radius=radius, points=tuple(pts))


def distance_spectrum(handle, x, cutoff):
    """Sorted distinct distances from x to other set points, <= cutoff."""
    x = tuple(x)
    tol = handle.tol
    radius = as_radius(cutoff, tol)
    _require_member(handle, x)
    _require_interior(handle, x, radius)
    pairs = handle.neighborhood(x, radius)
    d2s = tol.distinct_sq(d2 for d2, p in pairs if not tol.same_point(p, x))
    return DistanceSpectrum(center=x, cutoff=radius,
                            distances=tuple(map(tol.sqrt, d2s)), dist_sqs=tuple(d2s))


def two_r_chain(handle, x, y):
    """A shortest-hop chain from x to y with every gap strictly below 2R.

    Breadth-first search over points linked when |pq| < 2R; neighbor
    expansion is ordered lexicographically for determinism.  Periodic sets
    search a corridor around the segment, widening it until a chain shows
    up (one always exists).  Window sets raise TruncationError when the
    window truncates every chain.
    """
    x, y = tuple(x), tuple(y)
    _require_member(handle, x)
    _require_member(handle, y)
    if handle.tol.same_point(x, y):
        return Chain(vertices=(x,))
    params = delone_params(handle)
    bound2 = two_r_bound_sq(handle)
    two_r = 2 * sfloat(params.R)

    if handle.mode == "window":
        chain = _bfs_chain(handle, x, y, bound2, corridor=None)
        if chain is None:
            raise TruncationError("no 2R-chain inside the window (truncation)")
        return chain

    width = 2.0 * two_r
    for _ in range(12):
        chain = _bfs_chain(handle, x, y, bound2, corridor=(x, y, width))
        if chain is not None:
            return chain
        width *= 2.0
    raise RuntimeError("2R-chain search failed to converge")  # pragma: no cover


def _seg_dist_sq_leq(p, a, b, w2_float, tol):
    """dist(p, segment ab)^2 <= w2, decided in float with a safety pad."""
    pf = [sfloat(c) for c in p]
    af = [sfloat(c) for c in a]
    bf = [sfloat(c) for c in b]
    ab = [u - v for u, v in zip(bf, af)]
    ap = [u - v for u, v in zip(pf, af)]
    denom = sum(u * u for u in ab)
    t = 0.0 if denom == 0 else max(0.0, min(1.0, sum(u * v for u, v in zip(ap, ab)) / denom))
    d2 = sum((pf[i] - (af[i] + t * ab[i])) ** 2 for i in range(len(pf)))
    return d2 <= w2_float * (1 + 1e-9) + 1e-9


def _bfs_chain(handle, x, y, bound2, corridor):
    from collections import deque
    radius_2r = handle.tol.sqrt(bound2)
    start = x
    parent = {start: None}
    queue = deque([start])
    w2 = corridor[2] ** 2 if corridor else None
    while queue:
        v = queue.popleft()
        if v == y:
            break
        nbrs = []
        for d2, p in handle.neighborhood(v, radius_2r):
            if p == v or p in parent:
                continue
            if not radius_lt(radius_2r, d2, handle.tol):
                continue
            if corridor and not _seg_dist_sq_leq(p, corridor[0], corridor[1], w2, handle.tol):
                continue
            nbrs.append(p)
        for p in sorted(nbrs):
            parent[p] = v
            queue.append(p)
    if y not in parent:
        return None
    path = []
    v = y
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    return Chain(vertices=tuple(path))
