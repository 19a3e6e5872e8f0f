"""Delone set handles: periodic and finite-window point sets.

A periodic handle is a lattice plus a motif and answers range queries for
the infinite set exactly.  A window handle is a finite list of points cut
from a larger set; statistics at radius rho are only offered for points
whose rho-ball stays inside the trusted region (bounds inset by the
validity margin), because a truncated set is not Delone near its edge.

The Delone parameters r and R are computed in :mod:`delone.params`; this
module keeps them cached on the handle (:func:`delone_params`).

When every coordinate is rational, a handle has a ``scale``: the least
common denominator of its coordinates, which turns each point into an
integer vector.  A window stores its points once in that form, and a
periodic handle its motif and reduced basis, so exact squared distances
between set points are ints over ``scale**2``, range queries decide them
as ints, and clusters carry the integer vectors for classification.
"""

import math
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import chain, product

from .geometry import (ConvergenceError, Lattice, Record, Tolerance, _float_index,
                       _float_point, dist_sq, fdiv, p_sub)
from .scalars import Radical, format_point, is_exact_scalar, ssign

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


def radius_covers(radius, d2, tol, scale2=1):
    """Whether sqrt(d2 / scale2) <= radius (closed-ball membership).

    ``scale2`` is the square of a handle's scale when d2 is an int in its
    units; it is 1 for field scalars and floats.  In exact mode an int d2
    is compared with the radius's one integer threshold
    T = floor(radius**2 * scale2) (``Radical.square_floor``); other d2, and
    radii whose threshold the band cannot pin, take the per-pair test, in
    floats outside the radius's square band and exactly inside it.  Radii
    compare with each other through the same float filter
    (``Radical.cmp``), and window Voronoi vertices are tested on ints, so
    the exact kernel sees only near-ties.
    """
    if tol.exact:
        if type(d2) is int:
            t = radius.square_floor(scale2)
            if t is not None:
                return d2 <= t
        return _radius_sign(radius, d2, scale2) >= 0
    return math.sqrt(d2 / scale2) <= radius + tol.eps_abs


def radius_lt(radius, d2, tol):
    """Whether sqrt(d2) < radius strictly (used by 2R-chains)."""
    if tol.exact:
        return _radius_sign(radius, d2) > 0
    return math.sqrt(d2) < radius - tol.eps_abs


def _radius_sign(radius, d2, scale2=1):
    """Exact sign of radius - sqrt(d2 / scale2).

    Floats decide a rational d2 outside the radius's square band (an int
    d2 over scale2 converts in one correctly rounded division); ties,
    irrational d2 and values too large for a float go to the exact kernel.
    """
    band = radius.square_band()
    if band is not None and isinstance(d2, (int, Fraction)):
        try:
            f = float(d2) if scale2 == 1 else d2 / scale2
        except OverflowError:
            f = math.nan  # compares false both ways
        if f < band[0]:
            return 1
        if f > band[1]:
            return -1
    if scale2 != 1:
        d2 = Fraction(d2, scale2)
    sq = radius.square_scalar()
    if sq is not None:
        return ssign(sq - d2)
    return radius.cmp_sqrt(d2)


def _reach(radius, tol):
    """A float at least the distance of every point radius_covers accepts,
    or None when floats cannot bound it; a rational radius is its float."""
    if not tol.exact:
        return float(radius) + tol.eps_abs
    if isinstance(radius, Fraction):
        return float(radius)
    band = radius.square_band()
    return None if band is None else math.sqrt(band[1])


def _common_denominator(coords):
    """Least common denominator of rational scalars, or None if one of
    them is not rational."""
    scale = 1
    for c in coords:
        if isinstance(c, Fraction):
            if scale % c.denominator:
                scale = math.lcm(scale, c.denominator)
        elif not isinstance(c, int):
            return None
    return scale


def _on_grid(p, scale):
    """p * scale as an int tuple, or None if that is not integral."""
    out = []
    for c in p:
        if isinstance(c, Fraction):
            q, r = divmod(scale, c.denominator)
            if r:
                return None
            out.append(c.numerator * q)
        elif isinstance(c, int):
            out.append(c * scale)
        else:
            return None
    return tuple(out)


def _sq(p, q):
    """Squared distance without dimension checks (ints stay ints)."""
    s = 0
    for a, b in zip(p, q):
        s += (a - b) * (a - b)
    return s


class DeloneParams(Record):
    """Packing radius r and covering radius R with exactness flags."""

    r: object
    R: object
    r_exactness: str
    R_exactness: str

    def __post_init__(self):
        if not (float(self.r) > 0):
            raise ValueError("packing radius must be positive")


class Cluster(Record, compare=("center", "radius", "points")):
    """A center point together with all set points within a closed radius.

    Clusters cut from a handle with a scale carry it, with the points and
    the center times the scale as int tuples (``grid``).  All clusters of
    one handle share its scale, so their integer data compare directly.
    ``keys`` are the offsets from the center in the cluster's own units:
    int vectors on a grid, the field (or float) offsets otherwise.
    """

    center: tuple
    radius: object
    points: tuple  # lexicographically sorted, includes the center
    scale: int = None
    grid: tuple = None  # (center, points)

    @property
    def dim(self):
        return len(self.center)

    @property
    def size(self):
        return len(self.points)

    @cached_property
    def keys(self):
        """Offsets from the center in points order, center excluded: int
        vectors (grid point minus grid center) on a grid, otherwise
        :meth:`offsets`."""
        center, points = self.grid or (self.center, self.points)
        return tuple(tuple(a - b for a, b in zip(p, center)) for p in points if p != center)

    def offsets(self):
        """Points relative to the center (center excluded): the keys, lifted
        to Fractions on a grid."""
        if self.scale is None:
            return self.keys
        return tuple(tuple(Fraction(a, self.scale) for a in v) for v in self.keys)


class DistanceSpectrum(Record):
    """Sorted distinct distances from a center to other set points, kept as
    their squares; the roots are built when :attr:`distances` is read."""

    center: tuple
    cutoff: object
    dist_sqs: tuple           # increasing field scalars (exact) or floats

    @cached_property
    def distances(self):
        """The roots of dist_sqs: Radicals for exact values, else floats."""
        return tuple(Radical.sqrt(d2) if is_exact_scalar(d2) else math.sqrt(d2)
                     for d2 in self.dist_sqs)


class Chain(Record):
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

    # -- integer coordinates -----------------------------------------------

    def _scale(self):
        """Least common denominator of the set's coordinates (every point
        times it is an integer vector), or None when some coordinate is a
        float or irrational."""
        if "scale" not in self._cache:
            if self.mode == "window":
                lo, hi = self.bounds
                coords = chain(chain.from_iterable(self.points), lo, hi, (self.margin,))
            else:
                coords = chain(chain.from_iterable(self.motif),
                               chain.from_iterable(self.lattice.reduced))
            self._cache["scale"] = _common_denominator(coords)
        return self._cache["scale"]

    def _grid(self):
        """(scale, points, (lo, hi, margin)) of a window or (scale, motif,
        reduced basis) of a periodic set, all times scale as ints; None
        without a scale."""
        if "grid" not in self._cache:
            scale = self._scale()
            if scale is None:
                grid = None
            elif self.mode == "window":
                lo, hi = self.bounds
                grid = (scale, tuple(_on_grid(p, scale) for p in self.points),
                        (_on_grid(lo, scale), _on_grid(hi, scale),
                         _on_grid((self.margin,), scale)[0]))
            else:
                grid = (scale, tuple(_on_grid(m, scale) for m in self.motif),
                        tuple(_on_grid(b, scale) for b in self.lattice.reduced))
            self._cache["grid"] = grid
        return self._cache["grid"]

    def _lift(self, d2, scale2):
        """A squared distance in ints over scale2 as a field scalar."""
        if scale2 == 1 and not isinstance(d2, int):
            return d2
        memo = self._cache.setdefault("d2", {})
        f = memo.get(d2)
        if f is None:
            f = memo[d2] = Fraction(d2, scale2)
        return f

    # -- range queries ----------------------------------------------------

    def points_in_ball(self, center, radius):
        """All set points p with |p - center| <= radius, as (d2, p) pairs."""
        scale2, hits = self._ball(center, as_radius(radius, self.tol))
        return [(self._lift(d2, scale2), p) for d2, _, p in hits]

    def _ball(self, center, radius):
        """points_in_ball as (scale2, [(d2 * scale2, key, p)]).

        The one walk over a handle's points near a place; box queries and
        the periodic closest pair filter its hits.  On a handle with a
        scale, and a center on its grid, d2 * scale2 is an int and key the
        point's integer vector; otherwise scale2 = 1 and key is p.  Keys
        order like the points.  A periodic hit is built as its key, and only
        a hit is lifted to Fractions.  An exact query about a grid center,
        periodic or window, compares each int d2 with one threshold
        T = floor(radius**2 * scale2), so the radius may also be a rational;
        other queries test each d2 by ``radius_covers``.
        """
        tol = self.tol
        grid = self._grid()
        ic = None if grid is None else _on_grid(center, grid[0])
        scale, c = (None, center) if ic is None else (grid[0], ic)
        scale2 = 1 if scale is None else scale * scale
        t = None
        if ic is not None and tol.exact:
            t = (radius.numerator ** 2 * scale2 // radius.denominator ** 2
                 if isinstance(radius, Fraction) else radius.square_floor(scale2))
        out = []
        if self.mode == "periodic":
            motif, basis = (self.motif, self.lattice.reduced) if ic is None else grid[1:]
            rho_f = float(radius)
            pad = 1e-9 * (1.0 + abs(rho_f))
            for m, km in zip(self.motif, motif):
                for k in self.lattice.offsets_in_ball(p_sub(center, m), rho_f + pad):
                    key = tuple(a + sum(ki * b[j] for ki, b in zip(k, basis))
                                for j, a in enumerate(km))
                    d2 = _sq(key, c)
                    if d2 <= t if t is not None else radius_covers(radius, d2, tol, scale2):
                        out.append((d2, key, key if scale is None else
                                    tuple(Fraction(a, scale) for a in key)))
            return scale2, out
        keys = self.points if ic is None else grid[1]
        for i in self._window_candidates(center, radius):
            d2 = _sq(keys[i], c)
            if d2 <= t if t is not None else radius_covers(radius, d2, tol, scale2):
                out.append((d2, keys[i], self.points[i]))
        return scale2, out

    def _index(self):
        """The window's cell table (:func:`_float_index`), built once."""
        if "index" not in self._cache:
            self._cache["index"] = _float_index(self.points)
        return self._cache["index"]

    def _window_candidates(self, center, radius):
        """Indices, in order, of the window points in the index cells that
        meet the box of half-side reach about center (all cells when the box
        has more) within float distance reach; the pad bounds conversion and
        rounding error, so no covered point is dropped."""
        index, reach = self._index(), _reach(radius, self.tol)
        try:
            fc, cmag = _float_point(center)
        except OverflowError:
            index = None
        if index is None or reach is None:
            return range(len(self.points))
        mag, origin, side, dims, fpts, table = index
        reach += 1e-9 * (reach + mag + cmag) + 1e-300
        if not math.isfinite(reach):
            return range(len(self.points))
        ranges = []
        for c, a, m in zip(fc, origin, dims):  # cells of the reach box, clamped to the table
            lo = min(max((c - reach - a) / side, 0.0), m)
            hi = min(max((c + reach - a) / side, -1.0), m - 1)
            ranges.append(range(int(lo), math.floor(hi) + 1))
        if math.prod(len(r) for r in ranges) > len(table):
            found = range(len(fpts))
        else:
            found = chain.from_iterable(table.get(cell, ()) for cell in product(*ranges))
        return sorted(i for i in found if math.dist(fpts[i], fc) <= reach)

    def neighborhood(self, center, radius):
        """Cached variant of points_in_ball keyed by the center point."""
        scale2, hits = self._nearby(center, as_radius(radius, self.tol))
        return [(self._lift(d2, scale2), p) for d2, _, p in hits]

    def _nearby(self, center, radius):
        """neighborhood as :meth:`_ball` returns it, (scale2, [(d2 * scale2,
        key, p)]), for a radius from :func:`as_radius`.

        The cache holds the hits sorted by float d2.  For rational d2 two
        bisects on those floats cut the answer at the radius's square band:
        hits below it are in, hits above it out, and only hits inside it
        are tested exactly.  Irrational d2 have no certified float order and
        are all tested exactly.  A float radius takes the prefix whose
        float root is within eps_abs of it, by one bisect.
        """
        key = ("nbhd", center)
        hit = self._cache.get(key)
        if hit is None or hit[0] < radius:
            # Grow by 5/4, never by an absolute length, so that a ball holds
            # the same points in any unit.  Centres share one grown radius
            # per radius, so an entry holds no radius of its own.  A zero
            # radius has no length to grow: it grows to the packing radius,
            # the handle's own length, once that is known.
            if radius > 0:
                grown = self._cache.setdefault("grown", {})
                grow = grown.get(radius) or grown.setdefault(radius, radius * Fraction(5, 4))
            else:
                params = self._cache.get("params")
                grow = radius if params is None else params.r
            scale2, hits = self._ball(center, grow)
            keyed = sorted((h[0] / scale2 if isinstance(h[0], int) else float(h[0]), h[1], h)
                           for h in hits)
            hit = (grow, scale2, [t[2] for t in keyed], [t[0] for t in keyed],
                   all(isinstance(d2, (int, Fraction)) for d2, _, _ in hits))
            self._cache[key] = hit
        _, scale2, hits, fl, rational = hit
        tol = self.tol
        if not tol.exact:  # float covers is monotone in d2: a prefix
            return scale2, hits[:bisect_right(fl, radius + tol.eps_abs, key=math.sqrt)]
        band = radius.square_band() if rational else None
        i, j = (bisect_left(fl, band[0]), bisect_right(fl, band[1])) if band else (0, len(fl))
        return scale2, hits[:i] + [h for h in hits[i:j]
                                   if radius_covers(radius, h[0], tol, scale2)]

    def points_in_box(self, lo, hi):
        """All set points inside the closed axis-aligned box [lo, hi], in
        :meth:`_ball` order: the hits of one ball about the box's center
        that pass ``_in_box``.  The ball's radius is half the box's diagonal
        plus a pad of 0.01, with each face moved out by eps_abs (as far as
        float mode's ``_in_box`` reaches), so it covers every point
        ``_in_box`` accepts."""
        eps = self.tol.eps_abs
        half = math.sqrt(sum((float(b) - float(a) + 2 * eps) ** 2 for a, b in zip(lo, hi))) / 2
        center = tuple(fdiv(a + b, 2) for a, b in zip(lo, hi))
        hits = self._ball(center, self.tol.radius_at_least(half + 0.01))[1]
        return [p for _, _, p in hits if _in_box(p, lo, hi, self.tol)]

    # -- interior bookkeeping ----------------------------------------------

    def boundary_distance(self, p):
        """Distance from p to the trusted-region boundary (window mode)."""
        if self.mode != "window":
            raise ValueError("boundary distance is a window-mode notion")
        return _inset(p, *self.bounds, self.margin)

    def hosts_ball(self, p, radius):
        """Whether the closed radius-ball about p lies in the trusted region
        (boundary_distance(p) >= radius), which for a periodic set is all of
        space.  A rational distance is compared with an exact radius through
        the radius's square band, in ints when p lies on the window's grid."""
        if self.mode == "periodic":
            return True
        grid = self._grid() if isinstance(radius, Radical) else None
        ip = None if grid is None else _on_grid(p, grid[0])
        if ip is None:
            bd, scale2 = self.boundary_distance(p), 1
        else:
            bd, scale2 = _inset(ip, *grid[2]), grid[0] ** 2
        if isinstance(radius, Radical) and isinstance(bd, (int, Fraction)):
            return bd >= 0 and _radius_sign(radius, bd * bd, scale2) <= 0
        return self.tol.ge(bd, radius)

    def interior_points(self, radius):
        """Points able to host a closed radius-ball inside the trusted region."""
        if self.mode == "periodic":
            return list(self.motif)
        return [p for p in self.points if self.hosts_ball(p, radius)]

    def population(self, radius):
        """Classification population: motif points or interior points."""
        pts = self.interior_points(radius)
        if not pts:
            raise WindowTooSmallError(
                f"no interior points at radius {float(radius):g}")
        return pts

    def capacity(self):
        """Largest radius for which some interior point exists; on ints when
        the window has a scale."""
        if self.mode == "periodic":
            return None
        grid = self._grid()
        if grid:
            return Fraction(max(_inset(k, *grid[2]) for k in grid[1]), grid[0])
        return max(self.boundary_distance(p) for p in self.points)

    def __repr__(self):
        if self.mode == "periodic":
            return f"<periodic set d={self.dim} motif={len(self.motif)}>"
        return f"<window set d={self.dim} n={len(self.points)}>"


def _inset(p, lo, hi, margin):
    """Distance from p to the boundary of the box [lo, hi] inset by margin."""
    return min(min(a - l, h - a) for a, l, h in zip(p, lo, hi)) - margin


def _in_box(p, lo, hi, tol):
    return all(tol.ge(a, l) and tol.le(a, h) for a, l, h in zip(p, lo, hi))


# ---------------------------------------------------------------------------
# constructors

def _autoscale_eps(handle):
    """A handle built with no tolerance: a float one gets eps_abs = 1e-9
    times its estimated packing radius, an exact one stays as it is."""
    if handle.tol.exact:
        return handle
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
    With no tolerance given, the basis decides (:meth:`Tolerance.of`), and
    a float eps_abs is 1e-9 times the packing radius (a scale-invariant
    band).
    """
    lattice = basis if isinstance(basis, Lattice) else Lattice(basis)
    autoscale = tol is None
    tol = tol or Tolerance.of(lattice.basis)
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
    distance >= rho + margin from the bounds.  With no tolerance given, the
    points decide (:meth:`Tolerance.of`), and a float eps_abs is 1e-9 times
    the packing radius.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise ValueError("window point list is empty")
    dim = len(points[0])
    lo, hi = tuple(bounds[0]), tuple(bounds[1])
    if len(lo) != dim or len(hi) != dim:
        raise ValueError("bounds dimension mismatch")
    autoscale = tol is None
    tol = tol or Tolerance.of(points)
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
    """R = sup over space of the distance to the nearest set point: exact
    for periodic sets, a lower-bound estimate for windows (see
    DeloneParams.R_exactness and :mod:`delone.params`)."""
    return delone_params(handle).R


def delone_params(handle):
    if "params" not in handle._cache:
        from .params import _compute_params  # params imports this module
        handle._cache["params"] = _compute_params(handle)
    return handle._cache["params"]


def min_dist_sq(handle):
    if "min_d2" not in handle._cache:
        from .params import _min_dist_sq
        handle._cache["min_d2"] = _min_dist_sq(handle)
    return handle._cache["min_d2"]


# ---------------------------------------------------------------------------
# clusters, spectra, chains

def _require_member(handle, x):
    if not handle.contains(x):
        raise ValueError(f"point {format_point(x)} is not in the set")


def _require_interior(handle, x, radius):
    if not handle.hosts_ball(x, radius):
        raise TruncationError(
            f"point {format_point(x)} is within {float(radius):g} "
            "of the window boundary")


def cluster(handle, x, rho):
    """The rho-cluster of x: all set points at closed distance <= rho."""
    x = tuple(x)
    radius = as_radius(rho, handle.tol)
    _require_member(handle, x)
    _require_interior(handle, x, radius)
    hits = sorted(handle._nearby(x, radius)[1], key=lambda t: t[1])
    pts = tuple(p for _, _, p in hits)
    scale = handle._scale()
    if scale is None:
        return Cluster(center=x, radius=radius, points=pts)
    return Cluster(center=x, radius=radius, points=pts, scale=scale,
                   grid=(_on_grid(x, scale), tuple(k for _, k, _ in hits)))


def distance_spectrum(handle, x, cutoff):
    """Sorted distinct distances from x to other set points, <= cutoff."""
    x = tuple(x)
    tol = handle.tol
    radius = as_radius(cutoff, tol)
    _require_member(handle, x)
    _require_interior(handle, x, radius)
    pairs = handle.neighborhood(x, radius)
    d2s = tol.distinct_sq(d2 for d2, p in pairs if not tol.same_point(p, x))
    return DistanceSpectrum(center=x, cutoff=radius, dist_sqs=tuple(d2s))


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
    big_r = delone_params(handle).R
    two_r = big_r * 2

    if handle.mode == "window":
        chain = _bfs_chain(handle, x, y, two_r, corridor=None)
        if chain is None:
            raise TruncationError("no 2R-chain inside the window (truncation)")
        return chain

    width = 4.0 * float(big_r)
    for _ in range(12):
        chain = _bfs_chain(handle, x, y, two_r, corridor=(x, y, width))
        if chain is not None:
            return chain
        width *= 2.0
    raise ConvergenceError("2R-chain search failed to converge")


def _seg_dist_sq_leq(p, a, b, w2_float):
    """dist(p, segment ab)^2 <= w2, decided in float with a safety pad."""
    pf = [float(c) for c in p]
    af = [float(c) for c in a]
    bf = [float(c) for c in b]
    ab = [u - v for u, v in zip(bf, af)]
    ap = [u - v for u, v in zip(pf, af)]
    denom = sum(u * u for u in ab)
    t = 0.0 if denom == 0 else max(0.0, min(1.0, sum(u * v for u, v in zip(ap, ab)) / denom))
    d2 = sum((pf[i] - (af[i] + t * ab[i])) ** 2 for i in range(len(pf)))
    return d2 <= w2_float * (1 + 1e-9) + 1e-9


def _bfs_chain(handle, x, y, radius_2r, corridor):
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
            if corridor and not _seg_dist_sq_leq(p, corridor[0], corridor[1], w2):
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
