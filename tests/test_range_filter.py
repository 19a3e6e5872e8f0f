"""Filtered range queries against exact oracles.

Window queries visit the cells of a uniform float cell hash that meet the
query's reach box and drop points by float distance, and closed-ball tests
decide in floats outside a per-radius band.  Every answer
must equal a brute-force scan that decides each point with the exact
radical kernel (``Radical.cmp``), which the float filter never enters.
Periodic queries with a centre on the set's integer grid run on the motif
and basis times its scale; centres off it run on the points themselves.
The closest pair of a window comes from the same cell hash and must equal
an all-pairs scan.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delone.criteria import certify_auto
from delone.generators import square_lattice
from delone.geometry import Lattice, Tolerance, dist_sq
from delone.scalars import Radical, quadext
from delone.params import _min_dist_sq
from delone.sets import PointSetHandle, build_periodic, build_window, radius_covers

coords = st.fractions(min_value=-6, max_value=6, max_denominator=7)
small = st.fractions(min_value=0, max_value=3, max_denominator=9)


def exactly_covers(radius, d2):
    """sqrt(d2) <= radius by the exact kernel alone (a point a whole unit
    off the sphere is settled in floats: no rounding error comes near)."""
    gap = math.sqrt(float(d2)) - float(radius)
    if abs(gap) > 1:
        return gap < 0
    return radius.cmp(Radical.sqrt(d2)) >= 0


def brute_window(points, center, radius):
    return [(dist_sq(p, center), p) for p in points
            if exactly_covers(radius, dist_sq(p, center))]


@st.composite
def radii(draw, d2s):
    """Radii of the forms q, sqrt(q) and q + c*sqrt(m), often exactly on a
    point's sphere or within a hair of it."""
    kind = draw(st.sampled_from(("tie", "tie", "near", "q", "sqrt", "two")))
    if kind in ("tie", "near"):
        d2 = draw(st.sampled_from(d2s))
        # a hair below float resolution, or one well above it
        hair = 0 if kind == "tie" else draw(st.sampled_from(
            (F(1, 10**20), -F(1, 10**20), F(1, 10**12), -F(1, 10**12))))
        return Radical.sqrt(d2) + hair
    if kind == "q":
        return Radical.of(draw(small) + F(1, 10))
    if kind == "sqrt":
        return Radical.sqrt(draw(small) * 3 + F(1, 10))
    q = draw(small)
    c = draw(st.fractions(min_value=F(1, 10), max_value=2, max_denominator=10))
    m = draw(st.sampled_from((2, 3, 5, F(13, 50), F(7, 3))))
    return Radical(q, ((c, m),))


@st.composite
def rational_windows(draw):
    pts = draw(st.lists(st.tuples(coords, coords), min_size=2, max_size=40,
                        unique=True))
    # far from the origin, float coordinates lose what float distances keep
    t = draw(st.sampled_from((0, 10**9 + F(1, 3))))
    pts = [(x + t, y - t) for x, y in pts]
    center = draw(st.sampled_from(pts))
    lo = tuple(min(p[i] for p in pts) for i in range(2))
    hi = tuple(max(p[i] for p in pts) for i in range(2))
    radius = draw(radii([dist_sq(p, center) for p in pts if p != center]))
    return pts, (lo, hi), center, radius


@settings(max_examples=150, deadline=None)
@given(rational_windows())
def test_window_queries_equal_exact_scan(case):
    pts, bounds, center, radius = case
    win = build_window(pts, bounds)
    want = brute_window(win.points, center, radius)
    assert win.points_in_ball(center, radius) == want
    # the cached neighbourhood answers a prefix of a larger query
    big = Radical.of(13)
    assert win.neighborhood(center, big) == sorted(
        brute_window(win.points, center, big), key=lambda t: (float(t[0]), t[1]))
    got = win.neighborhood(center, radius)
    assert sorted(got, key=lambda t: t[1]) == sorted(want, key=lambda t: t[1])


def exact_scan(points, center, radius):
    """brute_window for radii with a rational square, in Fractions only (d2
    past float range included)."""
    return [(dist_sq(p, center), p) for p in points
            if dist_sq(p, center) <= radius.square_scalar()]


def check_queries(win, centers, radii, scan=brute_window):
    for center in centers:
        for radius in radii:
            want = scan(win.points, center, radius)
            assert win.points_in_ball(center, radius) == want
            got = win.neighborhood(center, radius)
            assert sorted(got, key=lambda t: t[1]) == sorted(want, key=lambda t: t[1])


RADII = (Radical.of(0), Radical.of(F(1, 3)), Radical.sqrt(2), Radical.of(3), Radical.of(50))


def test_collinear_window():
    # zero extent on y: the cells span x only; centres on the line, off the
    # window's grid, and off the line
    pts = [(F(i, 3), F(1, 2)) for i in range(-12, 13)]
    win = build_window(pts, ((F(-4), F(1, 2)), (F(4), F(1, 2))))
    check_queries(win, [pts[0], pts[13], (F(1, 7), F(1, 2)), (F(0), F(2)),
                        (F(9), F(1, 2))], RADII)
    assert win._cache["index"] is not None


def test_tall_strip_window():
    # a 1 x 40 strip of shifted rows, 6 points a row and 41 rows
    pts = [(F(i, 5) + (F(1, 20) if j % 2 else 0), F(j)) for i in range(6) for j in range(41)]
    win = build_window(pts, ((F(0), F(0)), (F(5, 4), F(40))))
    check_queries(win, [pts[0], pts[100], pts[-1], (F(3, 7), F(200, 11)), (F(-3), F(20))],
                  RADII + (Radical.sqrt(F(26, 25)),))
    assert win._cache["index"] is not None


def test_single_point_window():
    p = (F(1, 3), F(2, 5))
    win = build_window([p], (p, p))
    check_queries(win, [p, (F(1, 3), F(1, 2)), (F(-2, 7), F(5, 11))], RADII)
    assert win.points_in_ball((F(5), F(5)), Radical.of(1)) == []


@pytest.mark.parametrize("xs", [
    [F(17 * 10**307) + i for i in range(4)],        # float copies coincide
    [s * F(17 * 10**307) + i for s in (-1, 1) for i in range(2)],  # extent overflows
    [F(10**309) + i for i in range(4)],             # conversion overflows
])
def test_windows_near_float_overflow(xs):
    pts = [(x, F(j, 2)) for x in xs for j in range(3)]
    lo, hi = (min(xs), F(0)), (max(xs), F(1))
    win = build_window(pts, (lo, hi))
    centers = [pts[0], pts[4], (xs[1] + F(1, 7), F(1, 3)), (F(0), F(0)), (F(10**310), F(0))]
    check_queries(win, centers, RADII, scan=exact_scan)


def test_float_collinear_and_strip_windows():
    tol = Tolerance.floating(1e-9)
    line = [(i / 3, 0.5) for i in range(-12, 13)]
    strip = [(i / 5 + (0.05 if j % 2 else 0.0), float(j)) for i in range(6) for j in range(41)]
    for pts in (line, strip):
        lo = tuple(min(p[k] for p in pts) for k in range(2))
        hi = tuple(max(p[k] for p in pts) for k in range(2))
        win = build_window(pts, (lo, hi), tol=tol)
        for center in (pts[0], pts[len(pts) // 2], (1 / 7, 0.3)):
            for rho in (0.0, 0.2, 1.5, 7.0):
                want = [(dist_sq(p, center), p) for p in win.points
                        if math.sqrt(dist_sq(p, center)) <= rho + tol.eps_abs]
                assert win.points_in_ball(center, rho) == want



@pytest.mark.parametrize("exact", [True, False])
def test_thin_window_keeps_its_cells_wide(exact, monkeypatch):
    # x = 0..999 with y jittered by 1e-6: the cells must follow the x
    # spacing, not the thin y extent, or every query scans the whole window
    if exact:
        pts = [(F(i), F(i % 2, 10**6)) for i in range(1000)]
        centers, radius = [pts[0], pts[500], (F(3, 2), F(1, 10**6))], Radical.of(1)
    else:
        pts = [(float(i), 1e-6 * (i % 2)) for i in range(1000)]
        centers, radius = [pts[0], pts[500], (1.5, 1e-6)], 1.0
    if exact:
        win = build_window(pts, ((0, 0), (999, F(1, 10**6))))
    else:
        win = build_window(pts, ((0.0, 0.0), (999.0, 1e-6)), tol=Tolerance.floating(1e-9))
    dist, calls = math.dist, []
    monkeypatch.setattr(math, "dist", lambda p, q: calls.append(p) or dist(p, q))
    for center in centers:
        calls.clear()
        got = win.points_in_ball(center, radius)
        if exact:
            want = brute_window(pts, center, radius)
        else:
            want = [(dist_sq(p, center), p) for p in pts
                    if math.sqrt(dist_sq(p, center)) <= radius + win.tol.eps_abs]
        assert got == want
        assert len(calls) <= 8  # the points of the two or three cells the reach meets

def test_quadratic_window_ties():
    # points of the triangular lattice at exact distances from the origin,
    # and a point exactly on the sphere of the two-term radius 1 + sqrt(3)
    s3 = quadext(0, 1, 3)
    half = F(1, 2)
    pts = [(F(i) + j * half, j * half * s3) for i in range(-4, 5) for j in range(-4, 5)]
    pts.append((1 + s3, F(0)))
    center = (F(0), F(0))
    lo, hi = (F(-7), F(-4)), (F(7), F(4))
    win = build_window(pts, (lo, hi))
    for radius in (Radical.of(2), Radical.sqrt(3), Radical(1, ((1, 3),)),
                   Radical.sqrt(7), Radical(F(1, 2), ((1, 3),))):
        assert win.points_in_ball(center, radius) == brute_window(win.points, center, radius)
        got = win.neighborhood(center, radius)
        assert sorted(got, key=lambda t: t[1]) == sorted(
            brute_window(win.points, center, radius), key=lambda t: t[1])


def test_prefix_scan_reads_past_a_miss_inside_the_band():
    # A lies 2e-20 outside the unit circle, B on it; their float d2 agree,
    # so A sorts first and the scan must test B exactly after missing A
    a, b = (F(0), -1 - F(1, 10**20)), (F(1), F(0))
    win = build_window([a, b, (F(0), F(0)), (F(-2), F(2))], ((F(-2), F(-2)), (F(2), F(2))))
    center = (F(0), F(0))
    assert win.neighborhood(center, Radical.of(3))[1:3] == [(dist_sq(a, center), a),
                                                            (F(1), b)]
    got = [p for _, p in win.neighborhood(center, Radical.of(1))]
    assert got == [center, b]


def nearby_keys_built(handle, monkeypatch):
    """Regular certify of handle: the lattice keys that the periodic ball
    queries under the neighbourhood cache build (hits and misses)."""
    built, depth = [0], [0]
    nearby, offsets = PointSetHandle._nearby, Lattice.offsets_in_ball

    def counted_nearby(self, center, radius):
        depth[0] += 1
        try:
            return nearby(self, center, radius)
        finally:
            depth[0] -= 1

    def counted_offsets(self, v, rho):
        for k in offsets(self, v, rho):
            built[0] += depth[0] > 0
            yield k

    monkeypatch.setattr(PointSetHandle, "_nearby", counted_nearby)
    monkeypatch.setattr(Lattice, "offsets_in_ball", counted_offsets)
    assert certify_auto(handle, "regular").verdict == "satisfied"
    monkeypatch.undo()
    return built[0]


@pytest.mark.parametrize("spacing", [F(1, 100000), 1e-5])
def test_neighbourhood_cache_grows_by_a_factor(spacing, monkeypatch):
    # Z^2 with spacing s, exact and float: the cache's balls hold about as
    # many points at s = 1e-5 as at s = 1, where an absolute pad p would
    # hold about p / s spacings
    def z2(s):
        return build_periodic(((s, 0 * s), (0 * s, s)), [(0 * s, 0 * s)])
    unit = nearby_keys_built(z2(type(spacing)(1)), monkeypatch)
    assert 0 < nearby_keys_built(z2(spacing), monkeypatch) <= 2 * unit


@st.composite
def periodic_sets(draw):
    a = draw(st.fractions(min_value=F(1, 2), max_value=2, max_denominator=4))
    b = draw(st.fractions(min_value=-1, max_value=1, max_denominator=4))
    c = draw(st.fractions(min_value=F(1, 2), max_value=2, max_denominator=4))
    unit = st.fractions(min_value=0, max_value=F(4, 5), max_denominator=5)
    motif = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=3, unique=True))
    return ((a, F(0)), (b, c)), motif


def brute_periodic(handle, center, radius):
    """Every motif point plus lattice vector in an explicit box, exactly."""
    (a, _), (b, c) = handle.lattice.basis
    reach = math.ceil(float(radius)) + 2
    out = []
    for m in handle.motif:
        k2_max = math.ceil((reach + 2) / c)
        for k2 in range(-k2_max, k2_max + 1):
            k1_max = math.ceil((reach + 2 + abs(b) * abs(k2)) / a)
            for k1 in range(-k1_max, k1_max + 1):
                p = (m[0] + k1 * a + k2 * b, m[1] + k2 * c)
                if exactly_covers(radius, dist_sq(p, center)):
                    out.append(p)
    return sorted(out)


# off the grid of every periodic set drawn here: no coordinate scale of
# theirs has a factor 7, 11 or 13
OFF_GRID = st.tuples(st.sampled_from((F(1, 7), F(-2, 11), F(3, 13))),
                     st.sampled_from((F(0), F(1, 7), F(-5, 13))))


def check_periodic_query(handle, center, radius):
    want = brute_periodic(handle, center, radius)
    got = handle.points_in_ball(center, radius)
    assert sorted(p for _, p in got) == want
    assert all(d2 == dist_sq(p, center) for d2, p in got)
    assert all(type(c) is F for _, p in got for c in p)
    assert sorted(p for _, p in handle.neighborhood(center, radius)) == want


@pytest.mark.parametrize("extent", [None, F(3)])
@pytest.mark.parametrize("center", [(F(0), F(0)), (F(1, 3), F(0))])
def test_range_queries_take_a_rational_radius(extent, center):
    # a Fraction and the equal Radical, about a grid centre and off the grid
    handle = square_lattice(extent)
    rho = F(3, 2)
    want = sorted(p for p in square_lattice(F(3)).points if dist_sq(p, center) <= rho * rho)
    for radius in (rho, Radical.of(rho)):
        for query in (handle.points_in_ball, handle.neighborhood):
            assert sorted(p for _, p in query(center, radius)) == want


@pytest.mark.parametrize("extent", [None, F(3)])
def test_range_queries_refuse_a_float_radius_in_exact_mode(extent):
    handle = square_lattice(extent)
    for query in (handle.points_in_ball, handle.neighborhood):
        with pytest.raises(TypeError, match="exact mode needs an exact radius"):
            query((F(0), F(0)), 1.5)


@settings(max_examples=60, deadline=None)
@given(periodic_sets(), st.data())
def test_periodic_queries_equal_exact_scan(spec, data):
    # centres on the set's integer grid (a motif point) and off it
    basis, motif = spec
    try:
        handle = build_periodic(basis, motif)
    except ValueError:
        assume(False)
    center = handle.motif[0]
    if data.draw(st.booleans()):
        shift = data.draw(OFF_GRID)
        center = (center[0] + shift[0], center[1] + shift[1])
    near = handle.points_in_ball(center, Radical.of(2))
    radius = data.draw(radii([d2 for d2, p in near if p != center] or [F(1)]))
    check_periodic_query(handle, center, radius)


@pytest.mark.parametrize("basis, motif, scale", [
    (((F(3, 2), F(0)), (F(1, 3), F(5, 4))), [(F(1, 7), F(2, 5)), (F(5, 6), F(1, 3))], 420),
    (((F(1), F(0)), (F(0), F(1))), [(F(2, 5), F(9, 10)), (F(9, 10), F(9, 10)),
                                    (F(2, 5), F(2, 5))], 10),
])
@pytest.mark.parametrize("where", ["member", "off-grid", "on-grid"])
def test_periodic_queries_with_a_scale(basis, motif, scale, where):
    # a motif point, a centre off the grid, and one on the grid but not in the set
    handle = build_periodic(basis, motif)
    assert handle._frame().s == scale
    shift = {"member": (0, 0), "off-grid": (F(1, 11), F(-3, 13)),
             "on-grid": (F(1, scale), 0)}[where]
    center = tuple(a + b for a, b in zip(handle.motif[0], shift))
    assert handle.contains(center) == (where == "member")
    ds = sorted({d2 for d2, _ in handle.points_in_ball(center, Radical.of(3))})
    for radius in (Radical.sqrt(ds[1]), Radical.sqrt(ds[-1]), Radical.of(F(5, 2)),
                   Radical(1, ((1, 2),))):
        check_periodic_query(handle, center, radius)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2,
                max_size=40, unique=True),
       st.floats(0, 4))
def test_float_window_queries_equal_scan(pts, rho):
    tol = Tolerance.floating(1e-9)
    assume(all(max(abs(p[0] - q[0]), abs(p[1] - q[1])) > 1e-6
               for i, p in enumerate(pts) for q in pts[i + 1:]))
    lo = (min(p[0] for p in pts), min(p[1] for p in pts))
    hi = (max(p[0] for p in pts), max(p[1] for p in pts))
    win = build_window(pts, (lo, hi), tol=tol)
    center = win.points[len(win.points) // 2]
    want = [(dist_sq(p, center), p) for p in win.points
            if math.sqrt(dist_sq(p, center)) <= rho + tol.eps_abs]
    assert win.points_in_ball(center, rho) == want
    got = win.neighborhood(center, rho)
    assert sorted(got, key=lambda t: t[1]) == sorted(want, key=lambda t: t[1])


@settings(max_examples=400, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=50),
       st.lists(st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=9),
                          st.sampled_from((2, 3, 5, 6, F(1, 2), F(13, 50), F(8, 3)))),
                max_size=2),
       st.one_of(st.fractions(min_value=0, max_value=200, max_denominator=10**6),
                 st.just(None)))
def test_square_band_agrees_with_exact_sign(rat, terms, d2):
    radius = Radical(rat, tuple(terms))
    band = radius.square_band()
    if band is None:
        return
    assert radius.sign() > 0
    if d2 is None:  # exactly on the sphere, when radius**2 is rational
        d2 = radius.square_scalar()
        if d2 is None:
            return
        assert band[0] <= float(d2) <= band[1]
    exact = radius.cmp(Radical.sqrt(d2))
    if float(d2) < band[0]:
        assert exact > 0
    if float(d2) > band[1]:
        assert exact < 0


def test_square_band_declines_unsafe_values():
    huge = F(10**400)
    assert Radical.of(huge).square_band() is None          # float overflow
    assert Radical.of(F(1, 10**400)).square_band() is None  # float underflow
    assert Radical.of(0).square_band() is None
    assert Radical.of(quadext(1, 1, 3)).square_band() is None
    tol = Tolerance.exact_mode()
    # a d2 whose float conversion overflows falls through to the exact kernel
    assert not radius_covers(Radical.of(3), huge, tol)
    assert radius_covers(Radical.of(huge), huge * huge, tol)


def test_covers_decides_ties_exactly(monkeypatch):
    calls = []
    real = Radical.square_scalar

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Radical, "square_scalar", spy)
    tol = Tolerance.exact_mode()
    r = Radical.sqrt(F(13, 50))
    assert radius_covers(r, F(13, 50), tol) and len(calls) == 1   # tie: exact
    assert radius_covers(r, F(1, 10), tol) and len(calls) == 1    # far inside: floats
    assert not radius_covers(r, F(1), tol) and len(calls) == 1    # far outside: floats


@pytest.mark.parametrize("radius", [Radical.sqrt(2), Radical(1, ((2, 3),))])
def test_band_is_computed_once(radius):
    assert radius.square_band() is radius.square_band()


# -- closest pair -------------------------------------------------------------------

def brute_min_dist_sq(points):
    return min(dist_sq(p, q) for i, p in enumerate(points) for q in points[i + 1:])


def check_min_dist(win):
    assert _min_dist_sq(win) == brute_min_dist_sq(win.points)


def test_closest_pair_on_degenerate_windows():
    collinear = [(F(i, 3), F(1, 2)) for i in range(-12, 13)]
    strip = [(F(i, 5) + (F(1, 20) if j % 2 else 0), F(j)) for i in range(6) for j in range(41)]
    thin = [(F(i), F(i % 2, 10**6)) for i in range(200)]
    one_cell = [(F(0), F(0)), (F(1), F(1)), (F(1), F(0))]
    two = [(F(0), F(0)), (F(7, 3), F(0))]
    for pts in (collinear, strip, thin, one_cell, two):
        lo = tuple(min(p[k] for p in pts) for k in range(2))
        hi = tuple(max(p[k] for p in pts) for k in range(2))
        check_min_dist(build_window(pts, (lo, hi)))
    assert len(build_window(one_cell, ((0, 0), (1, 1)))._index()[5]) == 1


@pytest.mark.parametrize("xs", [
    [F(17 * 10**307) + i for i in range(4)],
    [s * F(17 * 10**307) + i for s in (-1, 1) for i in range(2)],
    [F(10**309) + i for i in range(4)],
])
def test_closest_pair_near_float_overflow(xs):
    pts = [(x, F(j, 2)) for x in xs for j in range(3)]
    check_min_dist(build_window(pts, ((min(xs), F(0)), (max(xs), F(1)))))


def test_closest_pair_whose_float_copies_are_cells_apart():
    # at 2**66 floats are 16384 apart: p and q, 2 apart, round to floats
    # 16384 apart, five cells of side 6553.6 away from each other, while
    # runs of points 3 apart collapse onto one float each.  Only the exact
    # fallback finds p, q: the neighbouring cells offer pairs 3 apart
    base = 2**66
    p = base + 16384 + 8191
    xs = [base + 3 * k for k in range(9)] + [base + 65536 - 3 * k for k in range(9)]
    pts = [(F(x), F(0)) for x in xs + [p, p + 2]]
    win = build_window(pts, ((F(base), F(0)), (F(base + 65536), F(0))))
    _, _, side, _, fpts, _ = win._index()
    i, j = win.points.index(pts[-2]), win.points.index(pts[-1])
    assert side < 8192 and math.dist(fpts[i], fpts[j]) > 2 * side
    assert _min_dist_sq(win) == 4


@settings(max_examples=100, deadline=None)
@given(rational_windows())
def test_closest_pair_of_random_windows(case):
    pts, bounds, _, _ = case
    check_min_dist(build_window(pts, bounds))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2,
                max_size=40, unique=True))
def test_closest_pair_of_random_float_windows(pts):
    assume(all(max(abs(p[0] - q[0]), abs(p[1] - q[1])) > 1e-6
               for i, p in enumerate(pts) for q in pts[i + 1:]))
    lo = (min(p[0] for p in pts), min(p[1] for p in pts))
    hi = (max(p[0] for p in pts), max(p[1] for p in pts))
    win = build_window(pts, (lo, hi), tol=Tolerance.floating(1e-9))
    check_min_dist(win)
