"""Integer-grid paths against brute-force field oracles.

Reconstruction runs its inversion closure on a seed's integer vectors in
a table of neighbour cells, exact radius tests on ints compare with one
integer threshold per radius, the window translation test of the coset
decomposition runs on a window's integer points, bounds and margin, and
its coset representatives come from one integer residue key per point.
Each answer must equal a computation kept here that works on the points
themselves (Fractions, Q(sqrt 3) or floats) and decides every radius
exactly from its square.  Rational sets under a float tolerance, and the
points that error messages print, are checked here too.
"""

import heapq
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delone import criteria
from delone.criteria import (ReconstructionError, _window_translations,
                             antipodal_lattice_decomposition,
                             reconstruct_from_2R_cluster)
from delone.generators import three_coset_fixture, triangular_lattice
from delone.geometry import Lattice, Tolerance, dist_sq
from delone.scalars import Radical, format_point, quadext, ssign
from delone.sets import (_on_grid, _radius_sign, as_radius, build_periodic, build_window,
                         cluster, delone_params, radius_covers)

from oracles import pairwise_coset_reps


def covers_exactly(radius):
    """d2 -> |d| <= radius, decided on the radius's rational square."""
    sq = radius.square_scalar()
    assert sq is not None
    return lambda d2: ssign(sq - d2) >= 0


def closure(seed, rho_max, pair_covers, ball_covers):
    """The seed points in the ball, closed under y, z -> 2y - z for pairs
    the seed radius covers, clipped to the ball: semi-naive fixpoint."""
    known = {p for p in seed.points if ball_covers(dist_sq(p, seed.center))}
    fresh = set(known)
    while fresh:
        new = set()
        for y in fresh:
            for z in known:
                if y == z or not pair_covers(dist_sq(y, z)):
                    continue
                for c in (tuple(2 * a - b for a, b in zip(y, z)),
                          tuple(2 * b - a for a, b in zip(y, z))):
                    if c not in known and ball_covers(dist_sq(c, seed.center)):
                        new.add(c)
        known |= new
        fresh = new
    return sorted(known)


def _fixture_motif(basis, t):
    """t + {0, b1/2, b2/2}: three cosets of the lattice, locally antipodal."""
    (b1, b2) = basis
    return [t, tuple(x + y / 2 for x, y in zip(t, b1)), tuple(x + y / 2 for x, y in zip(t, b2))]


UNIT = ((F(1), F(0)), (F(0), F(1)))
SKEW = ((F(3, 2), F(0)), (F(1, 3), F(5, 4)))

RATIONAL = {
    # the bench fixture translated by (2/5, 9/10): scale 10
    "translated-fixture": (UNIT, _fixture_motif(UNIT, (F(2, 5), F(9, 10))), (F(2, 5), F(9, 10))),
    # a non-integer, non-orthogonal basis and a translated motif: scale 840
    "skew-fixture": (SKEW, _fixture_motif(SKEW, (F(1, 7), F(2, 5))), (F(1, 7), F(2, 5))),
}


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_reconstruct_rational_equals_field_closure(name):
    basis, motif, center = RATIONAL[name]
    handle = build_periodic(basis, motif)
    assert handle._scale() > 1
    seed = cluster(handle, center, delone_params(handle).R * 2)
    assert seed.grid is not None
    rho_max = F(3)
    got = reconstruct_from_2R_cluster(seed, rho_max, tol=handle.tol)
    ball = Radical.of(rho_max)
    want = closure(seed, rho_max, covers_exactly(seed.radius), covers_exactly(ball))
    assert list(got) == want
    assert all(type(c) is F for p in got for c in p)
    # the theorem: the closure is the whole set inside the ball
    assert sorted(p for _, p in handle.points_in_ball(center, ball)) == want


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_periodic_cluster_grid_is_its_points_times_the_scale(name):
    basis, motif, center = RATIONAL[name]
    handle = build_periodic(basis, motif)
    scale = handle._scale()
    c = cluster(handle, center, Radical.of(2))
    assert c.scale == scale
    assert c.grid == (_on_grid(center, scale), tuple(_on_grid(p, scale) for p in c.points))


def test_rational_sets_under_a_float_tolerance_scale_their_distances():
    # exact coordinates with a float tolerance still run on the integer grid
    tol = Tolerance.floating()
    per = build_periodic(UNIT, [(F(1, 2), F(1, 3))], tol=tol)
    win = build_window([(F(i, 2), F(j, 2)) for i in range(-6, 7) for j in range(-6, 7)],
                       ((F(-3), F(-3)), (F(3), F(3))), tol=tol)
    for handle, center, count in ((per, (F(1, 2), F(1, 3)), 9), (win, (F(0), F(0)), 29)):
        assert handle._scale() > 1
        got = handle.points_in_ball(center, 1.5)
        assert len(got) == count
        assert all(math.sqrt(dist_sq(p, center)) <= 1.5 + tol.eps_abs for _, p in got)



@pytest.mark.parametrize("pts, bounds", [
    ([(F(i, 2), F(j, 2)) for i in range(-6, 7) for j in range(-6, 7)],
     ((F(-3), F(-3)), (F(3), F(3)))),
    ([(F(i, 3) + F(j, 7), F(j, 2)) for i in range(-9, 10) for j in range(-6, 7)],
     ((F(-4), F(-3)), (F(4), F(3)))),
])
def test_rational_windows_under_a_float_tolerance_get_the_exact_covering_radius(pts, bounds):
    # int offsets with a float tolerance clip in floats, not on the int path
    tol = Tolerance.floating()
    got = delone_params(build_window(pts, bounds, tol=tol))
    want = delone_params(build_window(pts, bounds))
    assert got.R_exactness == want.R_exactness
    assert abs(got.R - float(want.R)) <= tol.eps_abs

def test_reconstruct_quadratic_field_equals_field_closure():
    handle = triangular_lattice()
    assert handle._scale() is None
    origin = (F(0), F(0))
    seed = cluster(handle, origin, delone_params(handle).R * 2)
    assert seed.grid is None
    ball = Radical.of(3)
    got = reconstruct_from_2R_cluster(seed, 3, tol=handle.tol)
    want = closure(seed, 3, covers_exactly(seed.radius), covers_exactly(ball))
    assert list(got) == want
    assert sorted(p for _, p in handle.points_in_ball(origin, ball)) == want


def test_reconstruct_float_equals_float_closure():
    handle = build_periodic(((1.0, 0.0), (0.0, 1.0)), [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)])
    eps = handle.tol.eps_abs
    seed = cluster(handle, (0.0, 0.0), 2 * delone_params(handle).R)
    two_r = float(seed.radius)
    got = reconstruct_from_2R_cluster(seed, 3.0, tol=handle.tol)
    want = closure(seed, 3.0, lambda d2: math.sqrt(d2) <= two_r + eps,
                   lambda d2: math.sqrt(d2) <= 3.0 + eps)
    assert list(got) == want
    assert len(want) == 81  # the hand count of the bench oracle at rho 3


def test_reconstruct_non_dyadic_float_seed_merges_rounded_candidates():
    # 2y - z of tenths rounds differently along different chains, so exact
    # membership would keep near-duplicates until the packing cap fires
    handle = build_periodic(((1.0, 0.0), (0.0, 1.0)), [(0.1, 0.1), (0.6, 0.1), (0.1, 0.6)])
    eps = handle.tol.eps_abs
    center = (0.1, 0.1)
    seed = cluster(handle, center, 2 * delone_params(handle).R)
    got = reconstruct_from_2R_cluster(seed, 3.0, tol=handle.tol)
    want = [p for _, p in handle.points_in_ball(center, 3.0)]
    assert len(got) == len(want) == 81

    def near(p, pts):
        return sum(max(abs(a - b) for a, b in zip(p, q)) <= eps for q in pts)

    assert all(near(p, want) == 1 for p in got)
    assert all(near(q, got) == 1 for q in want)


# -- neighbour-cell closure against the generation-wise closure -------------------

def all_pairs_closure(seed, rho_max, pair_covers, ball_covers, cap):
    """The inversion closure as a heap of points radially outward, each popped
    point paired with every known point: the number of points after each
    popped point, and so where a cap is exceeded, follow from this order."""
    todo = [(float(dist_sq(p, seed.center)), p) for p in seed.points
            if ball_covers(dist_sq(p, seed.center))]
    known = {p for _, p in todo}
    heapq.heapify(todo)
    while todo:
        y = heapq.heappop(todo)[1]
        grew = False
        for z in list(known):
            if z == y or not pair_covers(dist_sq(y, z)):
                continue
            for c in (tuple(2 * a - b for a, b in zip(y, z)),
                      tuple(2 * b - a for a, b in zip(y, z))):
                if c not in known and ball_covers(dist_sq(c, seed.center)):
                    known.add(c)
                    heapq.heappush(todo, (float(dist_sq(c, seed.center)), c))
                    grew = True
        if grew and len(known) > cap:
            return None
    return sorted(known)


def float_covers(radius, tol):
    """d2 -> |d| <= radius + eps_abs, in floats."""
    return lambda d2: math.sqrt(d2) <= float(radius) + tol.eps_abs


def covers_by_kernel(radius):
    """d2 -> |d| <= radius for a radius with an irrational square."""
    return lambda d2: radius.cmp(Radical.sqrt(d2)) >= 0


small_fractions = st.fractions(min_value=F(3, 4), max_value=F(3, 2), max_denominator=4)
shifts = st.fractions(min_value=-1, max_value=1, max_denominator=12)


@st.composite
def antipodal_seeds(draw, kind):
    """(handle, seed centre): a lattice with one, two or three of the cosets
    t + {0, b1/2, b2/2}, so every point is a centre of symmetry."""
    halves = draw(st.sampled_from(((0,), (0, 1), (0, 2), (0, 1, 2), (0, 3))))
    if kind == "float":
        # dyadic coordinates: 2y - z stays exact in floats, as the closure's
        # exact set of known points needs
        dyadic = st.sampled_from((F(3, 4), F(1), F(5, 4), F(3, 2)))
        t = (draw(st.sampled_from((0, F(1, 8), F(-3, 16)))), draw(st.sampled_from((0, F(5, 8)))))
        basis = ((draw(dyadic), F(0)), (draw(st.sampled_from((0, F(1, 4), F(-1, 2)))),
                                        draw(dyadic)))
    elif kind == "quadratic":
        t = (draw(shifts), draw(shifts))
        basis = ((F(1), F(0)), (F(1, 2), quadext(0, F(1, 2), 3)))
    else:
        t = (draw(shifts), draw(shifts))
        basis = ((draw(small_fractions), F(0)),
                 (draw(st.fractions(min_value=-1, max_value=1, max_denominator=3)),
                  draw(small_fractions)))
    b1, b2 = basis
    half = {0: (0, 0), 1: tuple(c / 2 for c in b1), 2: tuple(c / 2 for c in b2),
            3: tuple((c + e) / 2 for c, e in zip(b1, b2))}
    motif = [tuple(a + b for a, b in zip(t, half[h])) for h in halves]
    tol = None
    if kind == "float":
        basis = tuple(tuple(map(float, b)) for b in basis)
        motif = [tuple(map(float, m)) for m in motif]
    elif kind == "float-tolerance":
        tol = Tolerance.floating()
    return build_periodic(basis, motif, tol=tol), motif[0]


@pytest.mark.parametrize("kind", ["rational", "quadratic", "float", "float-tolerance"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_neighbour_cell_closure_equals_generation_wise_closure(kind, data):
    # rational seeds run on the integer grid, Q(sqrt 3) seeds on exact
    # rational cells, float seeds and rational seeds under a float tolerance
    # on padded cells
    handle, center = data.draw(antipodal_seeds(kind))
    rho_max = data.draw(st.sampled_from((F(1), F(2), F(5, 2), Radical(1, ((1, 2),)))))
    tol = handle.tol
    seed = cluster(handle, center, delone_params(handle).R * 2)
    assert (seed.grid is not None) == (handle._scale() is not None)
    if not tol.exact:
        rho_max = float(rho_max)
        pair, ball = float_covers(seed.radius, tol), float_covers(rho_max, tol)
    elif isinstance(rho_max, Radical):
        pair, ball = covers_exactly(seed.radius), covers_by_kernel(rho_max)
    else:
        pair, ball = covers_exactly(seed.radius), covers_exactly(Radical.of(rho_max))
    want = closure(seed, rho_max, pair, ball)
    got = reconstruct_from_2R_cluster(seed, rho_max, tol=tol)
    assert list(got) == want


@pytest.mark.parametrize("make, center", [
    (three_coset_fixture, (F(0), F(0))),
    (triangular_lattice, (F(0), F(0))),
    (lambda: build_periodic(((1.0, 0.0), (0.0, 1.0)), [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]),
     (0.0, 0.0)),
])
def test_closure_tests_only_neighbour_cells(make, center, monkeypatch):
    # each popped point meets the known points of its 3^d neighbouring
    # cells: a bounded number of radius tests per point, where pairing with
    # every known point would test about n / 2 per point (164 on the fixture)
    handle = make()
    seed = cluster(handle, center, delone_params(handle).R * 2)
    calls = []
    real = criteria.radius_covers
    monkeypatch.setattr(criteria, "radius_covers", lambda *a: calls.append(a) or real(*a))
    got = reconstruct_from_2R_cluster(seed, 6, tol=handle.tol)
    assert len(got) == len(handle.points_in_ball(center, as_radius(6, handle.tol)))
    assert len(calls) < 60 * len(got)


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_cap_fires_where_the_all_pairs_closure_exceeds_it(name):
    basis, motif, center = RATIONAL[name]
    handle = build_periodic(basis, motif)
    seed = cluster(handle, center, delone_params(handle).R * 2)
    rho_max = F(5, 2)
    pair, ball = covers_exactly(seed.radius), covers_exactly(Radical.of(rho_max))
    full = reconstruct_from_2R_cluster(seed, rho_max, tol=handle.tol)
    fired = 0
    for cap in range(len(seed.points), len(full) + 1):
        want = all_pairs_closure(seed, rho_max, pair, ball, cap)
        if want is None:
            fired += 1
            with pytest.raises(ReconstructionError):
                reconstruct_from_2R_cluster(seed, rho_max, tol=handle.tol, max_points=cap)
        else:
            got = reconstruct_from_2R_cluster(seed, rho_max, tol=handle.tol, max_points=cap)
            assert list(got) == want
    assert 0 < fired < len(full) - len(seed.points) + 1


# -- antipodality on integer offsets ------------------------------------------------

def fraction_antipodality(handle):
    """(flags, first violation) of local antipodality, on Fraction offsets."""
    two_r = delone_params(handle).R * 2
    flags, first = [], None
    for x in sorted(handle.population(two_r)):
        pts = sorted(p for _, p in handle.points_in_ball(x, two_r) if p != x)
        offs = [tuple(a - b for a, b in zip(p, x)) for p in pts]
        bad = next((v for v in offs if tuple(-a for a in v) not in set(offs)), None)
        flags.append((x, bad is None))
        if bad is not None and first is None:
            first = (x, bad)
    return tuple(flags), first


@pytest.mark.parametrize("t", [(F(0), F(0)), (F(3, 10), F(7, 10))])
@pytest.mark.parametrize("drop", [None, 0, 1, 2, 3])
def test_antipodality_on_int_offsets_equals_fraction_test(t, drop):
    # the fixture window with one point near its centre deleted: the points
    # around the hole lose antipodes, the rest keep them
    base = three_coset_fixture(extent=F(3))
    pts = sorted(tuple(a + b for a, b in zip(p, t)) for p in base.points)
    lo, hi = (tuple(a + b for a, b in zip(bound, t)) for bound in base.bounds)
    middle = sorted(pts, key=lambda p: dist_sq(p, tuple((a + b) / 2 for a, b in zip(lo, hi))))
    if drop is not None:
        pts.remove(middle[drop])
    handle = build_window(pts, (lo, hi))
    assert handle._scale() is not None
    report = criteria.is_locally_antipodal(handle)
    flags, first = fraction_antipodality(handle)
    assert report.flags == flags
    assert report.first_violation == first
    assert report.all_antipodal == (drop is None)
    if first is not None:
        assert all(type(c) is F for c in first[1])


# -- one integer threshold per radius -----------------------------------------------

SCALES = (1, 2, 10, 840)


@st.composite
def threshold_cases(draw):
    """(radius, k = scale**2): rational, single-sqrt and two-term radii
    (rho0 + 2R), and radii whose square times k is an int (exact ties)."""
    scale = draw(st.sampled_from(SCALES))
    k = scale * scale
    q = draw(st.fractions(min_value=0, max_value=9, max_denominator=60))
    m = draw(st.sampled_from((2, 3, F(1, 2), F(13, 50), F(7, 3))))
    a = draw(st.integers(min_value=0, max_value=10**6))
    kind = draw(st.sampled_from(("rational", "sqrt", "two-term", "tie", "tie-sqrt")))
    if kind == "rational":
        return Radical.of(q), k
    if kind == "sqrt":
        return Radical.sqrt(q * m), k
    if kind == "two-term":
        c = draw(st.fractions(min_value=F(1, 10), max_value=3, max_denominator=10))
        return Radical(q, ((c, m),)), k
    if kind == "tie":
        return Radical.of(F(a, scale)), k  # radius**2 k = a**2
    return Radical.sqrt(F(a, k)), k  # radius**2 k = a


@settings(max_examples=300, deadline=None)
@given(threshold_cases())
def test_integer_threshold_agrees_with_the_exact_sign(case):
    radius, k = case
    t = radius.square_floor(k)
    if radius.square_scalar() is not None:
        assert t is not None
    assume(t is not None)
    assert radius.square_floor(k) == t  # kept on the radius
    for d2 in range(max(t - 2, 0), t + 3):
        assert (d2 <= t) == (_radius_sign(radius, d2, k) >= 0)
        assert (d2 <= t) == (radius.cmp(Radical.sqrt(F(d2, k))) >= 0)


def test_integer_threshold_ties_and_fallbacks():
    # exactly on the sphere: r**2 k is the int T itself
    assert Radical.sqrt(F(13, 50)).square_floor(100) == 26
    assert Radical.of(F(3, 10)).square_floor(100) == 9
    # a two-term radius rho0 + 2R = 1/2 + 2 sqrt(1/2) in units of 1/10:
    # its square 9/4 + sqrt(2) = 3.664... times 100
    r = F(1, 2) + Radical.sqrt(F(1, 2)) * 2
    assert r.square_floor(100) == 366
    assert r.cmp(Radical.sqrt(F(366, 100))) > 0 > r.cmp(Radical.sqrt(F(367, 100)))
    # no band (far past float range) or a band wider than one unit: no threshold
    assert Radical(0, ((1, F(10**400)), (1, 2))).square_floor(1) is None
    wide = Radical(10**9, ((1, 2),))
    assert wide.square_floor(10**12) is None
    # and radius_covers then keeps the per-pair test
    tol, t = Tolerance.exact_mode(), (10**18 + 2 * 10**9 * 2**0.5 + 2) * 10**12
    for d2 in (int(t * (1 - 1e-9)), int(t * (1 + 1e-9))):
        assert radius_covers(wide, d2, tol, 10**12) == (_radius_sign(wide, d2, 10**12) >= 0)
    # a negative radius covers nothing
    assert Radical.of(F(-1, 2)).square_floor(4) == -1
    # the cache holds the last scale asked; a new one recomputes
    r = Radical.sqrt(2)
    assert r.square_floor(1) == 2 and r.square_floor(100) == 200 and r.square_floor(1) == 2


def test_radius_covers_uses_the_threshold_for_int_distances(monkeypatch):
    tol = Tolerance.exact_mode()
    r = Radical(F(1, 2), ((2, F(1, 2)),))
    assert radius_covers(r, 3, tol, 4) == (_radius_sign(r, 3, 4) >= 0)
    calls = []
    monkeypatch.setattr("delone.sets._radius_sign", lambda *a: calls.append(a) or 0)
    for d2 in range(40):
        radius_covers(r, d2, tol, 4)
    assert calls == []  # every int d2 compared with the threshold alone
    radius_covers(r, F(3, 4), tol)  # a Fraction d2 keeps the per-pair test
    assert len(calls) == 1


# -- window translation test ----------------------------------------------------

def reference_fits(handle, t):
    """X + t = X as far as the window can tell, on the window's own points."""
    lo, hi = handle.bounds
    members = set(handle.points)
    checked = False
    for p in handle.points:
        for q in (tuple(a + b for a, b in zip(p, t)), tuple(a - b for a, b in zip(p, t))):
            if all(l + handle.margin <= a <= h - handle.margin for a, l, h in zip(q, lo, hi)):
                if q not in members:
                    return False
                checked = True
    return checked


def fixture_window(t, margin, extent=3):
    """The fixture window shifted by t, trusted region inset by margin, with
    every point closer than margin to the bounds removed: only the margin
    keeps a translation test from tripping over the missing points."""
    base = three_coset_fixture(extent=F(extent))
    lo, hi = (tuple(a + b for a, b in zip(bound, t)) for bound in base.bounds)
    pts = [tuple(a + b for a, b in zip(p, t)) for p in base.points]
    kept = [p for p in pts if all(l + margin <= a <= h - margin
                                  for a, l, h in zip(p, lo, hi))]
    assert len(kept) < len(pts) or not margin
    return build_window(kept, (lo, hi), margin=margin)


WINDOWS = [((F(3, 10), F(7, 10)), F(1, 3)),   # scale 30
           ((F(1, 4), F(-1, 6)), F(2, 7)),    # scale 84
           ((F(0), F(0)), F(1, 3))]           # scale 6


@pytest.mark.parametrize("t, margin", WINDOWS + [((F(1, 4), F(-1, 6)), F(0))])
def test_window_translations_equal_reference(t, margin):
    handle = fixture_window(t, margin)
    scale, _, box = handle._grid()
    # the margin is off the half grid; with margin 0 every point is kept, and
    # a shifted edge point outside the bounds is not a member
    assert scale > 1 and (box[2] * 2 % scale or not margin)
    x0 = handle.points[len(handle.points) // 2]
    ts = [tuple(a - b for a, b in zip(p, x0)) for p in handle.points
          if p != x0 and dist_sq(p, x0) <= 5]
    want = [s for s in ts if reference_fits(handle, s)]
    assert _window_translations(handle, ts) == want
    # the lattice periods pass, half-vectors and mixed offsets do not
    assert (F(1), F(0)) in want and (F(0), F(1)) in want
    assert (F(1, 2), F(0)) in ts and (F(1, 2), F(0)) not in want


@pytest.mark.parametrize("t, margin", WINDOWS)
def test_window_decompose_on_integer_grid(t, margin):
    handle = fixture_window(t, margin)
    dec = antipodal_lattice_decomposition(handle)
    assert dec.n == 3 and dec.window_limited
    assert abs(dec.lattice.det) == 1
    assert all(dec.lattice.contains(v, handle.tol) for v in UNIT)
    # three classes of 2(x - base) mod 2 Z^2, one for every trusted point
    classes = {tuple(c % 2 for c in v) for v in dec.half_vectors}
    assert len(classes) == 3 and (0, 0) in classes
    for p in handle.interior_points(Radical.of(0)):
        assert tuple(2 * (a - b) % 2 for a, b in zip(p, dec.base_point)) in classes


def full_fixture_window(extent):
    base = three_coset_fixture(extent=F(extent))
    return build_window(base.points, base.bounds, margin=0)


def periodic_fixture(basis):
    return build_periodic(basis, _fixture_motif(basis, tuple(0 * c for c in basis[0])))


def coset_points(handle):
    """A window's points, or a motif with two lattice translates of each
    point, so that each coset has several points."""
    if handle.mode == "window":
        return handle.points
    b1, b2 = handle.lattice.reduced
    return [tuple(a + i * x + j * y for a, x, y in zip(m, b1, b2))
            for m in handle.motif for i, j in ((0, 0), (1, -1), (-2, 1))]


TRI = ((F(1), F(0)), (F(1, 2), quadext(0, F(1, 2), 3)))
COSET_CASES = {  # name: (handle, whether the residue keys run)
    **{f"window-{i}": (lambda w=w: fixture_window(*w), True) for i, w in enumerate(WINDOWS)},
    "full-window-4": (lambda: full_fixture_window(4), True),
    "full-window-8": (lambda: full_fixture_window(8), True),
    "periodic-unit": (lambda: periodic_fixture(UNIT), True),
    "periodic-skew": (lambda: periodic_fixture(SKEW), True),
    "periodic-sqrt3": (lambda: periodic_fixture(TRI), False),
    "periodic-float": (lambda: periodic_fixture(((1.0, 0.0), (0.5, 0.75))), False),
}


@pytest.mark.parametrize("name", sorted(COSET_CASES))
def test_coset_reps_equal_pairwise_reference(name):
    # residue keys on an exact integer grid, the pairwise test elsewhere: the
    # same representatives in the same order, for the set's maximal lattice
    # and for sublattices of index 4 and 3 (more cosets, skewed residues)
    build, keyed = COSET_CASES[name]
    handle = build()
    points = coset_points(handle)
    assert (handle._grid() is not None and handle.tol.exact) == keyed
    lam = antipodal_lattice_decomposition(handle).lattice
    (b1, b2) = lam.reduced
    skew = Lattice((tuple(x + y for x, y in zip(b1, b2)), tuple(3 * y for y in b2)))
    for sub in (lam, lam.scaled(2), skew):
        assert criteria._coset_reps(handle, points, sub) == pairwise_coset_reps(
            points, sub, handle.tol)


def test_format_point_writes_file_scalars():
    assert format_point((F(1, 2), quadext(0, F(1, 6), 3))) == "(1/2, 1/6*sqrt(3))"
    assert format_point((F(0), 1)) == "(0, 1)"
    assert format_point((0.5, 0.0)) == "(0.5, 0.0)"
    # a float in an exact point is written as a float, not refused
    assert format_point((F(1, 3), 0.25)) == "(1/3, 0.25)"
