"""Integer-grid paths against brute-force field oracles.

Reconstruction runs its inversion closure on a seed's integer vectors, and
the window translation test of the coset decomposition on a window's
integer points, bounds and margin.  Each answer must equal a computation
kept here that works on the points themselves (Fractions, Q(sqrt 3) or
floats) and decides every radius exactly from its square.  Rational sets
under a float tolerance, and the points that error messages print, are
checked here too.
"""

import math
from fractions import Fraction as F

import pytest

from delone.criteria import (_window_translations, antipodal_lattice_decomposition,
                             reconstruct_from_2R_cluster)
from delone.generators import three_coset_fixture, triangular_lattice
from delone.geometry import Tolerance, dist_sq
from delone.scalars import Radical, format_point, quadext, ssign
from delone.sets import _on_grid, build_periodic, build_window, cluster, delone_params


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
    assert len(kept) < len(pts)
    return build_window(kept, (lo, hi), margin=margin)


WINDOWS = [((F(3, 10), F(7, 10)), F(1, 3)),   # scale 30
           ((F(1, 4), F(-1, 6)), F(2, 7)),    # scale 84
           ((F(0), F(0)), F(1, 3))]           # scale 6


@pytest.mark.parametrize("t, margin", WINDOWS)
def test_window_translations_equal_reference(t, margin):
    handle = fixture_window(t, margin)
    scale, _, box = handle._grid()
    assert scale > 1 and box[2] * 2 % scale  # the margin is off the half grid
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


def test_format_point_writes_file_scalars():
    assert format_point((F(1, 2), quadext(0, F(1, 6), 3)), True) == "(1/2, 1/6*sqrt(3))"
    assert format_point((F(0), 1), True) == "(0, 1)"
    assert format_point((0.5, 0.0), False) == "(0.5, 0.0)"
    # a float in an exact point is written as a float, not refused
    assert format_point((F(1, 3), 0.25), True) == "(1/3, 0.25)"
