"""Box queries and the periodic closest pair against brute force.

``points_in_box`` keeps the hits of one ball query about the box's center
that lie in the box, in both handle modes, and the periodic closest pair
is the least distance among ball hits about each motif point.  Answers
must equal:

- ``oracles.brute_force_points_in_box`` (a walk over the lattice
  coefficients the box's corners span) on Z^2, p4, the three-coset
  fixture, Z^3, the triangular lattice and the honeycomb (Q(sqrt 3), no
  integer grid) and a float lattice under eps_abs = 0.05, with a point just
  outside a corner and boxes whose centers are off the grid;
- a linear scan of the window's points on windows;
- ``oracles.brute_force_min_dist_sq`` for the closest pair.
"""

import random
from fractions import Fraction as F

import pytest

from delone import (build_periodic, build_window, honeycomb, params, sets, square_lattice,
                    three_coset_fixture, triangular_lattice)
from delone.geometry import Tolerance, dist_sq
from delone.scalars import Radical, quadext
from delone.sets import _in_box

from oracles import brute_force_min_dist_sq, brute_force_points_in_box
from test_classify_translation import _p4, _rows

LOOSE = Tolerance.floating(0.05)
S3 = quadext(0, F(1), 3)


def _float_lattice():
    return build_periodic(((1.0, 0.0), (0.25, 1.125)), [(0.0, 0.0), (0.5, 0.375)], tol=LOOSE)


PERIODIC = {
    "z2": square_lattice,
    "p4": _p4,
    "fixture": three_coset_fixture,
    "z3": lambda: build_periodic([[F(int(i == j)) for j in range(3)] for i in range(3)],
                                 [(F(0), F(0), F(0))]),
    "triangular": triangular_lattice,
    "honeycomb": honeycomb,
    "float": _float_lattice,
}
WINDOWS = {
    "z2_w5": lambda: square_lattice(extent=F(5)),
    "rows": _rows,
    "float_w4": lambda: build_window(
        [(0.5 * i + 0.01 * (j % 3), 0.5 * j) for i in range(-8, 9) for j in range(-8, 9)],
        ((-4.0, -4.0), (4.5, 4.0)), tol=LOOSE),
}


def _boxes(dim, seed, field=()):
    """Boxes with rational corners of denominators 1 to 7 (most centers are
    off any grid) and widths 0 to 4; with ``field``, also boxes about
    those points of a field."""
    rng = random.Random(seed)
    out = []
    for _ in range(12):
        lo = tuple(F(rng.randint(-21, 14), rng.randint(1, 7)) for _ in range(dim))
        out.append((lo, tuple(a + F(rng.randint(0, 28), 7) for a in lo)))
    for x in field:
        h = F(rng.randint(1, 9), 4)
        out.append((tuple(a - h for a in x), tuple(a + h for a in x)))
    return out


def _same_points(got, want, tol):
    got, want = (sorted(ps, key=lambda p: tuple(map(float, p))) for ps in (got, want))
    assert len(got) == len(want)
    assert all(tol.same_point(p, q) for p, q in zip(got, want))


@pytest.mark.parametrize("name", PERIODIC)
def test_periodic_box_equals_the_box_walk(name):
    handle = PERIODIC[name]()
    field = [(F(1, 2), S3 / 2), (F(3, 2), -S3 / 2)] if name in ("triangular", "honeycomb") else ()
    for lo, hi in _boxes(handle.dim, 7, field):
        _same_points(handle.points_in_box(lo, hi), brute_force_points_in_box(handle, lo, hi),
                     handle.tol)


@pytest.mark.parametrize("name", WINDOWS)
def test_window_box_equals_a_linear_scan(name):
    handle = WINDOWS[name]()
    for lo, hi in _boxes(handle.dim, 11):
        assert handle.points_in_box(lo, hi) == [
            p for p in handle.points if _in_box(p, lo, hi, handle.tol)]


def test_boxes_hold_their_corners_and_points_within_eps_of_them():
    # the corners are set points at the box's half-diagonal
    z2 = square_lattice()
    lo, hi = (F(-2), F(-1)), (F(3), F(1))
    assert {lo, hi, (F(-2), F(1)), (F(3), F(-1))} <= set(z2.points_in_box(lo, hi))
    # under eps_abs = 0.05 the box keeps a point 0.049 outside two faces:
    # farther from the center than the corner, by more than eps_abs
    handle = _float_lattice()
    for box in (((0.049, 0.049), (2.951, 2.251)), ((-2.951, -2.251), (-0.049, -0.049))):
        assert (0.0, 0.0) in handle.points_in_box(*box)
        _same_points(handle.points_in_box(*box), brute_force_points_in_box(handle, *box), LOOSE)
    window = WINDOWS["float_w4"]()
    assert (0.0, 0.0) in window.points_in_box((0.049, 0.049), (2.951, 2.251))


def test_triangular_crop_at_extent_6_has_163_points():
    # rows b = -6..6: 13 points on each of the 7 even rows, 12 on the 6 odd ones
    assert len(triangular_lattice(extent=F(6)).points) == 7 * 13 + 6 * 12 == 163


@pytest.mark.parametrize("name", PERIODIC)
def test_periodic_closest_pair_equals_brute_force_pairs(name):
    handle = PERIODIC[name]()
    got, want = params._min_dist_sq(handle), brute_force_min_dist_sq(handle)
    if handle.tol.exact:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12


def test_periodic_grid_queries_decide_by_the_threshold(monkeypatch):
    fixture, x = three_coset_fixture(), (F(1, 2), F(0))
    box = brute_force_points_in_box(fixture, (F(-3), F(-3)), (F(4), F(3)))
    want = {r2: sorted(p for p in box if dist_sq(p, x) <= r2) for r2 in (F(9, 4), 5)}
    monkeypatch.setattr(sets, "radius_covers", None)  # a grid query never calls it
    assert sorted(p for _, p in fixture.points_in_ball(x, F(3, 2))) == want[F(9, 4)]
    assert sorted(p for _, p in fixture.points_in_ball(x, Radical.sqrt(5))) == want[5]
