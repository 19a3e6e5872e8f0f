"""The covering radius of exact windows, computed on the integer grid.

An exact window with a scale runs the whole covering loop in grid units:
interior sites and Voronoi vertices are tested against the trusted region
on ints and Fractions, and range queries take a rational radius, so the
only Radical built is R itself.  R and its flag must equal a brute-force
oracle (``oracles.brute_force_window_r2``: every site's cell against every
other point, by vertex enumeration) on random windows with half-integer
points and a sheared lattice in thirds and halves, with and without a
margin; some have no vertex that fits and must raise WindowTooSmallError.
(3-d and 4-d windows are checked against scipy in test_covering_radius.py.)
"""

import random
from fractions import Fraction as F

import pytest
from oracles import brute_force_window_r2

from delone import params, sets
from delone.scalars import Radical
from delone.sets import WindowTooSmallError, build_window, delone_params


def half_integers(rng, side=2, keep=0.6):
    pts = [(F(i, 2), F(j, 2)) for i in range(2 * side + 1) for j in range(2 * side + 1)]
    return [p for p in pts if rng.random() < keep], ((F(0), F(0)), (F(side), F(side)))


def sheared_thirds(rng, side=2, keep=0.7):
    # the lattice spanned by (2/3, 0) and (1/3, 1/2), cut to [0, side]^2
    pts = [(F(2 * i + j, 3), F(j, 2)) for i in range(-side, 2 * side) for j in range(2 * side + 1)]
    pts = [p for p in pts if 0 <= p[0] <= side and rng.random() < keep]
    return pts, ((F(0), F(0)), (F(side), F(side)))


CASES = [(maker, seed, margin)
         for maker, seeds, margins in ((half_integers, range(3), (0, F(1, 4))),
                                       (sheared_thirds, range(2), (0, F(1, 6), F(1, 3))))
         for seed in seeds for margin in margins]


def check(points, bounds, margin):
    handle = build_window(points, bounds, margin=margin)
    want = brute_force_window_r2(handle.points, bounds, margin)
    if want is None:
        with pytest.raises(WindowTooSmallError):
            delone_params(handle)
        return None
    params = delone_params(handle)
    assert params.R == Radical.sqrt(want), (points, margin)
    assert params.R.square_scalar() == want
    assert params.R_exactness == "lower-bound-estimate"
    return want


@pytest.mark.parametrize("maker, seed, margin", CASES,
                         ids=[f"{m.__name__}-{s}-{g}" for m, s, g in CASES])
def test_exact_window_covering_equals_brute_force(maker, seed, margin):
    points, bounds = maker(random.Random(seed))
    check(points, bounds, margin)


def test_grid_covering_builds_no_radical_but_r(monkeypatch):
    points, bounds = half_integers(random.Random(0))
    handle = build_window(points, bounds, margin=F(1, 4))
    sets.min_dist_sq(handle)
    built = []
    init = Radical.__init__
    monkeypatch.setattr(Radical, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(sets.PointSetHandle, "hosts_ball",
                        lambda *a: pytest.fail("hosts_ball on a grid window"))
    big_r, flag = params._covering(handle)
    assert len(built) == 1  # R itself
    assert big_r.square_scalar() == brute_force_window_r2(handle.points, bounds, F(1, 4))

