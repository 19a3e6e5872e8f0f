"""The covering radius of exact windows, computed on the integer grid.

An exact window with a scale runs the whole covering loop in grid units:
interior sites and Voronoi vertices are tested against the trusted region
on ints and Fractions, and range queries take a rational radius, so the
only Radical built is R itself.  R and its flag must equal a brute-force
oracle (``oracles.brute_force_window_r2``: every site's cell against every
other point, by vertex enumeration) on random windows with half-integer
points and a sheared lattice in thirds and halves, with and without a
margin; some have no vertex that fits and must raise WindowTooSmallError.
Thin and anisotropic windows, where most cells touch the box, are checked
the same way: 1/5 x 1 rows, shifted rows, and windows of extent 1.

Sites share cells, box-touching ones too, so every case also checks the
cell each site ends with against the cell clipped afresh from all of the
site's offsets and its own box.  (3-d and 4-d windows are checked against
scipy in test_covering_radius.py.)
"""

import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from oracles import brute_force_window_r2
from test_float_rows import float_rows

from delone import (ShiftSequence, ShiftedRowSpec, gen_shifted_rows, params, sets,
                    square_lattice, three_coset_fixture)
from delone.geometry import Tolerance
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


def final_cells(handle):
    """(box, cell) of each site, in order: the last cell the covering took
    for it, shared or clipped."""
    seen = []

    def recording(f, at):
        def wrapped(*args):
            cell = f(*args)
            if cell is not None:
                if seen and seen[-1][0] == args[at]:
                    seen.pop()
                seen.append((args[at], cell))
            return cell
        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(params, "_known_cell", recording(params._known_cell, 4))
        patch.setattr(params, "_new_cell", recording(params._new_cell, 3))
        try:
            params._covering(handle)
        except WindowTooSmallError:
            pass
    return seen


def check_cells(handle):
    # box = trusted region - site, in grid units, so the site is lo + margin - box lo
    frame = handle._frame()
    keys, (lo, hi, margin) = frame.keys, frame.box
    cells = final_cells(handle)
    assert len(cells) == sum(sets._inset(k, lo, hi, margin) >= 0 for k in keys)
    for box, cell in cells:
        site = tuple(a + margin - b for a, b in zip(lo, box[0]))
        offsets = [tuple(a - b for a, b in zip(k, site)) for k in keys if k != site]
        top, verts, faces = params._voronoi_cell(box, offsets, Tolerance.exact_mode())
        assert {(c, on) for _, c, on in cell[1]} == {(c, on) for _, c, on in verts}, site
        assert (cell[0], cell[2]) == (top, faces), site


def check(points, bounds, margin):
    handle = build_window(points, bounds, margin=margin)
    check_cells(handle)
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


def rows(rng, fifths=7, height=3, keep=1.0):
    # the points (i/5, j) of [0, fifths/5] x [0, height]
    pts = [(F(i, 5), F(j)) for i in range(fifths + 1) for j in range(height + 1)]
    return [p for p in pts if rng.random() < keep], ((F(0), F(0)), (F(fifths, 5), F(height)))


def shifted_rows(rng, letters="R", extent=F(3, 5)):
    handle = gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse(letters),
                                             extent=extent))
    return handle.points, handle.bounds


def corner(rng, make=square_lattice, extent=F(1)):
    handle = make(extent=extent)
    return handle.points, handle.bounds


def holed(rng, maker, hole):
    # maker's window less the points for which hole is true
    points, bounds = maker(rng)
    return [p for p in points if not hole(p)], bounds


THIN = [  # (name, maker, seed, margin): most sites' cells touch the box
    ("rows-margin", rows, 0, F(1, 20)),
    ("thinned-rows-margin", lambda rng: rows(rng, keep=0.7), 2, F(1, 10)),
    ("shifted-rows", shifted_rows, 0, 0),
    ("shifted-rows-margin", shifted_rows, 0, F(1, 10)),
    ("z2-extent-1", corner, 0, 0),
    ("fixture-extent-1", lambda rng: corner(rng, three_coset_fixture), 0, 0),
    ("fixture-extent-1-margin", lambda rng: corner(rng, three_coset_fixture), 0, F(1, 4)),
    # the trusted region's faces cut the cells next to them, while the
    # margin keeps those sites' neighbours as an inner site's
    ("z2-extent-2-margin", lambda rng: corner(rng, extent=F(2)), 0, F(3, 4)),
    # holes: the sites beside one need more than the sweep, sized by the
    # first two sites, reaches, so they query _ball
    ("rows-hole", lambda rng: holed(rng, lambda rng: rows(rng, height=2),
                                    lambda p: p[1] == 1 and 3 <= 5 * p[0] <= 5), 0, 0),
    ("fixture-extent-1-hole", lambda rng: holed(rng, lambda rng: corner(rng, three_coset_fixture),
                                                lambda p: p[0] ** 2 + p[1] ** 2 < 1), 0, 0),
]


@pytest.mark.parametrize("maker, seed, margin", [c[1:] for c in THIN], ids=[c[0] for c in THIN])
def test_thin_window_covering_equals_brute_force(maker, seed, margin):
    points, bounds = maker(random.Random(seed))
    check(points, bounds, margin)


@pytest.mark.parametrize("name", ["rows-hole", "fixture-extent-1-hole"])
def test_sites_past_the_sweep_query_ball(name, monkeypatch):
    # the windows above run the _ball fallback against the oracle: one
    # sweep, then queries past its reach
    _, maker, seed, margin = next(c for c in THIN if c[0] == name)
    handle = build_window(*maker(random.Random(seed)), margin=margin)
    sets.min_dist_sq(handle)
    calls = []

    def logged(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)
        return wrapped

    monkeypatch.setattr(params, "_sweep", logged("sweep", params._sweep))
    monkeypatch.setattr(sets.PointSetHandle, "_ball", logged("ball", sets.PointSetHandle._ball))
    params._covering(handle)
    assert calls.count("sweep") == 1
    assert calls[calls.index("sweep") + 1:].count("ball") >= 5


def test_box_touching_cells_are_shared():
    # rows of 26 points: away from the ends, sites of a row share one cell
    # though every cell touches the box
    handle = build_window(*rows(random.Random(0), fifths=25, height=1))
    check_cells(handle)
    cells = final_cells(handle)
    assert all(cell[2] for _, cell in cells)
    assert len({id(cell) for _, cell in cells}) < len(cells) // 2


def test_a_stored_cell_needs_the_neighbours_within_its_need():
    # a strip cut by the box: no neighbour listed up to half its need may
    # stand for one that cuts it further out, so the list must reach the need
    box, offsets, d2s = ((-4, -4), (4, 4)), ((1, 0), (-1, 0)), [1, 1]
    cells = {}
    cell = params._new_cell(cells, d2s, offsets, box, Tolerance.exact_mode(), 0, 1)
    assert cell[2] == {2, 3}  # touched: the y faces only
    need2 = cell[3] ** 2
    assert params._known_cell(cells, d2s, offsets, need2, box) is cell
    assert params._known_cell(cells, d2s, offsets, need2 / 2, box) is None
    # the clip itself is known from the offsets it was clipped from
    assert params._known_cell(cells, d2s, offsets, math.inf, box) is cell
    # a box that moves a touched face, or cuts into the cell, takes none
    assert params._known_cell(cells, d2s, offsets, math.inf, ((-4, -3), (4, 4))) is None
    assert params._known_cell(cells, d2s, offsets, math.inf, ((-4, -4), (F(1, 4), 4))) is None


@pytest.mark.parametrize("numeric", ["exact", "float"])
def test_swept_neighbours_cut_at_a_radius_are_the_ball(numeric):
    # the sweep lists each point's neighbours in the order the covering
    # sorts _ball's hits, so a query is a prefix: ties at the radius and
    # float jitter included (RLLRLR rows, exact and jittered floats)
    handle = (gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse("RLLRLR"),
                                              extent=F(9, 4)))
              if numeric == "exact" else float_rows("RLLRLR", 4, (F(2, 5), F(1, 10))))
    frame = handle._frame()
    keys = frame.keys if numeric == "exact" else handle.points
    near = params._sweep(handle, keys, 1.2)
    count = 0
    for radius in (F(1, 5), F(2, 5), F(1), F(6, 5)):  # the first three are distances
        if numeric == "exact":
            radius, t = radius, radius ** 2 * frame.scale2
            t = t.numerator // t.denominator
        else:
            radius = float(radius)
            t = radius + handle.tol.eps_abs
        for p, key, (d2s, js) in zip(handle.points, keys, near):
            hits = sorted(handle._ball(p, radius)[1], key=lambda h: float(h[0]))
            want = [(d2, k) for d2, k, _ in hits if k != key]
            m = bisect_right(d2s, t) if numeric == "exact" else bisect_right(d2s, t, key=math.sqrt)
            assert list(zip(d2s[:m], [keys[j] for j in js[:m]])) == want, (numeric, radius, p)
            count += len(want)
    assert count > 10 * len(keys)


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

