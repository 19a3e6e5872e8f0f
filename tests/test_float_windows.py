"""Float windows on jittered inputs take the shortcuts exact windows take.

The inputs are a Z^2 window of extent 5 and the RLLRLR shifted rows, each
moved by a rational translation, converted to floats and jittered by at
most 1e-11 per coordinate under eps_abs = 1e-9, as the float files of the
benchmark are.  Translates of a cluster are found within eps_abs by the
tolerance's offset map, in classify and in the covering radius, so:

- the classes equal those of the reference scan, which synthesizes a
  witness for every cluster, at every radius the exact scan is checked at;
- R is sqrt(1/2) (Z^2) and sqrt(13/50) (rows) to within 1e-9;
- the covering radius makes as many range queries and Voronoi cells as on
  the exact window: jitter neither splits the shared cells nor re-queries.
"""

import random
from fractions import Fraction as F

import pytest

from delone import build_window, params, sets, square_lattice
from delone.classify import classify
from delone.geometry import apply
from delone.sets import as_radius, cluster, delone_params

from test_classify_translation import CASES, _rows, reference_classify
from test_float_rows import FLOAT, JITTER, float_rows

RADII = {name: radii for name, _, radii in CASES}
ROWS_CASE = (4, (F(2, 5), F(1, 10)))


def float_z2(seed=3, t=(F(3, 10), F(7, 10))):
    base = square_lattice(extent=F(5))
    rng = random.Random(seed)

    def move(p):
        return tuple(float(c + s) for c, s in zip(p, t))

    points = [tuple(c + rng.uniform(-JITTER, JITTER) for c in move(p))
              for p in base.points]
    lo, hi = (move(b) for b in base.bounds)
    return build_window(points, (lo, hi), margin=float(base.margin), tol=FLOAT)


WINDOWS = {
    "z2_w5": (float_z2, lambda: square_lattice(extent=F(5)), 0.5 ** 0.5),
    "rows": (lambda: float_rows("RLLRLR", *ROWS_CASE), _rows, (13 / 50) ** 0.5),
}
BUILT = {}


def _window(name, which):
    if (name, which) not in BUILT:
        BUILT[name, which] = WINDOWS[name][which]()
    return BUILT[name, which]


@pytest.mark.parametrize("name", WINDOWS)
def test_float_classes_equal_the_reference_scan(name):
    handle = _window(name, 0)
    for rho in RADII[name]:
        radius = as_radius(float(rho), FLOAT)
        part = classify(handle, radius)
        got = [(cl.representative.center, cl.members) for cl in part.classes]
        assert got == [(c, ms) for c, ms, _ in reference_classify(handle, radius)], \
            (name, rho)
        for cl in part.classes:
            for member, w in zip(cl.members, cl.witnesses):
                image = FLOAT.point_set([apply(w, p) for p in cl.representative.points])
                target = cluster(handle, member, radius).points
                assert len(target) == len(cl.representative.points)
                assert all(p in image for p in target), (name, rho, member)


@pytest.mark.parametrize("name", WINDOWS)
def test_float_covering_radius(name):
    big_r = delone_params(_window(name, 0)).R
    assert abs(big_r - WINDOWS[name][2]) <= 1e-9


@pytest.mark.parametrize("name", WINDOWS)
def test_float_covering_counts_equal_the_exact_window(name, monkeypatch):
    counts = {}
    # built before patching: cropping the exact window queries _ball once
    handles = [_window(name, which) for which in (0, 1)]

    def counting(key, f):
        def wrapped(*args):
            counts[key] = counts.get(key, 0) + 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(sets.PointSetHandle, "_ball",
                        counting("ball", sets.PointSetHandle._ball))
    monkeypatch.setattr(params, "_voronoi_cell", counting("cell", params._voronoi_cell))
    per_mode = []
    for handle in handles:
        counts.clear()
        params._covering(handle)
        per_mode.append(dict(counts))
    assert per_mode[0] == per_mode[1], name


def test_float_two_r_chain_equals_the_exact_chain():
    # the float branch of the strict gap test (sets.radius_lt)
    exact = square_lattice(extent=F(4))
    lo, hi = (tuple(map(float, b)) for b in exact.bounds)
    win = build_window([tuple(map(float, p)) for p in exact.points], (lo, hi),
                       margin=float(exact.margin), tol=FLOAT)
    want = sets.two_r_chain(exact, (F(0), F(0)), (F(3), F(2))).vertices
    got = sets.two_r_chain(win, (0.0, 0.0), (3.0, 2.0)).vertices
    assert got == tuple(tuple(map(float, v)) for v in want)
