"""``Cluster.keys``: one offset representation for classification and
antipodality.

A cluster's keys are its offsets from the center in its own units, in
points order, center excluded: int keys on a key frame (a rational grid,
or the lattice frame of a Q(sqrt 3) set), floats on a float window; each
key plus the center's lifts to its point.  ``offsets()`` are the field
offsets.  ``_antipode_violation`` tests the keys and must
agree with a brute-force test of 2x - p on the cluster's points, reporting
the field offset of a point whose inversion is missing.
"""

from fractions import Fraction as F

import pytest

from delone import honeycomb, triangular_lattice
from delone.criteria import _antipode_violation
from delone.geometry import Tolerance, p_add, p_sub
from delone.sets import build_window, cluster

HALF_GRID = [(F(i, 2), F(j, 2)) for i in range(-8, 9) for j in range(-8, 9)]
FLOAT_GRID = [(i / 2, j / 2) for i in range(-8, 9) for j in range(-8, 9)]


def _moved(points, old, new):
    return [new if p == old else p for p in points]


def _rational(points):
    return build_window(points, ((F(-4), F(-4)), (F(4), F(4))))


def _float(points):
    return build_window(points, ((-4.0, -4.0), (4.0, 4.0)), tol=Tolerance.floating())


ORIGIN, FORIGIN = (F(0), F(0)), (0.0, 0.0)
# (name, handle, center, radius, antipodal)
CASES = [
    ("rational", lambda: _rational(HALF_GRID), ORIGIN, 1, True),
    ("rational-moved",
     lambda: _rational(_moved(HALF_GRID, (F(1, 2), F(0)), (F(1, 2), F(1, 3)))),
     ORIGIN, 1, False),
    ("quadratic", triangular_lattice, ORIGIN, 2, True),
    ("quadratic-honeycomb", honeycomb, ORIGIN, 2, False),
    ("float", lambda: _float(FLOAT_GRID), FORIGIN, 1.0, True),
    ("float-moved", lambda: _float(_moved(FLOAT_GRID, (0.5, 0.0), (0.5, 0.3))),
     FORIGIN, 1.0, False),
]


def _case(name):
    _, make, x, rho, antipodal = next(c for c in CASES if c[0] == name)
    handle = make()
    return handle, cluster(handle, x, rho), antipodal


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_keys_are_the_offsets_in_cluster_units(name):
    handle, c, _ = _case(name)
    frame = c.frame[0] if c.frame else None
    assert (frame is not None and frame.cartesian_keys) == name.startswith("rational")
    assert (frame is None) == name.startswith("float")
    field = tuple(p_sub(p, c.center) for p in c.points if p != c.center)
    assert len(c.keys) == c.size - 1
    assert c.offsets() == field
    if frame is None:
        assert c.keys == field
    else:
        assert all(isinstance(a, int) for v in c.keys for a in v)
        kc = frame.key(c.center)
        assert tuple(frame.point(p_add(k, kc)) for k in c.keys) == \
            tuple(p for p in c.points if p != c.center)


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_antipode_violation_matches_point_inversion(name):
    handle, c, antipodal = _case(name)
    tol = handle.tol
    points = tol.point_set(c.points)
    missing = [p for p in c.points
               if p_sub(tuple(2 * a for a in c.center), p) not in points]
    assert (not missing) == antipodal
    bad = _antipode_violation(c, tol)
    if antipodal:
        assert bad is None
        return
    assert bad is not None
    # the field offset of the first point, in points order, without its inversion
    assert bad == p_sub(missing[0], c.center)
    assert p_add(c.center, bad) in points and p_sub(c.center, bad) not in points
