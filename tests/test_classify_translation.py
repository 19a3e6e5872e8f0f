"""classify decides most clusters by their translation key, the offsets from
their center, and buckets the rest by their radial key, the sorted squared
distances from the center.  Both are shortcuts, so they are checked two
ways:

- against a reference scan, written here, that synthesizes a witness from
  every representative to every cluster until one exists (the loop classify
  runs without its keys), class by class and member by member, witnesses
  included; no fingerprint prefilter, whose sorted float entries pair by
  noise on jittered inputs and reject equivalent clusters;
- against an oracle that shares none of classify's code: each cluster is
  cut by a brute-force exact scan of the set, and every witness must map
  the representative's cluster onto the member's.
"""

from fractions import Fraction as F

import pytest

from delone import (ShiftSequence, ShiftedRowSpec, gen_shifted_rows,
                    square_lattice, three_coset_fixture, triangular_lattice)
from delone.classify import classify, clusters_equivalent
from delone.generators import CrystalSpec, gen_crystal
from delone.geometry import (Isometry, Lattice, Tolerance, apply, dist_sq,
                             identity)
from delone.scalars import Radical
from delone.sets import as_radius, build_window, cluster

from test_tolerance import _float_copy

Z2 = Lattice(((F(1), F(0)), (F(0), F(1))))
ROT90 = Isometry(((F(0), F(-1)), (F(1), F(0))), (F(0), F(0)))
ROWS_2R = 2 * Radical.sqrt(F(13, 50))


def _rows():
    return gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse("RLLRLR"),
                                           extent=F(9, 4)))


def _p4():
    return gen_crystal(CrystalSpec(lattice=Z2, generators=(ROT90,),
                                   motif=((F(3, 10), F(1, 10)),)))


def _bent():
    # at radius sqrt(1/5) the cluster at the origin is a straight triple and
    # the one at (2/5, 1/5) a right angle: equal radial keys, not equivalent
    return gen_crystal(CrystalSpec(lattice=Z2, generators=(), motif=(
        (F(0), F(0)), (F(2, 5), F(1, 5)), (F(3, 5), F(4, 5)))))


# (name, handle builder, radii); the radii include the rho0 and rho0 + 2R
# of each set's regular certify (of its crystal certify for bent, whose
# first radius is the one where two classes share a radial key)
CASES = (
    ("z2_w5", lambda: square_lattice(extent=F(5)), (F(1), 1 + Radical.sqrt(2))),
    ("rows", _rows, (F(1, 5), F(9, 4) - ROWS_2R, F(9, 4))),
    ("tri_w3", lambda: triangular_lattice(extent=F(3)),
     (F(1), 1 + 2 * Radical.sqrt(F(1, 3)))),
    ("fix3_w3", lambda: three_coset_fixture(extent=F(3)), (F(1, 2), F(3, 2))),
    ("z2", square_lattice, (F(1), F(3))),
    ("p4", _p4, (F(1, 2), F(2))),
    ("fix3", three_coset_fixture, (F(1, 2), F(2))),
    ("bent", _bent, (Radical.sqrt(F(1, 5)), Radical.sqrt(F(2, 5)),
                      1 + Radical.sqrt(F(2, 5)))),
)
HANDLES = {}


def _handle(name, build):
    if name not in HANDLES:
        HANDLES[name] = build()
    return HANDLES[name]


def reference_classify(handle, rho):
    """[(representative center, members, witnesses)] by a plain scan."""
    tol = handle.tol
    radius = as_radius(rho, tol)
    reps = []   # (cluster, members, witnesses)
    for x in sorted(handle.population(radius)):
        cx = cluster(handle, x, radius)
        for rc, members, witnesses in reps:
            w = clusters_equivalent(rc, cx, tol)
            if w is not None:
                members.append(x)
                witnesses.append(w)
                break
        else:
            reps.append((cx, [x], [identity(handle.dim)]))
    return [(rc.center, tuple(ms), tuple(ws)) for rc, ms, ws in reps]


@pytest.mark.parametrize("name, build, radii", CASES, ids=[c[0] for c in CASES])
def test_classify_equals_reference_scan(name, build, radii):
    handle = _handle(name, build)
    for rho in radii:
        part = classify(handle, rho)
        got = [(cl.representative.center, cl.members, cl.witnesses)
               for cl in part.classes]
        assert got == reference_classify(handle, rho), (name, rho)


@pytest.mark.parametrize("name, rho", [("bent", Radical.sqrt(F(1, 5))), ("rows", F(9, 4))])
def test_inequivalent_classes_share_a_radial_key(name, rho):
    # classify buckets by the sorted squared distances from the center, so
    # on these sets a bucket holds two classes and synthesis must split them
    build = next(c[1] for c in CASES if c[0] == name)
    handle = _handle(name, build)
    radius = as_radius(rho, handle.tol)
    keys = [tuple(sorted(dist_sq(p, cl.representative.center)
                         for p in _brute_ball(handle, cl.representative.center, radius)))
            for cl in classify(handle, radius).classes]
    assert len(set(keys)) < len(keys)


def test_float_classify_equals_reference_scan():
    floating = _float_copy(square_lattice(extent=F(3)))
    for rho in (1.0, 1 + 2 ** 0.5):
        got = [(cl.representative.center, cl.members, cl.witnesses)
               for cl in classify(floating, rho).classes]
        assert got == reference_classify(floating, rho)


def _brute_ball(handle, x, radius):
    """Set points within radius of x: every point of the window, or of a
    box around x for a periodic set, that is near in floats (a wide margin)
    and then within radius by the exact radical comparison."""
    if handle.mode == "window":
        pts = handle.points
    else:
        reach = F(int(float(radius)) + 2)
        pts = handle.points_in_box(tuple(c - reach for c in x),
                                   tuple(c + reach for c in x))
    near = (float(radius) + 1e-6) ** 2
    return {p for p in pts if sum((float(a) - float(b)) ** 2 for a, b in zip(p, x)) <= near
            and radius.cmp_sqrt(dist_sq(p, x)) >= 0}


@pytest.mark.parametrize("name, build, radii", CASES, ids=[c[0] for c in CASES])
def test_witnesses_map_clusters_onto_members(name, build, radii):
    handle = _handle(name, build)
    for rho in radii:
        radius = as_radius(rho, handle.tol)
        part = classify(handle, radius)
        assert sum(len(cl.members) for cl in part.classes) == \
            len(handle.population(radius))
        for cl in part.classes:
            rep = cl.representative.center
            rep_ball = _brute_ball(handle, rep, radius)
            assert rep_ball == set(cl.representative.points)
            for member, w in zip(cl.members, cl.witnesses):
                assert apply(w, rep) == member
                assert {apply(w, p) for p in rep_ball} == \
                    _brute_ball(handle, member, radius), (name, rho, member)


def test_integer_data_in_different_units_compare_exactly():
    # one Z^2 patch cut from a window on the integers (scale 1) and from
    # the same window shifted by 1/3 (scale 3): witness synthesis must
    # compare their integer data as field scalars
    exact = Tolerance.exact_mode()
    z2 = square_lattice(extent=F(3))
    t = F(1, 3)
    shifted = build_window([(x + t, y) for x, y in z2.points],
                           ((t - 3, F(-3)), (t + 3, F(3))))
    ca = cluster(z2, (F(0), F(0)), 2)
    cb = cluster(shifted, (t, F(0)), 2)
    assert (ca.scale, cb.scale) == (1, 3)
    w = clusters_equivalent(ca, cb, exact)
    assert w is not None and {apply(w, p) for p in ca.points} == set(cb.points)
    # the patch with one point moved by half a unit (scale 2) matches neither
    moved = build_window([(F(1), F(1, 2)) if p == (1, 0) else p for p in z2.points],
                         z2.bounds)
    cm = cluster(moved, (F(0), F(0)), 2)
    assert cm.scale == 2 and cm.size == cb.size
    assert clusters_equivalent(cm, cb, exact) is None
