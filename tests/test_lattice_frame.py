"""Key frames: one int key path, with the Cartesian grid as the case W = I.

An exact periodic handle with no scale has a lattice frame when its reduced
basis has a rational Gram matrix and its motif points rational lattice
coordinates; a handle with rational coordinates is keyed on its grid.
Range queries about a point with a frame key then decide d2 as ints
through the frame's form W, and witness synthesis runs on the int keys of
its clusters.  On each set below, lattice-frame sets and grid sets (periodic
and a window with a margin) alike, the frame must give what the field path
gives, which a handle without its frame takes for range queries and a bare
``Cluster(center, radius, points)`` for synthesis: the same hits in the
same order with the same d2, the same ``(o, perm)`` sequence and the same
partitions.  Group orders must match a brute-force oracle on the Cartesian
offsets, and every element yielded must be orthogonal, since the Gram test
alone vouches for that on int keys.
"""

import math
from fractions import Fraction as F

import pytest

from delone.classify import _witness_linear_parts, classify, cluster_group_of
from delone.cli import _rotation_generator
from delone.generators import (CrystalSpec, gen_crystal, gen_lattice, honeycomb, square_lattice,
                               three_coset_fixture, triangular_lattice)
from delone.geometry import Lattice, Tolerance, p_add, rank
from delone.scalars import Radical, quadext
from delone.sets import Cluster, as_radius, build_periodic, build_window, cluster

from oracles import brute_force_group_order

TOL = Tolerance.exact_mode()
HALF_ROOT3 = quadext(0, F(1, 2), 3)
TRIANGULAR = ((F(1), F(0)), (F(1, 2), HALF_ROOT3))


def _rotated_triangular():
    """The triangular lattice turned by the rotation (3/5, 4/5): rational
    and sqrt(3) parts mix in both coordinates."""
    c, s = F(3, 5), F(4, 5)
    return gen_lattice(tuple((c * x - s * y, s * x + c * y) for x, y in TRIANGULAR))


def _p6():
    """`delone generate crystal --rotation 6 --motif 1/2,0` on the triangular
    lattice: the orbit of (1/2, 0) under the sixfold rotation (kagome)."""
    spec = CrystalSpec(lattice=Lattice(TRIANGULAR), generators=(_rotation_generator(6, True),),
                       motif=((F(1, 2), F(0)),))
    return gen_crystal(spec)


def _root2_slab():
    return gen_lattice(((F(1), F(0), F(0)), (F(0), F(1), F(0)),
                        (F(0), F(0), quadext(0, F(1), 2))))


def _p4():
    """The p4 orbit of (3/10, 1/10) on Z^2, as `delone generate crystal
    --rotation 4 --motif 3/10,1/10` writes it (a bench input)."""
    return build_periodic(((F(1), F(0)), (F(0), F(1))),
                          [(F(3, 10), F(1, 10)), (F(9, 10), F(3, 10)),
                           (F(7, 10), F(9, 10)), (F(1, 10), F(7, 10))])


def _z3():
    return gen_lattice(tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3)))


def _fixture_window():
    """A crop of the three-coset fixture moved by (1/3, 2/7), margin 1/2."""
    t = (F(1, 3), F(2, 7))
    crop = three_coset_fixture(extent=F(3))
    return build_window([p_add(p, t) for p in crop.points],
                        tuple(p_add(b, t) for b in crop.bounds), margin=F(1, 2))


# (name, handle factory, cluster radii)
SETS = [
    ("triangular", triangular_lattice, (F(1), Radical.sqrt(3), F(2))),
    ("honeycomb", honeycomb, (F(1), Radical.sqrt(3), F(2))),
    ("p6", _p6, (F(1, 2), F(1), Radical.sqrt(F(7, 4)))),
    ("rotated-triangular", _rotated_triangular, (F(1), Radical.sqrt(3))),
    ("root2-slab", _root2_slab, (F(1), Radical.sqrt(2), Radical.sqrt(3))),
]
IDS = [s[0] for s in SETS]
# sets keyed on their grid, W = I
GRID_SETS = [
    ("z2", square_lattice, (F(1), Radical.sqrt(2), F(2))),
    ("p4", _p4, (F(1, 2), F(1), Radical.sqrt(2))),
    ("three-coset", three_coset_fixture, (F(1, 2), Radical.sqrt(F(1, 2)), F(1))),
    ("z3", _z3, (F(1), Radical.sqrt(2))),
    ("fixture-window", _fixture_window, (F(1, 2), F(1))),
]
GRID_IDS = [s[0] for s in GRID_SETS]


def _set(name):
    return next(s for s in SETS + GRID_SETS if s[0] == name)


def _without_frame(make):
    handle = make()
    handle._cache["frame"] = None
    return handle


def _centers(handle):
    """The motif (or some window points), a point with a frame key that is
    no set point (when the frame is finer than the set), and a point with
    no frame key."""
    frame = handle._frame()
    off = (F(1, 13),) + (F(1, 11),) * (handle.dim - 1)
    if handle.mode == "window":
        pts = list(handle.points[::len(handle.points) // 5])
        return pts + [p_add(pts[0], (F(1, frame.s),) * handle.dim), off]
    step = tuple(x * F(1, frame.s) for x in handle.lattice.reduced[0])
    return list(handle.motif) + [p_add(handle.motif[0], step), off]


def _members(handle, rho):
    """Up to four cluster centers: motif points, or window points that host
    the rho-ball."""
    return handle.population(as_radius(rho, TOL))[:4]


@pytest.mark.parametrize("name", IDS)
def test_the_set_has_a_frame_and_no_scale(name):
    handle = _set(name)[1]()
    frame = handle._frame()
    assert not frame.cartesian_keys
    assert all(frame.key(m) == k for m, k in zip(handle.motif, frame.motif))
    assert _centers(handle)[-1] not in handle.motif and frame.key(_centers(handle)[-1]) is None


@pytest.mark.parametrize("name", GRID_IDS)
def test_a_rational_set_is_keyed_on_its_grid(name):
    handle = _set(name)[1]()
    parts = (handle.motif + handle.lattice.reduced if handle.mode == "periodic" else
             handle.points + handle.bounds + ((handle.margin,),))
    frame, scale = handle._frame(), math.lcm(*(F(x).denominator for p in parts for x in p))
    assert frame.cartesian_keys and frame.s == scale and frame.scale2 == scale * scale
    pts = handle.motif if handle.mode == "periodic" else handle.points
    assert all(frame.key(p) == tuple(c * scale for c in p) and frame.point(frame.key(p)) == p
               for p in pts)
    quarter = ((F(0), F(-1)), (F(1), F(0)))
    assert frame.cartesian(quarter) == quarter
    assert frame.key(_centers(handle)[-1]) is None


@pytest.mark.parametrize("name", IDS + GRID_IDS)
def test_frame_range_queries_equal_the_field_path(name):
    _, make, radii = _set(name)
    keyed, field = make(), _without_frame(make)
    for x in _centers(keyed):
        for rho in radii + (F(5, 2),):
            radius = as_radius(rho, TOL)
            scale2, hits = keyed._ball(x, radius)
            one, plain = field._ball(x, radius)
            assert one == 1
            assert [p for _, _, p in hits] == [p for _, _, p in plain]
            assert [keyed._lift(d2, scale2) for d2, _, _ in hits] == [d2 for d2, _, _ in plain]
            assert keyed.points_in_ball(x, rho) == field.points_in_ball(x, rho)
            on_frame = keyed._frame().key(x) is not None
            assert all(isinstance(d2, int) for d2, _, _ in hits) == on_frame or not hits


@pytest.mark.parametrize("name", IDS + GRID_IDS)
def test_frame_synthesis_equals_the_field_path(name):
    _, make, radii = _set(name)
    handle = make()
    for rho in radii:
        clusters = [cluster(handle, m, rho) for m in _members(handle, rho)]
        bare = [Cluster(c.center, c.radius, c.points) for c in clusters]
        assert all(c.frame is not None and c == b for c, b in zip(clusters, bare))
        for (c1, b1) in zip(clusters, bare):
            for (c2, b2) in zip(clusters, bare):
                same = c2 is c1
                keyed = list(_witness_linear_parts(c1, c1 if same else c2, TOL, True))
                plain = list(_witness_linear_parts(b1, b1 if same else b2, TOL, True))
                assert keyed == plain


@pytest.mark.parametrize("name", IDS)
def test_frame_groups_match_brute_force_and_are_orthogonal(name):
    _, make, radii = _set(name)
    handle = make()
    for rho in radii:
        for m in handle.motif:
            c = cluster(handle, m, rho)
            group = cluster_group_of(c, TOL)
            assert all(g.is_orthogonal() for g in group.elements)
            if _full_rank(c):
                assert group.order == brute_force_group_order(c)


def _full_rank(c):
    return rank(list(c.offsets())) == c.dim


@pytest.mark.parametrize("name", IDS + GRID_IDS)
def test_frame_partitions_equal_the_field_path(name):
    _, make, radii = _set(name)
    keyed, field = make(), _without_frame(make)
    for rho in radii:
        a, b = classify(keyed, rho), classify(field, rho)
        assert [(c.members, c.witnesses) for c in a.classes] == \
               [(c.members, c.witnesses) for c in b.classes]


def test_a_short_frame_is_completed_in_the_field():
    # the unit cluster of the slab lies in the plane z = 0
    handle = _root2_slab()
    c = cluster(handle, handle.motif[0], F(1))
    assert len(c.frame[1]) == 4 and not _full_rank(c)
    assert cluster_group_of(c, TOL).order == 16  # D4 in the plane, times the normal's +-1


def test_no_frame_without_a_rational_gram_matrix_or_motif():
    skew = build_periodic(((F(1), F(0)), (F(0), quadext(0, F(1), 2))),
                          [(F(0), F(0)), (F(1, 2), F(1, 3))])
    assert skew._frame() is None  # (1/2, 1/3) has lattice coordinate 1/(3 sqrt 2)
    odd = gen_lattice(((F(1), F(0)), (quadext(0, F(1), 2), F(1))))
    assert odd._frame() is None  # the basis vectors' dot product is irrational
    # on the grid: its frame is the grid, W = I, not a lattice frame
    assert gen_lattice(((F(1), F(0)), (F(0), F(1))))._frame().cartesian_keys
