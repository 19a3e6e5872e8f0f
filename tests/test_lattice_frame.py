"""Lattice frames: int keys for periodic sets with irrational coordinates.

An exact periodic handle with no scale has a lattice frame when its reduced
basis has a rational Gram matrix and its motif points rational lattice
coordinates.  Range queries about a point with a frame key then decide d2
as ints through the frame's form W, and witness synthesis runs on the int
frame keys of its clusters.  On each set below the frame must give what
the field path gives, which a handle without its frame takes for range
queries and a bare ``Cluster(center, radius, points)`` for synthesis: the
same hits in the same order with the same d2, and the same ``(o, perm)``
sequence.  Group orders must match a brute-force oracle on the Cartesian
offsets, and every element yielded must be orthogonal, since the Gram test
alone vouches for that on int keys.
"""

from fractions import Fraction as F

import pytest

from delone.classify import _witness_linear_parts, classify, cluster_group_of
from delone.cli import _rotation_generator
from delone.generators import CrystalSpec, gen_crystal, gen_lattice, honeycomb, triangular_lattice
from delone.geometry import Lattice, Tolerance, p_add, rank
from delone.scalars import Radical, quadext
from delone.sets import Cluster, as_radius, build_periodic, cluster

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


# (name, handle factory, cluster radii)
SETS = [
    ("triangular", triangular_lattice, (F(1), Radical.sqrt(3), F(2))),
    ("honeycomb", honeycomb, (F(1), Radical.sqrt(3), F(2))),
    ("p6", _p6, (F(1, 2), F(1), Radical.sqrt(F(7, 4)))),
    ("rotated-triangular", _rotated_triangular, (F(1), Radical.sqrt(3))),
    ("root2-slab", _root2_slab, (F(1), Radical.sqrt(2), Radical.sqrt(3))),
]
IDS = [s[0] for s in SETS]


def _set(name):
    return next(s for s in SETS if s[0] == name)


def _without_frame(make):
    handle = make()
    handle._cache["frame"] = None
    return handle


def _centers(handle):
    """The motif, a point with a frame key that is no set point (when the
    frame is finer than the lattice), and a point with no frame key."""
    frame = handle._frame()
    step = tuple(x * F(1, frame.s) for x in handle.lattice.reduced[0])
    off = (F(1, 7),) + (F(1, 3),) * (handle.dim - 1)
    return list(handle.motif) + [p_add(handle.motif[0], step), off]


@pytest.mark.parametrize("name", IDS)
def test_the_set_has_a_frame_and_no_scale(name):
    handle = _set(name)[1]()
    frame = handle._frame()
    assert handle._scale() is None and frame is not None
    assert all(frame.key(m) == k for m, k in zip(handle.motif, frame.motif))
    assert _centers(handle)[-1] not in handle.motif and frame.key(_centers(handle)[-1]) is None


@pytest.mark.parametrize("name", IDS)
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


@pytest.mark.parametrize("name", IDS)
def test_frame_synthesis_equals_the_field_path(name):
    _, make, radii = _set(name)
    handle = make()
    for rho in radii:
        clusters = [cluster(handle, m, rho) for m in handle.motif]
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


@pytest.mark.parametrize("name", IDS)
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
    assert gen_lattice(((F(1), F(0)), (F(0), F(1))))._frame() is None  # on the grid
