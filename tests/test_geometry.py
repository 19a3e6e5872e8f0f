import math
import random
from fractions import Fraction as F

import pytest

from delone.geometry import (Isometry, Lattice, Tolerance, apply, compose,
                             dist_sq, identity, lattice_from_generators,
                             mat_det, orthogonal_complement, p_dot,
                             point_inversion, points_equal, translation)
from delone.scalars import quadext

TOL = Tolerance.exact_mode()
ROT90 = Isometry(((F(0), F(-1)), (F(1), F(0))), (F(0), F(0)))


def test_apply_examples():
    assert apply(identity(2), (F(3), F(4))) == (F(3), F(4))
    assert apply(point_inversion((F(0), F(0))), (F(1), F(2))) == (-1, -2)
    assert apply(ROT90, (F(1), F(0))) == (F(0), F(1))
    with pytest.raises(ValueError):
        apply(ROT90, (F(1), F(0), F(0)))


def test_compose_inversions_is_translation():
    sx = point_inversion((F(1), F(0)))
    s0 = point_inversion((F(0), F(0)))
    tr = compose(sx, s0)
    assert tr.linear == identity(2).linear
    assert tr.shift == (F(2), F(0))  # translation by 2(x - x')


def test_compose_inverse_law():
    g = compose(ROT90, translation((F(5), F(-2))))
    assert compose(g, g.inverse()).is_identity(TOL)


def test_two_perpendicular_reflections_give_inversion():
    m1 = Isometry(((F(-1), F(0)), (F(0), F(1))), (F(0), F(0)))
    m2 = Isometry(((F(1), F(0)), (F(0), F(-1))), (F(0), F(0)))
    assert compose(m1, m2).linear == point_inversion((F(0), F(0))).linear


def test_point_inversion_examples():
    assert apply(point_inversion((F(1), F(1))), (F(0), F(0))) == (F(2), F(2))
    rng = random.Random(0)
    for _ in range(20):
        p = (F(rng.randint(-9, 9), rng.randint(1, 5)),
             F(rng.randint(-9, 9), rng.randint(1, 5)))
        s = point_inversion((F(1), F(-2)))
        assert apply(s, apply(s, p)) == p  # involution


def test_points_equal_tolerance_band():
    ftol = Tolerance.floating(1e-9)
    assert points_equal((1.0, 0.0), (1.0, 0.0), ftol)
    assert points_equal((1.0, 0.0), (1.0, 1e-12), ftol)
    assert not points_equal((1.0, 0.0), (1.0, 1e-3), ftol)
    assert points_equal((F(1), F(0)), (F(1), F(0)), TOL)
    assert not points_equal((F(1), F(0)), (F(1), F(1, 10**12)), TOL)


def test_isometry_preserves_distances():
    rng = random.Random(1)
    g = compose(ROT90, translation((F(1, 3), F(7, 2))))
    for _ in range(50):
        p = (F(rng.randint(-50, 50), 7), F(rng.randint(-50, 50), 3))
        q = (F(rng.randint(-50, 50), 7), F(rng.randint(-50, 50), 3))
        assert dist_sq(apply(g, p), apply(g, q)) == dist_sq(p, q)


def test_isometry_preserves_distances_float_mode():
    rng = random.Random(3)
    theta = 0.7
    g = Isometry(((math.cos(theta), -math.sin(theta)),
                  (math.sin(theta), math.cos(theta))), (0.25, -1.5))
    eps = 1e-9
    for _ in range(50):
        p = (rng.uniform(-50, 50), rng.uniform(-50, 50))
        q = (rng.uniform(-50, 50), rng.uniform(-50, 50))
        before = math.sqrt(dist_sq(p, q))
        after = math.sqrt(dist_sq(apply(g, p), apply(g, q)))
        assert abs(after - before) <= 4 * eps * max(1.0, before)


def test_compose_associativity():
    rng = random.Random(2)
    mirror = Isometry(((F(-1), F(0)), (F(0), F(1))), (F(1), F(2)))
    pool = [ROT90, mirror, point_inversion((F(1, 2), F(0))),
            translation((F(3), F(-1)))]
    for _ in range(30):
        g, h, k = rng.choices(pool, k=3)
        lhs = compose(compose(g, h), k)
        rhs = compose(g, compose(h, k))
        assert lhs.linear == rhs.linear and lhs.shift == rhs.shift


def test_orthogonality_and_det():
    assert ROT90.is_orthogonal(TOL) and ROT90.det() == 1
    mirror = Isometry(((F(-1), F(0)), (F(0), F(1))), (F(0), F(0)))
    assert mirror.det() == -1
    shear = Isometry(((F(1), F(1)), (F(0), F(1))), (F(0), F(0)))
    assert not shear.is_orthogonal(TOL)


def test_lattice_membership_and_reduction():
    lat = Lattice(((F(1), F(0)), (F(0), F(1))))
    assert lat.contains((F(3), F(-2)), TOL)
    assert not lat.contains((F(1, 2), F(0)), TOL)
    assert lat.reduce_point((F(7, 2), F(-1, 4))) == (F(1, 2), F(3, 4))
    skew = Lattice(((F(1), F(0)), (F(7), F(1))))
    assert abs(mat_det(skew.reduced)) == 1
    assert max(abs(float(x)) for row in skew.reduced for x in row) <= 1.0


def test_lattice_degenerate_rejected():
    with pytest.raises(ValueError):
        Lattice(((F(1), F(2)), (F(2), F(4))))


def test_quadratic_field_lattice():
    s3 = quadext(0, F(1, 2), 3)
    hexlat = Lattice(((F(1), F(0)), (F(1, 2), s3)))
    assert hexlat.contains((F(3, 2), s3), TOL)
    assert not hexlat.contains((F(1, 2), F(0)), TOL)


def test_lattice_from_generators():
    gen = lattice_from_generators([(F(2), F(0)), (F(0), F(2)), (F(1), F(1))])
    assert gen.contains((F(1), F(1)), TOL)
    assert not gen.contains((F(1), F(0)), TOL)
    assert abs(gen.det) == 2
    finer = lattice_from_generators([(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))])
    assert finer.contains((F(1, 2), F(1, 2)), TOL)
    assert abs(finer.det) == F(1, 2)


def test_orthogonal_complement():
    comp = orthogonal_complement([(F(1), F(2), F(0))], 3)
    assert len(comp) == 2
    assert all(p_dot(v, (F(1), F(2), F(0))) == 0 for v in comp)
    assert p_dot(comp[0], comp[1]) == 0
