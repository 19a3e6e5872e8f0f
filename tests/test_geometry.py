import math
import random
from fractions import Fraction as F

import pytest

from delone.generators import gen_lattice
from delone.geometry import (Isometry, Lattice, Tolerance, apply, compose,
                             dist_sq, identity, lattice_from_generators,
                             mat_det, mat_inv, mat_solve, orthogonal_complement,
                             p_dot, point_inversion, points_equal, rank,
                             translation)
from delone.sets import delone_params
from delone.scalars import quadext
from oracles import cofactor_det, cramer_solve, minor_rank

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
    assert compose(g, g.inverse()) == identity(2)  # records compare linear and shift


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
    assert ROT90.is_orthogonal() and ROT90.det() == 1
    mirror = Isometry(((F(-1), F(0)), (F(0), F(1))), (F(0), F(0)))
    assert mirror.det() == -1
    shear = Isometry(((F(1), F(1)), (F(0), F(1))), (F(0), F(0)))
    assert not shear.is_orthogonal()


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
    with pytest.raises(ValueError):
        Lattice(((1.0, 2.0), (2.0, 4.0 + 1e-12)))
    assert Lattice(((F(1, 10**6), F(0)), (F(0), F(1, 10**6)))).det == F(1, 10**12)


@pytest.mark.parametrize("scale", [3e-5, 1e-5, 1e-7])
def test_a_small_float_lattice_is_not_degenerate(scale):
    # a float det counts as zero only relative to the lengths of the rows
    params = delone_params(gen_lattice(Lattice(((scale, 0.0), (0.0, scale)))))
    assert params.r / scale == 0.5
    assert abs(params.R / scale - math.sqrt(0.5)) <= 1e-9


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


# ---------------------------------------------------------------------------
# the elimination and Gram-Schmidt kernels against cofactor expansion

def _entry(rng, kind):
    a = rng.randint(-3, 3)
    if kind == "int":
        return a
    if kind == "fraction":
        return F(a, rng.randint(1, 4))
    return quadext(F(a, rng.randint(1, 3)), F(rng.randint(-2, 2), rng.randint(1, 3)), 3)


def _vector_sets(seed, square):
    """Seeded random k x d matrices over ints, Fractions and Q(sqrt 3), each
    followed by singular variants: a repeated row, a zero column and a row
    that is the sum of two others."""
    rng = random.Random(seed)
    for kind in ("int", "fraction", "sqrt3"):
        for d in range(1, 5):
            for _ in range(6):
                k = d if square else rng.randint(1, 5)
                m = [[_entry(rng, kind) for _ in range(d)] for _ in range(k)]
                yield m
                if k >= 2:
                    yield [m[1]] + m[1:]
                zero = rng.randrange(d)
                yield [[0 if j == zero else x for j, x in enumerate(r)] for r in m]
                if k >= 3:
                    yield m[:-1] + [[a + b for a, b in zip(m[0], m[1])]]


def _times(a, x):
    return [sum(r[j] * x[j] for j in range(len(x))) for r in a]


def test_mat_det_is_the_cofactor_expansion():
    for m in _vector_sets(11, square=True):
        assert mat_det(m) == cofactor_det(m), m


def test_rank_is_the_largest_nonsingular_minor():
    for vectors in _vector_sets(12, square=False):
        assert rank(vectors) == minor_rank(vectors), vectors
    assert rank([(1e-12, 0.0), (0.0, 1.0)]) == 1  # no pivot that _nonzero rejects


def test_mat_solve_solves_exactly_or_reports_singular():
    rng = random.Random(13)
    for a in _vector_sets(13, square=True):
        rhs = [tuple(_entry(rng, "fraction") for _ in a) for _ in range(2)]
        cols = mat_solve(a, rhs)
        if cofactor_det(a) == 0:
            assert cols is None, a
            continue
        assert len(cols) == 2
        for x, b in zip(cols, rhs):
            assert _times(a, x) == list(b)
            assert x == cramer_solve(a, b)


def test_mat_inv_times_m_is_the_identity():
    for m in _vector_sets(14, square=True):
        inv = mat_inv(m)
        if cofactor_det(m) == 0:
            assert inv is None
            continue
        d = len(m)
        assert [_times(inv, col) for col in zip(*m)] == [
            [int(i == j) for i in range(d)] for j in range(d)]


def test_orthogonal_complement_against_the_rank():
    for vectors in _vector_sets(15, square=False):
        d = len(vectors[0])
        comp = orthogonal_complement(vectors, d)
        assert len(comp) == d - minor_rank(vectors), vectors
        assert all(any(w) for w in comp)
        assert all(p_dot(w, v) == 0 for w in comp for v in vectors)
        assert all(p_dot(u, w) == 0 for i, u in enumerate(comp) for w in comp[:i])
