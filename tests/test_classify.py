import math
from fractions import Fraction as F

import pytest

from delone.classify import (ClusterGroup, InfiniteGroupError, classify,
                             cluster_group, cluster_group_of, clusters_equivalent,
                             fingerprint, group_orders_by_class, n_profile)
from delone.geometry import Isometry, Tolerance, apply, compose
from delone.scalars import Radical
from delone.sets import Cluster, build_periodic, build_window, cluster

from oracles import brute_force_group_order, check_matrix_closure, distance_table_fingerprint
from test_classify_translation import _p4

TOL = Tolerance.exact_mode()


def mk_cluster(center, offsets, rho):
    pts = tuple(sorted([center] + [tuple(a + b for a, b in zip(center, o))
                                   for o in offsets]))
    return Cluster(center=center, radius=Radical.of(rho), points=pts)


def test_translates_equivalent(z2):
    c1 = cluster(z2, (F(0), F(0)), 1)
    c2 = cluster(z2, (F(3), F(4)), 1)
    w = clusters_equivalent(c1, c2, TOL)
    assert w is not None
    assert apply(w, c1.center) == c2.center
    assert {apply(w, p) for p in c1.points} == set(c2.points)


def test_same_set_different_centers_not_equivalent():
    # one asymmetric point row seen from two of its points: the underlying
    # sets coincide but no isometry matches both center and cluster
    pts = [(F(0), F(0)), (F(1), F(0)), (F(3), F(0))]
    all_pts = tuple(sorted(pts))
    ca = Cluster(center=(F(0), F(0)), radius=Radical.of(F(10)), points=all_pts)
    cb = Cluster(center=(F(1), F(0)), radius=Radical.of(F(10)), points=all_pts)
    assert clusters_equivalent(ca, cb, TOL) is None


def test_chiral_cluster_mirror_witness():
    chiral = mk_cluster((F(0), F(0)), [(F(1), F(0)), (F(0), F(2)), (F(-3), F(0))], F(4))
    mirror = mk_cluster((F(0), F(0)), [(F(-1), F(0)), (F(0), F(2)), (F(3), F(0))], F(4))
    w = clusters_equivalent(chiral, mirror, TOL)
    assert w is not None and w.det() == -1
    assert cluster_group_of(chiral, TOL).order == 1


def test_radius_mismatch_rejected(z2):
    c1 = cluster(z2, (F(0), F(0)), 1)
    c2 = cluster(z2, (F(0), F(0)), 2)
    with pytest.raises(ValueError):
        clusters_equivalent(c1, c2, TOL)


def test_classify_z2_single_class(z2):
    part = classify(z2, 3)
    assert part.n == 1
    assert part.classes[0].members == ((F(0), F(0)),)


def test_classify_small_rho_all_equivalent(fix3):
    part = classify(fix3, F(1, 5))  # rho < 2r: single-point clusters
    assert part.n == 1
    cl = part.classes[0]
    assert len(cl.members) == 3
    for w, m in zip(cl.witnesses, cl.members):
        assert apply(w, cl.representative.center) == m


def test_classify_fixture_at_2r(fix3):
    part = classify(fix3, 1)  # 2R = 1 for the three-coset fixture
    assert part.n == 2
    assert sorted(len(c.members) for c in part.classes) == [1, 2]


def test_cluster_group_orders(z2):
    g1 = cluster_group(z2, (F(0), F(0)), 1)
    assert g1.order == 8
    g2 = cluster_group(z2, (F(0), F(0)), Radical.sqrt(2))
    assert g2.order == 8
    dets = sorted(float(g.det()) for g in g1.elements)
    assert dets == [-1.0] * 4 + [1.0] * 4


def test_cluster_group_against_bruteforce(z2, tri, fix3):
    # tri: coordinates in Q(sqrt 3); p4: a generic site, whose group is the
    # identity from radius 2 on; fix3: a lattice point and two half points
    p4 = _p4()
    origin, site = (F(0), F(0)), (F(3, 10), F(1, 10))
    for handle, x, rho, expect in (
            (z2, origin, 1, 8), (z2, origin, Radical.sqrt(2), 8),
            (tri, origin, 1, 12), (tri, origin, Radical.sqrt(3), 12),
            (tri, origin, 2, 12),
            (p4, site, F(1, 2), 2), (p4, site, 2, 1),
            (fix3, origin, F(1, 2), 8), (fix3, (F(1, 2), F(0)), 1, 4),
            (fix3, (F(0), F(1, 2)), 2, 4)):
        c = cluster(handle, x, rho)
        g = cluster_group_of(c, TOL)
        assert g.order == expect
        assert brute_force_group_order(c) == expect


def test_group_subgroup_property(z2):
    g_small = cluster_group(z2, (F(0), F(0)), 1)
    g_big = cluster_group(z2, (F(0), F(0)), Radical.sqrt(8))
    assert g_big.is_subgroup_of(g_small)
    assert g_small.order % g_big.order == 0


def test_collinear_cluster_group_is_finite():
    coll = mk_cluster((F(0), F(0)), [(F(1), F(0)), (F(-1), F(0))], F(1))
    assert cluster_group_of(coll, TOL).order == 4


def test_singleton_cluster_group_infinite():
    single = Cluster(center=(F(0), F(0)), radius=Radical.of(F(1, 10)),
                     points=((F(0), F(0)),))
    with pytest.raises(InfiniteGroupError):
        cluster_group_of(single, TOL)


def test_witness_composition_lands_in_group(fix3):
    c1 = cluster(fix3, (F(0), F(1, 2)), 1)
    c2 = cluster(fix3, (F(1, 2), F(0)), 1)
    w12 = clusters_equivalent(c1, c2, TOL)
    w21 = clusters_equivalent(c2, c1, TOL)
    loop = compose(w21, w12)
    assert cluster_group_of(c1, TOL).contains_linear(loop.linear)


def test_group_closure_verified(z2):
    g = cluster_group(z2, (F(0), F(0)), 2)
    check_matrix_closure(g)  # raises on failure
    for el in g.elements:
        assert el.is_orthogonal()
        assert apply(el, (F(0), F(0))) == (F(0), F(0))


@pytest.mark.parametrize("tol", [TOL, Tolerance.floating()], ids=["exact", "float"])
def test_group_closure_rejects_open_sets(tol):
    one, zero = F(1), F(0)
    origin = (zero, zero)

    def linear(*rows):
        return Isometry(tuple(tuple(r) for r in rows), origin)

    eye = linear((one, zero), (zero, one))
    quarter_turn = linear((zero, -one), (one, zero))
    mirror_x = linear((one, zero), (zero, -one))
    mirror_y = linear((-one, zero), (zero, one))
    for elements, missing in (((eye, quarter_turn), "inverse"),
                              ((eye, mirror_x, mirror_y), "composition")):
        group = ClusterGroup(center=origin, rho=Radical.of(1), elements=elements, tol=tol)
        with pytest.raises(AssertionError, match=f"not closed under {missing}"):
            check_matrix_closure(group)


def test_n_profile_z2(z2):
    prof = n_profile(z2, 3)
    assert all(v == 1 for v in prof.values)
    assert [float(b) for b in prof.breakpoints][:3] == [1.0, math.sqrt(2), 2.0]


def test_n_profile_fixture_monotone(fix3):
    prof = n_profile(fix3, 2)
    assert list(prof.values) == sorted(prof.values)
    assert prof.values[-1] >= 2
    assert prof.value_at(Radical.of(F(1, 8))) == 1


def test_group_orders_by_class(z2, fix3):
    part = classify(z2, 1)
    assert group_orders_by_class(part) == [(0, 8)]
    part = classify(fix3, 1)
    orders = dict(group_orders_by_class(part))
    assert sorted(orders.values()) == [4, 8]


def test_periodic_classify_translation_invariant(fix3):
    # relabeling the motif by a lattice translation must not change classes
    other = build_periodic(((F(1), F(0)), (F(0), F(1))),
                           [(F(1), F(1)), (F(3, 2), F(0)), (F(0), F(5, 2))])
    part1 = classify(fix3, 1)
    part2 = classify(other, 1)
    assert part1.n == part2.n
    assert sorted(len(c.members) for c in part1.classes) == \
        sorted(len(c.members) for c in part2.classes)


def test_fingerprint_isometry_invariant(z2):
    c1 = cluster(z2, (F(0), F(0)), 2)
    c2 = cluster(z2, (F(7), F(-3)), 2)
    assert fingerprint(c1) == fingerprint(c2)


def test_fingerprint_equals_the_distance_table(z2, tri):
    # grid clusters (ints over scale**2) and Q(sqrt 3) clusters compare exactly
    exact = [cluster(z2, (F(0), F(0)), r) for r in (0, 1, Radical.sqrt(5), 3)]
    exact += [cluster(tri, tri.motif[0], r) for r in (1, Radical.sqrt(3), 2)]
    window = build_window([(F(i, 2), F(j, 3)) for i in range(-6, 7) for j in range(-6, 7)],
                          ((F(-3), F(-2)), (F(3), F(2))))
    exact.append(cluster(window, (F(1, 2), F(0)), 1))
    for c in exact:
        assert fingerprint(c).data == distance_table_fingerprint(c)
    # float clusters agree up to rounding, entry by entry
    pts = [(i * 0.7 + 1e-12 * j, j * 1.1 - 1e-12 * i) for i in range(-5, 6) for j in range(-5, 6)]
    floats = build_window(pts, ((-3.5, -5.5), (3.5, 5.5)))
    c = cluster(floats, pts[60], 2.5)
    new, old = fingerprint(c).data, distance_table_fingerprint(c)
    assert len(new) == len(old) == c.size
    for (n1, row1), (n2, row2) in zip(new, old):
        assert abs(n1 - n2) <= 1e-12 and len(row1) == len(row2)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(row1, row2))


def test_randomized_equivalence_roundtrip():
    # apply a known exact isometry to a random cluster: a witness must be
    # found and must map the points onto their images; tampering with one
    # point must break equivalence
    import random
    rng = random.Random(99)
    rotations = [((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5))),
                 ((F(5, 13), F(-12, 13)), (F(12, 13), F(5, 13))),
                 ((F(0), F(-1)), (F(1), F(0))),
                 ((F(-1), F(0)), (F(0), F(1)))]
    for trial in range(25):
        k = rng.randint(3, 7)
        offsets = set()
        while len(offsets) < k:
            offsets.add((F(rng.randint(-6, 6), rng.randint(1, 3)),
                         F(rng.randint(-6, 6), rng.randint(1, 3))))
        offsets.discard((F(0), F(0)))
        center = (F(0), F(0))
        pts = tuple(sorted([center] + list(offsets)))
        c1 = Cluster(center=center, radius=Radical.of(F(20)), points=pts)
        lin = rotations[rng.randrange(len(rotations))]
        shift = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
        g = Isometry(lin, shift)
        c2 = Cluster(center=apply(g, center), radius=Radical.of(F(20)),
                     points=tuple(sorted(apply(g, p) for p in pts)))
        w = clusters_equivalent(c1, c2, TOL)
        assert w is not None
        assert apply(w, c1.center) == c2.center
        assert {apply(w, p) for p in c1.points} == set(c2.points)
        # tamper: nudge one non-center point off its orbit
        moved = [p for p in c2.points if p != c2.center]
        bad = list(c2.points)
        bad.remove(moved[0])
        bad.append(tuple(a + F(1, 97) for a in moved[0]))
        c_bad = Cluster(center=c2.center, radius=Radical.of(F(20)),
                        points=tuple(sorted(bad)))
        assert clusters_equivalent(c1, c_bad, TOL) is None


def test_float_mode_classify():
    ftol = Tolerance.floating(1e-9)
    pts = [(float(i), float(j)) for i in range(-5, 6) for j in range(-5, 6)]
    win = build_window(pts, ((-5.0, -5.0), (5.0, 5.0)), tol=ftol)
    part = classify(win, 1.0)
    assert part.n == 1
    g = cluster_group(win, (0.0, 0.0), 1.0)
    assert g.order == 8
    # float witnesses still verify orthogonality to 1e-9
    from delone.geometry import mat_mul, mat_t
    for w in part.classes[0].witnesses:
        q = mat_mul(mat_t(w.linear), w.linear)
        assert max(abs(q[i][j] - (1.0 if i == j else 0.0))
                   for i in range(2) for j in range(2)) <= 1e-9


def test_float_mode_periodic_covering():
    from delone.sets import build_periodic, delone_params
    handle = build_periodic(((1.0, 0.0), (0.0, 1.0)), [(0.0, 0.0), (0.3, 0.0)])
    params = delone_params(handle)
    assert abs(params.r - 0.15) < 1e-9
    assert abs(params.R - math.sqrt(0.49 + 1.0) / 2) < 1e-9
