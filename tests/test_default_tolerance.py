"""One default tolerance: with no ``tol`` given, every entry point lets the
values decide through ``Tolerance.of``.  Exact scalars run exact; floats run
in float mode, with eps_abs = 1e-9 times the packing radius on a built
handle and 1e-9 on a bare cluster or seed.  These defaults set the
``eps_abs`` header of float files the library writes."""

import random
from fractions import Fraction as F

import pytest

from delone import (CrystalSpec, Isometry, Lattice, Tolerance, build_periodic,
                    build_window, cluster, gen_coset_union, gen_crystal,
                    gen_lattice, square_lattice)
from delone import sets
from delone.classify import cluster_group_of, clusters_equivalent
from delone.criteria import reconstruct_from_2R_cluster

EXACT = Tolerance.exact_mode()
MIRROR = Isometry(((1, 0), (0, -1)), (0, 0))


def _jittered_z2_window(extent=4, seed=1):
    """Z^2 on [-extent, extent]^2 as floats, each coordinate moved by under
    1e-11, with an explicit eps_abs of 1e-9."""
    base, rng = square_lattice(extent=F(extent)), random.Random(seed)
    points = [tuple(float(c) + rng.uniform(-1e-11, 1e-11) for c in p) for p in base.points]
    bounds = tuple(tuple(map(float, b)) for b in base.bounds)
    return build_window(points, bounds, tol=Tolerance.floating(1e-9))


def _near(handle, target):
    return min(handle.points, key=lambda p: sum((a - b) ** 2 for a, b in zip(p, target)))


def test_of_reads_the_types_of_the_coordinates():
    assert Tolerance.of([(F(1, 2), 0)]) == EXACT
    assert Tolerance.of([(F(0), F(0)), (1, 2)]) == EXACT
    assert Tolerance.of([(F(0), F(0)), (0.5, F(1))]) == Tolerance.floating(1e-9)
    assert Tolerance.of([(0.0,)]).mode == "float"


def test_float_cluster_group_needs_no_tolerance():
    handle = _jittered_z2_window()
    c = cluster(handle, _near(handle, (0, 0)), 1.5)
    assert c.size == 9
    group = cluster_group_of(c)
    assert group.order == 8
    assert group.tol == Tolerance.floating(1e-9)


def test_float_clusters_are_equivalent_without_a_tolerance():
    handle = _jittered_z2_window()
    c1 = cluster(handle, _near(handle, (0, 0)), 1.5)
    c2 = cluster(handle, _near(handle, (1, -1)), 1.5)
    witness = clusters_equivalent(c1, c2)
    assert witness is not None
    assert all(abs(a - b) <= 1e-9 for a, b in zip(witness(c1.center), c2.center))


def test_float_generators_share_the_scaled_eps():
    # at lattice scale 1e-3 the packing radius is 5e-4, so eps_abs is 5e-13
    lat = Lattice(((1e-3, 0.0), (0.0, 1e-3)))
    want = gen_lattice(lat).tol
    assert want.mode == "float" and want.eps_abs == pytest.approx(5e-13)
    assert build_periodic(lat, [(0.0, 0.0)]).tol == want
    assert gen_coset_union(lat, [(0.0, 0.0)]).tol == want
    assert gen_crystal(CrystalSpec(lat, (MIRROR,), ((0.0, 0.0),))).tol == want
    # two cosets halve the packing radius, in the builder and the generator alike
    union = gen_coset_union(lat, [(0.0, 0.0), (1e-3, 0.0)])
    assert union.tol == build_periodic(lat, [(0.0, 0.0), (5e-4, 0.0)]).tol
    assert union.tol.eps_abs == pytest.approx(2.5e-13)


def test_float_generators_keep_a_given_tolerance():
    lat = Lattice(((1e-3, 0.0), (0.0, 1e-3)))
    tol = Tolerance.floating(1e-10)
    assert gen_coset_union(lat, [(0.0, 0.0)], tol=tol).tol == tol
    assert gen_crystal(CrystalSpec(lat, (MIRROR,), ((0.0, 0.0),)), tol=tol).tol == tol


def test_exact_inputs_run_exact_at_every_entry_point(monkeypatch):
    # exact builders never estimate a packing radius for an eps
    monkeypatch.setattr(sets, "min_dist_sq", lambda h: pytest.fail("min_dist_sq called"))
    z2 = Lattice(((F(1), F(0)), (F(0), F(1))))
    handles = [
        build_periodic(z2, [(F(0), F(0))]),
        build_window([(F(0), F(0)), (F(1), F(0))], ((F(0), F(0)), (F(1), F(1)))),
        gen_lattice(z2),
        gen_lattice(z2, extent=F(3)),
        gen_coset_union(z2, [(F(0), F(0)), (F(1), F(0))]),
        gen_crystal(CrystalSpec(z2, (MIRROR,), ((F(1, 4), F(1, 3)),))),
    ]
    assert all(h.tol == EXACT for h in handles)
    c1 = cluster(handles[0], (F(0), F(0)), 2)
    c2 = cluster(handles[0], (F(3), F(-1)), 2)
    assert cluster_group_of(c1).tol == EXACT
    assert cluster_group_of(c1).order == 8
    witness = clusters_equivalent(c1, c2)
    assert all(isinstance(a, (int, F)) for row in witness.linear for a in row)
    assert witness.shift == (F(3), F(-1))
    seed = cluster(handles[0], (F(0), F(0)), F(3, 2))
    points = reconstruct_from_2R_cluster(seed, 2)
    assert len(points) == 13 and all(isinstance(a, F) for p in points for a in p)


def test_float_seed_reconstructs_in_float_mode():
    handle = _jittered_z2_window()
    seed = cluster(handle, _near(handle, (0, 0)), 1.5)
    points = reconstruct_from_2R_cluster(seed, 2)
    assert len(points) == 13 and all(isinstance(a, float) for p in points for a in p)
