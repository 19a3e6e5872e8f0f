import math
from fractions import Fraction as F

import pytest

from delone.geometry import Tolerance
from delone.scalars import Radical, ssign
from delone.generators import square_lattice, triangular_lattice
from delone.sets import (DistanceSpectrum, TruncationError, as_radius, build_periodic,
                         build_window, cluster, covering_radius,
                         crop_to_window, delone_params, distance_spectrum,
                         packing_radius, two_r_chain)

from oracles import grid_covering_estimate


def test_build_periodic_examples(z2, fix3):
    assert z2.contains((F(3), F(-5)))
    assert not z2.contains((F(1, 2), F(0)))
    assert len(fix3.motif) == 3
    with pytest.raises(ValueError):
        build_periodic(((F(1), F(0)), (F(0), F(1))), [(F(0), F(0)), (F(1), F(0))])
    with pytest.raises(ValueError):
        build_periodic(((F(1), F(0)), (F(2), F(0))), [(F(0), F(0))])
    with pytest.raises(ValueError):
        build_periodic(((F(1), F(0)), (F(0), F(1))), [])


def test_build_window_examples():
    pts = [(F(i), F(j)) for i in range(-10, 11) for j in range(-10, 11)]
    win = build_window(pts, ((F(-10), F(-10)), (F(10), F(10))))
    assert len(win.points) == 441
    with pytest.raises(ValueError):
        build_window([], ((F(0), F(0)), (F(1), F(1))))
    with pytest.raises(ValueError):
        build_window([(F(5), F(0))], ((F(0), F(0)), (F(1), F(1))))
    with pytest.raises(ValueError):
        build_window([(F(0), F(0)), (F(0), F(0))], ((F(-1), F(-1)), (F(1), F(1))))


def test_packing_radius(z2, tri, rect_02_10):
    assert packing_radius(z2) == Radical.of(F(1, 2))
    assert packing_radius(tri) == Radical.of(F(1, 2))
    assert packing_radius(rect_02_10) == Radical.of(F(1, 10))


def test_covering_radius(z2, tri, rect_02_10):
    assert covering_radius(z2) == Radical.sqrt(F(1, 2))
    # rectangular lattice with sides a, b has R = sqrt(a^2 + b^2)/2
    assert covering_radius(rect_02_10) == Radical.sqrt(F(26, 100))
    assert covering_radius(tri) == Radical.sqrt(F(1, 3))
    assert abs(float(covering_radius(tri)) - 1 / math.sqrt(3)) < 1e-12


def test_covering_radius_window_flagged(z2):
    win = crop_to_window(z2, (F(0), F(0)), (F(10), F(10)))
    params = delone_params(win)
    assert params.R_exactness == "lower-bound-estimate"
    assert params.R == Radical.sqrt(F(1, 2))
    est = grid_covering_estimate(win)
    assert est <= float(params.R) + 1e-6


def test_r_le_big_r(z2, tri, fix3, rect_02_10, hc):
    for handle in (z2, tri, fix3, rect_02_10, hc):
        params = delone_params(handle)
        assert float(params.r) <= float(params.R) + 1e-12


def test_cluster_examples(z2):
    origin = (F(0), F(0))
    assert cluster(z2, origin, 1).size == 5
    assert cluster(z2, origin, F(9, 10)).size == 1  # rho < 2r keeps only x
    assert cluster(z2, origin, Radical.sqrt(2)).size == 9  # closed ball
    with pytest.raises(ValueError):
        cluster(z2, (F(1, 2), F(0)), 1)


def test_cluster_window_boundary():
    pts = [(F(i), F(j)) for i in range(5) for j in range(5)]
    win = build_window(pts, ((F(0), F(0)), (F(4), F(4))))
    assert cluster(win, (F(2), F(2)), 1).size == 5
    with pytest.raises(TruncationError):
        cluster(win, (F(0), F(0)), 1)


def test_cluster_nesting_and_covariance(z2):
    c1 = cluster(z2, (F(0), F(0)), 1)
    c2 = cluster(z2, (F(0), F(0)), 2)
    assert set(c1.points) <= set(c2.points)
    shifted = cluster(z2, (F(5), F(3)), 1)
    back = {tuple(a - b for a, b in zip(p, (F(5), F(3)))) for p in shifted.points}
    assert back == set(c1.points)


def test_distance_spectrum_examples(z2, fix3):
    spec = distance_spectrum(z2, (F(0), F(0)), F(21, 10))
    assert [float(d) for d in spec.distances] == [1.0, math.sqrt(2), 2.0]
    assert distance_spectrum(z2, (F(0), F(0)), F(1, 2)).distances == ()
    # the enumerated fixture spectrum: only 1/2 at the origin; the
    # (1/2, sqrt(2)/2) pair shows up at a half-coset point
    sp0 = distance_spectrum(fix3, (F(0), F(0)), F(4, 5))
    assert sp0.distances == (Radical.of(F(1, 2)),)
    sp1 = distance_spectrum(fix3, (F(1, 2), F(0)), F(4, 5))
    assert sp1.distances == (Radical.of(F(1, 2)), Radical.sqrt(F(1, 2)))


def test_distance_spectrum_builds_roots_only_when_read(monkeypatch):
    calls = []
    sqrt = Radical.sqrt
    monkeypatch.setattr(Radical, "sqrt", staticmethod(lambda m: calls.append(m) or sqrt(m)))
    z2 = square_lattice()  # a fresh handle: no cached neighbourhoods or parameters
    spec = distance_spectrum(z2, (F(0), F(0)), 2)
    assert calls == [] and spec.dist_sqs == (1, 2, 4)
    assert spec.distances == (Radical.of(1), sqrt(F(2)), Radical.of(2))
    assert calls == [1, 2, 4]
    assert spec.distances is spec.distances and len(calls) == 3
    floats = DistanceSpectrum((0.0, 0.0), 2.0, (1.0, 2.0))
    assert floats.distances == (1.0, math.sqrt(2.0))


@pytest.mark.parametrize("lattice", [square_lattice, triangular_lattice])
def test_a_periodic_set_hosts_every_ball(lattice):
    handle = lattice()
    for radius in (Radical.of(1), Radical.sqrt(F(7)), Radical.of(F(10) ** 9)):
        assert handle.hosts_ball(handle.motif[0], radius)
        assert handle.hosts_ball((F(1, 3), F(5)), radius)


def test_cluster_growth_only_at_spectrum(z2):
    spec = distance_spectrum(z2, (F(0), F(0)), 3)
    sizes = []
    for d2 in spec.dist_sqs:
        sizes.append(cluster(z2, (F(0), F(0)), Radical.sqrt(d2)).size)
    for i in range(len(spec.dist_sqs) - 1):
        mid = (spec.dist_sqs[i] + spec.dist_sqs[i + 1]) / 2
        # between consecutive spectrum values the cluster is frozen
        assert cluster(z2, (F(0), F(0)), Radical.sqrt(mid)).size == sizes[i]
    assert sizes == sorted(sizes)
    assert len(set(sizes)) == len(sizes)  # every spectrum value adds points


def test_spectrum_first_element_at_least_2r(z2, fix3):
    for handle in (z2, fix3):
        params = delone_params(handle)
        spec = distance_spectrum(handle, handle.motif[0], 3)
        assert spec.distances[0].cmp(params.r * 2) >= 0


def test_two_r_chain_examples(z2, fix3):
    ch = two_r_chain(z2, (F(0), F(0)), (F(3), F(0)))
    assert ch.vertices == ((F(0), F(0)), (F(1), F(0)), (F(2), F(0)), (F(3), F(0)))
    assert two_r_chain(z2, (F(1), F(1)), (F(1), F(1))).vertices == ((F(1), F(1)),)
    ch = two_r_chain(fix3, (F(0), F(0)), (F(2), F(0)))
    bound2 = 4 * delone_params(fix3).R.square_scalar()
    assert all(ssign(bound2 - g) > 0 for g in ch.gaps_sq())
    assert ch.vertices[0] == (F(0), F(0)) and ch.vertices[-1] == (F(2), F(0))


def test_two_r_chain_strict_gaps(z2, tri, fix3):
    for handle in (z2, tri, fix3):
        bound2 = 4 * delone_params(handle).R.square_scalar()
        ch = two_r_chain(handle, handle.motif[0],
                         tuple(a + b for a, b in zip(handle.motif[0],
                                                     handle.lattice.reduced[0])))
        assert all(ssign(bound2 - g) > 0 for g in ch.gaps_sq())


@pytest.mark.parametrize("spacing", [F(1, 100000), 100000])
def test_two_r_chain_scales_with_the_set(spacing):
    # the corridor's pad is relative to its width and the coordinates, not a
    # length, so Z^2 with spacing s has the unit chain times s (an absolute
    # pad of 1e-9 on the squared width more than doubled it at s = 1e-5)
    ends = ((F(-3), F(-3)), (F(3), F(3)))
    unit = two_r_chain(build_periodic(((F(1), F(0)), (F(0), F(1))), [(F(0), F(0))]), *ends)
    scaled = build_periodic(((spacing, F(0)), (F(0), spacing)), [(F(0), F(0))])
    got = two_r_chain(scaled, *(tuple(spacing * c for c in p) for p in ends))
    assert got.vertices == tuple(tuple(spacing * c for c in p) for p in unit.vertices)


def test_two_r_chain_window_truncation():
    # two tight clumps; the window's R estimate cannot bridge the gap
    pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)),
           (F(9), F(0)), (F(10), F(0)), (F(10), F(1))]
    win = build_window(pts, ((F(-1), F(-1)), (F(11), F(2))))
    with pytest.raises(TruncationError):
        two_r_chain(win, (F(0), F(0)), (F(10), F(0)))


def test_margin_insets_trusted_region():
    pts = [(F(i), F(j)) for i in range(5) for j in range(5)]
    plain = build_window(pts, ((F(0), F(0)), (F(4), F(4))))
    inset = build_window(pts, ((F(0), F(0)), (F(4), F(4))), margin=F(1))
    r1 = as_radius(1, plain.tol)
    assert len(plain.interior_points(r1)) == 9
    assert len(inset.interior_points(r1)) == 1
    # a margin off the points' integer grid: 2 - 1/2 >= 3/2 > 1 - 1/2
    half = build_window(pts, ((F(0), F(0)), (F(4), F(4))), margin=F(1, 2))
    assert len(half.interior_points(as_radius(F(3, 2), half.tol))) == 1
    assert len(half.interior_points(as_radius(F(1, 2), half.tol))) == 9


def test_float_default_eps_scales_with_r():
    # eps_abs defaults to 1e-9 * r so the band is scale-invariant
    pts = [(100.0 * i, 100.0 * j) for i in range(4) for j in range(4)]
    win = build_window(pts, ((0.0, 0.0), (300.0, 300.0)))
    assert win.tol.mode == "float"
    assert abs(win.tol.eps_abs - 1e-9 * 50.0) < 1e-18
    tiny = build_window([(0.001 * i, 0.0) for i in range(5)],
                        ((0.0, -0.1), (0.01, 0.1)))
    assert abs(tiny.tol.eps_abs - 1e-9 * 0.0005) < 1e-18


def test_float_mode_window():
    ftol = Tolerance.floating(1e-9)
    pts = [(float(i), float(j)) for i in range(-6, 7) for j in range(-6, 7)]
    win = build_window(pts, ((-6.0, -6.0), (6.0, 6.0)), tol=ftol)
    params = delone_params(win)
    assert abs(params.r - 0.5) < 1e-9
    assert abs(params.R - math.sqrt(0.5)) < 1e-9
    assert cluster(win, (0.0, 0.0), 1.0).size == 5
    assert cluster(win, (0.0, 0.0), math.sqrt(2)).size == 9  # boundary within eps
