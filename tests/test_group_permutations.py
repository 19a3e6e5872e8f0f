"""Witness synthesis on integer offsets and group closure by permutations.

Clusters cut from a rational set carry the set's integer grid, so
synthesis runs on their int keys.  A cluster rebuilt from its points alone
(no scale, no grid) takes the field path on Fraction offsets, and a float
copy the float path.  Every cluster group, in both numeric modes, is
checked closed on its permutations of the offsets (with two normal-line
slots for a cluster one dimension short), by composing reached elements
with greedily picked generators.  The paths must give the same groups and
the same equivalence verdicts, full-rank groups must match a brute-force
oracle that shares no code with synthesis, and the generator closure must
accept exactly the sets a pairwise oracle accepts.
"""

import math
from itertools import compress, product
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone.classify import (_check_closure, _permutation, _witness_linear_parts,
                             cluster_group_of, clusters_equivalent)
from delone.generators import CrystalSpec, gen_crystal
from delone.geometry import Isometry, Lattice, Tolerance, rank
from delone.scalars import Radical, quadext
from delone.sets import Cluster, build_window, cluster, distance_spectrum

from oracles import brute_force_linear_maps, is_permutation_group

TOL = Tolerance.exact_mode()
ORIGIN = (F(0), F(0))
ROT90 = Isometry(((F(0), F(-1)), (F(1), F(0))), ORIGIN)
MIRROR = Isometry(((F(1), F(0)), (F(0), F(-1))), ORIGIN)
LATTICES = (
    (((F(1), F(0)), (F(0), F(1))), (ROT90, MIRROR)),   # Z^2
    (((F(1), F(0)), (F(0), F(3, 2))), (MIRROR,)),       # rectangular
    (((F(1), F(0)), (F(1, 3), F(1))), ()),              # oblique
)


def _on_field_path(c):
    """The same cluster without scale or grid."""
    return Cluster(center=c.center, radius=c.radius, points=c.points)


def _in_floats(c):
    """The same cluster in float coordinates."""
    def f(p):
        return tuple(map(float, p))

    return Cluster(center=f(c.center), radius=float(c.radius),
                   points=tuple(map(f, c.points)))


def _linear_parts(group):
    return frozenset(g.linear for g in group.elements)


def _spans(c):
    return rank(list(c.offsets())) == c.dim


_coord = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def crystals(draw):
    basis, symmetries = draw(st.sampled_from(LATTICES))
    generators = tuple(g for g in symmetries if draw(st.booleans()))
    motif = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=2))
    handle = gen_crystal(CrystalSpec(lattice=Lattice(basis), generators=generators,
                                     motif=tuple(motif)))
    shell = draw(st.integers(min_value=0, max_value=2))
    return handle, shell


@settings(max_examples=30, deadline=None)
@given(crystals())
def test_grid_and_field_paths_agree(case):
    handle, shell = case
    centers = sorted(handle.motif)[:3]
    spectrum = distance_spectrum(handle, centers[0], 2).distances
    rho = spectrum[min(shell, len(spectrum) - 1)]
    grid = [cluster(handle, x, rho) for x in centers]
    assert all(c.grid is not None for c in grid)
    field = [_on_field_path(c) for c in grid]
    for cg, cf in zip(grid, field):
        if len(cg.points) == 1:
            continue  # a lone center has an infinite group in 2-d
        g_grid, g_field = cluster_group_of(cg, TOL), cluster_group_of(cf, TOL)
        assert g_grid.order == g_field.order
        assert _linear_parts(g_grid) == _linear_parts(g_field)
        if _spans(cg):
            offs = list(cf.offsets())
            assert _linear_parts(g_grid) == frozenset(brute_force_linear_maps(offs, offs))
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            on_grid = clusters_equivalent(a, b, TOL)
            on_field = clusters_equivalent(field[i], field[j], TOL)
            mixed = clusters_equivalent(a, field[j], TOL)
            assert (on_grid is None) == (on_field is None) == (mixed is None)


_entry = st.fractions(min_value=-2, max_value=2, max_denominator=5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_entry, _entry), min_size=2, max_size=2),
       st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                min_size=1, max_size=8, unique=True))
def test_integer_bijection_check_matches_field_arithmetic(rows, offs):
    # the lookup holds every image rounded down, so an image M v / q that
    # is not an integer vector must be rejected by divisibility
    o = tuple(rows)
    floors = [tuple(math.floor(sum(x * a for x, a in zip(r, v))) for r in o) for v in offs]
    index = {k: i for i, k in enumerate(dict.fromkeys(floors))}
    assert _permutation(o, offs, index, True) == _permutation(o, offs, index, False)


def _perms(c, tol):
    return [perm for _, perm in _witness_linear_parts(c, c, tol, want_all=True)]


def _assert_closed_but_not_without_any_element(perms):
    _check_closure(perms)
    for k in range(len(perms)):
        with pytest.raises(AssertionError, match="not closed under"):
            _check_closure(perms[:k] + perms[k + 1:])


def test_permutation_closure_rejects_a_dropped_element(z2):
    perms = _perms(cluster(z2, ORIGIN, 2), TOL)
    assert len(perms) == 8
    _assert_closed_but_not_without_any_element(perms)


def test_closure_check_matches_the_pairwise_oracle_on_every_subset(z2):
    perms = _perms(cluster(z2, ORIGIN, 2), TOL)
    accepted = 0
    for keep in product((False, True), repeat=len(perms)):
        subset = list(compress(perms, keep))
        expected = is_permutation_group(subset)
        if expected:
            _check_closure(subset)
            accepted += 1
        else:
            with pytest.raises(AssertionError):
                _check_closure(subset)
    # the subgroups of D4: trivial, five of order 2, three of order 4, D4
    assert accepted == 10


def test_collinear_cluster_has_normal_line_slots():
    # a row of the (1/5) x 1 rectangular lattice: three collinear points
    handle = gen_crystal(CrystalSpec(lattice=Lattice(((F(1, 5), F(0)), (F(0), F(1)))),
                                     generators=(), motif=(ORIGIN,)))
    c = cluster(handle, ORIGIN, F(1, 5))
    assert c.grid is not None and c.size == 3
    perms = _perms(c, TOL)
    # two offsets, then the slots of n and -n on the normal line
    assert sorted(perms) == [(0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2)]
    _assert_closed_but_not_without_any_element(perms)
    assert cluster_group_of(c, TOL).order == 4


def test_collinear_clusters_on_different_lines_lift_to_a_quadratic_field():
    # {0, +-(1, 1)} onto {0, +-(sqrt 2, 0)}: the normal lines' squared
    # lengths differ by 2, so the witness has sqrt(2)/2 entries
    root2 = quadext(0, 1, 2)
    c1, c2 = (Cluster(center=ORIGIN, radius=Radical.sqrt(2), points=tuple(sorted((
        ORIGIN, v, tuple(-a for a in v))))) for v in ((F(1), F(1)), (root2, F(0))))
    w = clusters_equivalent(c1, c2, TOL)
    assert w is not None
    assert {abs(a) for row in w.linear for a in row} == {quadext(0, F(1, 2), 2)}
    assert sorted(w(p) for p in c1.points) == list(c2.points)


def test_float_window_group_closes_on_permutations():
    ftol = Tolerance.floating()
    pts = [(float(i), float(j)) for i in range(-3, 4) for j in range(-3, 4)]
    win = build_window(pts, ((-3.0, -3.0), (3.0, 3.0)), tol=ftol)
    perms = _perms(cluster(win, (0.0, 0.0), 1.5), ftol)
    assert len(perms) == 8
    _assert_closed_but_not_without_any_element(perms)


def test_closure_of_no_elements_raises():
    with pytest.raises(AssertionError):
        _check_closure([])


@settings(max_examples=30, deadline=None)
@given(crystals())
def test_no_permutation_is_yielded_twice(case):
    handle, shell = case
    x = sorted(handle.motif)[0]
    spectrum = distance_spectrum(handle, x, 2).distances
    c = cluster(handle, x, spectrum[min(shell, len(spectrum) - 1)])
    if c.size == 1:
        return  # a lone center has an infinite group in 2-d
    order = cluster_group_of(c, TOL).order
    for cx, tol in ((c, TOL), (_in_floats(c), Tolerance.floating())):
        perms = _perms(cx, tol)
        assert len(set(perms)) == len(perms) == order
