"""Witness synthesis on integer offsets and group closure by permutations.

Clusters cut from a rational set carry the set's integer grid, so
synthesis runs on int offsets and a group whose offsets span R^d is checked
closed on its permutations of them.  A cluster rebuilt from its points
alone (no scale, no grid) takes the field path: Fraction offsets and the
matrix closure.  Both paths must give the same groups and the same
equivalence verdicts, and full-rank groups must match a brute-force
oracle that shares no code with synthesis.
"""

import importlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone.classify import (_check_permutation_closure, _permutation,
                             _witness_linear_parts, cluster_group_of,
                             clusters_equivalent)
from delone.generators import CrystalSpec, gen_crystal
from delone.geometry import Isometry, Lattice, Tolerance, rank
from delone.sets import Cluster, cluster, distance_spectrum

from oracles import brute_force_linear_maps

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


def test_permutation_closure_rejects_a_dropped_element(z2):
    c = cluster(z2, ORIGIN, 2)
    pairs = list(_witness_linear_parts(c, c, TOL, want_all=True))
    perms = [perm for _, perm in pairs]
    assert len(perms) == 8 and None not in perms
    _check_permutation_closure(perms)
    for k in range(len(perms)):
        with pytest.raises(AssertionError, match="not closed under"):
            _check_permutation_closure(perms[:k] + perms[k + 1:])


def test_collinear_cluster_uses_the_matrix_closure(monkeypatch):
    # a row of the (1/5) x 1 rectangular lattice: three collinear points
    handle = gen_crystal(CrystalSpec(lattice=Lattice(((F(1, 5), F(0)), (F(0), F(1)))),
                                     generators=(), motif=(ORIGIN,)))
    c = cluster(handle, ORIGIN, F(1, 5))
    assert c.grid is not None and c.size == 3
    pairs = list(_witness_linear_parts(c, c, TOL, want_all=True))
    assert len(pairs) == 4 and all(perm is None for _, perm in pairs)

    def no_permutations(perms):
        raise AssertionError("a rank-deficient group reached the permutation closure")

    # the package rebinds the name ``delone.classify`` to the function
    monkeypatch.setattr(importlib.import_module("delone.classify"),
                        "_check_permutation_closure", no_permutations)
    assert cluster_group_of(c, TOL).order == 4
