"""Covering radius R from Voronoi cells, against independent oracles.

* hand-derived values of periodic sets;
* one-dimensional sets, where R is half the largest gap;
* single Voronoi cells against brute-force vertex enumeration
  (``oracles.brute_force_voronoi_vertices``) on int, half-integer, Q(sqrt 3)
  and float boxes and offsets;
* scipy's Delaunay triangulation (a test-only dependency) on random rational
  lattices, motifs and windows: every circumcenter it proposes is re-solved
  exactly and kept only if its circumball is empty, so R^2 is the largest
  kept squared circumradius;
* the CLI running with scipy and numpy made unimportable.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_voronoi_vertices
from scipy.spatial import Delaunay, QhullError

from delone import (build_periodic, build_window, honeycomb, params, sets, square_lattice,
                    three_coset_fixture, triangular_lattice)
from delone.geometry import Tolerance, mat_solve
from delone.scalars import Radical, quadext, ssign
from delone.params import _voronoi_cell
from delone.sets import WindowTooSmallError, delone_params

Z3 = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
O3 = (F(0), F(0), F(0))


def unit_basis(d):
    return tuple(tuple(F(int(i == j)) for j in range(d)) for i in range(d))


def d_n_basis(d):
    """D_n, the integer vectors with even sum: its simple roots e_i - e_(i+1)
    and e_(n-1) + e_n."""
    e = unit_basis(d)
    return tuple(tuple(a - b for a, b in zip(e[i], e[i + 1])) for i in range(d - 1)) + (
        tuple(a + b for a, b in zip(e[-2], e[-1])),)


@pytest.mark.parametrize("name, handle, r2", [
    # the center of a unit square is sqrt(1/2) from its corners
    ("Z^2", square_lattice(), F(1, 2)),
    # sides a, b: the rectangle's center, sqrt(a^2 + b^2) / 2 from its corners
    ("rectangle 1/5 x 1", build_periodic(((F(1, 5), F(0)), (F(0), F(1))),
                                         [(F(0), F(0))]), F(26, 100)),
    # the centroid of a unit equilateral triangle is 1/sqrt(3) from its corners
    ("triangular", triangular_lattice(), F(1, 3)),
    # the center of a unit-edge hexagon is 1 from its six corners
    ("honeycomb", honeycomb(), F(1)),
    # Z^2 + {0, e1/2, e2/2}: the hole (1/2, 1/2) is 1/2 from (1/2, 0), (0, 1/2)
    ("three-coset", three_coset_fixture(), F(1, 4)),
    # the center of a unit cube is half its diagonal, sqrt(3)/2, from its corners
    ("Z^3", build_periodic(Z3, [O3]), F(3, 4)),
    # bcc: the tetrahedral hole (1/2, 1/4, 0) is sqrt(1/4 + 1/16) from its corners
    ("bcc", build_periodic(Z3, [O3, (F(1, 2),) * 3]), F(5, 16)),
    # Z^n: the center of the unit cube, sqrt(n)/2 from its corners
    ("Z^4", build_periodic(unit_basis(4), [(F(0),) * 4]), F(1)),
    ("Z^5", build_periodic(unit_basis(5), [(F(0),) * 5]), F(5, 4)),
    # D_n for n >= 4: the deep hole (1/2, ..., 1/2) is sqrt(n)/2 from the
    # lattice (Conway-Sloane, SPLAG, ch. 4)
    ("D4", build_periodic(d_n_basis(4), [(F(0),) * 4]), F(1)),
    ("D5", build_periodic(d_n_basis(5), [(F(0),) * 5]), F(5, 4)),
    # a box with sides 1, 2, 1/2, 3: half its diagonal, (1 + 4 + 1/4 + 9) / 4
    ("box 1 x 2 x 1/2 x 3", build_periodic(
        tuple(tuple(F(s) if i == j else F(0) for j in range(4))
              for i, s in enumerate((1, 2, F(1, 2), 3))), [(F(0),) * 4]), F(57, 16)),
])
def test_hand_derived_periodic(name, handle, r2):
    params = delone_params(handle)
    assert params.R == Radical.sqrt(r2), name
    assert params.R_exactness == "exact"


def test_float_periodic_z4():
    handle = build_periodic(tuple(tuple(map(float, b)) for b in unit_basis(4)), [(0.0,) * 4])
    params = delone_params(handle)
    assert abs(params.R - 1.0) <= handle.tol.eps_abs
    assert params.R_exactness == "exact"


def covering_hits(handle, monkeypatch):
    """R of handle and the hits of the range queries its covering makes."""
    sets.min_dist_sq(handle)
    hits, ball = [0], sets.PointSetHandle._ball

    def counted(self, center, radius):
        out = ball(self, center, radius)
        hits[0] += len(out[1])
        return out

    monkeypatch.setattr(sets.PointSetHandle, "_ball", counted)
    big_r = params._covering(handle)[0]
    monkeypatch.undo()
    return big_r, hits[0]


@pytest.mark.parametrize("spacing", [F(1, 100000), 1e-5])
def test_periodic_covering_work_does_not_depend_on_the_unit(spacing, monkeypatch):
    # Z^2 with spacing s: the query radius is padded by a factor, so its
    # balls hold as many points at s = 1e-5 as at s = 1; an absolute pad of
    # 1/1024 held about 31,000 at s = 1e-5, against 13
    def z2(s):
        return build_periodic(((s, 0 * s), (0 * s, s)), [(0 * s, 0 * s)])
    unit_r, unit = covering_hits(z2(type(spacing)(1)), monkeypatch)
    big_r, hits = covering_hits(z2(spacing), monkeypatch)
    assert 0 < hits <= 2 * unit
    if isinstance(spacing, F):
        assert big_r == Radical.sqrt(spacing * spacing / 2) and unit_r == Radical.sqrt(F(1, 2))
    else:
        assert math.isclose(big_r, spacing * unit_r, rel_tol=1e-9)


def test_one_dimensional_periodic():
    # 3Z + {0, 1}: gaps 1 and 2, so R is half of 2
    params = delone_params(build_periodic(((F(3),),), [(F(0),), (F(1),)]))
    assert params.R == Radical.of(F(1))
    assert params.R_exactness == "exact"


def test_one_dimensional_windows():
    pts = [(F(x),) for x in (0, F(1, 2), 2, 3, 4, 5)]
    bounds = ((F(0),), (F(5),))
    # margin 0: half the largest gap, (2 - 1/2) / 2
    params = delone_params(build_window(pts, bounds))
    assert params.R == Radical.of(F(3, 4))
    assert params.R_exactness == "lower-bound-estimate"
    # margin 1, trusted region [1, 4]: the ball over the gap (1/2, 2) pokes
    # out of it, so only the unit gaps count
    assert delone_params(build_window(pts, bounds, margin=F(1))).R == Radical.of(F(1, 2))
    with pytest.raises(WindowTooSmallError):  # trusted region {5/2}: no site
        delone_params(build_window(pts, bounds, margin=F(5, 2)))


# -- single cells against vertex enumeration -----------------------------------

EXACT = Tolerance.exact_mode()
FLOAT = Tolerance.floating(1e-9)


def check_exact_cell(box, offsets):
    top, verts, faces = _voronoi_cell(box, offsets, EXACT)
    want = brute_force_voronoi_vertices(box, offsets)
    got = {c: on_box for _, c, on_box in verts}
    assert len(got) == len(verts)  # no vertex twice
    assert got == want
    assert all(r2 == sum(a * a for a in c) for r2, c, _ in verts)
    assert [r2 for r2, _, _ in verts] == sorted((r2 for r2, _, _ in verts), reverse=True)
    assert top == max(sum(a * a for a in c) for c in want)
    # face 2i is hi[i], face 2i + 1 is lo[i]: the faces some vertex lies on
    lo, hi = box
    assert faces == {2 * i + (c[i] == lo[i]) for c in want for i in range(len(lo))
                     if c[i] in (lo[i], hi[i])}


@st.composite
def cells(draw, d, den):
    """A box about the site (the origin) with corners in (1/den)Z^d, and
    up to eight distinct nonzero int offsets."""
    lo = tuple(F(draw(st.integers(-6 * den, 0)), den) for _ in range(d))
    hi = tuple(F(draw(st.integers(1, 6 * den)), den) for _ in range(d))
    if den == 1:
        lo, hi = tuple(map(int, lo)), tuple(map(int, hi))
    offset = st.tuples(*[st.integers(-4, 4)] * d).filter(any)
    return (lo, hi), tuple(draw(st.lists(offset, max_size=8, unique=True)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(lambda den: cells(2, den)))
def test_planar_cells_equal_vertex_enumeration(case):
    # den 1 clips on ints from an int box, den 2 from a half-integer box
    check_exact_cell(*case)


@settings(max_examples=25, deadline=None)
@given(cells(3, 1))
def test_spatial_cells_equal_vertex_enumeration(case):
    check_exact_cell(*case)


H3 = quadext(0, F(1, 2), 3)  # sqrt(3) / 2
TRIANGULAR = tuple((F(i) + F(j, 2), j * H3) for i in range(-3, 4) for j in range(-3, 4)
                   if (i, j) != (0, 0) and (i + F(j, 2)) ** 2 + F(3 * j * j, 4) <= 4)


@pytest.mark.parametrize("box", [
    ((F(-3), F(-3)), (F(3), F(3))),
    ((F(-1, 2), F(-3, 2)), (F(5, 2), F(1, 2))),   # cut by the box
    ((F(0), -H3), (F(3), 4 * H3)),                 # a Q(sqrt 3) box through the site
])
def test_quadratic_cells_equal_vertex_enumeration(box):
    check_exact_cell(box, TRIANGULAR)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda d: cells(d, 1)))
def test_float_cells_match_vertex_enumeration(case):
    # floats near thirds against the exact cell of the thirds they round
    box, offsets = case
    want = brute_force_voronoi_vertices(*(tuple(tuple(F(a, 3) for a in p) for p in ps)
                                          for ps in (box, offsets)))
    top, verts, faces = _voronoi_cell(*(tuple(tuple(a / 3 for a in p) for p in ps)
                                        for ps in (box, offsets)), FLOAT)

    def near(c, pts):
        return [q for q in pts if max(abs(a - float(b)) for a, b in zip(c, q)) <= 1e-9]

    for _, c, on_box in verts:
        assert {want[q] for q in near(c, want)} == {on_box}
    assert all(near(tuple(map(float, q)), [c for _, c, _ in verts]) for q in want)
    assert math.isclose(top, max(float(sum(a * a for a in q)) for q in want), abs_tol=1e-9)
    assert bool(faces) == any(on for _, _, on in verts)


# -- scipy cross-check ---------------------------------------------------------

def _delaunay(points):
    coords = [[float(c) for c in p] for p in points]
    try:
        return Delaunay(coords)
    except QhullError:
        return Delaunay(coords, qhull_options="QJ")


def _circumball(simplex):
    """Exact circumcenter and squared circumradius, or None if flat."""
    p0 = simplex[0]
    rows = tuple(tuple(2 * (a - b) for a, b in zip(p, p0)) for p in simplex[1:])
    rhs = tuple(sum(a * a - b * b for a, b in zip(p, p0)) for p in simplex[1:])
    sol = mat_solve(rows, (rhs,))
    if sol is None:
        return None
    cc = sol[0]
    return cc, sum((a - b) ** 2 for a, b in zip(cc, p0))


def _delaunay_r2(points, keep, empty):
    """Largest squared circumradius over the triangulation's simplices
    whose exact circumcenter passes ``keep`` and whose ball is ``empty``."""
    best = None
    for simplex in _delaunay(points).simplices:
        ball = _circumball([points[i] for i in simplex])
        if ball is None or (best is not None and ball[1] <= best):
            continue
        if keep(*ball) and empty(*ball):
            best = ball[1]
    return best


def _random_rational(rng, lo, hi, den):
    return F(rng.randint(lo * den, hi * den), den)


def _random_periodic(rng, d):
    while True:
        basis = [[(F(1) if i == j else F(0)) + _random_rational(rng, -1, 1, 4) * F(1, 2)
                  for j in range(d)] for i in range(d)]
        motif = [tuple(_random_rational(rng, 0, 1, 5) for _ in range(d))
                 for _ in range(rng.randint(1, 3))]
        try:
            return build_periodic(basis, motif)
        except ValueError:  # a flat basis or coinciding motif points
            continue


@pytest.mark.parametrize("d, trials", [(2, 12), (3, 3)])
def test_periodic_against_scipy(d, trials):
    rng = random.Random(20261018 + d)
    for _ in range(trials):
        handle = _random_periodic(rng, d)
        basis = handle.lattice.reduced
        c0 = tuple(sum(col) / 2 for col in zip(*basis))  # center of the cell
        diam = sum(math.sqrt(float(sum(c * c for c in b))) for b in basis)
        patch = [p for _, p in handle.points_in_ball(c0, Radical.of(F(math.ceil(diam) + 1)))]

        def near_cell(cc, r2):
            # every point of space has a translate within diam / 2 of c0
            return math.dist(map(float, cc), map(float, c0)) <= diam / 2 + 1e-9

        def empty(cc, r2):
            reach = Radical.of(F(math.sqrt(float(r2))) + F(1, 1000))
            return all(ssign(d2 - r2) >= 0 for d2, _ in handle.points_in_ball(cc, reach))

        want = _delaunay_r2(patch, near_cell, empty)
        assert delone_params(handle).R == Radical.sqrt(want), (basis, handle.motif)


def check_window_against_scipy(pts, hi, margin):
    d = len(hi)
    handle = build_window(pts, ((F(0),) * d, hi), margin=margin)

    def fits(cc, r2):
        return handle.hosts_ball(cc, Radical.sqrt(r2))

    def empty(cc, r2):
        return all(ssign(sum((a - b) ** 2 for a, b in zip(p, cc)) - r2) >= 0
                   for p in handle.points)

    want = _delaunay_r2(handle.points, fits, empty)
    if want is None:
        with pytest.raises(WindowTooSmallError):
            delone_params(handle)
        return
    params = delone_params(handle)
    assert params.R == Radical.sqrt(want), (sorted(pts), margin)
    assert params.R_exactness == "lower-bound-estimate"


@pytest.mark.parametrize("d, trials", [(2, 8), (3, 2), (4, 1)])
def test_windows_against_scipy(d, trials):
    rng = random.Random(1018 + d)
    for _ in range(trials):
        n = {2: 45, 3: 60, 4: 120}[d]
        pts = list({tuple(_random_rational(rng, 0, 4, 3) for _ in range(d))
                    for _ in range(n)})
        check_window_against_scipy(pts, (F(4),) * d, F(rng.randint(0, 2), 2))


@pytest.mark.parametrize("margin", [0, F(1, 6)])
def test_thin_spatial_window_against_scipy(margin):
    # a slab 4 x 4 x 5/3 in thirds: nearly every cell touches the box, and
    # sites share box-touching cells
    rng = random.Random(1027)
    pts = list({(_random_rational(rng, 0, 4, 3), _random_rational(rng, 0, 4, 3),
                 _random_rational(rng, 0, 1, 3) * F(5, 3)) for _ in range(70)})
    check_window_against_scipy(pts, (F(4), F(4), F(5, 3)), margin)


# -- no scipy at run time ---------------------------------------------------------

BLOCKED = """
import sys
sys.modules["scipy"] = sys.modules["numpy"] = None
from delone.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_cli_runs_without_scipy_or_numpy(tmp_path):
    golden = Path(__file__).parent / "golden"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-c", BLOCKED, *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)

    assert cli("generate", "lattice", "--basis", "1,0;0,1", "--extent", "3",
               "--out", "w3.ps").returncode == 0
    for name, argv in (("w3_analyze", ("analyze", "w3.ps")),
                       ("w3_certify_regular", ("certify", "w3.ps", "--criterion", "regular"))):
        proc = cli(*argv)
        assert proc.stderr == ""
        assert f"exit = {proc.returncode}\n{proc.stdout}" == \
            (golden / f"{name}.txt").read_text(encoding="utf-8")
