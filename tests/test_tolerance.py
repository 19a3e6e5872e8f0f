"""The numeric backend: each Tolerance predicate at its boundary, in exact
mode (ties decided exactly, composite radii included) and in float mode
(just inside and just outside eps_abs), plus one exact/float differential
run of the certifier on the same window."""

import math
from fractions import Fraction as F

import pytest

from delone import square_lattice
from delone.classify import n_profile
from delone.cli import main
from delone.criteria import certify_auto
from delone.geometry import Tolerance
from delone.scalars import Radical, quadext
from delone.sets import build_window, radius_covers, radius_lt

EXACT = Tolerance.exact_mode()
FLOAT = Tolerance.floating(1e-9)
INSIDE, OUTSIDE = 0.9e-9, 1.1e-9          # just within / just past eps
SQRT2 = Radical.sqrt(2)
COMPOSITE = F(1, 2) + Radical.sqrt(F(1, 2))  # 1/2 + sqrt(1/2)
COMPOSITE_SQ = quadext(F(3, 4), F(1, 2), 2)  # its square, 3/4 + sqrt(2)/2


def test_exact_ties_are_decided_exactly():
    # d^2 = 2 against radius sqrt(2): on the sphere, so covered, not inside
    assert radius_covers(SQRT2, F(2), EXACT)
    assert not radius_lt(SQRT2, F(2), EXACT)
    assert not radius_covers(SQRT2, F(2) + F(1, 10**30), EXACT)
    # the same value written as sqrt(8)/2
    half_sqrt8 = Radical.sqrt(F(8)) / 2
    assert EXACT.le(half_sqrt8, SQRT2) and EXACT.ge(half_sqrt8, SQRT2)
    assert EXACT.is_zero(half_sqrt8 - SQRT2)
    assert not EXACT.le(SQRT2 + F(1, 10**30), SQRT2)
    assert not EXACT.is_zero(F(1, 10**30))


def test_composite_radius_tie():
    assert radius_covers(COMPOSITE, COMPOSITE_SQ, EXACT)
    assert not radius_lt(COMPOSITE, COMPOSITE_SQ, EXACT)
    assert not radius_covers(COMPOSITE, COMPOSITE_SQ + F(1, 10**12), EXACT)
    root = EXACT.sqrt(COMPOSITE_SQ)
    assert EXACT.le(root, COMPOSITE) and EXACT.ge(root, COMPOSITE)
    assert EXACT.is_zero(root - COMPOSITE)
    assert not EXACT.ge(root, COMPOSITE + F(1, 10**12))


def test_float_comparisons_at_eps():
    assert FLOAT.le(1.0 + INSIDE, 1.0) and not FLOAT.le(1.0 + OUTSIDE, 1.0)
    assert FLOAT.ge(1.0 - INSIDE, 1.0) and not FLOAT.ge(1.0 - OUTSIDE, 1.0)
    assert FLOAT.is_zero(-INSIDE) and not FLOAT.is_zero(OUTSIDE)
    assert radius_covers(1.0, (1.0 + INSIDE) ** 2, FLOAT)
    assert not radius_covers(1.0, (1.0 + OUTSIDE) ** 2, FLOAT)
    assert FLOAT.sqrt(2.0) == 2.0 ** 0.5
    assert EXACT.sqrt(F(2)) == SQRT2


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1e-9])
def test_eps_abs_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError, match="eps_abs must be positive and finite"):
        Tolerance.floating(eps)


def test_infinite_cli_tolerance_exit2(tmp_path, capsys):
    # an infinite eps made every two window points "equal", so the load failed
    # with a misleading "window points are not pairwise distinct"
    path = str(tmp_path / "z2.ps")
    float_mode = ["--numeric-mode", "float"]
    assert main([*float_mode, "generate", "lattice", "--basis", "1,0;0,1", "--out", path]) == 0
    capsys.readouterr()
    assert main([*float_mode, "--tolerance", "inf", "analyze", path]) == 2
    assert capsys.readouterr().err == ("error: eps_abs must be positive and finite "
                                       "in floating mode\n")


def test_point_equality_and_membership():
    p = (F(1, 3), F(-2))
    assert EXACT.same_point(p, (F(1, 3), F(-2)))
    assert not EXACT.same_point(p, (F(1, 3) + F(1, 10**30), F(-2)))
    members = EXACT.point_set([p, (F(0), F(0))])
    assert p in members and (F(1, 3), F(2)) not in members
    assert members.get((F(0), F(0))) == 1 and members.get((F(1), F(1))) is None
    q = (0.3, -2.0)
    assert FLOAT.same_point(q, (0.3 + INSIDE, -2.0 - INSIDE))
    assert not FLOAT.same_point(q, (0.3, -2.0 + OUTSIDE))
    grid = FLOAT.point_set([q, (5.0, 5.0)])
    assert (0.3 + INSIDE, -2.0 - INSIDE) in grid
    assert (0.3 - OUTSIDE, -2.0) not in grid
    assert grid.get((5.0 - INSIDE, 5.0)) == 1 and grid.get((0.3 - OUTSIDE, -2.0)) is None
    # a grid cell is 4 eps wide: membership also holds across a cell edge
    edge = (4e-9, 0.0)
    assert (edge[0] - INSIDE, 0.0) in FLOAT.point_set([edge])


def test_radius_at_least_covers_the_float():
    for rho_f in (0.1, 1.0 / 3.0, 2.0 ** 0.5):
        cover = EXACT.radius_at_least(rho_f)
        assert isinstance(cover, Radical) and cover > F(rho_f)
        assert FLOAT.radius_at_least(rho_f) == rho_f


def test_distinct_squared_radii():
    # exact: values a float cannot tell apart stay separate
    close = F(2) + F(1, 10**20)
    assert EXACT.distinct_sq([F(8), F(2), close, F(2), F(9, 2)]) == [F(2), close, F(9, 2), F(8)]
    # float: roots within eps merge into the first, roots past eps stay
    d2s = [4.0, 1.0, (1.0 + INSIDE) ** 2, (2.0 + OUTSIDE) ** 2, 4.0]
    assert FLOAT.distinct_sq(d2s) == [1.0, 4.0, (2.0 + OUTSIDE) ** 2]


def _float_copy(window):
    lo, hi = window.bounds
    return build_window([tuple(map(float, p)) for p in window.points],
                        (tuple(map(float, lo)), tuple(map(float, hi))),
                        margin=float(window.margin), tol=FLOAT)


def test_exact_and_float_windows_agree():
    exact = square_lattice(extent=F(3))
    floating = _float_copy(exact)
    prof_exact = n_profile(exact, 2)
    prof_float = n_profile(floating, 2.0)
    assert prof_exact.values == prof_float.values
    assert [float(b) for b in prof_exact.breakpoints] == list(prof_float.breakpoints)
    verdicts = {certify_auto(h, "regular").verdict for h in (exact, floating)}
    assert verdicts == {"satisfied"}
