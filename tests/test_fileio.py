from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone.fileio import (PointSetFormatError, Report, format_radius,
                           format_scalar, parse_radius, parse_scalar,
                           read_point_set, write_point_set)
from delone.geometry import Tolerance
from delone.scalars import Radical, quadext
from delone.sets import build_window, crop_to_window


def test_scalar_round_trip():
    for x in (F(0), F(3), F(-7, 2), F(22, 7)):
        assert parse_scalar(format_scalar(x, True), True) == x
    q = quadext(F(1, 2), F(1, 2), 3)
    assert parse_scalar(format_scalar(q, True), True) == q
    q2 = quadext(0, F(-3, 4), 5)
    assert parse_scalar(format_scalar(q2, True), True) == q2
    assert parse_scalar("sqrt(3)", True) == quadext(0, 1, 3)


def test_scalar_float_round_trip():
    for x in (0.0, 0.1, -1.75, 1 / 3):
        assert parse_scalar(format_scalar(x, False), False) == x


def test_parse_errors():
    with pytest.raises(PointSetFormatError):
        parse_scalar("sqrt(2)+sqrt(3)", True)  # mixed radicands
    with pytest.raises(PointSetFormatError):
        parse_scalar("abc", True)
    with pytest.raises(PointSetFormatError):
        parse_radius("sqrt(-1)", True)
    for token in ("1/0", "1/0*sqrt(2)", "1+1/0"):
        with pytest.raises(PointSetFormatError):
            parse_scalar(token, True)
    for token in ("1/0", "sqrt(1/0)", "-1", "1-sqrt(2)"):
        with pytest.raises(PointSetFormatError):
            parse_radius(token, True)
    with pytest.raises(PointSetFormatError):
        parse_radius("-0.5", False)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/+-*() sqrt.", max_size=16))
def test_parsers_fail_only_with_usage_errors(token):
    # the CLI maps both exceptions to exit 2; anything else is a traceback
    for parse in (parse_scalar, parse_radius):
        for exact in (True, False):
            try:
                parse(token, exact)
            except (PointSetFormatError, ValueError):
                pass


def test_radius_round_trip():
    for rho in (Radical.of(F(5, 2)), Radical.sqrt(F(26, 100)),
                Radical.of(1) + Radical.sqrt(2),
                Radical.sqrt(2) + Radical.sqrt(F(26, 25))):
        back = parse_radius(format_radius(rho, True), True)
        assert back.cmp(rho) == 0


def test_point_set_round_trip_periodic(tmp_path, z2, tri, fix3):
    for handle in (z2, tri, fix3):
        path = tmp_path / "set.ps"
        write_point_set(handle, str(path))
        again = read_point_set(str(path))
        assert again.mode == "periodic"
        assert again.lattice.basis == handle.lattice.basis
        assert again.motif == handle.motif
        # byte-identical re-serialization
        path2 = tmp_path / "set2.ps"
        write_point_set(again, str(path2))
        assert path.read_bytes() == path2.read_bytes()


def test_point_set_round_trip_window(tmp_path, z2):
    win = crop_to_window(z2, (F(-3), F(-3)), (F(3), F(3)))
    path = tmp_path / "win.ps"
    write_point_set(win, str(path))
    again = read_point_set(str(path))
    assert again.points == win.points
    assert again.bounds == win.bounds
    assert again.margin == win.margin


def test_point_set_round_trip_float(tmp_path):
    pts = [(0.25, 0.75), (1.0, 0.125), (0.1, 0.9)]
    win = build_window(pts, ((0.0, 0.0), (1.5, 1.5)), tol=Tolerance.floating(1e-9))
    path = tmp_path / "f.ps"
    write_point_set(win, str(path))
    again = read_point_set(str(path))
    assert again.points == win.points  # repr round-trip is exact for floats


def test_read_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.ps"
    bad.write_text("dim = 2\nmode = sideways\nnumeric = exact\n")
    with pytest.raises(PointSetFormatError):
        read_point_set(str(bad))
    bad.write_text("dim = 2\nmode = window\nnumeric = exact\n[points]\n1 2 3\n")
    with pytest.raises(PointSetFormatError):
        read_point_set(str(bad))


def test_report_deterministic(tmp_path):
    def build():
        rep = Report("demo")
        rep.kv("alpha", 1)
        rep.scalar("rho", Radical.sqrt(2), True)
        rep.section("table")
        rep.row("a", "b")
        rep.row(1, 2)
        return rep.render()

    assert build() == build()
    p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    Report("demo").kv("x", 1).write(str(p1))
    Report("demo").kv("x", 1).write(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
