from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delone import fileio
from delone.fileio import (PointSetFormatError, Report,
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


_TERMS = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.tuples(st.integers(-10**12, 10**12), st.integers(0, 10**12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.sampled_from(["", "-"]), st.from_regex(r"\A0{1,3}\d{0,4}\Z"),
              st.from_regex(r"\A(/\d{1,4})?\Z")).map("".join))


@settings(max_examples=300, deadline=None)
@given(_TERMS)
def test_rational_fast_path_equals_the_term_sum(token):
    # parse_scalar sends a lone rational term straight to _rational; the
    # general path sums the terms from Fraction(0): same value, same error
    assert fileio._RAT_RE.match(token)
    try:
        want = fileio._parse_terms(token)
    except PointSetFormatError as exc:
        with pytest.raises(PointSetFormatError) as fast:
            parse_scalar(token, True)
        assert str(fast.value) == str(exc) == f"zero denominator in {token!r}"
        return
    got = parse_scalar(token, True)
    assert type(got) is type(want) is F and got == want == F(token)


def test_rational_fast_path_errors():
    for token in ("1/0", "-7/0", "0/0", "-0/00"):
        for parse in (lambda t: parse_scalar(t, True), fileio._parse_terms):
            with pytest.raises(PointSetFormatError, match="zero denominator") as info:
                parse(token)
            assert isinstance(info.value.__cause__, ZeroDivisionError)


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
        back = parse_radius(format_scalar(rho, True), True)
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


VALID_FILES = (
    "dim = 2\nmode = periodic\nnumeric = exact\n[basis]\n1 0\n1/2 1/2*sqrt(3)\n"
    "[motif]\n0 0\n",
    "dim = 2\nmode = periodic\nnumeric = float\neps_abs = 1e-09\n[basis]\n1.0 0.0\n"
    "0.0 1.0\n[motif]\n0.1 0.1\n0.6 0.1\n",
    "# delone point set v1\ndim = 2\nmode = window\nnumeric = exact\nmargin = 1/2\n"
    "[bounds]\n-1 -1\n1 1\n[points]\n-1 -1\n-1 0\n0 0\n1/2 1\n1 -1/3\n",
    "dim = 1\nmode = window\nnumeric = float\n[bounds]\n0.0\n2.5\n[points]\n"
    "0.0\n1.25\n2.5\n",
)

# (position as a fraction of the text, character or None for a deletion)
EDITS = st.lists(st.tuples(st.floats(0, 1), st.one_of(
    st.none(), st.sampled_from("0123456789/+-*.()e=[] \n#sqrt"), st.characters())),
    min_size=1, max_size=6)


def test_valid_files_parse(tmp_path):
    path = tmp_path / "set.ps"
    for text in VALID_FILES:
        path.write_text(text, encoding="utf-8")
        read_point_set(str(path))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(VALID_FILES), EDITS)
def test_mutated_files_fail_only_with_usage_errors(tmp_path, text, edits):
    # characters inserted and deleted anywhere: the reader returns a handle
    # or raises what the CLI maps to exit 2, never anything else
    for where, char in edits:
        i = min(int(where * len(text)), len(text))
        text = text[:i] + text[i + 1:] if char is None else text[:i] + char + text[i:]
    path = tmp_path / "set.ps"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))  # a lone surrogate is not UTF-8
    try:
        read_point_set(str(path))
    except (PointSetFormatError, ValueError):
        pass
