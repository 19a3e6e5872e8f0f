"""One criterion engine: the regular-system check is the crystal check with
m = 1, and one rho0 scan serves both.

The scan's cheap pre-check must never change its answer, so it is compared
against a reference scan, written here, that sends every candidate through
the full crystal check."""

from fractions import Fraction as F

import pytest

from delone import (ShiftSequence, ShiftedRowSpec, gen_shifted_rows,
                    square_lattice)
from delone import criteria
from delone.classify import classify
from delone.criteria import (_scan_candidates, certify_auto,
                             check_crystal_criterion, check_regular_criterion)
from delone.generators import CrystalSpec, gen_crystal
from delone.geometry import Isometry, Lattice
from delone.scalars import Radical
from delone.sets import build_periodic, delone_params

from test_tolerance import _float_copy

Z2 = Lattice(((F(1), F(0)), (F(0), F(1))))
ROT90 = Isometry(((F(0), F(-1)), (F(1), F(0))), (F(0), F(0)))


def _p4():
    return gen_crystal(CrystalSpec(lattice=Z2, generators=(ROT90,),
                                   motif=((F(3, 10), F(1, 10)),)))


def _three_columns():
    return build_periodic(((F(1), F(0)), (F(0), F(1))),
                          [(F(0), F(0)), (F(3, 10), F(0)), (F(7, 10), F(0))])


BUILDERS = {"p4": _p4, "three_columns": _three_columns,
            "z2_w3": lambda: square_lattice(extent=F(3))}


def _handle(request, name):
    """A conftest fixture by name, or a handle built here."""
    return BUILDERS[name]() if name in BUILDERS else request.getfixturevalue(name)


def _reference_crystal_scan(handle, cap_mult=6):
    """certify_auto's crystal scan without its pre-check: the first rho0
    candidate that the full check satisfies, or None."""
    tol = handle.tol
    big_r = delone_params(handle).R
    two_r, cap = big_r * 2, big_r * cap_mult
    limit = cap + two_r
    capacity = handle.capacity()
    if capacity is not None:
        cap_radius = Radical.of(capacity) if tol.exact else float(capacity)
        limit = min(limit, cap_radius)
    reps = [cl.representative.center for cl in classify(handle, limit).classes]
    for rho0 in _scan_candidates(handle, reps, limit, limit - two_r):
        if tol.le(rho0 + two_r, limit):
            report = check_crystal_criterion(handle, rho0)
            if report.verdict == "satisfied":
                return report
    return None


@pytest.mark.parametrize("name, rhos", [
    ("z2", (F(1, 2), F(1), Radical.sqrt(2), F(2))),
    ("tri", (F(1, 2), F(1), Radical.sqrt(3))),
    ("p4", (F(1, 5), F(1, 2), F(1))),
    ("z2_w3", (F(1, 2), F(1))),
])
def test_regular_is_crystal_with_m1(request, name, rhos):
    handle = _handle(request, name)
    for rho0 in rhos:
        regular = check_regular_criterion(handle, rho0)
        crystal = check_crystal_criterion(handle, rho0)
        assert crystal.n_at_rho0_plus_2r == 1
        assert regular.verdict == crystal.verdict
        assert regular.group_check[0] == crystal.group_check[0]
        if crystal.verdict == "satisfied":
            assert regular.m == crystal.m == 1


def test_fixture_is_a_crystal_not_a_regular_system(fix3):
    crystal = check_crystal_criterion(fix3, F(1, 2))
    regular = check_regular_criterion(fix3, F(1, 2))
    assert crystal.verdict == "satisfied" and crystal.m == 2
    assert regular.verdict == "violated" and regular.m is None
    assert regular.n_at_rho0_plus_2r == 2 and len(regular.witnesses) == 2


@pytest.mark.parametrize("name", ["fix3", "three_columns", "tri"])
def test_crystal_scan_matches_unfiltered_reference(request, name):
    handle = _handle(request, name)
    reference = _reference_crystal_scan(handle)
    assert reference is not None
    assert certify_auto(handle, "crystal") == reference


def test_float_crystal_scan_matches_reference_and_exact():
    exact = square_lattice(extent=F(3))
    floating = _float_copy(exact)
    rep_float = certify_auto(floating, "crystal")
    assert rep_float == _reference_crystal_scan(floating)
    rep_exact = certify_auto(exact, "crystal")
    assert rep_exact == _reference_crystal_scan(exact)
    assert rep_float.verdict == rep_exact.verdict == "satisfied"
    assert rep_float.m == rep_exact.m == 1
    assert rep_float.rho0 == pytest.approx(float(rep_exact.rho0))
    assert rep_float.group_check == rep_exact.group_check


def test_scan_rejects_unknown_group_mode(fix3):
    # checked up front, not only when a candidate reaches the full check
    with pytest.raises(ValueError):
        certify_auto(fix3, "crystal", group_mode="every")


def test_rows_crystal_scan_needs_no_full_check(monkeypatch):
    # RLLRLR rows at the smallest quarter-step half-width that decides
    # them: the pre-check rejects every candidate, so the scan ends
    # inconclusive at the cap without a single full crystal check
    rows = gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse("RLLRLR"),
                                           extent=F(9, 4)))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return check_crystal_criterion(*args, **kwargs)

    monkeypatch.setattr(criteria, "check_crystal_criterion", counting)
    report = certify_auto(rows, "crystal")
    assert report.verdict == "inconclusive-window"
    assert report.rho0 == Radical.sqrt(F(13, 50)) * 6
    assert report.n_at_rho0 == 2
    assert calls == []


@pytest.mark.parametrize("name", ["fix3", "rows_aperiodic"])
def test_violated_regular_certify_builds_no_scan_candidates(request, monkeypatch, name):
    # N >= 2 at the limit radius disproves regularity before any rho0 is
    # tried, so the candidate list is never built
    handle = _handle(request, name)
    monkeypatch.setattr(criteria, "_scan_candidates",
                        lambda *a: pytest.fail("rho0 candidates built for a disproof"))
    assert certify_auto(handle, "regular").verdict == "violated"
