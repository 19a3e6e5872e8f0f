"""``Radical.cmp`` through its float filter, against the exact kernel.

Each Radical keeps a certified float interval (its value plus or minus
``_SLACK`` times the sum of its parts' magnitudes); ``cmp`` returns a sign
when two intervals are disjoint and runs the exact kernel otherwise.  The
oracle is the kernel alone: ``(a - b).sign()``, which builds the
difference and decides its sign by repeated squaring, with no float.

Cases: random radicals over sqrt 2, sqrt 3 and sqrt 5 (radicands written
in several ways, so equal values reach ``cmp`` in different forms); pairs
a tiny rational apart; near-ties built from a convergent p/q of sqrt 2,
1e-18 to 1e-16 from it, where the float sums can round the wrong way and
only the slack sends the pair to the kernel (with ``_SLACK = 0`` the
scaled and shifted near-ties fail); values with no interval (rationals
beyond the float range, below the normal range, Q(sqrt 3) parts).  Copy
and pickle rebuild a Radical from its value and carry no cached slot.
"""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from delone import scalars
from delone.criteria import certify_auto
from delone.scalars import Radical, quadext
from delone.sets import build_periodic


def kernel_sign(a, b):
    return (a - (b if isinstance(b, Radical) else Radical.of(b))).sign()


def ssign_of(q):
    return (q > 0) - (q < 0)


# radicands of three classes: 2, 8 and 18 are all sqrt 2 up to a rational
RADICANDS = (2, 8, 18, F(1, 2), 3, 12, F(3, 4), 5, 20)


def random_radical(rng):
    rat = F(rng.randint(-40, 40), rng.randint(1, 12))
    terms = tuple((F(rng.randint(-9, 9), rng.randint(1, 6)), rng.choice(RADICANDS))
                  for _ in range(rng.randint(0, 3)))
    return Radical(rat, terms)


def test_random_radicals_agree_with_the_kernel():
    rng = random.Random(18)
    for _ in range(400):
        a, b = random_radical(rng), random_radical(rng)
        assert a.cmp(b) == kernel_sign(a, b), (a, b)
        assert b.cmp(a) == -kernel_sign(a, b), (a, b)
        tiny = F(rng.choice((-1, 1)), 10 ** rng.randint(13, 40))
        assert a.cmp(a + tiny) == kernel_sign(a, a + tiny) == -ssign_of(tiny), (a, tiny)
        assert a.cmp(Radical(a.rat, a.terms)) == 0


def test_equal_values_written_differently():
    pairs = [
        (Radical.sqrt(8), Radical(0, ((2, 2),))),
        (Radical.sqrt(F(1, 2)), Radical(0, ((F(1, 2), 2),))),
        (Radical(1, ((1, 12),)), Radical(1, ((2, 3),))),
        (Radical.sqrt(18) - Radical.sqrt(2), Radical.sqrt(8)),
        (Radical.sqrt(F(9, 4)), Radical.of(F(3, 2))),
    ]
    for a, b in pairs:
        assert a.cmp(b) == b.cmp(a) == 0, (a, b)
        assert a == b and hash(a) == hash(b)


# convergents of sqrt 2 and p/q - sqrt 2: about +4.1e-17, +1.2e-18, -7.0e-18
ABOVE = (F(131836323, 93222358), F(768398401, 543339720))
BELOW = F(318281039, 225058681)


@pytest.mark.parametrize("rat, k, p_q", [
    (0, 1, ABOVE[0]), (0, 1, ABOVE[1]), (0, 1, BELOW), (F(1, 3), 2, BELOW),
    # float(rat + k*sqrt 2) rounds past float(rat + k*p/q): the slack, not
    # the floats, sends these to the kernel
    (F(1, 3), 2, ABOVE[0]), (F(7, 5), 3, ABOVE[0]), (0, 3, ABOVE[1]), (1, 3, ABOVE[1]),
    (F(7, 5), 1, ABOVE[1]), (F(1, 3), 10, ABOVE[1]),
])
def test_near_ties_below_the_slack_go_to_the_kernel(rat, k, p_q):
    a, b = Radical(rat, ((k, 2),)), rat + k * p_q
    assert abs(float(b) - float(a)) <= 1e-15 * float(a)  # far inside the slack
    want = 1 if p_q == BELOW else -1  # the sign of sqrt 2 - p/q
    assert kernel_sign(a, b) == want
    assert a.cmp(b) == want and Radical.of(b).cmp(a) == -want
    assert (a < b) == (want < 0) and (a > b) == (want > 0)


def test_far_values_are_decided_without_the_kernel(monkeypatch):
    a, b = Radical.sqrt(2) + Radical.sqrt(3), Radical(F(3, 2), ((1, 5),))
    monkeypatch.setattr(Radical, "sign", lambda self: pytest.fail("kernel called"))
    assert a.cmp(b) == -1 and b.cmp(a) == 1
    assert a.cmp(F(3)) == 1 and a.cmp(0) == 1 and not a == 0


@pytest.mark.parametrize("a, b, want", [
    (Radical.of(F(10 ** 400)), F(10 ** 400) + 1, -1),        # beyond float range
    (Radical.of(F(10 ** 400)), Radical.sqrt(2), 1),
    (Radical.of(F(1, 10 ** 400)), 0, 1),                      # below the normal range
    (Radical.of(F(-1, 10 ** 400)), F(-1, 10 ** 401), -1),
    (Radical.of(quadext(1, 1, 3)), Radical.of(F(2732050807568877, 10 ** 15)), 1),
    (Radical.of(0), 0, 0),
])
def test_values_without_an_interval(a, b, want):
    assert kernel_sign(a, b) == want
    assert a.cmp(b) == want


def test_interval_brackets_the_value():
    rng = random.Random(1018)
    for _ in range(200):
        a = random_radical(rng)
        lo, hi = a.interval()
        assert kernel_sign(a, F(lo)) >= 0 >= kernel_sign(a, F(hi)), a
    assert Radical.of(0).interval() == (0.0, 0.0)
    assert Radical.of(F(10 ** 400)).interval() is None
    assert Radical.of(quadext(1, 1, 3)).interval() is None
    r = Radical.sqrt(F(13, 50))
    assert r.interval() is r.interval()  # kept on the instance
    lo2, hi2 = r.square_band()
    assert lo2 == r.interval()[0] ** 2 * (1 - scalars._SLACK)


def _round_trips(x):
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


def test_radical_copies_and_pickles_without_cached_slots():
    for r in (Radical.sqrt(F(1, 2)), Radical(F(1, 3), ((1, F(1, 2)), (2, 3)))):
        r.interval(), r.square_band(), r.square_floor(4), hash(r)  # fill the caches
        for clone in _round_trips(r):
            for slot in ("_hash", "_interval", "_band", "_floor2"):
                assert not hasattr(clone, slot), slot
            assert (clone.rat, clone.terms) == (r.rat, r.terms)
            assert clone == r and hash(clone) == hash(r)
            with pytest.raises(AttributeError):
                clone.rat = 0


def test_a_certify_report_copies_and_pickles():
    # its rho0 and witnesses hold Radicals and Isometries; every record class
    # is round-tripped in test_records.py
    report = certify_auto(build_periodic(((F(1), F(0)), (F(0), F(1))), [(F(0), F(0))]),
                          "regular")
    assert isinstance(report.rho0, Radical) and report.verdict == "satisfied"
    for clone in _round_trips(report):
        assert clone == report and hash(clone) == hash(report)
