import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delone.scalars import (ExactComparisonError, QuadExt, Radical, _sign_sum,
                            field_sqrt, quadext, sfloor)

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
pos_fracs = st.fractions(min_value=0, max_value=9, max_denominator=6)


def test_quadext_collapses_to_fraction():
    assert quadext(F(1, 2), 0, 3) == F(1, 2)
    x = quadext(F(1, 2), F(1, 2), 3)
    assert isinstance(x - x, F)
    assert x / x == 1


def test_quadext_arithmetic_matches_floats():
    x = quadext(F(1, 2), F(1, 2), 3)
    y = quadext(0, 1, 3)
    for expr, ref in [(x * y, float(x) * float(y)),
                      (x + y, float(x) + float(y)),
                      (1 / x, 1 / float(x)),
                      (x - 2 * y, float(x) - 2 * float(y))]:
        assert abs(float(expr) - ref) < 1e-12


def _pair(v):
    """A field scalar as the (Fraction, Fraction) pair (a, b) of a + b*sqrt(3)."""
    if isinstance(v, QuadExt):
        assert v.d == 3 and v.b != 0  # rational values are never a QuadExt
        return v.a, v.b
    return F(v), F(0)


def _pair_sign(a, b):
    # operands have denominators <= 6, so a nonzero a + b*sqrt(3) is far
    # from 0 in floats
    return 0 if a == b == 0 else (1 if float(a) + float(b) * math.sqrt(3) > 0 else -1)


_operands = st.one_of(st.integers(-6, 6), fracs,
                      st.builds(lambda a, b: quadext(a, b, 3), fracs, fracs))


@given(_operands, _operands)
def test_quadext_arithmetic_matches_pair_reference(x, y):
    assume(isinstance(x, QuadExt) or isinstance(y, QuadExt))
    (a1, b1), (a2, b2) = _pair(x), _pair(y)
    norm = a2 * a2 - 3 * b2 * b2
    want = {"+": (a1 + a2, b1 + b2), "-": (a1 - a2, b1 - b2),
            "*": (a1 * a2 + 3 * b1 * b2, a1 * b2 + a2 * b1),
            "/": None if norm == 0 else ((a1 * a2 - 3 * b1 * b2) / norm,
                                         (b1 * a2 - a1 * b2) / norm)}
    for op, ref in want.items():
        apply_op = {"+": lambda: x + y, "-": lambda: x - y,
                    "*": lambda: x * y, "/": lambda: x / y}[op]
        if ref is None:
            with pytest.raises(ZeroDivisionError):
                apply_op()
            continue
        got = apply_op()
        assert _pair(got) == ref, op
        if ref[1] == 0:
            assert type(got) is F  # collapsed, and hashes as that Fraction
        same = quadext(ref[0], ref[1], 3)  # the value built another way
        assert got == same and hash(got) == hash(same)
    s = _pair_sign(a1 - a2, b1 - b2)
    assert ((x < y), (x <= y), (x > y), (x >= y), (x == y)) == (
        s < 0, s <= 0, s > 0, s >= 0, s == 0)
    assert -x == quadext(-a1, -b1, 3) and hash(-x) == hash(quadext(-a1, -b1, 3))


def test_quadext_is_immutable():
    x = quadext(1, 2, 3)
    with pytest.raises(AttributeError):
        x.a = F(5)
    assert (x.a, x.b, x.d, repr(x)) == (F(1), F(2), 3, "(1+2*sqrt(3))")


def test_quadext_rejects_mixed_radicands():
    with pytest.raises(ValueError):
        quadext(0, 1, 2) + quadext(0, 1, 3)


def test_field_sqrt():
    assert field_sqrt(F(9, 4)) == F(3, 2)
    assert field_sqrt(F(2)) is None
    assert field_sqrt(quadext(7, 4, 3)) == quadext(2, 1, 3)  # (2+sqrt3)^2
    assert field_sqrt(quadext(2, 1, 3)) is None


def test_sfloor():
    assert sfloor(F(7, 2)) == 3
    assert sfloor(F(-7, 2)) == -4
    assert sfloor(quadext(0, 1, 3)) == 1
    assert sfloor(quadext(-2, 1, 3)) == -1


def _mp_sign(rat, terms):
    """Reference sign via 60-digit interval-free evaluation."""
    import mpmath
    with mpmath.workdps(60):
        val = mpmath.mpf(rat.numerator) / rat.denominator
        for c, m in terms:
            val += (mpmath.mpf(c.numerator) / c.denominator) * \
                mpmath.sqrt(mpmath.mpf(m.numerator) / m.denominator)
        if abs(val) < mpmath.mpf(10) ** -40:
            return 0
        return 1 if val > 0 else -1


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=8),
       st.lists(st.tuples(fracs, pos_fracs), max_size=3))
def test_sign_kernel_matches_mpmath(rat, terms):
    r = Radical(rat, tuple(terms))
    assert r.sign() == _mp_sign(rat, terms)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fracs, pos_fracs), min_size=4, max_size=4))
def test_sign_kernel_four_terms_no_rational(terms):
    from fractions import Fraction
    r = Radical(0, tuple(terms))
    assert r.sign() == _mp_sign(Fraction(0), terms)


radicands = st.one_of(st.sampled_from((F(2), F(3), F(8), F(1, 2), F(9, 4), F(12))),
                      st.fractions(min_value=0, max_value=20, max_denominator=12))


@settings(max_examples=400, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=12),
       st.lists(st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=8),
                          radicands), min_size=1, max_size=3))
def test_sign_sum_matches_mpmath(rat, terms):
    # raw term lists, not canonicalized: repeated and square radicands stay
    assert _sign_sum(rat, terms) == _mp_sign(rat, terms)


def test_sign_sum_exact_cancellations():
    assert _sign_sum(F(0), [(F(1), F(8)), (F(-2), F(2))]) == 0
    assert _sign_sum(F(0), [(F(1), F(12)), (F(-1), F(3)), (F(-1), F(3))]) == 0
    assert _sign_sum(F(-3), [(F(1), F(9, 4)), (F(1), F(9, 4))]) == 0
    assert _sign_sum(F(1), [(F(-1), F(2)), (F(-1), F(1, 2)), (F(3, 2), F(2))]) == 1


square_free = st.sampled_from((2, 3, 5, 6, 7, 10, 13, 15, 26, 30))


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-5, max_value=5, max_denominator=9),
       st.lists(st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=9),
                          square_free), max_size=3),
       st.lists(st.fractions(min_value=F(1, 7), max_value=7, max_denominator=7),
                min_size=3, max_size=3))
def test_equal_radicals_hash_equally(rat, terms, scales):
    # c*sqrt(f) == (c/t)*sqrt(f*t^2): same value, different radicand
    a = Radical(rat, tuple(terms))
    b = Radical(rat, tuple((c / t, f * t * t) for (c, f), t in zip(terms, scales)))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_radical_hash_square_free_radicands():
    assert Radical.sqrt(2) == Radical(0, ((F(1, 2), 8),))
    assert len({Radical.sqrt(2), Radical(0, ((F(1, 2), 8),))}) == 1
    assert hash(Radical.sqrt(F(1, 2))) == hash(Radical(0, ((F(1, 2), 2),)))
    assert hash(Radical.of(F(3, 2))) == hash(F(3, 2))
    # repr and report strings keep the term lists as given
    assert repr(Radical(0, ((F(1, 2), 8),))) == "1/2*sqrt(8)"
    assert repr(Radical.sqrt(F(13, 50))) == "sqrt(13/50)"


def test_radical_hash_large_radicand():
    # the key needs no factoring: a radicand with two primes near 10**15
    # hashes at once
    pq = 1000000000000037 * 1000000001000053
    a = Radical(F(1, 3), ((1, pq),))
    b = Radical(F(1, 3), ((F(1, 7), 49 * pq),))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Radical.sqrt(F(pq, 10**30 + 57))}) == 2


def test_exact_ties():
    assert Radical(0, ((1, 2), (1, 8))) == Radical(0, ((3, 2),))
    assert Radical.sqrt(F(4, 9)) == Radical.of(F(2, 3))
    assert (Radical.sqrt(2) + Radical.sqrt(2)) == Radical.sqrt(8)
    assert (Radical.sqrt(2) + Radical.sqrt(3)).cmp_sqrt(F(5)) > 0
    assert Radical.sqrt(2).cmp_sqrt(F(2)) == 0


def test_radical_ordering_and_hash():
    a, b = Radical.of(F(3, 2)), Radical.sqrt(F(9, 4))
    assert a == b and hash(a) == hash(b)
    vals = sorted([Radical.sqrt(2), a, Radical.sqrt(3) - Radical.sqrt(2)])
    assert vals[0] == Radical.sqrt(3) - Radical.sqrt(2)


def test_quadext_radicands_in_radicals():
    q = quadext(2, 1, 3)
    r = Radical.sqrt(q)
    assert abs(float(r) - math.sqrt(2 + math.sqrt(3))) < 1e-12
    assert r.cmp(Radical.of(quadext(F(1, 2), F(1, 2), 3))) > 0


def test_too_many_terms_raises():
    with pytest.raises(ExactComparisonError):
        Radical(1, ((1, 2), (1, 3), (1, 5), (1, 7))).sign()
