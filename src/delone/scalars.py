"""Exact scalar arithmetic underpinning the geometric predicates.

Two kinds of exact scalars flow through the library:

* *field scalars* -- ``fractions.Fraction`` (or plain ``int``), optionally
  extended to a real quadratic field Q(sqrt(D)) via :class:`QuadExt`.
  Coordinates, squared distances, Gram matrices and matrix entries are
  field scalars, so they are closed under +, -, *, /.
* :class:`Radical` -- finite sums ``q0 + sum_i c_i*sqrt(m_i)`` with field
  scalar parts.  Radii and distances are radicals, which makes closed-ball
  membership tests ``|x - y| <= rho`` exactly decidable even for composite
  radii such as ``rho0 + 2R``.

Float handles compute nothing here; they compare with an absolute tolerance
instead (see ``geometry.Tolerance``).  Floats enter this module only to be
written (:func:`format_scalar`) or floored (:func:`sfloor`).
"""

import math
import sys
from fractions import Fraction

__all__ = [
    "QuadExt",
    "Radical",
    "ExactComparisonError",
    "quadext",
    "ssign",
    "sfloor",
    "field_sqrt",
    "is_exact_scalar",
    "format_scalar",
    "format_point",
]


class ExactComparisonError(Exception):
    """Raised when a radical sign cannot be decided by repeated squaring."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def quadext(a, b, d):
    """Build ``a + b*sqrt(d)``, collapsing to a Fraction when b == 0."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    if b == 0:
        return a
    return QuadExt(a, b, d)


_RATIONAL = (int, Fraction)
_set_attr = object.__setattr__


def _raw(a, b, d):
    """``a + b*sqrt(d)`` from Fractions a, b != 0 and a radicand already
    checked: arithmetic results skip the checks of the constructor."""
    obj = object.__new__(QuadExt)
    _set_attr(obj, "a", a)
    _set_attr(obj, "b", b)
    _set_attr(obj, "d", d)
    return obj


def _make(a, b, d):
    """Like :func:`_raw`, collapsing to the Fraction a when b == 0."""
    return _raw(a, b, d) if b else a


class QuadExt:
    """Element ``a + b*sqrt(d)`` of the real quadratic field Q(sqrt(d)).

    ``d`` is a fixed positive non-square integer.  Arithmetic that would
    land back in Q returns a plain Fraction, so rational values have a
    single representation (important for hashing point tuples).  The
    radicand is checked once, when a value is built from outside; results
    of arithmetic are built directly, and an int or Fraction operand acts
    on the two coordinates without becoming a QuadExt.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        if not (isinstance(d, int) and d > 1):
            raise ValueError(f"radicand must be an integer > 1, got {d!r}")
        if math.isqrt(d) ** 2 == d:
            raise ValueError(f"radicand {d} is a perfect square")
        a, b = _as_fraction(a), _as_fraction(b)
        if b == 0:
            raise ValueError("use quadext() so rational values collapse")
        _set_attr(self, "a", a)
        _set_attr(self, "b", b)
        _set_attr(self, "d", d)

    def __setattr__(self, name, value):
        # copy and pickle fill empty slots; a set value is final
        if getattr(self, name, None) is not None:
            raise AttributeError("QuadExt is immutable")
        _set_attr(self, name, value)

    def _same_field(self, other):
        if other.d != self.d:
            raise ValueError(f"mixed radicands sqrt({self.d}) and sqrt({other.d})")

    def __add__(self, o):
        if isinstance(o, QuadExt):
            self._same_field(o)
            return _make(self.a + o.a, self.b + o.b, self.d)
        if isinstance(o, _RATIONAL):
            return _raw(self.a + o, self.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, QuadExt):
            self._same_field(o)
            return _make(self.a - o.a, self.b - o.b, self.d)
        if isinstance(o, _RATIONAL):
            return _raw(self.a - o, self.b, self.d)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _RATIONAL):
            return _raw(o - self.a, -self.b, self.d)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, QuadExt):
            self._same_field(o)
            a, b = self.a, self.b
            return _make(a * o.a + b * o.b * self.d, a * o.b + b * o.a, self.d)
        if isinstance(o, _RATIONAL):
            return _make(self.a * o, self.b * o, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, QuadExt):
            self._same_field(o)
            # times the conjugate of o over its field norm, nonzero for o != 0
            n = o.a * o.a - o.b * o.b * self.d
            a, b = self.a, self.b
            return _make((a * o.a - b * o.b * self.d) / n, (b * o.a - a * o.b) / n,
                         self.d)
        if isinstance(o, _RATIONAL):
            if not o:
                raise ZeroDivisionError("division by zero in Q(sqrt(d))")
            return _raw(self.a / o, self.b / o, self.d)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _RATIONAL):
            n = self.a * self.a - self.b * self.b * self.d
            return _make(o * self.a / n, -o * self.b / n, self.d)
        return NotImplemented

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def sign(self):
        return _quad_sign(self.a, self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, _RATIONAL):
            return False  # b != 0 always
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def _sign_minus(self, o):
        """Sign of self - o, or None when o is no field scalar."""
        if isinstance(o, QuadExt):
            self._same_field(o)
            return _quad_sign(self.a - o.a, self.b - o.b, self.d)
        if isinstance(o, _RATIONAL):
            return _quad_sign(self.a - o, self.b, self.d)
        return None

    def __lt__(self, other):
        s = self._sign_minus(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._sign_minus(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._sign_minus(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._sign_minus(other)
        return NotImplemented if s is None else s >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"({self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt({self.d}))"


def _quad_sign(a, b, d):
    """Exact sign of ``a + b*sqrt(d)`` for rationals a, b."""
    na, nb = a.numerator, b.numerator
    sa, sb = (na > 0) - (na < 0), (nb > 0) - (nb < 0)
    if sa == sb or sa == 0:
        return sb if sa == 0 else sa
    if sb == 0:
        return sa
    # opposite signs: compare a^2 with b^2 d
    t = a * a - b * b * d
    if t == 0:
        return 0
    return sa if t > 0 else sb


def _frac_sign(q):
    return (q > 0) - (q < 0)


def is_exact_scalar(x):
    return isinstance(x, (int, Fraction, QuadExt))


def format_scalar(x, exact):
    """x as point-set files and reports write it: when exact, a rational
    ``p/q``, a quadratic-field ``a+b*sqrt(d)`` or a radical
    ``q+c*sqrt(m)+...``; otherwise a float repr."""
    if not exact:
        return repr(float(x))
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, QuadExt):
        b = format_scalar(x.b, True)
        term = f"sqrt({x.d})" if x.b == 1 else f"{b}*sqrt({x.d})"
        if x.a == 0:
            return term
        sign = "+" if x.b > 0 else ""
        return f"{format_scalar(x.a, True)}{sign}{term}"
    if isinstance(x, Radical):
        parts = []
        if x.rat != 0 or not x.terms:
            parts.append(format_scalar(x.rat, True))
        for c, m in x.terms:
            coef = "" if c == 1 else format_scalar(c, True) + "*"
            inner = format_scalar(m, True)
            parts.append(f"{coef}sqrt({inner})")
        return "+".join(parts).replace("+-", "-")
    raise ValueError(f"cannot serialize scalar {x!r} exactly")


def format_point(p):
    """A point for messages, each coordinate as :func:`format_scalar`
    writes a value of its type, e.g. ``(1/2, 1/6*sqrt(3))``."""
    return f"({', '.join(format_scalar(c, is_exact_scalar(c)) for c in p)})"


def ssign(x):
    """Exact sign of a field scalar."""
    if isinstance(x, QuadExt):
        return x.sign()
    return _frac_sign(x)


def sfloor(x):
    """Floor of a scalar as an int; exact for field scalars."""
    if isinstance(x, QuadExt):
        n = math.floor(float(x))
        # float estimate can be off by one near integers; fix exactly
        while ssign(x - n) < 0:
            n -= 1
        while ssign(x - (n + 1)) >= 0:
            n += 1
        return n
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    return math.floor(x)


def _frac_sqrt(q):
    """Exact sqrt of a nonnegative Fraction, or None if irrational."""
    q = _as_fraction(q)
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def field_sqrt(x):
    """Square root of a field scalar inside its own field, or None.

    For ``x = A + B*sqrt(d)`` a root ``p + q*sqrt(d)`` exists iff
    ``A^2 - B^2 d`` is a rational square and one of ``(A +- s)/2`` is too.
    """
    if isinstance(x, (int, Fraction)):
        return _frac_sqrt(x)
    if x.sign() < 0:
        return None
    s = _frac_sqrt(x.a * x.a - x.b * x.b * x.d)
    if s is None:
        return None
    for branch in (s, -s):
        p = _frac_sqrt((x.a + branch) / 2)
        if p is None or p == 0:
            continue
        cand = quadext(p, x.b / (2 * p), x.d)
        if ssign(cand) >= 0 and cand * cand == x:
            return cand
    return None


def _term_key(term):
    # deterministic ordering of radical terms; radicands are distinct
    return float(term[1])


class Radical:
    """Exact scalar ``rat + sum_i coef_i * sqrt(rad_i)``.

    ``rat``, the coefficients and the radicands are field scalars from one
    field (Fraction or a single Q(sqrt(d))).  Instances are immutable,
    totally ordered and support addition, subtraction and scaling by field
    scalars.  Signs are decided exactly by repeated squaring; comparisons
    first try a certified float interval (:meth:`interval`).
    """

    __slots__ = ("rat", "terms", "_hash", "_interval", "_band", "_floor2")

    def __init__(self, rat=0, terms=()):
        canon_rat, canon_terms = _canonicalize(rat, terms)
        object.__setattr__(self, "rat", canon_rat)
        object.__setattr__(self, "terms", canon_terms)

    def __setattr__(self, *a):
        raise AttributeError("Radical is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the value; cached slots are not carried
        return Radical, (self.rat, self.terms)

    @staticmethod
    def of(x):
        """The radical equal to a plain field scalar."""
        if not is_exact_scalar(x):
            raise TypeError(f"not an exact scalar: {x!r}")
        return Radical(x, ())

    @staticmethod
    def sqrt(m):
        """The radical sqrt(m) for a nonnegative field scalar m."""
        if ssign(m) < 0:
            raise ValueError("sqrt of a negative scalar")
        return Radical(0, ((1, m),))

    def __add__(self, other):
        if isinstance(other, Radical):
            return Radical(self.rat + other.rat, self.terms + other.terms)
        if is_exact_scalar(other):
            return Radical(self.rat + other, self.terms)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        # negation keeps the canonical form, so it skips _canonicalize
        neg = object.__new__(Radical)
        _set_attr(neg, "rat", -self.rat)
        _set_attr(neg, "terms", tuple((-c, m) for c, m in self.terms))
        return neg

    def __mul__(self, k):
        if not is_exact_scalar(k):
            return NotImplemented
        return Radical(self.rat * k, tuple((c * k, m) for c, m in self.terms))

    __rmul__ = __mul__

    def __truediv__(self, k):
        if not is_exact_scalar(k):
            return NotImplemented
        return self * (Fraction(1) / k if not isinstance(k, QuadExt) else 1 / k)

    def sign(self):
        return _sign_sum(self.rat, self.terms)

    def cmp(self, other):
        """Sign of self - other; other may be a Radical or field scalar.

        Disjoint float intervals (:meth:`interval`) decide it; ties, near-ties
        and values without an interval go to the exact kernel."""
        if is_exact_scalar(other):
            other = Radical.of(other)
        a, b = self.interval(), other.interval()
        if a is not None and b is not None:
            if a[1] < b[0]:
                return -1
            if a[0] > b[1]:
                return 1
        return (self - other).sign()

    def cmp_sqrt(self, d2):
        """Sign of self - sqrt(d2) for a nonnegative field scalar d2."""
        return self.cmp(Radical.sqrt(d2))

    def square_scalar(self):
        """self**2 as a field scalar, if self has at most one sqrt term."""
        if not self.terms:
            return self.rat * self.rat
        if len(self.terms) == 1 and ssign(self.rat) == 0:
            c, m = self.terms[0]
            return c * c * m
        return None

    def interval(self):
        """Floats (lo, hi) with lo <= self <= hi, or None.

        The value plus or minus _SLACK times the sum of the parts' absolute
        values; None unless every part is rational in the normal float range
        and that sum lies in _MAG_RANGE.  Zero has the interval (0.0, 0.0).
        Computed once per instance.
        """
        try:
            return self._interval
        except AttributeError:
            iv = _interval(self.rat, self.terms)
            object.__setattr__(self, "_interval", iv)
            return iv

    def square_band(self):
        """Floats (lo2, hi2) with lo2 < self**2 < hi2, or None.

        A rational d2 with ``float(d2) < lo2`` is certainly below self**2
        and one with ``float(d2) > hi2`` certainly above, so closed-ball
        tests need the exact kernel only inside the band.  None unless
        :meth:`interval` exists and is positive.  Computed once per instance.
        """
        try:
            return self._band
        except AttributeError:
            band = _square_band(self.interval())
            object.__setattr__(self, "_band", band)
            return band

    def square_floor(self, k=1):
        """floor(self**2 * k) for an int k >= 1, so that sqrt(d2 / k) <= self
        is d2 <= square_floor(k) for every int d2 >= 0; None when self**2 is
        irrational and its square band is missing or too wide to pin the
        floor.  Computed on first use and kept for the last k asked."""
        try:
            memo = self._floor2
        except AttributeError:
            memo = None
        if memo is None or memo[0] != k:
            memo = (k, _square_floor(self, k))
            object.__setattr__(self, "_floor2", memo)
        return memo[1]

    def __eq__(self, other):
        if isinstance(other, Radical) or is_exact_scalar(other):
            return self.cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __hash__(self):
        # _canonicalize merges radicands that differ by a field square, so
        # equal values share rat and, term by term, differ only as
        # (c, m) ~ (c/t, m*t*t) with t > 0: sign(c) and c*c*m are invariant.
        # A term-free value hashes like the equal field scalar.
        try:
            return self._hash
        except AttributeError:
            key = self.rat if not self.terms else (
                self.rat, frozenset((ssign(c), c * c * m) for c, m in self.terms))
            h = hash(key)
            object.__setattr__(self, "_hash", h)
            return h

    def __float__(self):
        return float(self.rat) + sum(float(c) * math.sqrt(float(m)) for c, m in self.terms)

    def __repr__(self):
        parts = [str(self.rat)] if self.rat != 0 or not self.terms else []
        for c, m in self.terms:
            parts.append(f"sqrt({m})" if c == 1 else f"{c}*sqrt({m})")
        return " + ".join(parts).replace("+ -", "- ")


def _to_field(x):
    if isinstance(x, int):
        return Fraction(x)
    if not is_exact_scalar(x):
        raise TypeError(f"not an exact scalar: {x!r}")
    return x


def _canonicalize(rat, terms):
    merged = []
    rat = _to_field(rat)
    terms = [(_to_field(c), _to_field(m)) for c, m in terms]
    for c, m in terms:
        if ssign(c) == 0 or ssign(m) == 0:
            continue
        if ssign(m) < 0:
            raise ValueError("negative radicand")
        r = field_sqrt(m)
        if r is not None:
            rat = rat + c * r
            continue
        placed = False
        for i, (c0, m0) in enumerate(merged):
            if m0 == m:
                merged[i] = (c0 + c, m0)
                placed = True
                break
            # sqrt(m) = t*sqrt(m0) iff m/m0 is a field square
            ratio = field_sqrt(m / m0)
            if ratio is not None:
                merged[i] = (c0 + c * ratio, m0)
                placed = True
                break
        if not placed:
            merged.append((c, m))
    merged = [(c, m) for c, m in merged if ssign(c) != 0]
    merged.sort(key=_term_key)
    return rat, tuple(merged)


def _square(u, terms):
    """Exact expansion of (u + sum c_i sqrt(m_i))**2 as (rat, terms)."""
    rat = u * u
    out = []
    for c, m in terms:
        rat = rat + c * c * m
        if ssign(u) != 0:
            out.append((2 * u * c, m))
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            ci, mi = terms[i]
            cj, mj = terms[j]
            out.append((2 * ci * cj, mi * mj))
    return rat, out


def _sign_sum(u, terms):
    """Exact sign of u + sum_i c_i*sqrt(m_i).

    Decides by splitting into two halves and squaring; terminates for any
    sum with <= 3 sqrt terms, or 4 terms with u == 0 (all the library ever
    produces; composite radii carry at most two sqrt terms).
    """
    terms = [(c, m) for c, m in terms if ssign(c) != 0 and ssign(m) != 0]
    k = len(terms)
    su = ssign(u)
    if k == 0:
        return su
    if k == 1:
        c, m = terms[0]
        sc = ssign(c)
        if su == 0:
            return sc
        if su == sc:
            return su
        t = ssign(u * u - c * c * m)
        if t == 0:
            return 0
        return su if t > 0 else sc
    if k >= 4 and su != 0:
        raise ExactComparisonError(
            "cannot decide sign of a 4-term radical with a rational part")
    if k >= 5:
        raise ExactComparisonError("too many radical terms")
    if k == 4:
        a_terms, b_terms = terms[:2], terms[2:]
        a_rat = u  # zero here
    else:
        a_terms, b_terms = terms[:1], terms[1:]
        a_rat = u
    # sign(A + B) where A = a_rat + a_terms, B = b_terms
    sa = _sign_sum(a_rat, a_terms)
    snb = _sign_sum(0, [(-c, m) for c, m in b_terms])  # sign(-B)
    if sa != snb:
        if sa == 0:
            return -snb
        return sa
    if sa == 0:
        return 0
    a2_rat, a2_terms = _square(a_rat, a_terms)
    b2_rat, b2_terms = _square(0, b_terms)
    diff_sign = _sign_sum(a2_rat - b2_rat,
                          list(a2_terms) + [(-c, m) for c, m in b2_terms])
    # both A and -B share sign sa: A > -B iff |A| > |B| (sa=1) or |A| < |B| (sa=-1)
    return diff_sign if sa > 0 else -diff_sign


# Float filter for radical comparisons and ball tests (Shewchuk-style:
# decide in floats under a rigorous error bound, fall back to the exact
# kernel otherwise).
# A part converted from a rational in the normal range errs by at most
# 2**-53 relative; products, roots and sums of a few such parts err by
# under 2**-48 of the sum of their absolute values, far below _SLACK.
_SLACK = 1e-12
_MAG_RANGE = (1e-140, 1e140)   # keeps every square normal and finite


def _normal_float(q):
    """float(q) for a rational q whose conversion is relatively exact, or None."""
    if not isinstance(q, (int, Fraction)):
        return None
    try:
        f = float(q)
    except OverflowError:
        return None
    if f == 0.0:
        return f if q == 0 else None
    return f if abs(f) >= sys.float_info.min else None


def _interval(rat, terms):
    value = magnitude = 0.0
    for c, m in ((rat, 1),) + terms:
        fc, fm = _normal_float(c), _normal_float(m)
        if fc is None or fm is None:
            return None
        t = fc * math.sqrt(fm)
        value += t
        magnitude += abs(t)
    if not (_MAG_RANGE[0] <= magnitude <= _MAG_RANGE[1] or (rat == 0 and not terms)):
        return None
    return value - _SLACK * magnitude, value + _SLACK * magnitude


def _square_band(iv):
    if iv is None or iv[0] <= 0:
        return None
    lo, hi = iv
    lo2, hi2 = lo * lo * (1 - _SLACK), hi * hi * (1 + _SLACK)
    return (lo2, hi2) if lo2 >= _MAG_RANGE[0] ** 2 else None


def _square_floor(r, k):
    """floor(r**2 * k), or -1 when r < 0; see :meth:`Radical.square_floor`.
    A rational square is floored exactly.  Otherwise the band brackets the
    floor between two ints, and the exact kernel picks and confirms it:
    sqrt(t / k) <= r < sqrt((t + 1) / k)."""
    sq = r.square_scalar()
    if sq is not None:
        return sfloor(sq * k) if r.sign() >= 0 else -1
    band = r.square_band()
    if band is None:
        return None
    try:
        lo, hi = math.floor(band[0] * k), math.floor(band[1] * k)
    except OverflowError:
        return None
    if hi - lo > 1 or r.cmp_sqrt(Fraction(lo, k)) < 0:
        return None
    t = lo
    while r.cmp_sqrt(Fraction(t + 1, k)) >= 0:
        if t >= hi:
            return None
        t += 1
    return t
