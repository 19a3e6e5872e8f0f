"""Points, isometries, lattices and the tolerance model.

Points are plain tuples of scalars.  In exact mode the scalars are
Fractions (or QuadExt elements of one quadratic field); in floating mode
they are Python floats and all predicates compare against an absolute
tolerance ``eps_abs``.

Matrix routines and the isometry tests take no mode: only :func:`_nonzero`
decides zero, by the scalar's type, exactly for field scalars and against
``FLOAT_ZERO`` for floats.  One Gauss-Jordan pass (:func:`_eliminate`)
gives the solve, inverse, determinant and rank, and one Gram-Schmidt
(:func:`_gram_schmidt`) serves LLL reduction and orthogonal complements.

Hash grids over float copies of points live here too: the float point set
and offset map of the tolerance, and the uniform cell table that indexes a
window's points for range queries (:func:`_float_index`).

An isometry is stored as an orthogonal linear part plus a shift,
``g(p) = linear @ p + shift``.  Matrices are row-major tuples of tuples.
"""

import math
from fractions import Fraction
from itertools import chain, product
from operator import mul

from .scalars import QuadExt, Radical, is_exact_scalar, sfloor

__all__ = [
    "ConvergenceError",
    "Tolerance",
    "Isometry",
    "Lattice",
    "apply",
    "compose",
    "point_inversion",
    "points_equal",
    "identity",
    "translation",
    "dist_sq",
    "p_add",
    "p_sub",
]

# a float pivot, residual or matrix entry at most this large counts as zero
FLOAT_ZERO = 1e-9


class ConvergenceError(RuntimeError):
    """An iterative search ran past its iteration bound without an answer."""


class Record:
    """Immutable record: a subclass's fields are its own annotations, in
    order, and a class attribute of a field's name is its default.

    Fields are given by position or keyword; ``__post_init__`` runs when
    the class defines one.  Instances compare and hash by the fields named
    in the ``compare`` class keyword (all fields by default), and never
    equal an instance of another class.  Assignment and ``del`` raise
    AttributeError; ``cached_property`` writes the instance ``__dict__``
    and still caches.  Building a class generates no code and imports
    nothing, which keeps the start of every CLI run short.
    """

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(cls.__annotations__)
        cls._compare = cls._fields if compare is None else tuple(compare)
        cls._defaults = {n: own[n] for n in cls._fields if n in own}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for f in kwargs:
            if f in values or f not in fields:
                raise TypeError(f"{name}() got {'a repeated' if f in values else 'an unknown'}"
                                f" field {f!r}")
        values.update(kwargs)
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() is missing fields {missing}")
        self.__dict__.update(self._defaults)
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self):
        return tuple([self.__dict__[f] for f in self._compare])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._compare)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Tolerance(Record):
    """Numeric regime: exact field arithmetic or floats with eps_abs.

    Every predicate whose exact and float forms differ is a method here, so
    callers state what they decide once.  Exact mode compares exactly;
    float mode allows ``eps_abs`` on the side each method names.

    With no tolerance given, the values decide (:meth:`of`): exact scalars
    run exact, floats run in float mode.  A float handle built that way
    gets eps_abs = 1e-9 times its packing radius; a bare cluster or seed
    keeps eps_abs = 1e-9.
    """

    mode: str = "exact"          # "exact" | "float"
    eps_abs: float = 1e-9

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown numeric mode {self.mode!r}")
        if self.mode == "float" and not 0 < self.eps_abs < math.inf:
            raise ValueError("eps_abs must be positive and finite in floating mode")

    @property
    def exact(self):
        return self.mode == "exact"

    @staticmethod
    def exact_mode():
        return Tolerance("exact")

    @staticmethod
    def floating(eps_abs=1e-9):
        return Tolerance("float", eps_abs)

    @staticmethod
    def of(points):
        """The default for these points: exact when every coordinate is an
        exact scalar, otherwise floating with eps_abs = 1e-9."""
        return Tolerance("exact" if all(map(point_is_exact, points)) else "float")

    def le(self, a, b):
        """a <= b; float mode tests a <= b + eps_abs."""
        return a <= b if self.exact else a <= b + self.eps_abs

    def ge(self, a, b):
        """a >= b; float mode tests a >= b - eps_abs."""
        return a >= b if self.exact else a >= b - self.eps_abs

    def is_zero(self, x):
        """x == 0; float mode tests |x| <= eps_abs."""
        return x == 0 if self.exact else abs(x) <= self.eps_abs

    def same_point(self, p, q):
        """Equal points (exact) or max-norm closeness (floating)."""
        if self.exact:
            return p == q
        return all(abs(a - b) <= self.eps_abs for a, b in zip(p, q))

    def sqrt(self, x):
        """sqrt of a nonnegative scalar: a Radical (exact) or a float."""
        return Radical.sqrt(x) if self.exact else math.sqrt(x)

    def point_set(self, points):
        """Container whose ``in`` is :meth:`same_point` membership and
        whose ``get(p)`` is the position in ``points`` of a point
        :meth:`same_point` as p, or None."""
        if self.exact:
            return {p: i for i, p in enumerate(points)}
        return _FloatGrid(points, self.eps_abs)

    def offset_map(self):
        """Mapping from tuples of offset vectors: a dict (exact), or one
        whose ``get`` finds a stored tuple each of whose vectors is
        :meth:`same_point` as one of the query's (floating)."""
        if self.exact:
            return {}
        return _FloatOffsetMap(self.eps_abs)

    def radius_at_least(self, rho_f):
        """A radius guaranteed to be >= the float rho_f."""
        if self.exact:
            return Radical.of(Fraction(rho_f) + Fraction(1, 1024))
        return rho_f

    def distinct_sq(self, d2s):
        """Squared distances with distinct roots, ascending.

        Float mode drops a value whose root lies within eps_abs of the root
        of the last value kept.
        """
        if self.exact:
            return sorted(set(d2s), key=float)
        out = []
        for d2 in sorted(d2s):
            if not out or math.sqrt(d2) - math.sqrt(out[-1]) > self.eps_abs:
                out.append(d2)
        return out


def _cell_side(eps):
    """A power of two near 1024 eps: a cell of this side, centred on a
    multiple of it, holds a point's whole eps-box almost always, and dyadic
    coordinates fall mid-cell."""
    return 2.0 ** round(math.log2(1024 * eps))


class _FloatGrid:
    """Hash grid for approximate point membership in floating mode; ``get``
    gives the input position of a point within eps, or None.  A lookup
    probes the cells that the box of half-side 2 eps about the point meets
    (the pad covers rounding in the eps test), almost always one."""

    def __init__(self, points, eps):
        self.eps = eps
        self.side = _cell_side(eps)
        self.map = {}
        for i, p in enumerate(points):
            key = tuple(round(c / self.side) for c in p)
            self.map.setdefault(key, []).append((p, i))

    def get(self, p):
        pad, side = 2 * self.eps, self.side
        ranges = [range(round((c - pad) / side), round((c + pad) / side) + 1) for c in p]
        for cell in product(*ranges):
            for q, i in self.map.get(cell, ()):
                if all(abs(a - b) <= self.eps for a, b in zip(p, q)):
                    return i
        return None

    def __contains__(self, p):
        return self.get(p) is not None


class _FloatOffsetMap:
    """Dict-like map from tuples of float vectors in floating mode.

    A tuple is keyed by its vectors rounded to cells of side
    :func:`_cell_side` and sorted.  A key hit counts only if, with both
    tuples sorted by key, every vector is within eps of its partner; a tuple
    straddling a cell edge misses, which costs the caller only the work it
    does without a map."""

    def __init__(self, eps):
        self.eps = eps
        self.side = _cell_side(eps)
        self.map = {}

    def _sorted(self, vectors):
        keyed = sorted((tuple(round(c / self.side) for c in v), v) for v in vectors)
        return tuple(k for k, _ in keyed), [v for _, v in keyed]

    def get(self, vectors):
        key, vs = self._sorted(vectors)
        for stored, value in self.map.get(key, ()):
            if all(abs(a - b) <= self.eps for u, w in zip(vs, stored) for a, b in zip(u, w)):
                return value
        return None

    def __setitem__(self, vectors, value):
        key, vs = self._sorted(vectors)
        self.map.setdefault(key, []).append((vs, value))


def _float_index(points):
    """A uniform cell hash over float copies of the points (Bentley, Stanat
    and Williams, IPL 1977), side the largest 2 (e_1 ... e_k / n)^(1/k) over
    the widest extents e_i: (magnitude bound, origin, side, cells per axis,
    copies, {cell: indices}); None if a conversion overflows, an extent or
    the side is not finite, or every extent is 0."""
    try:
        fpts, mag = zip(*map(_float_point, points))
    except OverflowError:
        return None
    columns = list(zip(*fpts))
    origin = [min(col) for col in columns]
    ext = [max(col) - a for col, a in zip(columns, origin)]
    wide = sorted(filter(None, ext), reverse=True)
    side = 0.0
    for k in range(1, len(wide) + 1):  # thinner extents fit in one cell and would shrink it
        side = max(side, 2 * (math.prod(wide[:k]) / len(fpts)) ** (1 / k))
    if not all(map(math.isfinite, chain(mag, ext, (side,)))) or side <= 0:
        return None
    table = {}
    for i, q in enumerate(fpts):
        cell = tuple(int((a - b) / side) for a, b in zip(q, origin))
        table.setdefault(cell, []).append(i)
    return max(mag), origin, side, [int(e / side) + 1 for e in ext], fpts, table


def _float_point(p):
    """(float copy of p, bound on its parts' magnitudes); a + b*sqrt(d)
    converts with error relative to |a| + |b|*sqrt(d), not to its value."""
    out = tuple(map(float, p))  # float(x) of a float x is x itself
    mag = 0.0
    for c, x in zip(p, out):
        if isinstance(c, QuadExt):
            x = abs(float(c.a)) + abs(float(c.b)) * math.sqrt(c.d)
        mag = max(mag, abs(x))
    return out, mag


def _check_dims(p, q):
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")


def p_add(p, q):
    _check_dims(p, q)
    return tuple(a + b for a, b in zip(p, q))


def p_sub(p, q):
    _check_dims(p, q)
    return tuple(a - b for a, b in zip(p, q))


def p_neg(p):
    return tuple(-a for a in p)


def p_scale(p, k):
    return tuple(a * k for a in p)


def p_dot(p, q):
    _check_dims(p, q)
    return sum(map(mul, p, q))


def dist_sq(p, q):
    """Squared distance, a field scalar (or float in floating mode)."""
    _check_dims(p, q)
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def points_equal(p, q, tol):
    """Componentwise equality (exact) or max-norm closeness (floating)."""
    _check_dims(p, q)
    return tol.same_point(p, q)


def point_is_exact(p):
    return all(is_exact_scalar(c) for c in p)


# ---------------------------------------------------------------------------
# small dense matrices over a field (or floats), row-major tuples

def mat_identity(d):
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def mat_vec(m, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in m)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


def mat_t(m):
    return tuple(zip(*m))


def _nonzero(x):
    """x != 0, exactly for field scalars (a QuadExt is never 0)."""
    if isinstance(x, float):
        return abs(x) > FLOAT_ZERO
    return x != 0


def fdiv(a, b):
    """Field-safe division (ints promote to Fractions)."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    if isinstance(b, int):
        b = Fraction(b)
    return a / b


def _eliminate(rows, ncols):
    """Gauss-Jordan elimination in place on the first ncols columns of rows
    (lists); later columns ride along.  Each pivot is the entry of largest
    float magnitude that :func:`_nonzero` accepts among the rows not yet
    pivoted; a column with none is skipped.  Returns (pivot count, sign of
    the row permutation)."""
    r, sign = 0, 1
    for col in range(ncols):
        piv, best = None, -1.0
        for i in range(r, len(rows)):
            v = rows[i][col]
            if _nonzero(v) and abs(float(v)) > best:
                piv, best = i, abs(float(v))
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        for i, row in enumerate(rows):
            f = row[col]
            if i == r or f == 0:
                continue
            fi = fdiv(f, prow[col])
            for j in range(col, len(row)):
                row[j] = row[j] - fi * prow[j]
        r += 1
    return r, sign


def mat_solve(a, rhs_cols):
    """Solve ``a @ X = rhs`` for the matrix X; rhs given as columns.

    Returns the solution as a tuple of columns, or None if ``a`` is
    singular (a column has no pivot that passes :func:`_nonzero`).
    """
    n = len(a)
    aug = [list(a[i]) + [col[i] for col in rhs_cols] for i in range(n)]
    if _eliminate(aug, n)[0] < n:
        return None
    return tuple(tuple(fdiv(aug[i][n + k], aug[i][i]) for i in range(n))
                 for k in range(len(rhs_cols)))


def mat_inv(m):
    cols = mat_solve(m, mat_identity(len(m)))  # the identity is its own transpose
    return None if cols is None else mat_t(cols)


def mat_det(m):
    a = [list(r) for r in m]
    pivots, sign = _eliminate(a, len(a))
    if pivots < len(a):
        return Fraction(0)
    return math.prod((r[i] for i, r in enumerate(a)), start=Fraction(sign))


def rank(vectors):
    """Rank of a list of d-vectors over the field."""
    if not vectors:
        return 0
    return _eliminate([list(v) for v in vectors], len(vectors[0]))[0]


def _gram_schmidt(vectors):
    """Classical Gram-Schmidt: (star, mu) with star_i = b_i - sum over j < i
    of mu_ij star_j and mu_ij = <b_i, star_j> / <star_j, star_j>.  A star
    vector that :func:`_nonzero` calls zero projects nothing (mu_ij = 0)."""
    star, mu, norms = [], [], []
    for b in vectors:
        v, row = list(b), []
        for s, n2 in zip(star, norms):
            if n2 is None:
                row.append(0)
                continue
            m = fdiv(sum(b[t] * s[t] for t in range(len(v))), n2)
            row.append(m)
            for t in range(len(v)):
                v[t] = v[t] - m * s[t]
        star.append(v)
        mu.append(row)
        norms.append(sum(x * x for x in v) if any(map(_nonzero, v)) else None)
    return star, mu


def orthogonal_complement(vectors, d):
    """Exact basis of the orthogonal complement of span(vectors) in R^d.

    Gram-Schmidt on the vectors followed by the standard basis; the star
    vectors of the standard basis that are not zero are pairwise orthogonal
    and orthogonal to every input vector, with field-scalar entries (no
    normalization).
    """
    star, _ = _gram_schmidt([*vectors, *mat_identity(d)])
    return [tuple(w) for w in star[len(vectors):] if any(map(_nonzero, w))]


# ---------------------------------------------------------------------------
# isometries

class Isometry(Record):
    """Affine map ``p -> linear @ p + shift`` with orthogonal linear part."""

    linear: tuple
    shift: tuple

    @property
    def dim(self):
        return len(self.shift)

    def __post_init__(self):
        if len(self.linear) != len(self.shift) or any(len(r) != len(self.shift) for r in self.linear):
            raise ValueError("linear part and shift dimensions disagree")

    def __call__(self, p):
        return apply(self, p)

    def inverse(self):
        lt = mat_t(self.linear)
        return Isometry(lt, p_neg(mat_vec(lt, self.shift)))

    def det(self):
        return mat_det(self.linear)

    def is_orthogonal(self):
        """Whether :func:`_nonzero` calls every entry of L^T L - I zero."""
        m = mat_mul(mat_t(self.linear), self.linear)
        return not any(_nonzero(x - 1 if i == j else x) for i, r in enumerate(m) for j, x in enumerate(r))


def identity(d):
    return Isometry(mat_identity(d), tuple(Fraction(0) for _ in range(d)))


def translation(v):
    return Isometry(mat_identity(len(v)), tuple(v))


def apply(g, p):
    """Image ``linear @ p + shift`` of a point under an isometry."""
    if g.dim != len(p):
        raise ValueError(f"dimension mismatch: isometry is {g.dim}-d, point is {len(p)}-d")
    return p_add(mat_vec(g.linear, p), g.shift)


def compose(g, h):
    """The isometry ``p -> g(h(p))`` (h acts first)."""
    if g.dim != h.dim:
        raise ValueError("dimension mismatch in composition")
    return Isometry(mat_mul(g.linear, h.linear),
                    p_add(mat_vec(g.linear, h.shift), g.shift))


def point_inversion(x):
    """Central inversion ``p -> 2x - p`` about the point x; an involution."""
    d = len(x)
    lin = tuple(tuple(Fraction(-1 if i == j else 0) for j in range(d)) for i in range(d))
    return Isometry(lin, tuple(2 * c for c in x))


# ---------------------------------------------------------------------------
# lattices

def _snearest(x):
    if isinstance(x, float):
        return math.floor(x + 0.5)
    return sfloor(x + Fraction(1, 2))


def lll_reduce(basis, delta=Fraction(3, 4)):
    """Lenstra-Lenstra-Lovasz reduction of a full-rank basis (rows)."""
    b = [list(v) for v in basis]
    n = len(b)
    star, mu = _gram_schmidt(b)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            raise ConvergenceError("LLL failed to terminate")
        for j in range(k - 1, -1, -1):
            q = _snearest(mu[k][j])
            if q != 0:
                for t in range(len(b[k])):
                    b[k][t] = b[k][t] - q * b[j][t]
                star, mu = _gram_schmidt(b)
        lhs = sum(x * x for x in star[k])
        rhs = (delta - mu[k][k - 1] * mu[k][k - 1]) * sum(x * x for x in star[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
    return tuple(tuple(v) for v in b)


class Lattice:
    """Full-rank lattice spanned by d basis vectors (rows).

    Stores the raw basis together with an LLL-reduced copy used for
    enumeration and nearest-vector heuristics.  ``exact`` is inferred from
    the entry types.
    """

    def __init__(self, basis):
        basis = tuple(tuple(v) for v in basis)
        d = len(basis)
        if any(len(v) != d for v in basis):
            raise ValueError("lattice basis must be square (d vectors of length d)")
        self.exact = all(point_is_exact(v) for v in basis)
        det = mat_det(basis)
        # a float det is zero relative to Hadamard's bound |det| <= prod |b_i|
        if det == 0 or (isinstance(det, float)
                        and abs(det) <= FLOAT_ZERO * math.prod(math.hypot(*v) for v in basis)):
            raise ValueError("degenerate lattice basis")
        self.basis = basis
        self.dim = d
        self.det = det
        self.reduced = lll_reduce(basis)
        self._inv = mat_inv(self.reduced)  # columns of B^-1
        self._inv_float = [[float(x) for x in row] for row in self._inv]

    def coords(self, v):
        """Coefficients k with v = k @ reduced_basis (field scalars)."""
        return tuple(sum(v[i] * self._inv[i][j] for i in range(self.dim))
                     for j in range(self.dim))

    def contains(self, v, tol):
        """Whether v is a lattice vector."""
        ks = self.coords(v)
        if tol.exact:
            return all(isinstance(k, Fraction) and k.denominator == 1 for k in ks)
        return all(abs(k - round(k)) <= tol.eps_abs for k in ks)

    def from_coords(self, ks):
        return tuple(sum(ks[i] * self.reduced[i][j] for i in range(self.dim))
                     for j in range(self.dim))

    def reduce_point(self, p):
        """Canonical representative of p modulo the lattice, in [0,1)^d cell."""
        ks = self.coords(p)
        if self.exact:
            fl = tuple(sfloor(k) for k in ks)
        else:
            fl = tuple(math.floor(k + 1e-12) for k in ks)
        return p_sub(p, self.from_coords(fl))

    def offsets_in_ball(self, v, rho_float):
        """Integer tuples k such that |k @ reduced - v| <= rho can hold.

        A conservative float box.  Its one caller is the periodic branch of
        ``PointSetHandle._ball``, which re-tests membership exactly; box
        queries and the closest pair filter that query's hits.
        """
        d = self.dim
        vf = [float(x) for x in v]
        k0 = [sum(vf[i] * self._inv_float[i][j] for i in range(d)) for j in range(d)]
        cols = [[self._inv_float[i][j] for i in range(d)] for j in range(d)]
        hw = [rho_float * math.sqrt(sum(c * c for c in col)) + 0.01 for col in cols]
        ranges = [range(math.floor(k0[j] - hw[j] - 0.5), math.ceil(k0[j] + hw[j] + 0.5) + 1)
                  for j in range(d)]
        return product(*ranges)

    def scaled(self, k):
        """The lattice k * Lambda."""
        return Lattice(tuple(p_scale(v, k) for v in self.basis))

    def __repr__(self):
        return f"Lattice({self.basis!r})"


def lattice_from_generators(vectors):
    """The lattice generated by an arbitrary set of (rational) vectors.

    Uses integer HNF on a common-denominator scaling; requires full rank.
    Only supported in exact mode with Fraction entries.
    """
    vecs = [v for v in vectors if any(map(_nonzero, v))]
    if not vecs:
        raise ValueError("no nonzero generators")
    d = len(vecs[0])
    if rank(vecs) < d:
        raise ValueError("generators do not span the space")
    den = 1
    for v in vecs:
        for c in v:
            if isinstance(c, Fraction):
                den = den * c.denominator // math.gcd(den, c.denominator)
            elif not isinstance(c, int):
                raise ValueError("lattice generators must be rational")
    rows = [[int(c * den) for c in v] for v in vecs]
    h = _hnf(rows, d)
    return Lattice(tuple(tuple(Fraction(x, den) for x in row) for row in h))


def _hnf(rows, d):
    """Row-style Hermite normal form; returns d independent rows."""
    rows = [list(r) for r in rows]
    out = []
    col = 0
    while col < d:
        pivots = [r for r in rows if r[col] != 0]
        if not pivots:
            raise ValueError("generators lost rank in HNF")
        while True:
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            done = True
            for r in pivots[1:]:
                q = r[col] // p[col]
                if q != 0:
                    for j in range(d):
                        r[j] -= q * p[j]
                    done = False
            pivots = [r for r in pivots if r[col] != 0]
            if done and len(pivots) == 1:
                break
        piv = pivots[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
        rows = [r for r in rows if r is not piv and any(r)]
        for r in rows:
            q = r[col] // piv[col]
            if q:
                for j in range(d):
                    r[j] -= q * piv[j]
        rows = [r for r in rows if any(x != 0 for x in r)]
        col += 1
    return out
