"""Lattice frames: int keys for periodic sets off the Cartesian grid.

A handle's int point keys take one path, the key frame (``sets.Frame``),
the grid being W = I.  An exact periodic set whose coordinates are not all
rational (the triangular lattice, the honeycomb, hexagonal crystals) has
no grid.  It has
a lattice frame when its LLL-reduced basis B has a rational Gram matrix G
and its motif points rational lattice coordinates: a point m0 + u B, for
the first motif point m0, has the int key s u, with s the least common
denominator of the motif's lattice coordinates, and the squared distance
of two points is d2 = D^T W D / scale2 for their key difference D, with the
int form W = den G and scale2 = den s**2, den the least common denominator
of G (Conway and Sloane, *Sphere Packings, Lattices and Groups*, ch. 1).
An isometry acts on keys as a rational matrix M, which preserves W, and
its Cartesian matrix is B^T M B^-T (Plesken and Souvignier, "Computing
isometries of lattices", J. Symbolic Comput. 24, 1997, compute isometries
on such forms).

``PointSetHandle._frame`` imports this module only for an exact periodic
handle with no scale, so the sets on a grid never compile it.
"""

import math
from fractions import Fraction
from itertools import chain
from operator import mul, sub

from .geometry import mat_t, p_dot, p_sub
from .scalars import QuadExt, _make
from .sets import Frame, _common_denominator, _on_grid


class LatticeFrame(Frame):
    """The lattice frame of a lattice and motif (module docstring).  The
    keys of the reduced basis vectors (``steps``) are s times the unit
    vectors, so a point m + k B has the key of m plus k @ steps, as on the
    grid.  :meth:`point` and :meth:`cartesian` work in int arithmetic
    (:func:`_int_parts`)."""

    cartesian_keys = False

    def __init__(self, lattice, origin, s, den, gram, coords):
        d = lattice.dim
        super().__init__(s, motif=tuple(_on_grid(u, s) for u in coords),
                         steps=tuple(tuple(s * (i == j) for j in range(d)) for i in range(d)))
        self.lattice, self.origin, self.scale2, self._points = lattice, origin, den * s * s, {}
        self.form = tuple(tuple(int(g * den) for g in gram[i * d:(i + 1) * d]) for i in range(d))
        bt, it = mat_t(lattice.reduced), mat_t(lattice._inv)  # B^T and B^-T
        # coordinate j of a point is (key @ column j of B + s origin_j) / s
        self._columns = [_int_parts(col + (s * o,)) for col, o in zip(bt, origin)]
        # entry (a, b) of B^T M B^-T, term by term over M's entries
        self._terms = [_int_parts([bt[a][i] * it[j][b] for i in range(d) for j in range(d)])
                       for a in range(d) for b in range(d)]

    def key(self, p):
        """s u for p = origin + u B, or None when that is not integral."""
        return _on_grid(self.lattice.coords(p_sub(p, self.origin)), self.s)

    def point(self, key):
        """origin + key @ B / s, built once per frame."""
        p = self._points.get(key)
        if p is None:
            p = self._points[key] = tuple(_int_sum(key + (1,), parts, self.s)
                                          for parts in self._columns)
        return p

    def dot(self, a, b):
        return sum(x * sum(map(mul, row, b)) for x, row in zip(a, self.form))

    def dist2(self, a, b):
        v = tuple(map(sub, a, b))
        return self.dot(v, v)

    def cartesian(self, m):
        """B^T M B^-T: the row-major Cartesian matrix of the map k -> M k of
        keys (as a column x = B^T k / s); M has rational entries."""
        flat = [x for r in m for x in r]
        q = math.lcm(*(x.denominator for x in flat))
        n = [x.numerator * (q // x.denominator) for x in flat]
        d = len(m)
        out = [_int_sum(n, parts, q) for parts in self._terms]
        return tuple(tuple(out[a * d:(a + 1) * d]) for a in range(d))


def _int_parts(values):
    """Field scalars of one field as (den, [r], [q], root), with value i
    (r_i + q_i sqrt(root)) / den for ints r_i and q_i."""
    parts = [(x.a, x.b) if isinstance(x, QuadExt) else (x, 0) for x in values]
    den = _common_denominator(chain.from_iterable(parts))
    root = next((x.d for x in values if isinstance(x, QuadExt)), None)
    return den, [int(a * den) for a, _ in parts], [int(b * den) for _, b in parts], root


def _int_sum(n, parts, scale):
    """The sum of n_i value_i / scale for ints n_i, values in :func:`_int_parts`."""
    den, r, q, root = parts
    return _make(Fraction(sum(map(mul, n, r)), den * scale),
                 Fraction(sum(map(mul, n, q)), den * scale), root)


def lattice_frame(lattice, motif):
    """The :class:`LatticeFrame` of a lattice and motif with origin the first
    motif point, or None when the reduced basis has an irrational Gram
    matrix or a motif point irrational lattice coordinates."""
    basis = lattice.reduced
    gram = [p_dot(a, b) for a in basis for b in basis]
    coords = [lattice.coords(p_sub(m, motif[0])) for m in motif]
    den, s = _common_denominator(gram), _common_denominator(chain.from_iterable(coords))
    if den is None or s is None:
        return None
    return LatticeFrame(lattice, motif[0], s, den, gram, coords)
