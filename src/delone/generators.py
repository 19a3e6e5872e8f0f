"""Constructors for the fixture families: lattices, coset unions,
crystallographic orbits, and the shifted-row family whose generic members
have identical b-clusters everywhere yet are not regular systems.
"""

from fractions import Fraction

from .geometry import (Lattice, Record, Tolerance, apply, fdiv, mat_vec,
                       p_scale, p_sub)
from .scalars import quadext, sfloor, ssign
from .sets import build_periodic, build_window, crop_to_window

__all__ = [
    "ShiftSequence",
    "ShiftedRowSpec",
    "CrystalSpec",
    "gen_lattice",
    "gen_coset_union",
    "gen_crystal",
    "gen_shifted_rows",
    "square_lattice",
    "triangular_lattice",
    "honeycomb",
    "three_coset_fixture",
]

ORBIT_CAP = 512  # orbit points per cell before the generators count as non-crystallographic


class ShiftSequence(Record):
    """Finite word over {L, R} encoding couple-to-couple shifts."""

    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise ValueError("shift sequence must be nonempty")
        if any(ch not in ("L", "R") for ch in self.letters):
            raise ValueError("shift sequence letters must be 'L' or 'R'")

    @staticmethod
    def parse(word):
        return ShiftSequence(tuple(word.strip().upper()))

    def __str__(self):
        return "".join(self.letters)


class ShiftedRowSpec(Record):
    """Parameters of the shifted-row construction.

    Rows with horizontal spacing ``a`` sit at heights i*b and move in
    couples (2i, 2i+1); each couple is offset from the previous one by +-c
    according to the sequence (R = +c to the right).  Requires 0 < c < a/2
    and a < b.  ``extent`` is the window half-width in x.
    """

    a: object = Fraction(1, 5)
    b: object = Fraction(1)
    c: object = Fraction(1, 20)
    sequence: ShiftSequence = ShiftSequence(("R",))
    extent: object = Fraction(3)

    def __post_init__(self):
        if not (ssign(self.c) > 0 and ssign(self.a - 2 * self.c) > 0):
            raise ValueError("need 0 < c < a/2")
        if not ssign(self.b - self.a) > 0:
            raise ValueError("need a < b")
        if not ssign(self.extent) > 0:
            raise ValueError("extent must be positive")


class CrystalSpec(Record):
    """A lattice, point-group generators, and motif points to orbit."""

    lattice: Lattice
    generators: tuple
    motif: tuple


def _crop(handle, extent):
    """handle itself, or its window [-extent, extent]^d when extent is set."""
    if extent is None:
        return handle
    return crop_to_window(handle, (-extent,) * handle.dim, (extent,) * handle.dim)


def gen_lattice(basis, extent=None, tol=None):
    """The lattice itself as a Delone set (motif = origin)."""
    lattice = basis if isinstance(basis, Lattice) else Lattice(basis)
    return _crop(build_periodic(lattice, [(0,) * lattice.dim], tol=tol), extent)


def gen_coset_union(lattice, half_vectors, extent=None, tol=None):
    """The union of cosets x + lambda_i/2 + Lambda.

    Half-vectors must be lattice vectors, pairwise distinct modulo
    2*Lambda, and fewer than 2^d of them (2^d would force a finer lattice).
    """
    lattice = lattice if isinstance(lattice, Lattice) else Lattice(lattice)
    check = tol or Tolerance.of(lattice.basis)
    vecs = [tuple(v) for v in half_vectors]
    if not vecs:
        raise ValueError("need at least one half-vector")
    d = lattice.dim
    if len(vecs) > 2 ** d - 1:
        raise ValueError(
            f"{len(vecs)} cosets in dimension {d}: at most {2**d - 1} are possible "
            "(a full 2^d family is itself a finer lattice)")
    for v in vecs:
        if not lattice.contains(v, check):
            raise ValueError(f"half-vector {v} is not a lattice vector")
    two_lam = lattice.scaled(2)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if two_lam.contains(p_sub(vecs[i], vecs[j]), check):
                raise ValueError(
                    f"half-vectors {vecs[i]} and {vecs[j]} coincide modulo 2*Lambda")
    motif = [p_scale(v, Fraction(1, 2)) for v in vecs]
    return _crop(build_periodic(lattice, motif, tol=tol), extent)


def gen_crystal(spec, extent=None, tol=None):
    """Periodic handle whose motif is the orbit of spec.motif under the
    point-group generators, reduced modulo the lattice."""
    lat = spec.lattice
    check = tol or Tolerance.of(lat.basis)
    for g in spec.generators:
        for b in lat.basis:
            if not lat.contains(mat_vec(g.linear, b), check):
                raise ValueError(
                    "generator does not normalize the lattice (not crystallographic)")
    orbit = []
    seen = set()
    queue = [lat.reduce_point(tuple(m)) for m in spec.motif]
    while queue:
        p = queue.pop()
        key = p if check.exact else tuple(round(c, 9) for c in p)
        if key in seen:
            continue
        seen.add(key)
        orbit.append(p)
        if len(orbit) > ORBIT_CAP:
            raise ValueError(
                f"orbit exceeded {ORBIT_CAP} points per cell; generators are "
                "not crystallographic for this lattice")
        for g in spec.generators:
            queue.append(lat.reduce_point(apply(g, p)))
    return _crop(build_periodic(lat, orbit, tol=tol), extent)


def gen_shifted_rows(spec):
    """Window handle of the shifted-row family member encoded by spec.

    A sequence of n letters yields couples 0..n (rows at heights 0..(2n+1)b)
    with couple k shifted by c * (#R - #L) over the first k letters.
    """
    n = len(spec.sequence.letters)
    shifts = [spec.a * 0]
    for ch in spec.sequence.letters:
        shifts.append(shifts[-1] + (spec.c if ch == "R" else -spec.c))
    pts = []
    w = spec.extent
    rows = []
    for k, s in enumerate(shifts):
        rows.extend([(2 * k, s), (2 * k + 1, s)])
    for i, s in rows:
        y = i * spec.b
        j_hi = sfloor(fdiv(w - s, spec.a))
        j_lo = -sfloor(fdiv(w + s, spec.a))
        for j in range(j_lo, j_hi + 1):
            pts.append((j * spec.a + s, y))
    y_hi = (2 * n + 1) * spec.b
    return build_window(pts, ((-w, 0 * spec.b), (w, y_hi)), margin=0)


# ---------------------------------------------------------------------------
# ready-made fixtures

def square_lattice(extent=None):
    return gen_lattice(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
                       extent=extent)


def triangular_lattice(extent=None):
    half_root3 = quadext(0, Fraction(1, 2), 3)
    return gen_lattice(((Fraction(1), Fraction(0)), (Fraction(1, 2), half_root3)),
                       extent=extent)


def honeycomb(extent=None):
    """Two triangular cosets; every vertex has three nearest neighbors."""
    half_root3 = quadext(0, Fraction(1, 2), 3)
    root3 = quadext(0, Fraction(1), 3)
    lat = Lattice(((Fraction(3, 2), half_root3), (Fraction(0), root3)))
    return _crop(build_periodic(lat, [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]),
                 extent)


def three_coset_fixture(extent=None):
    """Z^2 with the e1/2 and e2/2 cosets: locally antipodal, three classes."""
    lam = Lattice(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    return gen_coset_union(
        lam, [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(0), Fraction(1))], extent=extent)
