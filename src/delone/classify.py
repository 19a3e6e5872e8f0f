"""Cluster equivalence, the class partition, and cluster groups.

Two clusters are equivalent when some isometry carries one center to the
other and one point set onto the other.  Witnesses are synthesized from
point correspondences: pick a frame of independent offsets in the first
cluster, enumerate candidate images with matching distance data in the
second, solve for the unique linear part, then verify orthogonality and a
full bijection of the offsets.  Cluster sizes are bounded by packing, so
the frame enumeration stays small.  The distance data of an offset are its
squared distance from the center, compared first, and its row of squared
distances to every cluster point, built on demand: only for the frame and
for the offsets at a frame vector's distance from the center.  A cluster of
n points thus costs O(k n) distances for k candidate images, not n^2.

Clusters cut from a rational set share its grid scale, so synthesis runs
on their int ``keys`` (grid point minus grid center): scaling leaves the
linear part of an isometry unchanged.  The bijection check writes a
candidate as M / q with integer M and q and looks each image M v / q up in
a dict from offset to index, rejecting the candidate at the first image
that q does not divide or that is not an offset; it returns the
permutation of offset indices.  Q(sqrt 3) clusters, clusters of different
scales and float clusters run the same lookup on field offsets.  A cluster
group is a permutation group in both numeric modes: each element is fixed
by its permutation of the offsets, with two more slots for n and -n when
the cluster is one dimension short, so closure is checked on permutations
by composing every reached element with greedily picked generators.

Degenerate clusters (offsets spanning fewer than d dimensions) get their
frame completed with orthogonal-complement vectors.  A rank deficit of one
contributes a +-1 choice on the normal line; a deficit of two or more
makes the center-fixing group infinite and ``cluster_group`` raises.

``classify`` decides each cluster in this order:
1. its ``keys`` as a translation key, through the tolerance's
   ``offset_map``: a cluster whose keys were seen before (exactly, or
   vector by vector within eps_abs in float mode) is a translate of that
   earlier cluster, so it joins the same class with the translation
   composed onto the earlier witness;
2. its radial key, the sorted squared lengths of its keys (ints on the
   grid, or field scalars): a dict key that picks the representatives it
   can be equivalent to (exact mode; float clusters share one bucket);
3. witness synthesis against those representatives, which alone decides,
   so clusters with equal radial keys that are not equivalent are told
   apart here.
A crystal has at most as many distinct offset sets as motif points, so
step 1 settles almost every cluster of a window in both modes, and every
class is decided by a witness.
"""

import math
import operator
from functools import cached_property
from fractions import Fraction

from .geometry import (Isometry, Record, Tolerance, _nonzero, apply, fdiv,
                       identity, mat_identity, mat_solve,
                       orthogonal_complement, p_add, p_dot, p_sub, rank)
from .scalars import Radical, field_sqrt, quadext
from .sets import Cluster, _sq, as_radius, cluster, distance_spectrum

__all__ = [
    "Fingerprint",
    "ClusterClass",
    "ClusterPartition",
    "ClusterGroup",
    "NRhoProfile",
    "InfiniteGroupError",
    "fingerprint",
    "clusters_equivalent",
    "classify",
    "cluster_group",
    "cluster_group_of",
    "n_profile",
    "group_orders_by_class",
]


class InfiniteGroupError(Exception):
    """The cluster's center-fixing symmetry group is not finite."""


class Fingerprint(Record):
    """Isometry-invariant cluster summary, quadratic in the cluster size.

    One entry per cluster point: squared distance from the center plus the
    sorted row of squared distances to every cluster point; the entries are
    sorted.  Exact entries are ints in units of ``1/scale**2`` for a
    cluster cut from a handle with a scale (all clusters of one handle
    share it), or field scalars when ``scale`` is None; either way they
    hash and compare exactly within one scale.  Float entries carry
    rounding, so they do not compare exactly.  The rows are those witness
    synthesis compares (:func:`_row`).  :func:`classify` compares no
    fingerprints: it buckets exact clusters by the radial key (the first
    component of every entry, sorted), and witness synthesis builds only
    the rows it compares.
    """

    data: tuple
    scale: int = None

    def __len__(self):
        return len(self.data)


def _row(v, vecs):
    """The sorted squared distances from the point at offset v to every
    cluster point: |v|^2 to the center and |v - w|^2 to each offset w."""
    return tuple(sorted([p_dot(v, v)] + [_sq(v, w) for w in vecs]))


def fingerprint(c):
    """Per cluster point, sorted: (its squared distance from the center,
    its :func:`_row`); the center's row is 0 and the offsets' norms."""
    keys = c.keys
    norms = [p_dot(v, v) for v in keys]
    data = [(n, _row(v, keys)) for n, v in zip(norms, keys)]
    data.append((0, tuple(sorted([0] + norms))))
    return Fingerprint(data=tuple(sorted(data)), scale=c.scale)


def _matcher(tol):
    """Equality of squared distances and dot products: exact, or in float
    mode a band that grows with their square roots."""
    if tol.exact:
        return operator.eq
    band = 4 * tol.eps_abs

    def close(a, b):
        return abs(a - b) <= band * (1.0 + math.sqrt(abs(a) + abs(b)))

    return close


# ---------------------------------------------------------------------------
# witness synthesis

def _greedy_frame(offsets):
    """Independent offsets preferring small distance shells; sorted input."""
    frame = []
    for v in offsets:
        if rank(frame + [v]) > len(frame):
            frame.append(v)
            if len(frame) == len(v):
                break
    return frame


class _Offsets:
    """A cluster's offsets from its center, sorted by length then by
    coordinates, with their distance data built on first use.

    The vectors are a cluster's ``keys`` when both clusters of a comparison
    share a scale, otherwise its field (or float) offsets.  ``index.get(v)``
    is the position of offset v (see :meth:`Tolerance.point_set`) and
    ``row(v)`` its :func:`_row`.
    """

    def __init__(self, vecs, tol):
        self.vectors = sorted(vecs, key=lambda v: (float(p_dot(v, v)), tuple(map(float, v))))
        self.index = tol.point_set(self.vectors)
        self.rows = {}

    def row(self, v):
        r = self.rows.get(v)
        if r is None:
            r = self.rows[v] = _row(v, self.vectors)
        return r


def _solve_map(frame_rows, image_rows):
    """Row-major orthogonal matrix O with O @ f_i = t_i, or None."""
    cols = mat_solve(tuple(frame_rows),
                     tuple(tuple(r[k] for r in image_rows) for k in range(len(frame_rows[0]))))
    if cols is None:
        return None
    o = tuple(cols)  # column k of O^T is row k of O
    if not Isometry(o, (0,) * len(o)).is_orthogonal():
        return None
    return o


def _permutation(o, offs, index, integer):
    """Positions (``index.get``) of the images of ``offs`` under the linear
    part o, or None as soon as an image is not an offset.

    On int offsets a rational o is written as M / q with integer M and q:
    an image M v that q does not divide is not an offset.
    """
    q = None
    if integer and all(isinstance(x, Fraction) for r in o for x in r):
        q = math.lcm(*(x.denominator for r in o for x in r))
        o = [[x.numerator * (q // x.denominator) for x in r] for r in o]
    perm = []
    for v in offs:
        image = tuple(sum(map(operator.mul, r, v)) for r in o)
        if q is not None:
            if any(a % q for a in image):
                return None
            image = tuple(a // q for a in image)
        k = index.get(image)
        if k is None:
            return None
        perm.append(k)
    return tuple(perm)


def _scale_root(ratio):
    """sqrt of a positive rational, lifting to Q(sqrt(disc)) if needed."""
    if not isinstance(ratio, Fraction):
        if isinstance(ratio, int):
            ratio = Fraction(ratio)
        else:
            raise NotImplementedError(
                "cross-span completion over a quadratic field is unsupported")
    mu = field_sqrt(ratio)
    if mu is not None:
        return mu
    disc = ratio.numerator * ratio.denominator
    return quadext(0, Fraction(1, ratio.denominator), disc)


def _complement_images(comp1, offs2, d, tol):
    """Images for complement frame vectors when spans differ.

    Scales the target complement basis so lengths match; exact mode lifts
    into a quadratic extension when the scale is irrational.
    """
    comp2 = orthogonal_complement(offs2, d)
    if len(comp2) != len(comp1):
        return None
    images = []
    for u, w in zip(comp1, comp2):
        n1, n2 = p_dot(u, u), p_dot(w, w)
        if tol.exact:
            mu = _scale_root(fdiv(n1, n2))
        else:
            mu = math.sqrt(n1 / n2)
        images.append(tuple(mu * c for c in w))
    return images


def _witness_linear_parts(c1, c2, tol, want_all):
    """Orthogonal linear parts mapping the offsets of c1 onto those of c2.

    Yields pairs (o, perm) in a deterministic order: o is a row-major
    matrix and perm the permutation of offset positions that o induces,
    with two more slots, for n and -n on the normal line, when the cluster
    is one dimension short, and the slots of +1 and -1 for a lone center in
    1-d.  For c2 is c1, perm thus fixes o.  Clusters of one scale are
    matched on their ``keys`` (ints on a grid), others on field offsets.
    Every candidate o is solved from a frame (distinct frame images, or
    normal choices, give distinct maps), is checked orthogonal, and must
    biject the offsets (:func:`_permutation`).
    """
    if c1.size != c2.size:
        return
    d = c1.dim
    # one scale: int keys; rows in different units compare only in the field
    shared = c1.scale == c2.scale
    integer = shared and c1.scale is not None
    offs1 = _Offsets(c1.keys if shared else c1.offsets(), tol)
    offs2 = offs1 if c2 is c1 else _Offsets(c2.keys if shared else c2.offsets(), tol)
    vecs1, vecs2 = offs1.vectors, offs2.vectors
    if not vecs1:
        if want_all and d > 1:
            raise InfiniteGroupError(
                f"a single-point cluster in {d}-d has stabilizer O({d})")
        yield mat_identity(d), (0, 1)  # canonical witness: plain translation
        if want_all:
            yield ((Fraction(-1),),), (1, 0)
        return
    frame = _greedy_frame(vecs1)
    s = len(frame)
    comp1 = orthogonal_complement(frame, d) if s < d else []
    spans_parallel = s == d or rank(frame + vecs2) == s
    comp_image_choices = None
    if s < d:
        if spans_parallel:
            base = [list(comp1)]
        else:
            imgs = _complement_images(comp1, vecs2, d, tol)
            if imgs is None:
                return
            base = [imgs]
        if d - s == 1:
            comp_image_choices = [base[0], [tuple(-c for c in base[0][0])]]
        elif want_all:
            raise InfiniteGroupError(
                f"cluster spans only {s} of {d} dimensions; its group is infinite")
        else:
            comp_image_choices = [base[0]]
    # images each frame vector may take: offsets at its distance from the
    # center, then with its row (built only for those); computed here, so
    # the recursive closure below holds no row tables
    same = _matcher(tol)
    norms2 = [p_dot(t, t) for t in vecs2]
    candidates = []
    for v in frame:
        n1, row1 = p_dot(v, v), offs1.row(v)
        candidates.append([t for t, n in zip(vecs2, norms2)
                           if same(n, n1) and all(map(same, offs2.row(t), row1))])

    def assignments(i, images):
        if i == s:
            yield list(images)
            return
        v = frame[i]
        for t in candidates[i]:
            # the Gram test: t's norm matched v's among the candidates
            if t not in images and all(same(p_dot(v, f), p_dot(t, g))
                                       for f, g in zip(frame, images)):
                yield from assignments(i + 1, images + [t])

    for images in assignments(0, []):
        for j, comp_imgs in enumerate(comp_image_choices or [[]]):
            o = _solve_map(frame + comp1, images + list(comp_imgs))
            if o is None:
                continue
            perm = _permutation(o, vecs1, offs2.index, integer)
            if perm is None:
                continue
            if d - s == 1:
                m = len(vecs1)
                perm += (m + j, m + 1 - j)  # the slots of n and -n
            yield o, perm
            if not want_all:
                return


def clusters_equivalent(c1, c2, tol=None):
    """A witness isometry g with g(center1) = center2 and g(C1) = C2, or None.

    Radii must agree.  The witness may reverse orientation (det -1); for
    rank-deficient clusters one canonical completion is returned out of the
    continuum of valid witnesses.  Synthesis alone decides, in both modes.
    With no tolerance given, the points decide (:meth:`Tolerance.of`).
    """
    tol = tol or Tolerance.of(c1.points + c2.points)
    if not tol.is_zero(c1.radius - c2.radius):
        raise ValueError("clusters have different radii")
    if c1.size != c2.size:
        return None
    for o, _ in _witness_linear_parts(c1, c2, tol, want_all=False):
        shift = p_sub(c2.center, tuple(sum(o[i][j] * c1.center[j] for j in range(c1.dim))
                                       for i in range(c1.dim)))
        return Isometry(o, shift)
    return None


def _check_closure(perms):
    """Raise AssertionError unless the permutations (tuples of images) form
    a group.

    The identity must be a member.  Generators are picked greedily (each
    member not reached yet), and every reached member is composed with every
    generator; each product must be a member.  Every member is then a
    product of generators and the reached set is closed under composing with
    them, so the members are closed under composition, and a finite set of
    permutations closed under composition is a group.  That takes about
    |G| log2 |G| products, not |G|^2.
    """
    members = set(perms)
    identity = tuple(range(len(perms[0]))) if perms else None
    if identity not in members:
        raise AssertionError("cluster group not closed under composition: no identity")
    reached, generators = {identity}, []
    for g in perms:
        if g in reached:
            continue
        generators.append(g)
        # members reached before meet only g; new ones meet every generator
        todo = [(r, (g,)) for r in reached]
        while todo:
            r, by = todo.pop()
            for h in by:
                rh = tuple(map(r.__getitem__, h))  # h first, then r
                if rh not in members:
                    raise AssertionError("cluster group not closed under composition")
                if rh not in reached:
                    reached.add(rh)
                    todo.append((rh, generators))


def cluster_group_of(c, tol=None):
    """The full finite group of center-fixing self-maps of a cluster.

    Elements are the witnesses of :func:`_witness_linear_parts` from the
    cluster to itself.  Each is fixed by its permutation of the offsets
    (with the normal-line slots of a cluster one dimension short), and
    elements compose as their permutations do, so closure is checked on the
    permutations (:func:`_check_closure`) in both numeric modes.  With no
    tolerance given, the points decide (:meth:`Tolerance.of`).
    """
    tol = tol or Tolerance.of(c.points)
    elements, perms = [], []
    for o, perm in _witness_linear_parts(c, c, tol, want_all=True):
        shift = p_sub(c.center, tuple(sum(o[i][j] * c.center[j] for j in range(c.dim))
                                      for i in range(c.dim)))
        elements.append(Isometry(o, shift))
        perms.append(perm)
    _check_closure(perms)
    return ClusterGroup(center=c.center, rho=c.radius, elements=tuple(elements), tol=tol)


def cluster_group(handle, x, rho):
    """Group of the rho-cluster at x; see :func:`cluster_group_of`."""
    return cluster_group_of(cluster(handle, x, rho), handle.tol)


class ClusterGroup(Record):
    """Center-fixing isometries mapping a cluster onto itself."""

    center: tuple
    rho: object
    elements: tuple
    tol: Tolerance

    @property
    def order(self):
        return len(self.elements)

    @cached_property
    def _linear_parts(self):
        """The exact linear parts as a set: equal matrices hash equally."""
        return frozenset(g.linear for g in self.elements)

    def contains_linear(self, lin):
        if self.tol.exact:
            return lin in self._linear_parts
        for other in self.elements:
            if not any(_nonzero(a - b)
                       for ra, rb in zip(lin, other.linear) for a, b in zip(ra, rb)):
                return True
        return False

    def equals(self, other):
        """Element-wise equality of two groups at the same center."""
        if self.order != other.order:
            return False
        return all(other.contains_linear(g.linear) for g in self.elements)

    def is_subgroup_of(self, bigger):
        return all(bigger.contains_linear(g.linear) for g in self.elements)


# ---------------------------------------------------------------------------
# the partition X_1 .. X_N(rho)

class ClusterClass(Record):
    representative: Cluster
    members: tuple      # member center points, lexicographic; rep first
    witnesses: tuple    # per member, isometry sending representative to it


class ClusterPartition(Record):
    """Equivalence classes of rho-clusters over the classified population."""

    rho: object
    classes: tuple
    tol: Tolerance

    @property
    def n(self):
        return len(self.classes)


def _radial_key(c):
    """The sorted squared lengths of a cluster's keys: ints over scale**2 on
    a grid, otherwise field scalars."""
    return tuple(sorted(p_dot(v, v) for v in c.keys))


def classify(handle, rho, points=None):
    """Partition the population into classes of equivalent rho-clusters.

    Population: motif points of a periodic set, or interior points of a
    window, unless ``points`` names the centers to classify.
    Representatives are the lexicographically smallest members and every
    member carries a witness isometry from the representative.  The module
    docstring gives the order in which a cluster is decided.
    """
    radius = as_radius(rho, handle.tol)
    population = sorted(handle.population(radius)) if points is None else points
    tol = handle.tol
    classes = []      # [representative, members, witnesses]
    translates = tol.offset_map()  # keys -> (class, center, its witness)
    buckets = {}      # radial key -> classes (exact); one bucket (float misses)
    for x in population:
        cx = cluster(handle, x, radius)
        hit = translates.get(cx.keys)
        if hit is not None:
            cls, c0, w0 = hit
            # compose(translation(x - c0), w0), without the identity product
            witness = Isometry(w0.linear, p_add(w0.shift, p_sub(x, c0)))
        else:
            bucket = buckets.setdefault(_radial_key(cx) if tol.exact else None, [])
            for cls in bucket:
                witness = clusters_equivalent(cls[0], cx, tol)
                if witness is not None:
                    break
            else:
                witness = identity(handle.dim)
                cls = [cx, [], []]
                classes.append(cls)
                bucket.append(cls)
            translates[cx.keys] = (cls, x, witness)
        cls[1].append(x)
        cls[2].append(witness)
    return ClusterPartition(
        rho=radius, tol=tol,
        classes=tuple(ClusterClass(representative=rc, members=tuple(ms), witnesses=tuple(ws))
                      for rc, ms, ws in classes))


class NRhoProfile(Record):
    """The cluster counting function N(rho) sampled at its breakpoints.

    Values are right-continuous: value[i] holds on [breakpoints[i],
    breakpoints[i+1]).  For windows the population is fixed to the points
    interior at rho_max so the profile is monotone by construction.
    """

    breakpoints: tuple
    values: tuple

    def value_at(self, rho):
        out = None
        for b, v in zip(self.breakpoints, self.values):
            if (b.cmp(rho) <= 0) if isinstance(b, Radical) else b <= float(rho):
                out = v
        return 1 if out is None else out


def n_profile(handle, rho_max):
    """Evaluate N at every distance-spectrum breakpoint up to rho_max."""
    radius = as_radius(rho_max, handle.tol)
    population = sorted(handle.population(radius))
    tol = handle.tol
    d2s = []
    for x in population:
        d2s.extend(distance_spectrum(handle, x, radius).dist_sqs)
    breakpoints = [tol.sqrt(d2) for d2 in tol.distinct_sq(d2s)]
    part_max = classify(handle, radius)
    rep_points = [cl.representative.center for cl in part_max.classes]
    values = [classify(handle, b, rep_points).n for b in breakpoints]
    for a, b in zip(values, values[1:]):
        if a > b:
            raise AssertionError("N(rho) profile must be non-decreasing")
    return NRhoProfile(breakpoints=tuple(breakpoints), values=tuple(values))


def group_orders_by_class(partition):
    """Per-class group order M_i, verified at a sampled member by conjugation.

    Groups of equivalent clusters are conjugate, so the order computed at
    the representative must recur at any member.  For the member reached by
    the witness w, each w g w^-1 must map w(C) onto itself; as w g w^-1 (w p)
    = w g p, every w(g(p)) with p in C is looked up in w(C).
    """
    tol = partition.tol
    out = []
    for idx, cl in enumerate(partition.classes):
        group = cluster_group_of(cl.representative, tol)
        if len(cl.members) > 1:
            w = cl.witnesses[1]
            points = cl.representative.points
            members = tol.point_set([apply(w, p) for p in points])
            for g in group.elements:
                for p in points:
                    if apply(w, apply(g, p)) not in members:
                        raise AssertionError(
                            "conjugated group element does not preserve the member cluster")
        out.append((idx, group.order))
    return out
