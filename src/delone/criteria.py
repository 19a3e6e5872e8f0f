"""Certifiers for global structure from local cluster statistics.

* one criterion engine for crystals: N(rho0) = N(rho0 + 2R) = m and the
  cluster groups stabilize element-wise across the 2R extension, per class;
  the regular-system check is its m = 1 case, N(rho0 + 2R) = 1, and both
  share one rho0 scan;
* local antipodality of every 2R-cluster, and the global central symmetry
  it implies;
* reconstruction of a locally antipodal set from a single seed cluster by
  inversion closure;
* decomposition of a locally antipodal set into cosets of its maximal
  invariance lattice (at most 2^d - 1 of them).

Window-mode verdicts never claim the global theorems: reports carry a
``window_limited`` flag and callers label them satisfied-on-window.
"""

from fractions import Fraction
import heapq
import math
from operator import add, mul, sub

from .classify import InfiniteGroupError, classify, cluster_group_of
from .geometry import (Lattice, Record, Tolerance, dist_sq,
                       lattice_from_generators, p_add, p_neg, p_scale, p_sub, rank)
from .scalars import format_point, sfloor
from .params import _neighbours
from .sets import (WindowTooSmallError, _inset, _reach, _sq, as_radius, cluster,
                   delone_params, distance_spectrum, radius_covers)

__all__ = [
    "CriterionReport",
    "AntipodalReport",
    "CosetDecomposition",
    "NotAntipodalError",
    "DecompositionError",
    "ReconstructionError",
    "check_regular_criterion",
    "check_crystal_criterion",
    "certify_auto",
    "is_locally_antipodal",
    "check_global_antipodality",
    "reconstruct_from_2R_cluster",
    "antipodal_lattice_decomposition",
]


class NotAntipodalError(Exception):
    """An input that must be locally antipodal is not."""


class DecompositionError(Exception):
    """The coset decomposition hit a structural inconsistency (diagnostic)."""


class ReconstructionError(RuntimeError):
    """A reconstruction outgrew its point cap: the seed is not a valid
    2R-cluster, or the cap is too small."""


class CriterionReport(Record):
    criterion: str              # "regular" | "crystal"
    verdict: str                # "satisfied" | "violated" | "inconclusive-window"
    rho0: object
    n_at_rho0: object = None
    n_at_rho0_plus_2r: object = None
    m: object = None
    group_check: tuple = ()     # (class_index, M_rho0, M_hi, equal) rows
    witnesses: tuple = ()
    window_limited: bool = False
    notes: tuple = ()

    def __post_init__(self):
        if self.verdict == "satisfied":
            if self.criterion == "regular" and self.n_at_rho0_plus_2r != 1:
                raise AssertionError("satisfied regular criterion needs N(rho0+2R)=1")
            if self.criterion == "crystal" and self.n_at_rho0 != self.n_at_rho0_plus_2r:
                raise AssertionError("satisfied crystal criterion needs equal counts")
            if any(not row[3] for row in self.group_check):
                raise AssertionError("satisfied criterion needs stabilized groups")


def _two_r(handle):
    return delone_params(handle).R * 2


def _group_or_none(handle, c):
    """The group of a cluster cut from handle, or None when it is infinite.
    Groups are kept on the handle per (center, radius): the rho0 scan's
    pre-check and the full check ask for the same ones."""
    memo = handle._cache.setdefault("groups", {})
    key = (c.center, c.radius)
    if key not in memo:
        try:
            memo[key] = cluster_group_of(c, handle.tol)
        except InfiniteGroupError:
            memo[key] = None
    return memo[key]


def _group_rows(handle, hi_clusters, rho0):
    """``group_check`` rows (i, M(rho0), M(rho0 + 2R), equal), one per
    (rho0 + 2R)-cluster, comparing the groups at its centre element-wise.

    S_x(rho0 + 2R) is a subgroup of S_x(rho0), so equal groups are
    equivalent to equal orders.  Rows are yielded lazily so a pre-check can
    stop at the first unequal one.
    """
    for i, c_hi in enumerate(hi_clusters):
        g_lo = _group_or_none(handle, cluster(handle, c_hi.center, rho0))
        g_hi = _group_or_none(handle, c_hi)
        yield (i, g_lo.order if g_lo else None, g_hi.order if g_hi else None,
               g_lo is not None and g_hi is not None and g_lo.equals(g_hi))


def _check(handle, rho0, criterion, group_mode="representative"):
    """One criterion at one radius rho0; the regular system is the m = 1 case.

    Counts: N(rho0) = N(rho0 + 2R) for a crystal, N(rho0 + 2R) = 1 for a
    regular system.  Groups: stable across the 2R extension at every class
    representative (only the first for a regular system, which needs a
    single class anyway), or at every population point with
    ``group_mode="all"``.
    """
    if group_mode not in ("representative", "all"):
        raise ValueError("group_mode must be 'representative' or 'all'")
    radius0 = as_radius(rho0, handle.tol)
    rho_hi = radius0 + _two_r(handle)
    window_limited = handle.mode == "window"
    try:
        part_hi = classify(handle, rho_hi)
        part_lo = classify(handle, radius0)
    except WindowTooSmallError as exc:
        return CriterionReport(criterion=criterion, verdict="inconclusive-window",
                               rho0=radius0, window_limited=window_limited,
                               notes=(str(exc),))
    regular = criterion == "regular"
    counts_ok = part_hi.n == (1 if regular else part_lo.n)
    if group_mode == "all":
        hi_clusters = [cluster(handle, x, rho_hi)
                       for x in sorted(handle.population(rho_hi))]
    else:
        hi_clusters = [cl.representative
                       for cl in part_hi.classes[:1 if regular else None]]
    rows = tuple(_group_rows(handle, hi_clusters, radius0))
    ok = counts_ok and all(row[3] for row in rows)
    witnesses = ()
    if not counts_ok:
        witnesses = tuple(cl.representative.center for cl in part_hi.classes)
    return CriterionReport(
        criterion=criterion,
        verdict="satisfied" if ok else "violated",
        rho0=radius0, n_at_rho0=part_lo.n, n_at_rho0_plus_2r=part_hi.n,
        m=part_hi.n if ok else None,
        group_check=rows, witnesses=witnesses, window_limited=window_limited)


def check_regular_criterion(handle, rho0):
    """Regular-system check at rho0: N(rho0 + 2R) = 1 and the cluster group
    does not change across the 2R extension (the crystal check with m = 1).
    A window too small for radius rho0 + 2R yields inconclusive-window."""
    return _check(handle, rho0, "regular")


def check_crystal_criterion(handle, rho0, group_mode="representative"):
    """Crystal check at rho0: N(rho0) = N(rho0 + 2R) = m and, per class, the
    cluster group matches element-wise across the 2R extension -- at the
    class representative (``group_mode="representative"``, sound because
    class groups are conjugate) or at every population point (``"all"``)."""
    return _check(handle, rho0, "crystal", group_mode)


def _scan_candidates(handle, reps, limit_radius, top):
    """Candidate rho0 breakpoints up to ``top``: spectrum values and values
    shifted by -2R."""
    tol = handle.tol
    two_r = _two_r(handle)
    d2s = set()
    for x in reps:
        d2s.update(distance_spectrum(handle, x, limit_radius).dist_sqs)
    out = []
    for d2 in sorted(d2s, key=float):
        v = tol.sqrt(d2)
        out.extend(c for c in (v, v - two_r) if tol.le(c, top) and not tol.le(c, 0))
    dedup = []
    for v in sorted(out, key=float):  # compare, not subtract: the float filter decides most
        if not dedup or not tol.same_point((v,), (dedup[-1],)):
            dedup.append(v)
    return dedup


def certify_auto(handle, criterion, cap_mult=6, group_mode="representative"):
    """Scan rho0 over spectrum breakpoints and report the first success.

    The scan is capped at ``cap_mult * R`` (and at the window capacity).
    A regular-criterion scan that sees N >= 2 anywhere reports violated --
    a sound disproof, since regular systems have N identically 1.  When no
    rho0 below the cap satisfies the conditions and no violation witness
    exists, the verdict is inconclusive-window.
    """
    if criterion not in ("regular", "crystal"):
        raise ValueError("criterion must be 'regular' or 'crystal'")
    if group_mode not in ("representative", "all"):
        raise ValueError("group_mode must be 'representative' or 'all'")
    tol = handle.tol
    params = delone_params(handle)
    two_r = _two_r(handle)
    cap = params.R * cap_mult
    limit = cap + two_r
    capacity = handle.capacity()
    if capacity is not None:
        cap_radius = as_radius(capacity, tol)
        if limit > cap_radius:
            limit = cap_radius
    try:
        part_limit = classify(handle, limit)
    except WindowTooSmallError as exc:
        return CriterionReport(criterion=criterion, verdict="inconclusive-window",
                               rho0=limit, window_limited=True, notes=(str(exc),))
    reps = [cl.representative.center for cl in part_limit.classes]
    top = limit - two_r
    regular = criterion == "regular"
    if regular and part_limit.n > 1:
        # N >= 2 somewhere disproves regularity; anchor rho0 so that
        # rho0 + 2R is exactly the radius where the split was seen
        rho0 = top
        if rho0 < 0:
            return CriterionReport(
                criterion="regular", verdict="violated", rho0=limit,
                n_at_rho0_plus_2r=part_limit.n, witnesses=tuple(reps),
                window_limited=handle.mode == "window",
                notes=("several cluster classes below 2R",))
        report = check_regular_criterion(handle, rho0)
        if report.verdict != "violated":  # pragma: no cover
            raise AssertionError("classify disagreement during auto scan")
        return report

    for rho0 in _scan_candidates(handle, reps, limit, top):
        # Cheap necessary conditions before the full check.  Each limit
        # representative is interior at rho0 + 2R and equivalent there to a
        # class representative, whose groups are conjugate to its own, so
        # its groups must be stable; and their class count must not change
        # (necessary where both radii classify one population, as on a
        # periodic set, where the two tests are also sufficient).
        rho_hi = rho0 + two_r
        if len(reps) > 1 and (classify(handle, rho0, reps).n
                              != classify(handle, rho_hi, reps).n):
            continue
        hi_clusters = (cluster(handle, x, rho_hi) for x in reps)
        if not all(row[3] for row in _group_rows(handle, hi_clusters, rho0)):
            continue
        if regular:
            return check_regular_criterion(handle, rho0)
        report = check_crystal_criterion(handle, rho0, group_mode=group_mode)
        if report.verdict == "satisfied":
            return report
    return CriterionReport(
        criterion=criterion, verdict="inconclusive-window", rho0=cap,
        n_at_rho0=part_limit.n, window_limited=handle.mode == "window",
        notes=("no stabilizing rho0 below the scan cap",))


# ---------------------------------------------------------------------------
# antipodality

class AntipodalReport(Record):
    """Per-point local antipodality flags over the tested population."""

    flags: tuple                 # (point, bool) rows
    all_antipodal: bool
    first_violation: object      # (center, unmatched offset) or None
    window_limited: bool = False


def is_locally_antipodal(handle):
    """Check that every tested point's 2R-cluster is centrally symmetric."""
    tol = handle.tol
    two_r = _two_r(handle)
    population = sorted(handle.population(two_r))
    flags = []
    first = None
    for x in population:
        bad = _antipode_violation(cluster(handle, x, two_r), tol)
        flags.append((x, bad is None))
        if bad is not None and first is None:
            first = (x, bad)
    return AntipodalReport(flags=tuple(flags),
                           all_antipodal=all(ok for _, ok in flags),
                           first_violation=first,
                           window_limited=handle.mode == "window")


def _antipode_violation(c, tol):
    """The first offset of cluster c whose antipode -v is not one of its
    offsets, or None.  The test runs on the cluster's keys (linear in the
    offsets); only the offset reported is lifted."""
    members = tol.point_set(c.keys)
    for i, v in enumerate(c.keys):
        if p_neg(v) not in members:
            return c.offsets()[i]
    return None


def check_global_antipodality(handle, x):
    """Whether the point inversion about x maps the set onto itself.

    Periodic sets are checked exactly and globally (motif arithmetic);
    windows are checked on the largest symmetric sub-window about x.
    """
    x = tuple(x)
    if not handle.contains(x):
        raise ValueError("center must belong to the set")
    if handle.mode == "periodic":
        for m in handle.motif:
            if not handle.contains(p_sub(p_scale(x, 2), m)):
                return False
        return True
    half = handle.boundary_distance(x)
    if not handle.tol.ge(half, 0):
        return True  # empty symmetric window: vacuous
    w_lo = tuple(a - half for a in x)
    w_hi = tuple(a + half for a in x)
    for p in handle.points_in_box(w_lo, w_hi):
        if not handle.contains(p_sub(p_scale(x, 2), p)):
            return False
    return True


# ---------------------------------------------------------------------------
# reconstruction by inversion closure

def reconstruct_from_2R_cluster(seed, rho_max, tol=None, max_points=None):
    """Rebuild a locally antipodal set inside a ball from one 2R-cluster.

    Inversion closure: repeatedly add sigma_y(z) = 2y - z for known points
    y, z with |yz| <= seed.radius, clipped to the closed ball of radius
    rho_max about the seed center.  Points are processed radially outward,
    mirroring the induction along the distance spectrum that makes the
    closure complete.  The known points sit in a table of cells wider than
    the seed radius (fixed-radius near neighbours: Bentley, Stanat and
    Williams, IPL 1977), so a popped y is paired only with the known points
    of its 3^d neighbouring cells, not with all of them.  A seed keyed on
    the Cartesian grid (``cartesian_keys``) runs the closure on its keys:
    2y - z stays an int key, squared distances are ints over scale2
    compared with each radius's integer threshold by ``radius_covers``,
    cells are exact floor divisions by an int side above the seed radius
    times the scale, and keys are lifted to points once at the end.  Other
    seeds run the
    same loop on their field or float points (see :func:`_closure_side`); a
    float candidate is known when a known point of its neighbouring cells is
    the same point within eps_abs, since 2y - z rounds.
    Returns the reconstructed points as a sorted tuple.  More than
    ``max_points`` points (by default a packing bound from the seed's
    closest pair) raise ReconstructionError.
    """
    tol = tol or Tolerance.of(seed.points)
    bad = _antipode_violation(seed, tol)
    if bad is not None:
        raise NotAntipodalError(
            f"seed cluster is not antipodal: offset {format_point(bad)} "
            "has no antipode")
    radius_max = as_radius(rho_max, tol)
    pair_radius = as_radius(seed.radius, tol)
    if max_points is None:
        cap, why = _packing_cap(seed, radius_max), (
            "the packing bound; the seed is not a valid 2R-cluster")
    else:
        cap, why = max_points, f"its cap of {max_points} points"
    frame = seed.frame[0] if seed.frame and seed.frame[0].cartesian_keys else None
    if frame is None:
        center, points, scale, scale2 = seed.center, seed.points, None, 1
    else:
        center, scale, scale2 = frame.key(seed.center), frame.s, frame.scale2
        points = [frame.key(p) for p in seed.points]
    side = _closure_side(pair_radius, radius_max, center, scale, tol)
    fuzzy = scale is None and not tol.exact  # float 2y - z rounds: match within eps_abs

    def cell(p):
        if side is None:  # one cell holds every point
            return ()
        if scale is None:
            return tuple(sfloor(a / side) for a in p)
        return tuple(a // side for a in p)

    todo = []  # heap of (float d2, point) still to invert about
    table = {}  # cell -> known points in it
    for p in points:
        d2 = _sq(p, center)
        if radius_covers(radius_max, d2, tol, scale2):
            todo.append((float(d2), p))
            table.setdefault(cell(p), []).append(p)
    known = {p for _, p in todo}
    heapq.heapify(todo)
    while todo:
        y = heapq.heappop(todo)[1]
        grew = False
        for z in _neighbours(table, cell(y)):
            if z == y or not radius_covers(pair_radius, _sq(y, z), tol, scale2):
                continue
            for cand in (tuple(2 * a - b for a, b in zip(y, z)),
                         tuple(2 * b - a for a, b in zip(y, z))):
                if cand in known or fuzzy and any(
                        tol.same_point(cand, k) for k in _neighbours(table, cell(cand))):
                    continue
                cd2 = _sq(cand, center)
                if radius_covers(radius_max, cd2, tol, scale2):
                    known.add(cand)
                    table.setdefault(cell(cand), []).append(cand)
                    heapq.heappush(todo, (float(cd2), cand))
                    grew = True
        if grew and len(known) > cap:
            raise ReconstructionError(f"reconstruction exceeded {why}")
    if frame is None:
        return tuple(sorted(known))
    return tuple(map(frame.point, sorted(known)))


def _closure_side(pair_radius, radius_max, center, scale, tol):
    """Side of the closure's cells: more than any coordinate difference of
    two points that ``radius_covers`` pairs, so paired points sit in
    neighbouring cells; None for a single cell.

    Integer points take an int side (floor division keys): the float reach
    times the scale, padded, which exceeds isqrt(T) for the exact threshold
    T.  Exact field points take a rational side just above the reach (exact
    ``sfloor`` keys).  Float points take a float side padded by 1e-9 of the
    coordinates' magnitude, which every point inside the ball bounds, so
    rounding in the keys cannot split a pair more than one cell apart.
    """
    reach = _reach(pair_radius, tol)
    if reach is None or not 0 < reach < math.inf:
        return None
    reach *= 1 + 1e-9
    if scale is not None:
        try:
            return math.floor(reach * scale) + 1
        except OverflowError:  # a scale or reach past float range
            return None
    if tol.exact:
        return Fraction(reach)
    return reach + 1e-9 * (max(map(abs, center)) + float(radius_max) + reach + tol.eps_abs)


def _packing_cap(seed, radius_max):
    d2min = None
    pts = seed.points
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            d2 = dist_sq(p, q)
            if d2min is None or float(d2) < float(d2min):
                d2min = d2
    if d2min is None:
        raise ValueError("seed must contain at least two points")
    r = math.sqrt(float(d2min)) / 2
    d = len(seed.center)
    return int(((float(radius_max) + r) / r) ** d * 4) + 64


# ---------------------------------------------------------------------------
# lattice-coset decomposition

class CosetDecomposition(Record):
    """X = union of (base + half_vectors[i]/2 + lattice), disjointly."""

    base_point: tuple
    lattice: Lattice
    half_vectors: tuple       # lambda_i in Lambda, lambda_i/2 the coset offsets
    n: int
    window_limited: bool = False


def antipodal_lattice_decomposition(handle):
    """Decompose a locally antipodal set into cosets of its maximal lattice.

    The invariance lattice is generated by the handle's own periods plus
    every motif difference that translates the set onto itself (any
    invariant translation is such a difference), which makes it maximal.
    Emits half-vectors 2*(x_i - x) and verifies the 2^d - 1 bound; a count
    of 2^d raises a diagnostic rather than silently repairing.
    """
    report = is_locally_antipodal(handle)
    if not report.all_antipodal:
        x, v = report.first_violation
        raise NotAntipodalError(
            f"set is not locally antipodal at {format_point(x)}")
    if handle.mode == "periodic":
        lam, reps = _max_lattice_periodic(handle)
        window_limited = False
    else:
        lam, reps = _max_lattice_window(handle)
        window_limited = True
    d = handle.dim
    base = reps[0]
    half_vectors = []
    for x in reps:
        lam_vec = p_scale(p_sub(x, base), 2)
        if not lam.contains(lam_vec, handle.tol):
            raise DecompositionError(
                f"coset offset {lam_vec} is not half a lattice vector")
        half_vectors.append(lam_vec)
    two_lam = lam.scaled(2)
    for i in range(len(half_vectors)):
        for j in range(i + 1, len(half_vectors)):
            if two_lam.contains(p_sub(half_vectors[i], half_vectors[j]), handle.tol):
                raise DecompositionError("half-vectors collide modulo 2*Lambda")
    n = len(reps)
    if n >= 2 ** d:
        raise DecompositionError(
            f"{n} cosets found in dimension {d}; a maximal lattice admits at most {2**d - 1}")
    return CosetDecomposition(base_point=base, lattice=lam,
                              half_vectors=tuple(half_vectors), n=n,
                              window_limited=window_limited)


def _set_plus_t_equal_periodic(handle, t):
    for m in handle.motif:
        if not handle.contains(p_add(m, t)):
            return False
    return True


def _max_lattice_periodic(handle):
    lat = handle.lattice
    tol = handle.tol
    motif = list(handle.motif)
    extra = []
    for i in range(len(motif)):
        for j in range(len(motif)):
            if i == j:
                continue
            t = p_sub(motif[j], motif[i])
            if _set_plus_t_equal_periodic(handle, t):
                extra.append(t)
    lam = _extend_lattice(lat, extra)
    reps = _coset_reps(handle, motif, lam)
    return lam, reps


def _extend_lattice(lat, extra):
    """The lattice generated by lat and extra translations.

    Works in basis coordinates so quadratic-field bases stay supported;
    the extra vectors must have rational coordinates in the basis.
    """
    if not extra:
        return lat
    coord_rows = [tuple(Fraction(1) if i == j else Fraction(0) for j in range(lat.dim))
                  for i in range(lat.dim)]
    for t in extra:
        ks = lat.coords(t)
        if not all(isinstance(k, (int, Fraction)) for k in ks):
            raise NotImplementedError(
                "invariant translation has irrational lattice coordinates")
        coord_rows.append(tuple(Fraction(k) for k in ks))
    coord_lattice = lattice_from_generators(coord_rows)
    new_basis = tuple(
        tuple(sum(row[i] * lat.reduced[i][j] for i in range(lat.dim))
              for j in range(lat.dim))
        for row in coord_lattice.reduced)
    return Lattice(new_basis)


def _coset_reps(handle, points, lam):
    """The first of ``points``, in sorted order, in each coset of lam.

    On an exact handle keyed on the Cartesian grid, each point gets one
    residue key: its int key k times the int matrix A = D B^-1 / scale, mod D.
    Two points share a coset exactly when their keys are equal, so keeping
    the first point per key, in sorted order, gives what the pairwise
    ``lam.contains`` test against every kept point gives, in the same
    order.  Other handles keep the pairwise test: float and Q(sqrt 3) ones
    get here only with a periodic motif, which is small, and a float
    residue wraps at +-1/2, where a motif point such as e1/2 lands.
    """
    tol, frame = handle.tol, handle._frame()
    if frame is None or not tol.exact or not frame.cartesian_keys:
        reps = []
        for p in sorted(points):
            if not any(lam.contains(p_sub(p, q), tol) for q in reps):
                reps.append(p)
        return reps
    scale, d = frame.s, handle.dim
    rows = [lam.coords(tuple(Fraction(int(i == j), scale) for j in range(d))) for i in range(d)]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    cols = list(zip(*([int(x * den) for x in row] for row in rows)))
    first = {}
    for p in sorted(points):
        k = frame.key(p)
        first.setdefault(tuple(sum(map(mul, k, col)) % den for col in cols), p)
    return list(first.values())


def _max_lattice_window(handle):
    tol = handle.tol
    if not tol.exact:
        raise NotImplementedError("window decomposition requires exact coordinates")
    params = delone_params(handle)
    capacity = handle.capacity()
    cap_f = min(float(capacity), 6 * float(params.R))
    lo, hi = handle.bounds
    center = tuple((float(l) + float(h)) / 2 for l, h in zip(lo, hi))
    x0 = min(handle.points, key=lambda p: sum((float(c) - m) ** 2
                                              for c, m in zip(p, center)))
    cands = []
    for d2, p in handle.points_in_ball(x0, tol.radius_at_least(cap_f)):
        if p != x0:
            cands.append(p_sub(p, x0))
    passing = _window_translations(handle, cands)
    if not passing:
        raise WindowTooSmallError("window too small to confirm lattice invariance")
    if rank(passing) < handle.dim:
        raise WindowTooSmallError("invariant translations do not span the space")
    if not all(isinstance(c, (int, Fraction)) for t in passing for c in t):
        raise NotImplementedError(
            "window decomposition requires rational invariant translations")
    lam = lattice_from_generators(passing)
    interior = handle.interior_points(as_radius(0, tol))
    reps = _coset_reps(handle, interior, lam)
    return lam, reps


def _window_translations(handle, ts):
    """The differences t of window points in ts with X + t = X as far as
    the window can tell: on a window with a scale, the test runs on its
    integer keys, bounds and margin with t times the scale."""
    frame = handle._frame()
    if frame is None:
        window = (handle.points, handle._member_set(), (*handle.bounds, handle.margin))
        steps = ts
    else:
        window = (frame.keys, frozenset(frame.keys), frame.box)
        steps = [frame.key(t) for t in ts]
    return [t for t, k in zip(ts, steps)
            if _translation_fits_window(*window, k, handle.tol)]


def _translation_fits_window(points, members, box, t, tol):
    """Whether each of p + t, p - t that lies in the trusted region of
    ``box`` = (lo, hi, margin) is in ``members``, for some such point at
    all (both directions of X + t = X).

    Each shifted point is looked up in ``members`` first; its distance to
    the region's boundary is computed only when it is not a member (it
    fails the test if it lies in the region) or while no member in the
    region has been seen.  A member's place in the region matters for
    nothing else, so the test fails at the same shifted point, and counts
    the same members as seen, as testing the region first would.
    """
    checked = False
    for p in points:
        for q in (tuple(map(add, p, t)), tuple(map(sub, p, t))):
            if q in members:
                if not checked:
                    checked = tol.ge(_inset(q, *box), 0)
            elif tol.ge(_inset(q, *box), 0):
                return False
    return checked
