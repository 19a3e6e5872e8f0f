"""Outside-in tracer for one `delone` CLI process.

`install` wraps public functions and methods of the library's layers
(`fileio`, `sets`, `scalars`, `geometry`, `classify`, `criteria`) without
changing the library: each wrapper records a span (name, start, end,
parent span) in compact in-memory arrays, plus a few counters that give the
layer's useful-work ratios.  `Tracer.dump` writes everything once, at exit;
`summarize` turns a dump into per-name call counts and self times (span
time minus the time of its child spans, found through the parent links).
"""

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name); "Class.method" wraps the method on its
# class, anything else is rebound wherever the package holds a reference.
TARGETS = (
    ("fileio", "read_point_set", "fileio.read_point_set"),
    ("sets", "PointSetHandle.points_in_ball", "sets.points_in_ball"),
    ("sets", "PointSetHandle.neighborhood", "sets.neighborhood"),
    ("sets", "radius_covers", "sets.radius_covers"),
    ("sets", "delone_params", "sets.delone_params"),
    ("sets", "cluster", "sets.cluster"),
    ("sets", "distance_spectrum", "sets.distance_spectrum"),
    ("scalars", "Radical.sign", "scalars.Radical.sign"),
    ("geometry", "Lattice.offsets_in_ball", "geometry.Lattice.offsets_in_ball"),
    ("geometry", "mat_solve", "geometry.mat_solve"),
    ("classify", "classify", "classify.classify"),
    ("classify", "fingerprint", "classify.fingerprint"),
    ("classify", "clusters_equivalent", "classify.clusters_equivalent"),
    ("classify", "cluster_group_of", "classify.cluster_group_of"),
    ("classify", "n_profile", "classify.n_profile"),
    ("criteria", "certify_auto", "criteria.certify_auto"),
    ("criteria", "check_regular_criterion", "criteria.check_regular_criterion"),
    ("criteria", "check_crystal_criterion", "criteria.check_crystal_criterion"),
    ("criteria", "reconstruct_from_2R_cluster",
     "criteria.reconstruct_from_2R_cluster"),
    ("criteria", "antipodal_lattice_decomposition",
     "criteria.antipodal_lattice_decomposition"),
    ("criteria", "is_locally_antipodal", "criteria.is_locally_antipodal"),
)

BALL = "sets.points_in_ball"

# counter names
BALL_RETURNED = "sets.points_in_ball.returned"
BALL_EXAMINED = "sets.points_in_ball.examined"
OFFSETS_YIELDED = "geometry.Lattice.offsets_in_ball.yielded"
EQUIV_ACCEPTED = "classify.clusters_equivalent.accepted"


class Tracer:
    """Spans of one process, kept in flat arrays until `dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_ids = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = Counter()

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self.stack.pop()

    def dump(self, path):
        """Write the spans (binary arrays) and an index (JSON) next to it."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "counters": dict(self.counters)}, fh)


def load(path):
    """Read a dump back as (names, name_of, parent, start, end, counters)."""
    with open(path, encoding="utf-8") as fh:
        index = json.load(fh)
    n = index["spans"]
    arrays = [array("H"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (index["names"], *arrays, Counter(index["counters"]))


def summarize(names, name_of, parent, start, end):
    """Per span name: calls, total time, self time, and (for
    `sets.neighborhood`) the calls that ran no `sets.points_in_ball` child."""
    n = len(start)
    child_time = [0.0] * n
    ball_child = [False] * n
    ball_id = names.index(BALL) if BALL in names else -1
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
            if name_of[i] == ball_id:
                ball_child[p] = True
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "no_ball_child": 0}
           for name in names}
    for i in range(n):
        row = out[names[name_of[i]]]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[i]
        if not ball_child[i]:
            row["no_ball_child"] += 1
    return out


def _wrap(tracer, name, fn):
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = open_(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)

    return traced


def _wrap_equivalent(tracer, name, fn):
    """clusters_equivalent: also count the calls that found a witness."""
    inner = _wrap(tracer, name, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = inner(*args, **kwargs)
        if result is not None:
            tracer.counters[EQUIV_ACCEPTED] += 1
        return result

    return traced


def _wrap_ball(tracer, name, fn):
    """points_in_ball: also count points returned and points examined (all
    window points, or the lattice offsets enumerated for a periodic set)."""
    nid = tracer.name_id(name)
    counters = tracer.counters

    @functools.wraps(fn)
    def traced(self, center, radius):
        before = counters[OFFSETS_YIELDED]
        idx = tracer.open(nid)
        try:
            result = fn(self, center, radius)
        finally:
            tracer.close(idx)
        counters[BALL_RETURNED] += len(result)
        counters[BALL_EXAMINED] += (len(self.points) if self.mode == "window"
                                    else counters[OFFSETS_YIELDED] - before)
        return result

    return traced


def _wrap_offsets(tracer, name, fn):
    """Lattice.offsets_in_ball returns a lazy generator; enumerate it inside
    the span so the span holds the enumeration work.  Callers only iterate
    the result once, so a tuple serves them equally."""
    nid = tracer.name_id(name)
    counters = tracer.counters

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = tuple(fn(*args, **kwargs))
        finally:
            tracer.close(idx)
        counters[OFFSETS_YIELDED] += len(result)
        return result

    return traced


def _rebind(old, new):
    """Replace every reference to `old` held by a module of the package,
    including names other modules imported by value."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "delone" or modname.startswith("delone.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


SPECIAL = {"sets.points_in_ball": _wrap_ball,
           "geometry.Lattice.offsets_in_ball": _wrap_offsets,
           "classify.clusters_equivalent": _wrap_equivalent}


def install(tracer):
    """Wrap every target in TARGETS.  Call before `delone.cli.main`."""
    importlib.import_module("delone")
    importlib.import_module("delone.cli")
    for layer, attr, name in TARGETS:
        mod = sys.modules[f"delone.{layer}"]
        make = SPECIAL.get(name, _wrap)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(tracer, name, cls.__dict__[meth]))
        else:
            fn = getattr(mod, attr)
            _rebind(fn, make(tracer, name, fn))
