"""Tolerance.offset_map: the map from tuples of offset vectors that lets
classify join a translate to its class and the covering radius reuse one
Voronoi cell, in both numeric modes.

A float key hit must never hand back the value of a tuple that is not the
query's within eps_abs, vector by vector, whatever cells the vectors round
into; a miss only costs the caller the work it does without a map.  The
float point set (``Tolerance.point_set``) uses cells of the same side and
probes only those its padded eps-box meets.
"""

import random
from fractions import Fraction as F

from delone.geometry import Tolerance

EPS = 1e-9
FLOAT = Tolerance.floating(EPS)
# offsets of a Z^2 cluster about a site, in the order a range query lists them
OFFSETS = ((0.0, -1.0), (-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, -0.25))


def test_exact_mode_returns_a_dict():
    m = Tolerance.exact_mode().offset_map()
    assert type(m) is dict
    key = ((F(1), F(0)), (F(0), F(1, 3)))
    m[key] = "cell"
    assert m.get(key) == "cell"
    assert m.get(((F(0), F(1, 3)), (F(1), F(0)))) is None


def test_permuted_float_tuple_within_eps_hits():
    rng = random.Random(3)
    m = FLOAT.offset_map()
    m[OFFSETS] = "cell"
    for _ in range(20):
        moved = [tuple(c + rng.uniform(-EPS, EPS) / 2 for c in v) for v in OFFSETS]
        rng.shuffle(moved)
        assert m.get(tuple(moved)) == "cell"


def test_one_vector_moved_by_two_eps_misses():
    m = FLOAT.offset_map()
    m[OFFSETS] = "cell"
    # dyadic coordinates sit mid-cell, so the moved vector keeps its key and
    # only the vector-by-vector check tells the tuples apart
    moved = ((0.0, -1.0 + 2 * EPS),) + OFFSETS[1:]
    assert m.get(moved) is None
    assert m.get(OFFSETS[:-1]) is None
    m[moved] = "other"
    assert m.get(moved) == "other" and m.get(OFFSETS) == "cell"


def test_straddling_tuples_never_return_a_wrong_value():
    # vectors on both sides of cell edges: every hit is a stored tuple
    # within eps of the query vector by vector, misses are allowed
    rng = random.Random(11)
    side = FLOAT.offset_map().side
    base = [(k * side + side / 2, -k * side - side / 2) for k in range(1, 5)]
    stored = {}
    m = FLOAT.offset_map()
    for i in range(40):
        t = tuple(tuple(c + rng.uniform(-3 * EPS, 3 * EPS) for c in v) for v in base)
        stored[i] = t
        m[t] = i
    hits = 0
    for _ in range(400):
        q = [tuple(c + rng.uniform(-3 * EPS, 3 * EPS) for c in v) for v in base]
        rng.shuffle(q)
        got = m.get(tuple(q))
        if got is not None:
            hits += 1
            partners = sorted(stored[got])
            assert all(FLOAT.same_point(u, w) for u, w in zip(sorted(q), partners))
    assert hits > 0


class _CountingDict(dict):
    def __init__(self, *a):
        super().__init__(*a)
        self.probes = 0

    def get(self, *a):
        self.probes += 1
        return super().get(*a)


def test_float_point_set_probes_the_cells_its_eps_box_meets():
    # Tolerance.point_set in float mode shares the offset map's cell side:
    # a lookup probes one cell, or two per axis whose padded eps-box
    # straddles a cell edge, and finds a stored point within eps either way
    rng = random.Random(5)
    side = FLOAT.offset_map().side
    edge = 7 * side + side / 2  # round() puts the cell edge here
    stored = [(0.3 + 1e-11, 0.7), (edge + 0.4 * EPS, 0.25), (1.0, edge - 0.4 * EPS)]
    grid = FLOAT.point_set(stored)
    grid.map = _CountingDict(grid.map)
    for _ in range(50):
        for i, p in enumerate(stored):
            q = tuple(c + rng.uniform(-EPS, EPS) / 2 for c in p)
            assert grid.get(q) == i
    grid.map.probes = 0
    assert grid.get((0.3, 0.7)) == 0 and grid.map.probes == 1
    assert grid.get((edge - 0.4 * EPS, 0.25)) == 1 and grid.map.probes <= 3
    assert grid.get((edge + 2 * EPS, 0.25)) is None
    assert (0.3, 0.7 + 2 * EPS) not in grid
