"""Tolerance.offset_map: the map from tuples of offset vectors that lets
classify join a translate to its class and the covering radius reuse one
Voronoi cell, in both numeric modes.

A float key hit must never hand back the value of a tuple that is not the
query's within eps_abs, vector by vector, whatever cells the vectors round
into; a miss only costs the caller the work it does without a map.
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
