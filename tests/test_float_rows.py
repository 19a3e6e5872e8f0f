"""Float shifted-row windows: classes decided by witnesses alone.

The windows are built like the float files of the benchmark: the exact
shifted rows (a = 1/5, b = 1, c = 1/20, half-width 9/4) moved by a rational
translation, converted to floats, jittered by at most 1e-11 per coordinate
and given eps_abs = 1e-9.  RRRRRR is a regular system on the window and
RLLRLR is not (N = 2 at rho0 + 2R), as derived by hand in Dolbilin,
Lagarias and Senechal 1998; neither answer may depend on the jitter.
"""

import random
from fractions import Fraction as F

import pytest

from delone import (ShiftSequence, ShiftedRowSpec, Tolerance, build_window,
                    gen_shifted_rows, write_point_set)
from delone.classify import ClusterClass, ClusterPartition, group_orders_by_class
from delone.cli import main
from delone.geometry import Isometry, apply, identity, orthogonal_complement
from delone.sets import as_radius, cluster

FLOAT = Tolerance.floating(1e-9)
JITTER = 1e-11

# (jitter seed, translation); the first one made the parent's conjugated
# group check in group_orders_by_class miss by more than eps_abs
CASES = [(4, (F(2, 5), F(1, 10))), (1, (F(3, 10), F(2, 5))), (7, (F(3, 5), F(2, 5)))]


def float_rows(seq, seed, t):
    base = gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse(seq),
                                           extent=F(9, 4)))
    rng = random.Random(seed)

    def move(p):
        return tuple(float(c + s) for c, s in zip(p, t))

    points = [tuple(c + rng.uniform(-JITTER, JITTER) for c in move(p))
              for p in base.points]
    lo, hi = (move(b) for b in base.bounds)
    return build_window(points, (lo, hi), margin=float(base.margin), tol=FLOAT)


def report(tmp_path, capsys, seq, seed, t, command, *flags):
    path = str(tmp_path / f"rows_{seq}.ps")
    write_point_set(float_rows(seq, seed, t), path)
    rc = main(["--numeric-mode", "float", command, path, *flags])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return rc, captured.out.splitlines()


@pytest.mark.parametrize("seed,t", CASES)
def test_float_rrrrrr_is_regular_on_the_window(tmp_path, capsys, seed, t):
    rc, lines = report(tmp_path, capsys, "RRRRRR", seed, t,
                       "certify", "--criterion", "regular")
    assert rc == 0
    assert "verdict = satisfied-on-window" in lines
    assert "m = 1" in lines


@pytest.mark.parametrize("seed,t", CASES)
def test_float_rllrlr_is_violated_with_two_classes(tmp_path, capsys, seed, t):
    rc, lines = report(tmp_path, capsys, "RLLRLR", seed, t,
                       "certify", "--criterion", "regular")
    assert rc == 0
    assert "verdict = violated" in lines
    assert "n_at_rho0_plus_2R = 2" in lines


def test_float_rllrlr_analyze_reports_r_and_big_r(tmp_path, capsys):
    seed, t = CASES[0]
    rc, lines = report(tmp_path, capsys, "RLLRLR", seed, t, "analyze")
    assert rc == 0
    r = next(float(l.split(" = ")[1]) for l in lines if l.startswith("r = "))
    big_r = next(float(l.split(" = ")[1]) for l in lines if l.startswith("R = "))
    assert r == pytest.approx(1 / 10, abs=1e-8)
    assert big_r == pytest.approx((13 / 50) ** 0.5, abs=1e-8)


def test_orthogonal_complement_drops_float_noise():
    rng = random.Random(5)
    for d in (2, 3, 4):
        v = tuple(1.0 + k for k in range(d))
        frame = [v, tuple(2 * c + rng.uniform(-1e-11, 1e-11) for c in v)]
        comp = orthogonal_complement(frame, d)
        assert len(comp) == d - 1
        assert all(abs(sum(a * b for a, b in zip(u, v))) <= 1e-9 for u in comp)


def test_group_orders_accept_a_far_float_witness():
    # a Z^2 cluster about a point near (7, 7); the witness moves it by
    # (0, 18.8) with a linear part that is orthogonal only to about 1e-10,
    # as synthesized float witnesses are
    pts = [(float(i) + 0.3, float(j) + 0.7) for i in range(3, 12) for j in range(3, 12)]
    handle = build_window(pts, ((3.3, 3.7), (11.3, 11.7)), tol=FLOAT)
    rep = cluster(handle, (7.3, 7.7), as_radius(1.5, FLOAT))
    w = Isometry(((1.0, 0.0), (0.0, 1.0 + 1e-10)), (0.0, 18.8))
    partition = ClusterPartition(
        rho=rep.radius, tol=FLOAT,
        classes=(ClusterClass(representative=rep,
                              members=(rep.center, apply(w, rep.center)),
                              witnesses=(identity(2), w)),))
    assert group_orders_by_class(partition) == [(0, 8)]
