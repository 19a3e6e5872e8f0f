"""Tests of the benchmark itself: span arithmetic, the oracle, and the
repeatability of the traced counts.

    python3 -m pytest bench/test_bench.py -q

The last test starts real `delone` children from this checkout's src/.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle      # noqa: E402
import run         # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and D [6, 7]
    tr = tracer.Tracer(clock=_fake_clock([0, 1, 2, 4, 5, 6, 7, 10]))
    a = tr.open(tr.name_id("A"))
    b = tr.open(tr.name_id("B"))
    c = tr.open(tr.name_id("C"))
    tr.close(c)
    tr.close(b)
    d = tr.open(tr.name_id("D"))
    tr.close(d)
    tr.close(a)
    out = tracer.summarize(tr.names, tr.name_of, tr.parent, tr.start, tr.end)
    assert {k: v["self_s"] for k, v in out.items()} == {"A": 5, "B": 2, "C": 2, "D": 1}
    assert {k: v["total_s"] for k, v in out.items()} == {"A": 10, "B": 4, "C": 2, "D": 1}
    assert all(v["calls"] == 1 for v in out.values())


def test_repeated_names_sum_and_dump_round_trip():
    # neighborhood [0, 3] runs points_in_ball [1, 2]; neighborhood [4, 5] runs none
    tr = tracer.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5]))
    n1 = tr.open(tr.name_id("sets.neighborhood"))
    p = tr.open(tr.name_id(tracer.BALL))
    tr.close(p)
    tr.close(n1)
    n2 = tr.open(tr.name_id("sets.neighborhood"))
    tr.close(n2)
    tr.counters[tracer.BALL_RETURNED] += 3
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        tr.dump(path)
        *spans, counters = tracer.load(path)
    out = tracer.summarize(*spans)
    nb = out["sets.neighborhood"]
    assert (nb["calls"], nb["self_s"], nb["no_ball_child"]) == (2, 3, 1)
    assert counters[tracer.BALL_RETURNED] == 3


REPORT = """# delone report v1
command = certify
numeric_mode = exact
criterion = crystal
verdict = satisfied
rho0 = 1/2
rho0_float = 0.5
m = 2
[group_check]
class M_rho0 M_rho0_plus_2R equal
1 8 8 yes
"""
CRYSTAL = workloads.Job("fixture.ps", ("certify", "fixture.ps", "--criterion", "crystal"),
                        {"exit": 0, "verdict": "satisfied", "m": "2", "rho0": "1/2"})


def test_oracle_accepts_the_expected_report():
    assert oracle.grade(CRYSTAL, 0, REPORT, "", REPORT) == []


def test_oracle_rejects_wrong_verdict_exit_code_and_m():
    assert oracle.grade(CRYSTAL, 0, REPORT.replace("= satisfied", "= violated"), "")
    assert oracle.grade(CRYSTAL, 3, REPORT, "")
    assert oracle.grade(CRYSTAL, 0, REPORT.replace("m = 2", "m = 1"), "")
    assert oracle.grade(CRYSTAL, 0, REPORT, "Traceback (most recent call last):\nX")
    assert oracle.grade(CRYSTAL, 0, REPORT, "", REPORT + "extra\n")


def test_oracle_float_radii_must_be_floats_near_the_exact_value():
    job = workloads.Job("f.ps", ("analyze", "f.ps"), {"r": "1/10", "R": "sqrt(13/50)"},
                        float_mode=True)
    good = "r = 0.10000000001\nR = 0.5099019514\n"
    assert oracle.grade(job, 0, good, "") == []
    assert oracle.grade(job, 0, "r = 1/10\nR = 0.5099019514\n", "")
    assert oracle.grade(job, 0, "r = 0.2\nR = 0.5099019514\n", "")


def test_fixture_count_by_hand():
    # the centre and its four neighbours at distance 1/2
    assert workloads.fixture_count(0.5) == 5
    # (1/2, 1/2) is not in the set, so radius 3/4 adds nothing
    assert workloads.fixture_count(0.75) == 5
    # radius 1 adds the four Z^2 neighbours
    assert workloads.fixture_count(1) == 9


def test_count_metrics_repeat_across_traced_runs():
    """Counts (*.calls, *.hit_ratio, *.accept_ratio, *_per_*) of two traced
    passes are equal, and traced reports equal untraced ones."""
    root = os.path.dirname(HERE)
    with tempfile.TemporaryDirectory(dir=root) as work:
        runner = run.Runner(root, work)
        inputs = os.path.join(work, "inputs")
        runner.setup("periodic-exact", 7, inputs)
        jobs = [j for j in workloads.jobs("periodic-exact", 7)
                if j.input in ("z2.ps", "fixture.ps")][:3]
        plain = [runner.run_job(job, inputs) for job in jobs]
        layers = []
        for k in range(2):
            trace_dir = os.path.join(work, f"trace{k}")
            os.makedirs(trace_dir)
            traced = [runner.run_job(job, inputs, os.path.join(trace_dir, f"job{i}.json"))
                      for i, job in enumerate(jobs)]
            assert [r["out"] for r in traced] == [r["out"] for r in plain]
            layers.append(run.pass_layers(trace_dir, len(jobs))[0])
    differ = [m for m, (value, unit, _) in layers[0].items()
              if unit in run.COUNT_UNITS and layers[1][m][0] != value]
    assert not differ, f"counts that differ between traced runs: {differ}"
    assert layers[0]["sets.radius_covers.calls"][0] > 0
