"""Benchmark of the `delone` command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  The run generates the workload's inputs from the seed (timed as
set-up, several times), then runs the workload's CLI jobs in passes while a
further pass fits in S seconds, each job a fresh child process started one
at a time, and grades every job with the oracle in workloads.py/oracle.py.

--trace 0 reports the end-to-end metrics: job times in units of a reference
loop timed around each job (medians over a job's runs), and the median
set-up time in seconds.
--trace 1 runs every job untraced and then under the outside-in tracer
(traced_cli.py) and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything else on standard output is the readable report; see NOTES.md
for what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2
PROBE_ITERATIONS = 1_000_000   # the reference loop: about 0.1 s
RUN_DEADLINE_S = 165      # start no job that could end past this point
JOB_TIMEOUT_S = 120
WORK_DIR = ".bench_work"


class Usage(Exception):
    """The benchmark cannot run here."""


# -- child processes ---------------------------------------------------------

def run_child(argv, cwd, env, timeout, log_dir):
    """Run one child to completion; return (exit code, stdout, stderr, wall
    seconds, cpu seconds, max RSS in MiB) taken from its own rusage."""
    out_path = os.path.join(log_dir, "child.out")
    err_path = os.path.join(log_dir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return (proc.returncode, stdout, stderr, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Runner:
    def __init__(self, root, work):
        self.root = root
        self.work = work
        # The CLI makes no BLAS calls, yet numpy (imported with scipy) starts
        # a pool of OpenBLAS threads in every child; with the pool, a child's
        # CPU time was seen to exceed its wall time.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS="1")
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + RUN_DEADLINE_S

    def remaining(self):
        return self.deadline - time.perf_counter()

    def child(self, argv, cwd):
        timeout = min(JOB_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            raise TimeoutError("run deadline reached")
        return run_child(argv, cwd, self.env, timeout, self.work)

    def check_package(self):
        code, out, err, *_ = self.child(
            [sys.executable, "-c", "import delone, sys; sys.stdout.write(delone.__file__)"],
            self.root)
        want = os.path.join(self.root, "src", "delone")
        if code != 0 or not os.path.abspath(out).startswith(want):
            raise Usage(f"cannot import delone from {want}: {err.strip() or out}")

    # set-up ------------------------------------------------------------------

    def setup(self, workload, seed, target):
        """Generate the workload's inputs into `target`; return seconds."""
        os.makedirs(target)
        specs = workloads.inputs(workload, seed)
        lib = [[name, spec] for kind, name, spec in specs if kind == "lib"]
        t0 = time.perf_counter()
        for kind, name, gen_args in specs:
            if kind == "cli":
                self._must(self.child([sys.executable, "-m", "delone.cli", *gen_args],
                                      target), name)
        if lib:
            self._must(self.child([sys.executable, os.path.join(HERE, "make_inputs.py"),
                                   str(seed), target, json.dumps(lib)], target),
                       "make_inputs")
        return time.perf_counter() - t0

    @staticmethod
    def _must(result, what):
        if result[0] != 0:
            raise RuntimeError(f"set-up step {what} failed: {result[2].strip()}")

    # passes ------------------------------------------------------------------

    def run_job(self, job, inputs_dir, dump=None):
        """One CLI job in its own child; traced (spans to `dump`) if given."""
        if dump is None:
            argv = [sys.executable, "-m", "delone.cli", *job.argv()]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), dump, *job.argv()]
        code, out, err, wall, cpu, rss = self.child(argv, inputs_dir)
        return {"code": code, "out": out, "err": err, "wall": wall, "cpu": cpu, "rss": rss}


def point_count(path):
    """Points listed in a point-set file ([points] or [motif] rows)."""
    count, listing = 0, False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                listing = line in ("[points]", "[motif]")
            elif listing and line:
                count += 1
    return count


def largest_job(jobs, inputs_dir):
    """Index of the first job on the input with the most points."""
    sizes = [point_count(os.path.join(inputs_dir, job.input)) for job in jobs]
    return sizes.index(max(sizes))


def same_files(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


# -- statistics --------------------------------------------------------------

def summary(values):
    """(median, q1, q3, n) of a sample."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def ratio(num, den):
    return num / den if den else 0.0


class Grader:
    """Grades every job run; remembers each job's first report."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.failures = Counter()

    def grade(self, index, result, kind):
        job = self.jobs[index]
        first = self.first.setdefault(index, result["out"])
        problems = oracle.grade(job, result["code"], result["out"], result["err"], first)
        self.attempted += 1
        if problems:
            self.failed += 1
            reason = "; ".join(problems)
            self.failures[(job.label(), kind, reason, job.known_defect)] += 1
            if not job.known_defect:
                self.unexpected.append(f"{job.label()}: {reason}")

    def report(self, out):
        for (label, kind, reason, defect), count in sorted(self.failures.items()):
            tag = f"known defect: {defect}" if defect else "UNEXPECTED"
            out.append(f"failed {count}x ({kind}) {label}: {reason} [{tag}]")
        out.append(f"fail_ratio {ratio(self.failed, self.attempted):.4f} ratio "
                   f"({self.failed} of {self.attempted} job runs)")


# -- the two kinds of run ----------------------------------------------------

END_TO_END_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "largest_job_ref": "ref",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


def probe():
    """Seconds a fixed pure-Python loop takes now: the reference that job
    times are divided by (see NOTES.md, "Reference units")."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def end_to_end(runner, jobs, inputs_dir, setup_times, seconds, grader, lines):
    """Passes over the job list while the next pass still fits in `seconds`
    (at least MIN_PASSES).  The reference loop runs before the first job and
    after every job; each job run's times are divided by the mean of the two
    reference times around it, and a job's value is the median of these
    ratios over its runs."""
    big = largest_job(jobs, inputs_dir)
    runs = [[] for _ in jobs]
    pass_walls, refs = [], [probe()]
    t0 = time.perf_counter()
    while len(pass_walls) < MIN_PASSES or (
            time.perf_counter() - t0 + pass_walls[-1] <= seconds
            and runner.remaining() > 2 * pass_walls[-1]):
        t_pass = time.perf_counter()
        for i, job in enumerate(jobs):
            res = runner.run_job(job, inputs_dir)
            refs.append(probe())
            res["ref"] = (refs[-2] + refs[-1]) / 2
            grader.grade(i, res, "untraced")
            runs[i].append(res)
        pass_walls.append(time.perf_counter() - t_pass)

    def per_job(key):
        return [statistics.median(r[key] / r["ref"] for r in job_runs) for job_runs in runs]

    walls, cpus = per_job("wall"), per_job("cpu")
    values = {"wall_ref": sum(walls), "cpu_ref": sum(cpus), "largest_job_ref": walls[big],
              "peak_rss_mb": max(statistics.median(r["rss"] for r in job_runs)
                                 for job_runs in runs),
              "setup_s": statistics.median(setup_times)}
    lines.append(f"largest input job: {jobs[big].label()}")
    lines.append(f"{len(pass_walls)} passes; per job: median wall in ref, then the "
                 "wall seconds of each run")
    lines += [f"  {job.label()}: {w:.3f} ref; " + " ".join(f"{r['wall']:.3f}" for r in job_runs)
              for job, w, job_runs in zip(jobs, walls, runs)]
    for what, sample in (("reference loop", refs), ("pass wall", pass_walls)):
        med, q1, q3, n = summary(sample)
        lines.append(f"{what} seconds: median {med:.6f}, q1 {q1:.6f}, q3 {q3:.6f}, n {n}")
    # the spread of each metric over the run's passes (runs, set-ups)
    by_pass = list(zip(*runs))
    samples = {"wall_ref": [sum(r["wall"] / r["ref"] for r in p) for p in by_pass],
               "cpu_ref": [sum(r["cpu"] / r["ref"] for r in p) for p in by_pass],
               "largest_job_ref": [r["wall"] / r["ref"] for r in runs[big]],
               "peak_rss_mb": [max(r["rss"] for r in p) for p in by_pass],
               "setup_s": setup_times}
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        metrics[name] = {"value": values[name], "unit": unit}
        med, q1, q3, n = summary(samples[name])
        lines.append(f"{name} {values[name]:.6f} {unit} (per pass or set-up: median "
                     f"{med:.6f}, q1 {q1:.6f}, q3 {q3:.6f}, n {n})")
    return metrics


# (span, field): the metric "<span>.<field>" is the span's call count or
# summed self time over a pass's jobs.
SPAN_METRICS = (
    ("sets.points_in_ball", "calls"), ("sets.points_in_ball", "self_s"),
    ("sets.neighborhood", "calls"),
    ("sets.radius_covers", "calls"), ("sets.radius_covers", "self_s"),
    ("scalars.Radical.sign", "calls"), ("scalars.Radical.sign", "self_s"),
    ("sets.delone_params", "self_s"), ("sets.cluster", "self_s"),
    ("sets.distance_spectrum", "self_s"),
    ("geometry.Lattice.offsets_in_ball", "calls"),
    ("geometry.Lattice.offsets_in_ball", "self_s"),
    ("geometry.mat_solve", "calls"),
    ("classify.classify", "calls"), ("classify.classify", "self_s"),
    ("classify.fingerprint", "self_s"),
    ("classify.clusters_equivalent", "calls"), ("classify.clusters_equivalent", "self_s"),
    ("classify.cluster_group_of", "self_s"), ("classify.n_profile", "self_s"),
    ("criteria.certify_auto", "self_s"),
    ("criteria.check_regular_criterion", "calls"),
    ("criteria.check_crystal_criterion", "calls"),
    ("criteria.reconstruct_from_2R_cluster", "self_s"),
    ("criteria.antipodal_lattice_decomposition", "self_s"),
    ("criteria.is_locally_antipodal", "self_s"),
    ("fileio.read_point_set", "self_s"),
)
UNIT = {"calls": "count", "self_s": "s"}


def layer_metrics(spans, counters):
    """Per-layer metrics of one pass from its summed spans and counters, as
    metric -> (value, unit, span whose calls the metric describes)."""
    out = {f"{span}.{fld}": (spans[span][fld], UNIT[fld], span)
           for span, fld in SPAN_METRICS}
    nb, equiv = spans["sets.neighborhood"], spans["classify.clusters_equivalent"]
    out["sets.points_in_ball.hit_ratio"] = (
        ratio(counters[tracer.BALL_RETURNED], counters[tracer.BALL_EXAMINED]), "ratio",
        "sets.points_in_ball")
    out["sets.neighborhood.hit_ratio"] = (
        ratio(nb["no_ball_child"], nb["calls"]), "ratio", "sets.neighborhood")
    out["scalars.sign_per_cover"] = (
        ratio(spans["scalars.Radical.sign"]["calls"], spans["sets.radius_covers"]["calls"]),
        "ratio", "sets.radius_covers")
    out["classify.clusters_equivalent.accept_ratio"] = (
        ratio(counters[tracer.EQUIV_ACCEPTED], equiv["calls"]), "ratio",
        "classify.clusters_equivalent")
    return out, {span for span, row in spans.items() if row["calls"]}


COUNT_UNITS = ("count", "ratio")


def pass_layers(trace_dir, n_jobs):
    """Sum the span summaries and counters of one traced pass; return its
    metrics, the spans it called, and the jobs that left no dump."""
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "no_ball_child": 0}
              for _, _, name in tracer.TARGETS}
    counters = Counter()
    missing = []
    for i in range(n_jobs):
        path = os.path.join(trace_dir, f"job{i}.json")
        if not os.path.exists(path):
            missing.append(i)
            continue
        *spans, job_counters = tracer.load(path)
        for name, row in tracer.summarize(*spans).items():
            for key, value in row.items():
                totals[name][key] += value
        counters.update(job_counters)
    return (*layer_metrics(totals, counters), missing)


def per_layer(runner, jobs, inputs_dir, seconds, grader, lines):
    plain, traced, layer_samples = [], [], []
    t0 = time.perf_counter()
    while not traced or (
            time.perf_counter() - t0 + plain[-1] + traced[-1] <= seconds
            and runner.remaining() > 2 * (plain[-1] + traced[-1])):
        trace_dir = os.path.join(runner.work, f"trace{len(traced)}")
        os.makedirs(trace_dir)
        wall_plain = wall_traced = 0.0
        for i, job in enumerate(jobs):
            # each job runs untraced, then traced: both see the same machine
            # state, so their difference is the tracing overhead
            res = runner.run_job(job, inputs_dir)
            grader.grade(i, res, "untraced")
            wall_plain += res["wall"]
            res = runner.run_job(job, inputs_dir, os.path.join(trace_dir, f"job{i}.json"))
            grader.grade(i, res, "traced")
            wall_traced += res["wall"]
        plain.append(wall_plain)
        traced.append(wall_traced)
        layers, reached, missing = pass_layers(trace_dir, len(jobs))
        for i in missing:
            lines.append(f"no trace from job {jobs[i].label()} (killed)")
        layer_samples.append(layers)
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    metrics = {}
    unstable = []
    for metric in sorted(layer_samples[0]):
        _, unit, span = layer_samples[0][metric]
        values = [s[metric][0] for s in layer_samples]
        if unit in COUNT_UNITS and len(set(values)) > 1:
            unstable.append(metric)
        value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"{metric} {value:.6g} {unit}" + (
            "" if span in reached else f" ({span} is not called on this workload)"))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines.append(f"trace.overhead_s {overhead:.6f} s (median over {len(traced)} round(s); "
                 f"untraced jobs {statistics.median(plain):.6f} s, traced jobs "
                 f"{statistics.median(traced):.6f} s)")
    lines.append("counts that differ between rounds: "
                 + (", ".join(unstable) if unstable else "none"))
    return metrics


# -- entry point -------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "delone", "cli.py")):
        sys.stderr.write("bench: run from a checkout root holding src/delone\n")
        return 2
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             + workloads.WHY[args.workload]]
    try:
        runner = Runner(root, work)
        runner.check_package()
        dirs = [os.path.join(work, f"inputs{k}") for k in range(SETUP_REPEATS)]
        setup_times = [runner.setup(args.workload, args.seed, d) for d in dirs]
        jobs = workloads.jobs(args.workload, args.seed)
        grader = Grader(jobs)
        if not all(same_files(dirs[0], d) for d in dirs[1:]):
            grader.unexpected.append("set-up wrote different files from one seed")
        if args.trace:
            metrics = per_layer(runner, jobs, dirs[0], args.seconds, grader, lines)
        else:
            metrics = end_to_end(runner, jobs, dirs[0], setup_times, args.seconds,
                                 grader, lines)
        grader.report(lines)
    except (Usage, RuntimeError, TimeoutError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    for line in grader.unexpected:
        lines.append(f"unexpected: {line}")
    print("\n".join(lines))
    print(json.dumps({"correct": not grader.unexpected, "attempted": grader.attempted,
                      "failed": grader.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
