"""Workloads of the benchmark: the inputs each one generates from its seed,
the CLI jobs it runs on them, and what the oracle expects of each job.

Expected outcomes come from the paper and the README, not from the
program's own output:
- lattices and the p4 crystal are regular systems (m = 1);
- the three-coset fixture Z^2 + {0, e1/2, e2/2} is a crystal of m = 2
  regular systems at rho0 = 1/2 (Dolbilin-Lagarias-Senechal 1998), is not a
  regular system, splits into n = 3 cosets of its maximal lattice and is
  rebuilt exactly from one 2R-cluster;
- shifted rows RRRRRR and RLRLRL are regular on the window, RLLRLR is not
  (N = 2 at rho0 + 2R);
- r and R are derived by hand: Z^2 has r = 1/2, R = sqrt(1/2); the rows
  (a = 1/5, b = 1, c = 1/20) have r = a/2 = 1/10 and
  R = sqrt(b^2/4 + a^2/4) = sqrt(13/50).

The seed picks a rational translation t of every input (and, for float
files, a jitter far below the file's eps); no expected outcome depends on
it.  A window is translated together with its bounds, so every seed gives
the same point count and the same interior.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

FLOAT_EPS = 1e-9
JITTER = FLOAT_EPS / 100
ROWS_EXTENT = Fraction(9, 4)   # smallest quarter-step half-width deciding RLLRLR

# orbit of (3/10, 1/10) under the quarter turn, reduced mod Z^2: the motif
# that `delone generate crystal --rotation 4 --motif 3/10,1/10` writes
P4_ORBIT = ((Fraction(3, 10), Fraction(1, 10)), (Fraction(9, 10), Fraction(3, 10)),
            (Fraction(7, 10), Fraction(9, 10)), (Fraction(1, 10), Fraction(7, 10)))
HALF = Fraction(1, 2)
FIXTURE_MOTIF = ((0, 0), (HALF, 0), (0, HALF))


def translation(seed):
    """The seed's rational translation, in tenths, away from 0."""
    rng = random.Random(seed)
    return (Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(1, 9), 10))


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def motif_arg(points, t):
    return ";".join(f"{fmt(x + t[0])},{fmt(y + t[1])}" for x, y in points)


# -- inputs ------------------------------------------------------------------
# An input is ("cli", name, generate-arguments) for files that
# `delone generate` can express, or ("lib", name, spec) for files built with
# the library and written with write_point_set (see make_inputs.py).

def _periodic_cli(name, basis, motif, t):
    return ("cli", name, ("generate", "crystal", "--basis", basis,
                          "--motif", motif_arg(motif, t), "--out", name))


SQUARE = "1,0;0,1"
TRIANGULAR = "1,0;1/2,1/2*sqrt(3)"
# Shifted-row windows in each mode.  An exact certify of RRRRRR or RLRLRL
# takes 3-4 s, so the exact windows keep only RLLRLR (the one that is not
# regular) and a run fits three passes; the float files add RRRRRR, whose
# wrong float verdict is one of the known defects.  RLRLRL is in neither.
EXACT_ROWS = ("RLLRLR",)
FLOAT_ROWS = ("RRRRRR", "RLLRLR")


def _window_inputs(numeric):
    prefix, rows = ("f_", FLOAT_ROWS) if numeric == "float" else ("", EXACT_ROWS)
    out = [("lib", f"{prefix}z2_w3.ps", {"shape": "z2", "extent": 3, "numeric": numeric}),
           ("lib", f"{prefix}z2_w5.ps", {"shape": "z2", "extent": 5, "numeric": numeric})]
    out += [("lib", f"{prefix}rows_{seq}.ps", {"shape": "rows", "seq": seq,
                                                "numeric": numeric}) for seq in rows]
    return out


def inputs(workload, seed):
    t = translation(seed)
    if workload == "periodic-exact":
        return [_periodic_cli("z2.ps", SQUARE, [(0, 0)], t),
                _periodic_cli("tri.ps", TRIANGULAR, [(0, 0)], t),
                _periodic_cli("fixture.ps", SQUARE, FIXTURE_MOTIF, t),
                _periodic_cli("p4.ps", SQUARE, P4_ORBIT, t)]
    if workload == "window-exact":
        return _window_inputs("exact")
    if workload == "antipodal-rebuild":
        return [_periodic_cli("fixture.ps", SQUARE, FIXTURE_MOTIF, t),
                ("lib", "fixture_w4.ps", {"shape": "fixture", "extent": 4,
                                          "numeric": "exact"})]
    if workload == "float-import":
        return _window_inputs("float")
    raise KeyError(workload)


# -- jobs --------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One CLI run: `delone [--numeric-mode float] <args>` on `input`."""

    input: str
    args: tuple
    expect: dict = field(default_factory=dict)
    float_mode: bool = False
    known_defect: str = ""

    def argv(self):
        return (("--numeric-mode", "float") if self.float_mode else ()) + self.args

    def label(self):
        return " ".join(self.argv())


def fixture_count(rho_max):
    """Points of Z^2 + {0, e1/2, e2/2} in the closed ball of radius rho_max
    about a set point: (a/2, b/2) with a, b not both odd, a^2 + b^2 <= 4 rho^2."""
    lim = int(2 * rho_max)
    return sum(1 for a in range(-lim, lim + 1) for b in range(-lim, lim + 1)
               if not (a % 2 and b % 2) and a * a + b * b <= 4 * rho_max * rho_max)


REGULAR = {"exit": 0, "verdict": "satisfied", "m": "1"}
ON_WINDOW = {"exit": 0, "verdict": "satisfied-on-window", "m": "1"}
RLLRLR_VIOLATED = {"exit": 0, "verdict": "violated", "n_at_rho0_plus_2R": "2"}
ROWS_R = ("1/10", "sqrt(13/50)")
Z2_R = ("1/2", "sqrt(1/2)")

FLOAT_ROWS_DEFECT = ("float classification of shifted rows splits the single "
                     "class (wrong verdict) or crashes in geometry.mat_solve")


def _certify(inp, criterion, expect, *extra):
    return Job(inp, ("certify", inp, "--criterion", criterion) + extra, expect)


def _analyze(inp, r_and_big_r, classes=None):
    expect = {"exit": 0, "r": r_and_big_r[0], "R": r_and_big_r[1]}
    if classes is not None:
        expect["classes"] = classes
    return Job(inp, ("analyze", inp), expect)


def _window_jobs(prefix, rows):
    return [_certify(f"{prefix}z2_w3.ps", "regular", ON_WINDOW),
            _certify(f"{prefix}z2_w5.ps", "regular", ON_WINDOW),
            _analyze(f"{prefix}z2_w5.ps", Z2_R, 1)] + [
            _certify(f"{prefix}rows_{seq}.ps", "regular",
                     RLLRLR_VIOLATED if seq == "RLLRLR" else ON_WINDOW)
            for seq in rows]


def _as_float(job):
    defect = FLOAT_ROWS_DEFECT if "rows_" in job.input else ""
    return Job(job.input, job.args, dict(job.expect, numeric_mode="float"),
               float_mode=True, known_defect=defect)


def jobs(workload, seed):
    t = translation(seed)
    if workload == "periodic-exact":
        return [_certify("z2.ps", "regular", REGULAR),
                _analyze("z2.ps", Z2_R, 1),
                _certify("tri.ps", "crystal", REGULAR),
                _certify("fixture.ps", "crystal",
                         {"exit": 0, "verdict": "satisfied", "m": "2", "rho0": "1/2"},
                         "--group-mode", "all"),
                _certify("fixture.ps", "regular", {"exit": 0, "verdict": "violated"}),
                _certify("p4.ps", "regular", REGULAR)]
    if workload == "window-exact":
        return _window_jobs("", EXACT_ROWS)
    if workload == "antipodal-rebuild":
        center = f"{fmt(t[0])},{fmt(t[1])}"
        return [Job("fixture.ps", ("reconstruct", "fixture.ps", "--center", center,
                                   "--rho-max", str(rho), "--compare", "fixture.ps"),
                    {"exit": 0, "match": "true",
                     "reconstructed_points": str(fixture_count(rho))})
                for rho in (3, 5)] + [
                Job("fixture.ps", ("decompose", "fixture.ps"), {"exit": 0, "n": "3"}),
                Job("fixture_w4.ps", ("decompose", "fixture_w4.ps"), {"exit": 0, "n": "3"})]
    if workload == "float-import":
        # the float analyze of the rows crashes today; it stays in the list
        return [_as_float(job) for job in _window_jobs("f_", FLOAT_ROWS)
                + [_analyze("f_rows_RLLRLR.ps", ROWS_R)]]
    raise KeyError(workload)


# Why each workload exists, and which layers it should and should not move.
WHY = {
    "periodic-exact": (
        "certify and analyze on periodic exact sets (Z^2, triangular, "
        "three-coset fixture, p4): witness synthesis, cluster groups and the "
        "Q(sqrt 3) sign kernel dominate; range queries only enumerate lattice "
        "offsets, so a window index should leave it flat"),
    "window-exact": (
        "certify and analyze on finite exact windows (Z^2 at extents 3 and 5, "
        "RLLRLR rows): every range query scans all n points and "
        "the covering radius triangulates the window, so time grows with n"),
    "antipodal-rebuild": (
        "reconstruct --compare at two radii and decompose (periodic and window) "
        "on the three-coset fixture: point insertion and contains membership "
        "instead of ball queries"),
    "float-import": (
        "the window-exact shapes as numeric = float files under --numeric-mode "
        "float: the float-with-eps branch of every predicate, no Radical"),
}

WORKLOADS = tuple(WHY)
