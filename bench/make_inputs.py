"""Write the benchmark inputs that `delone generate` cannot express.

    python3 bench/make_inputs.py SEED OUT_DIR SPEC_JSON

SPEC_JSON is a list of [file name, spec] pairs (see workloads.inputs):
translated windows cut from Z^2, the shifted rows or the three-coset
fixture, and float copies of windows with a
seeded jitter below eps.  Files are written with `write_point_set`.
"""

import json
import os
import random
import sys
from fractions import Fraction

import workloads
from delone import (ShiftSequence, ShiftedRowSpec, Tolerance,
                    build_window, gen_shifted_rows, square_lattice,
                    three_coset_fixture, write_point_set)


def _shift(p, t):
    return tuple(c + d for c, d in zip(p, t))


def _exact_window(spec):
    if spec["shape"] == "z2":
        return square_lattice(extent=Fraction(spec["extent"]))
    if spec["shape"] == "fixture":
        return three_coset_fixture(extent=Fraction(spec["extent"]))
    return gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse(spec["seq"]),
                                           extent=workloads.ROWS_EXTENT))


def build(spec, t, rng):
    base = _exact_window(spec)
    lo, hi = (_shift(b, t) for b in base.bounds)
    points = [_shift(p, t) for p in base.points]
    if spec["numeric"] == "exact":
        return build_window(points, (lo, hi), margin=base.margin)

    def jitter(p):
        return tuple(float(c) + rng.uniform(-workloads.JITTER, workloads.JITTER)
                     for c in p)

    return build_window([jitter(p) for p in points],
                        (tuple(map(float, lo)), tuple(map(float, hi))),
                        margin=float(base.margin),
                        tol=Tolerance.floating(workloads.FLOAT_EPS))


def main():
    seed, out_dir, specs = int(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
    t = workloads.translation(seed)
    rng = random.Random(f"jitter-{seed}")
    for name, spec in specs:
        write_point_set(build(spec, t, rng), os.path.join(out_dir, name))


if __name__ == "__main__":
    main()
