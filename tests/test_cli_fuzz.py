"""Fuzzed command lines: every run ends in a documented exit code.

Short argument lists go through ``cli.main``: a subcommand, some of its
flags with valid or broken values, and an input that is one of a few small
valid files (exact and float, periodic and window, a float window whose
clusters are rank-deficient at small radii, a collinear float window) or a
valid file with a few characters edited.  ``main`` must return 0, 2, 3 or
4; argparse's own exit 2 for a bad flag counts, any other exception fails.
"""

import contextlib
import io
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delone import (ShiftSequence, ShiftedRowSpec, Tolerance, build_window,
                    gen_shifted_rows, write_point_set)
from delone.cli import main

Z2_WINDOW = ("dim = 2\nmode = window\nnumeric = exact\nmargin = 0\n[bounds]\n-2 -2\n2 2\n"
             "[points]\n" + "".join(f"{i} {j}\n" for i in range(-2, 3) for j in range(-2, 3)))
Z2_PERIODIC = "dim = 2\nmode = periodic\nnumeric = exact\n[basis]\n1 0\n0 1\n[motif]\n0 0\n"
FLOAT_PERIODIC = ("dim = 2\nmode = periodic\nnumeric = float\neps_abs = 1e-09\n[basis]\n"
                  "1.0 0.0\n0.0 1.0\n[motif]\n0.1 0.1\n0.6 0.1\n")
FLOAT_WINDOW = ("dim = 2\nmode = window\nnumeric = float\nmargin = 0.0\n[bounds]\n"
                "-2.0 -2.0\n2.0 2.0\n[points]\n"
                + "".join(f"{i}.0 {j}.0\n" for i in range(-2, 3) for j in range(-2, 3)))
FLOAT_LINE = ("dim = 2\nmode = window\nnumeric = float\nmargin = 0.0\n[bounds]\n"
              "-3.0 -3.0\n3.0 3.0\n[points]\n" + "".join(f"{i}.0 0.0\n" for i in range(-3, 4)))
TEXTS = (Z2_WINDOW, Z2_PERIODIC, FLOAT_PERIODIC, FLOAT_WINDOW, FLOAT_LINE)

TOKENS = st.sampled_from(("1", "1/2", "0.5", "sqrt(2)", "3/2", "0", "-1", "1/0", "x",
                          "", "0,0", "1/2,0", "0.0,0.0", "1,0;0,1", "RLL", "2.25"))
GLOBALS = st.lists(st.sampled_from((("--numeric-mode", "float"), ("--numeric-mode", "exact"),
                                    ("--tolerance", "1e-6"), ("--tolerance", "-1"),
                                    ("--rho-cap", "2"), ("--seed-cap", "0"))),
                   max_size=2)
FLAGS = {
    "analyze": ("--rho", "--rho-max"),
    "certify": ("--rho0", "--criterion", "--group-mode"),
    "decompose": (),
    "reconstruct": ("--center", "--rho-max", "--seed-rho"),
    "plot": ("--highlight", "--rho", "--center", "--extent"),
    "generate": ("--basis", "--motif", "--half-vectors", "--rotation", "--extent", "--seq"),
}
CHOICES = {"--criterion": ("regular", "crystal", "none"),
           "--group-mode": ("representative", "all"),
           "--highlight": ("classes", "chains", "clusters")}
EDITS = st.lists(st.tuples(st.floats(0, 1), st.one_of(
    st.none(), st.sampled_from("0123456789/-.e=[] \n#"))), max_size=3)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rows = gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse("RLLRLR")))
    rng = random.Random(2)
    write_point_set(build_window(
        [tuple(float(c) + rng.uniform(-1e-11, 1e-11) for c in p) for p in rows.points],
        tuple(tuple(map(float, b)) for b in rows.bounds),
        margin=float(rows.margin), tol=Tolerance.floating(1e-9)), str(root / "rows.ps"))
    return root


@st.composite
def command_lines(draw):
    text = draw(st.sampled_from(TEXTS + (None,)))
    edits = draw(EDITS)
    cmd = draw(st.sampled_from(sorted(FLAGS)))
    family = draw(st.sampled_from(("lattice", "coset-union", "crystal", "shifted-rows")))
    flags = draw(st.lists(st.sampled_from(FLAGS[cmd]), unique=True, max_size=3)) \
        if FLAGS[cmd] else []
    values = [draw(st.sampled_from(CHOICES[f])) if f in CHOICES else draw(TOKENS)
              for f in flags]
    return draw(GLOBALS), text, edits, cmd, family, list(zip(flags, values))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(inputs, line):
    global_flags, text, edits, cmd, family, flags = line
    if text is None:
        path = inputs / "rows.ps"  # rank-deficient clusters below rho = 1
    else:
        for where, char in edits:
            i = min(int(where * len(text)), len(text))
            text = text[:i] + text[i + 1:] if char is None else text[:i] + char + text[i:]
        path = inputs / "set.ps"
        path.write_text(text)
    argv = [a for pair in global_flags for a in pair] + [cmd]
    argv += [family if cmd == "generate" else str(path)]
    if cmd in ("generate", "plot"):
        argv += ["--out", str(inputs / "out")]
    if cmd == "certify" and "--criterion" not in dict(flags):
        argv += ["--criterion", "regular"]
    if cmd == "reconstruct":
        flags = dict({"--center": "0,0", "--rho-max": "1"}, **dict(flags)).items()
    argv += [a for pair in flags for a in pair]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag or a choice
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
