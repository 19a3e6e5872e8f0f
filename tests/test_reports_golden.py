"""Golden CLI reports: every byte of stdout and the exit code must match.

Each job runs ``delone.cli.main`` in-process inside a temporary directory,
with relative file names, on inputs the CLI itself generates.  Only jobs
whose reports are known to be correct are recorded: Z^2, the triangular
lattice and the three-coset fixture (periodic), the Z^2 window of extent 3
in exact and float form, the Z^2 window of extent 5, the exact RLLRLR
shifted rows at x half-width 9/4 (a window strip query, and the two-term
radius rho0 + 2R of the rows), the triangular-lattice window of extent 3
(coordinates in Q(sqrt 3), not scalable to integers), reconstruction of the
fixture translated by (2/5, 9/10) (a motif with denominator 10) and of the
triangular lattice (the field path), decomposition of the fixture window
of extent 4, the p4 crystal (Z^2 with its quarter-turn orbit of
(3/10, 1/10): four motif points in one class) certified and analyzed,
the crystal certify of the translated fixture at every population point,
the triangular lattice analyzed (a Q(sqrt 3) cluster group of order 12),
and the RLLRLR rows analyzed at rho 1/5 (collinear clusters: a
rank-deficient group of order 4).  The golden files live in
``tests/golden/<job>.txt``; the first line of each is the exit code.
"""

import io
import os
from contextlib import redirect_stdout
from pathlib import Path

from delone.cli import main

GOLDEN = Path(__file__).parent / "golden"

# generators for the inputs; each must exit 0
SETUP = (
    ("generate", "lattice", "--basis", "1,0;0,1", "--out", "z2.ps"),
    ("generate", "lattice", "--basis", "1,0;1/2,1/2*sqrt(3)", "--out", "tri.ps"),
    ("generate", "coset-union", "--basis", "1,0;0,1",
     "--half-vectors", "0,0;1,0;0,1", "--out", "fix.ps"),
    ("generate", "lattice", "--basis", "1,0;0,1", "--extent", "3", "--out", "w3.ps"),
    ("--numeric-mode", "float", "generate", "lattice", "--basis", "1,0;0,1",
     "--extent", "3", "--out", "fw3.ps"),
    ("generate", "lattice", "--basis", "1,0;0,1", "--extent", "5", "--out", "w5.ps"),
    ("generate", "shifted-rows", "--seq", "RLLRLR", "--extent", "9/4", "--out", "rows.ps"),
    ("generate", "lattice", "--basis", "1,0;1/2,1/2*sqrt(3)", "--extent", "3",
     "--out", "triw3.ps"),
    ("generate", "crystal", "--basis", "1,0;0,1",
     "--motif", "2/5,9/10;9/10,9/10;2/5,7/5", "--out", "tfix.ps"),
    ("generate", "coset-union", "--basis", "1,0;0,1",
     "--half-vectors", "0,0;1,0;0,1", "--extent", "4", "--out", "fixw4.ps"),
    ("generate", "crystal", "--basis", "1,0;0,1", "--rotation", "4",
     "--motif", "3/10,1/10", "--out", "p4.ps"),
)

# (golden name, argv)
JOBS = (
    ("z2_analyze", ("analyze", "z2.ps")),
    ("z2_certify_regular", ("certify", "z2.ps", "--criterion", "regular")),
    ("tri_certify_crystal", ("certify", "tri.ps", "--criterion", "crystal")),
    ("fix_certify_crystal_all", ("certify", "fix.ps", "--criterion", "crystal",
                                 "--group-mode", "all")),
    ("fix_certify_regular", ("certify", "fix.ps", "--criterion", "regular")),
    ("fix_decompose", ("decompose", "fix.ps")),
    ("fix_reconstruct_compare", ("reconstruct", "fix.ps", "--center", "0,0",
                                 "--rho-max", "3", "--compare", "fix.ps")),
    ("w3_certify_regular", ("certify", "w3.ps", "--criterion", "regular")),
    ("w3_analyze", ("analyze", "w3.ps")),
    ("w3_analyze_rho", ("analyze", "w3.ps", "--rho", "1,sqrt(2)")),
    ("fw3_certify_regular", ("--numeric-mode", "float", "certify", "fw3.ps",
                             "--criterion", "regular")),
    ("fw3_analyze", ("--numeric-mode", "float", "analyze", "fw3.ps")),
    ("w5_analyze", ("analyze", "w5.ps")),
    ("rows_certify_regular", ("certify", "rows.ps", "--criterion", "regular")),
    ("triw3_certify_regular", ("certify", "triw3.ps", "--criterion", "regular")),
    ("tfix_reconstruct_compare", ("reconstruct", "tfix.ps", "--center", "2/5,9/10",
                                  "--rho-max", "5", "--compare", "tfix.ps")),
    ("tri_reconstruct_compare", ("reconstruct", "tri.ps", "--center", "0,0",
                                 "--rho-max", "4", "--compare", "tri.ps")),
    ("fixw4_decompose", ("decompose", "fixw4.ps")),
    ("p4_certify_regular", ("certify", "p4.ps", "--criterion", "regular")),
    ("p4_certify_crystal_all", ("certify", "p4.ps", "--criterion", "crystal",
                                "--group-mode", "all")),
    ("p4_analyze", ("analyze", "p4.ps")),
    ("tfix_certify_crystal_all", ("certify", "tfix.ps", "--criterion", "crystal",
                                  "--group-mode", "all")),
    ("tri_analyze", ("analyze", "tri.ps")),
    ("rows_analyze_rho", ("analyze", "rows.ps", "--rho", "1/5")),
)


def render_all(workdir):
    """Run every job in ``workdir``; return {name: exit code + stdout}."""
    cwd = os.getcwd()
    os.chdir(workdir)
    out = {}
    try:
        for argv in SETUP:
            with redirect_stdout(io.StringIO()):
                if main(list(argv)) != 0:
                    raise RuntimeError(f"setup failed: {argv}")
        for name, argv in JOBS:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(list(argv))
            text = buf.getvalue().replace(str(workdir), "<tmp>")
            out[name] = f"exit = {code}\n{text}"
    finally:
        os.chdir(cwd)
    return out


def test_reports_match_golden(tmp_path):
    mismatched = []
    for name, text in render_all(tmp_path).items():
        want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        if text != want:
            mismatched.append(name)
    assert not mismatched, f"reports differ from tests/golden: {mismatched}"

