"""The Delone parameters come out the same whichever module loads first.

``params`` imports its helpers from ``sets`` at module top, and ``sets``
imports ``params`` only inside ``delone_params`` and ``min_dist_sq``, when
a value is first computed; ``criteria`` takes ``_neighbours`` from
``params``.  Each case starts a fresh interpreter that imports one of these
modules first and then computes r and R on a rational window (the RLLRLR
rows) and on a Q(sqrt 3) periodic set (the triangular lattice).
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CODE = """import importlib, sys
importlib.import_module(sys.argv[1])
from delone import (ShiftSequence, ShiftedRowSpec, delone_params, gen_shifted_rows,
                    triangular_lattice)
rows = gen_shifted_rows(ShiftedRowSpec(sequence=ShiftSequence.parse("RLLRLR")))
for handle in (rows, triangular_lattice()):
    params = delone_params(handle)
    print(params.r, params.R, params.r_exactness, params.R_exactness)
"""

EXPECTED = ["1/10 sqrt(13/50) window-estimate lower-bound-estimate",
            "1/2 sqrt(1/3) exact exact"]


@pytest.mark.parametrize("first", ["delone.sets", "delone.params", "delone.criteria",
                                   "delone.classify"])
def test_delone_params_do_not_depend_on_the_import_order(first):
    # -B: the child's environment drops PYTHONDONTWRITEBYTECODE, and bytecode
    # written into src would let later CLI runs skip compiling the package
    proc = subprocess.run([sys.executable, "-B", "-c", CODE, first], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == EXPECTED
