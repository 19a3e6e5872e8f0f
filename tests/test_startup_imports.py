"""Starting the CLI imports neither ``dataclasses`` nor ``inspect``, and
sets on the Cartesian grid never import ``delone.frames``.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and each frozen dataclass generates and execs its methods; together that
was about two thirds of the CPU of ``import delone.cli``.  The records
derive from ``geometry.Record`` instead.  CLI runs compile the package
from source, so the lattice frames of ``delone.frames`` are compiled only
by sets off the grid: a rational periodic set and a rational window key
their points on the grid frame of ``delone.sets``.  The tests check module
membership in a fresh interpreter, not timing, so they are deterministic.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delone import square_lattice, three_coset_fixture, triangular_lattice, write_point_set

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_generators_and_svg_import_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "import delone.cli, delone.generators, delone.svg\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")
    # -B: the child's environment drops PYTHONDONTWRITEBYTECODE, and bytecode
    # written into src would let later CLI runs skip compiling the package
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC)}, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name, make, criterion, imported", [
    ("rational-periodic", three_coset_fixture, "crystal", False),
    ("rational-window", lambda: square_lattice(extent=Fraction(4)), "regular", False),
    ("triangular", triangular_lattice, "crystal", True),
])
def test_certify_imports_lattice_frames_only_off_the_grid(name, make, criterion, imported,
                                                          tmp_path):
    path = tmp_path / f"{name}.ps"
    write_point_set(make(), str(path))
    code = ("import contextlib, io, sys\n"
            "from delone.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['certify', sys.argv[1], '--criterion', {criterion!r}])\n"
            "print(code, 'delone.frames' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(path)], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(imported)]
