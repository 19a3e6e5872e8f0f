"""Starting the CLI imports neither ``dataclasses`` nor ``inspect``.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and each frozen dataclass generates and execs its methods; together that
was about two thirds of the CPU of ``import delone.cli``.  The records
derive from ``geometry.Record`` instead.  The test checks module
membership in a fresh interpreter, not timing, so it is deterministic.
"""

import subprocess
import sys
from pathlib import Path

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
