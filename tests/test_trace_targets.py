"""The traced benchmark wraps library functions by name: every hook point
listed in bench/tracer.py must still exist, or each traced run breaks.

The tracer is read as source text, never imported or run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for layer, attr, _ in targets:
        owner = importlib.import_module(f"delone.{layer}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # the tracer wraps a method through the class __dict__
        found = owner.__dict__.get(name) if path else getattr(owner, name, None)
        assert callable(found), f"delone.{layer}.{attr} is gone"
