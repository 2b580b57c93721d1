"""The functions perfbench's tracer wraps are still in the package.

perfbench/run.py names them in its ``TRACED`` list as "module.name", and
reports a name the package no longer has as absent, with no metric.  The
list is read with ast, because importing run.py would set the thread
variables of numpy's libraries in this process.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced() -> list:
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {RUN}")


def test_every_traced_name_is_a_callable_of_its_module():
    names = _traced()
    assert names and len(set(names)) == len(names)
    for name in names:
        module, _, attr = name.partition(".")
        assert callable(getattr(importlib.import_module(f"lepfuse.{module}"), attr, None)), name
