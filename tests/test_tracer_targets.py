import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _targets():
    """The (module, attribute) pairs of perfbench's TARGETS, read from the
    source without running it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("module, attr", _targets(),
                         ids=lambda x: x)
def test_tracer_target_resolves(module, attr):
    """Every function the benchmark's tracer wraps by name exists where
    its `install` looks: a method in its class's own __dict__, anything
    else as a module attribute, so deleting one fails here and not only
    in a traced benchmark run."""
    home = importlib.import_module(f"skelpot.{module}")
    cls_name, _, meth = attr.rpartition(".")
    target = (vars(getattr(home, cls_name))[meth] if cls_name
              else getattr(home, attr))
    assert callable(target)
