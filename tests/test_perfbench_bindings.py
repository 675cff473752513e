"""The benchmark's binding tables name functions that exist in the package.

`perfbench` wraps package functions by (module, attribute) from outside
`src/`, and skips a binding it cannot find, so a renamed function would
silently drop out of the traced counts.  These tests load the two table
modules without running anything and check every entry.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _bindings():
    for table in ("SPAN_BINDINGS", "RHS_BINDINGS", "LIFT_BINDINGS", "COUNT_BINDINGS"):
        for mod_name, attr, *_ in getattr(tracing, table):
            yield pytest.param(
                tracing.MODULES[mod_name], attr, id=f"{table}:{mod_name}.{attr}"
            )
    for module, attr, _ in workloads.MARKED_BINDINGS:
        short = module.__name__.rsplit(".", 1)[-1]
        yield pytest.param(module, attr, id=f"MARKED_BINDINGS:{short}.{attr}")


@pytest.mark.parametrize("module,attr", list(_bindings()))
def test_binding_resolves(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is missing"


def test_compared_labels_are_termination_labels():
    # perfbench checks branch endings against TERM_BOUND and against these
    # label strings; a rename here would fail those checks silently
    cont = workloads.continuation
    labels = {getattr(cont, name) for name in dir(cont) if name.startswith("TERM_")}
    assert isinstance(getattr(cont, "TERM_BOUND", None), str)
    assert {"trivial-limit", "collision"} <= labels
