"""The benchmark's binding tables name functions that exist in the package.

`perfbench` wraps package functions by (module, attribute) from outside
`src/`, and skips a binding it cannot find, so a renamed function would
silently drop out of the traced counts.  These tests load the two table
modules without running anything and check every entry, and check the
names `param_sweep` reads off an augmented `eval_at`.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from ringorbits.continuation import StopRules, continue_branch
from ringorbits.integrate import eval_at, flow
from ringorbits.model import augmented_initial, make_variational_rhs

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


def test_sweep_reads_floats_and_counts_off_eval_at(params_p, cfg):
    # param_sweep reads these components by name; as Python floats they
    # keep NumPy scalars out of what callers write with repr
    a, b, T = params_p.a0, 0.1, 3.0
    ev = eval_at(a, b, T, params_p, cfg, augmented=True)
    names = ("F", "Ft", "R", "Rt", "Theta", "Fa", "Ra", "Fb", "Rb")
    assert [type(getattr(ev, name)) for name in names] == [float] * len(names)
    res = flow(make_variational_rhs(params_p, params_p.r0 * a), augmented_initial(b, params_p), T, cfg)
    assert (ev.n_steps, ev.n_rejected) == (res.n_steps, res.n_rejected)


def test_every_branch_point_ends_at_its_own_corrector_mark(p1_corrected, params_p, cfg):
    # light_pipeline cuts one operation per branch point, ending at the mark
    # where continuation's corrector returned that very point object; a
    # stored copy would fall back to the call's end mark, and `ops_per_s`
    # and `op_ms_p90` would time something else
    direction = workloads._increasing_b(p1_corrected, params_p, cfg)
    clock = workloads.Clock()
    with workloads.segment_marks(clock):
        begin = clock.mark()
        branch = continue_branch(p1_corrected, direction, params_p, cfg, stop=StopRules(max_points=5))
        end = clock.mark()
    out = workloads.PassOutput()
    workloads._branch_ops(out, clock, branch, begin, end)
    assert len(out.ops) == len(branch.points) - 1 == 4
    assert all(clock.tags.get(last) is bp.point for (_, last), bp in zip(out.ops, branch.points[1:]))
