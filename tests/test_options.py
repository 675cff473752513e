"""Inventory of what a caller can set along the pipeline, and of its types.

Every settable field of the three option types, every keyword parameter of
the spine's functions, every exception class of the package and the fields
of the records that carry results are listed here; a new option, error or
field is a one-line edit to these tables.  Policy values that no caller
tunes are module constants.
"""
import ast
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import ringorbits
from ringorbits.bifurcate import BifurcationReport, bifurcation_point
from ringorbits.cli import build_parser
from ringorbits.continuation import BranchPoint, EndpointReport, StepControl, StopRules, continue_branch, tangent
from ringorbits.integrate import FlowResult, IntegratorConfig, eval_at, flow
from ringorbits.orbits import closure_order, find_resonance, reconstruct
from ringorbits.shoot import (
    CORRECTOR_MAX_FLOWS,
    CORRECTOR_TOL,
    ConvergenceError,
    SymmetryKind,
    desing_eval,
    newton_correct,
    newton_correct_full,
)

SETTABLE_FIELDS = {
    IntegratorConfig: ("rel_tol", "abs_tol", "h_max", "dense"),
    StepControl: ("ds_min", "ds_max"),
    StopRules: ("max_points", "T_max"),
}

KEYWORD_PARAMETERS = {
    flow: ("config",),
    eval_at: ("config", "augmented"),
    desing_eval: ("config",),
    newton_correct: ("config", "tol", "max_flows", "constraint"),
    newton_correct_full: ("config", "tol", "max_flows", "constraint"),
    continue_branch: ("config", "step", "stop"),
    tangent: ("config",),
    find_resonance: ("config",),
    reconstruct: ("periods", "samples_per_period", "config"),
    bifurcation_point: (),
    closure_order: (),
}


EXCEPTION_CLASSES = {"ConvergenceError", "FlowError", "ResonanceNotFound"}

# Records whose fields must not echo what their caller already holds.
RECORD_FIELDS = {
    FlowResult: ("status", "t", "y", "n_steps", "n_rejected", "dy", "dense"),
    EndpointReport: ("label", "detail"),
    BranchPoint: ("point", "tangent", "arc"),
    BifurcationReport: (
        "a0", "b", "T_star", "s", "nondegenerate", "margin", "margin_double", "theta0", "T_exact", "xi2",
    ),
}

PACKAGE_MODULES = [
    importlib.import_module(f"ringorbits.{info.name}")
    for info in pkgutil.iter_modules(ringorbits.__path__)
]


@pytest.mark.parametrize("cls", list(SETTABLE_FIELDS), ids=lambda c: c.__name__)
def test_settable_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == SETTABLE_FIELDS[cls]


def test_settable_surface_is_eight():
    assert sum(map(len, SETTABLE_FIELDS.values())) == 8


@pytest.mark.parametrize("fn", list(KEYWORD_PARAMETERS), ids=lambda f: f.__name__)
def test_keyword_parameters(fn):
    params = inspect.signature(fn).parameters.values()
    assert tuple(p.name for p in params if p.default is not p.empty) == KEYWORD_PARAMETERS[fn]


def test_two_symmetry_kinds():
    # the odd form and its doubly symmetric form; no odd/even kind
    assert [k.value for k in SymmetryKind] == ["odd", "double"]


def test_keyword_surface_is_twenty():
    assert sum(map(len, KEYWORD_PARAMETERS.values())) == 20


def _keyword_defaults(fn):
    params = inspect.signature(fn).parameters.values()
    return [(p.name, p.default) for p in params if p.default is not p.empty]


def test_corrector_entry_points_share_keywords():
    assert _keyword_defaults(newton_correct) == _keyword_defaults(newton_correct_full)


def test_shoot_flags_default_to_the_corrector_constants():
    args = build_parser().parse_args(["shoot", "--a", "1", "--b", "0", "--T", "1"])
    assert (args.tol, args.max_flows) == (CORRECTOR_TOL, CORRECTOR_MAX_FLOWS)


def test_exception_classes():
    found = {
        name
        for module in PACKAGE_MODULES
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    assert found == EXCEPTION_CLASSES


def test_failure_reasons_match_the_documented_table():
    """The literal reason of every ConvergenceError(message, reason) the
    package raises is a row of the table in ConvergenceError's docstring,
    and every row is raised somewhere."""
    raised = set()
    for module in [ringorbits, *PACKAGE_MODULES]:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConvergenceError":
                assert len(node.args) == 2 and isinstance(node.args[1], ast.Constant), ast.unparse(node)
                raised.add(node.args[1].value)
    table = ConvergenceError.__doc__.split("classifies the failure:")[1]
    assert raised == {line.split()[0] for line in table.strip().splitlines()}


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda c: c.__name__)
def test_record_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == RECORD_FIELDS[cls]


@pytest.mark.parametrize(
    "module",
    [ringorbits] + [m for m in PACKAGE_MODULES if m.__name__ != "ringorbits.cli"],
    ids=lambda m: m.__name__,
)
def test_public_names_match_all(module):
    """Every __all__ name resolves, and every public function or class the
    module defines is in its __all__."""
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
