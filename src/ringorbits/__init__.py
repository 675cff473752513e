"""Periodic-orbit continuation for a ring of equal masses with an axial body."""

from .bifurcate import (
    BifurcationReport,
    bifurcation_point,
    degeneracy_margin,
    resonance_ratio,
    xi_second_derivative,
)
from .continuation import (
    Branch,
    BranchPoint,
    EndpointReport,
    StepControl,
    StopRules,
    classify_endpoint,
    continue_branch,
    tangent,
)
from .integrate import EvalPoint, FlowResult, IntegratorConfig, eval_at, flow
from .model import (
    CartesianState,
    SystemParams,
    cartesian_lift,
    lambda_n,
    reduced_energy,
)
from .orbits import (
    ResonanceTarget,
    Trajectory,
    closure_order,
    export,
    find_resonance,
    reconstruct,
)
from .shoot import SeedPoint, SymmetryKind, newton_correct

__version__ = "0.1.0"

__all__ = [
    "BifurcationReport",
    "Branch",
    "BranchPoint",
    "CartesianState",
    "EndpointReport",
    "EvalPoint",
    "FlowResult",
    "IntegratorConfig",
    "ResonanceTarget",
    "SeedPoint",
    "StepControl",
    "StopRules",
    "SymmetryKind",
    "SystemParams",
    "Trajectory",
    "bifurcation_point",
    "cartesian_lift",
    "classify_endpoint",
    "closure_order",
    "continue_branch",
    "degeneracy_margin",
    "eval_at",
    "export",
    "find_resonance",
    "flow",
    "lambda_n",
    "newton_correct",
    "reconstruct",
    "reduced_energy",
    "resonance_ratio",
    "tangent",
    "xi_second_derivative",
]
