"""Pseudo-arclength continuation of symmetric periodic families.

A family is the zero set of the desingularized residual pair in the
three parameters (a, b, T).  Its tangent direction is the cross product
of the two residual gradients; the tracer predicts along the
(sign-continuous) unit tangent, to second order from the last two tangents
once it has them, and corrects in the hyperplane orthogonal to the tangent,
adapting the step length to corrector failures.  Each corrector call may
run at most _CORRECTOR_MAX_FLOWS flows: a correction that needs more is
crawling, and halving the step is cheaper than letting it finish or fail
late.  So is one whose Newton contraction |dx_1|/|dx_0| exceeds
_MAX_CONTRACTION: its predictor was too far from the curve.  Every branch
is of the odd family, and is corrected in its doubly symmetric form up to
the first failed step.

`continue_branch` is the one place that names how a branch ended, as
`Branch.termination`, one of the TERM_* labels: a crossing of b = 0 is a
trivial limit (the endpoint is refined by a fixed-b correction onto the
circular family), and so is a point corrected onto b = 0 exactly; an end
point with a at or below A_COLLISION*a0, or a trace whose steps die in the
integrator's ring-collapse guard, is a collision; leaving the a or T
bounds is unbounded; the point budget and a step length below ds_min are
budget and step-failure.  The corrector takes no trial at or below
T_LOWER*T0, so a branch that runs down to that floor ends in step-failure,
or budget if its points run out first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .bifurcate import bifurcation_point
from .integrate import SINGULAR, FlowError, IntegratorConfig
from .model import SystemParams, _count, _real, write_json
from .shoot import (
    OLD_KIND_HINT,
    T_LOWER,
    ConvergenceError,
    DesingPoint,
    SeedPoint,
    SymmetryKind,
    desing_eval,
    hyperplane,
    newton_correct,
    newton_correct_full,
)

__all__ = [
    "StepControl",
    "StopRules",
    "BranchPoint",
    "Branch",
    "EndpointReport",
    "tangent",
    "continue_branch",
    "classify_endpoint",
    "branch_to_csv",
    "branch_summary",
    "branch_to_json",
    "branch_from_json",
    "TERM_B_ZERO",
    "TERM_COLLISION",
    "TERM_BOUND",
    "TERM_BUDGET",
    "TERM_STEP",
]

TERM_B_ZERO = "trivial-limit"
TERM_COLLISION = "collision"
TERM_BOUND = "unbounded"
TERM_BUDGET = "budget"
TERM_STEP = "step-failure"


# A few flows above what the converging calls of a step need (ROADMAP item 9
# records the flows per call): a call that needs more is crawling, and its
# step is retried at half the length.
_CORRECTOR_MAX_FLOWS = 12

# Step policy: the first step is ds_max/4, and ds grows by _GROW after
# _GROW_AFTER accepted steps in a row.
_GROW, _GROW_AFTER = 1.3, 4
# Largest accepted Newton contraction |dx_1|/|dx_0| of a continuation step
# (Allgower & Georg, Introduction to Numerical Continuation Methods, 6.1).
_MAX_CONTRACTION = 0.25
_MAX_THETA_STEP = 0.2  # largest theta change of a step: `find_resonance` interpolates in theta
# Stop bounds as multiples of the circular seed's a0 and T0 (T_UPPER is the
# default of StopRules.T_max, T_LOWER the corrector's floor); a branch whose
# last point has a at or below A_COLLISION*a0 ends in a collision, whatever
# stopped the trace.
A_COLLISION, A_BOUND, T_UPPER = 1e-3, 1e3, 50.0
_ON_FAMILY_TOL = 1e-6  # a start with larger desingularized residuals is off its family


@dataclass(frozen=True)
class StepControl:
    """Arclength step bounds for `continue_branch` as positive floats; ds_max by default 0.05*max(1, T0)."""

    ds_min: float = 1e-8
    ds_max: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "ds_min", _real("ds_min", self.ds_min, "positive"))
        if self.ds_max is not None:
            object.__setattr__(self, "ds_max", _real("ds_max", self.ds_max, "positive"))
            if self.ds_min > self.ds_max:
                raise ValueError(f"ds_min {self.ds_min!r} exceeds ds_max {self.ds_max!r}")


@dataclass(frozen=True)
class StopRules:
    """Stop thresholds for `continue_branch`: max_points a whole number >= 1, T_max >= 0 (default T_UPPER*T0)."""

    max_points: int = 20000
    T_max: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_points", _count("max_points", self.max_points, 1))
        if self.T_max is not None:
            object.__setattr__(self, "T_max", _real("T_max", self.T_max, "nonnegative"))


@dataclass(frozen=True)
class BranchPoint:
    """A corrected family member with its local branch geometry."""

    point: SeedPoint
    tangent: np.ndarray   # unit, sign-continuous along the branch
    arc: float            # cumulative arclength from the start


@dataclass
class Branch:
    """Result of one continuation run along the odd family."""

    params: SystemParams
    points: list[BranchPoint]
    termination: str
    stats: dict = field(default_factory=dict)

    @property
    def start(self) -> SeedPoint:
        return self.points[0].point

    @property
    def end(self) -> SeedPoint:
        return self.points[-1].point


def _tangent_from(d: DesingPoint, point: SeedPoint, prev: np.ndarray | None) -> tuple[np.ndarray, float]:
    X = np.cross(d.grad_value, d.grad_rt)
    nrm = float(np.linalg.norm(X))
    scale = float(np.linalg.norm(d.grad_value) * np.linalg.norm(d.grad_rt))
    if nrm <= 1e-12 * max(scale, 1e-300):
        where = (point.a, point.b, point.T)
        raise ConvergenceError(f"residual gradients are parallel at (a, b, T) = {where!r}", "singular-point")
    unit = X / nrm
    if prev is not None and float(np.dot(unit, prev)) < 0.0:
        unit = -unit
    return unit, nrm


def _on_family(point: SeedPoint, params: SystemParams, config) -> tuple[SymmetryKind, DesingPoint, tuple]:
    """The form a start is traced in, its residual data and its tangent there:
    the doubly symmetric form if the point is within _ON_FAMILY_TOL of it (one
    flow of half the length), else the odd form, which the point must meet."""
    for kind in (SymmetryKind.DOUBLE, SymmetryKind.ODD):
        d = desing_eval(point.a, point.b, point.T, kind, params, config)
        if d.residual <= _ON_FAMILY_TOL:
            return kind, d, _tangent_from(d, point, None)
    raise ValueError(
        f"point is not on the family: desingularized residuals {d.value:.3e}, {d.rt:.3e} "
        f"exceed {_ON_FAMILY_TOL:.1e}"
    )


def tangent(
    point: SeedPoint, params: SystemParams, config: IntegratorConfig | None = None
) -> tuple[np.ndarray, float]:
    """Unit tangent of the family at a corrected point, with the raw magnitude.

    The direction is grad(value) x grad(R_t) in (a, b, T), from the start
    evaluation that `continue_branch` shares (`_on_family`: the doubly
    symmetric form where the point meets it), so its `direction` +1 follows
    this tangent.  Rejects points off the family, and raises ConvergenceError
    "singular-point" where the gradients are parallel.
    """
    return _on_family(point, params, config)[2]


def _failure_reason(exc: Exception) -> str:
    """Label of a failed step: its ConvergenceError or FlowError reason, or "value-error"."""
    return exc.reason if isinstance(exc, (ConvergenceError, FlowError)) else "value-error"


def _refine_b_zero(lo: SeedPoint, hi: SeedPoint, params, config) -> tuple[SeedPoint | None, str]:
    """Correct the interpolated b = 0 crossing between two branch points,
    whose b have opposite signs.

    Returns the corrected point and "ok", or None and the failure reason.
    """
    w = lo.b / (lo.b - hi.b)
    a = lo.a + w * (hi.a - lo.a)
    T = lo.T + w * (hi.T - lo.T)
    try:
        guess = SeedPoint(a=a, b=0.0, T=T, kind=lo.kind)
        return newton_correct(guess, params, config), "ok"
    except (ConvergenceError, FlowError, ValueError) as exc:
        return None, _failure_reason(exc)


def continue_branch(
    start: SeedPoint,
    direction: int,
    params: SystemParams,
    config: IntegratorConfig | None = None,
    step: StepControl | None = None,
    stop: StopRules | None = None,
) -> Branch:
    """Trace the family through `start` in one direction.

    direction (+1 or -1) orients the first step along or against
    `tangent(start)`; afterwards the orientation follows by continuity.  The
    start must already satisfy the residuals (correct it first if unsure).
    One evaluation (`_on_family`) checks that, picks the form and gives the
    first tangent: a start, labelled odd or double, within
    _ON_FAMILY_TOL of the doubly symmetric form costs one flow of half its
    length and is traced in that form up to the first failed step.  The
    first branch point is the start with that form's kind, residual and
    theta.

    Steps after the first predict to second order.  Each corrector call
    gets a budget of _CORRECTOR_MAX_FLOWS flows.  A failed step (corrector
    failure or contraction above _MAX_CONTRACTION, flow failure, singular
    point, theta step above _MAX_THETA_STEP or a predictor outside a > 0,
    T > T_LOWER*T0) halves ds and is retried; ds below ds_min ends the
    trace.  `Branch.stats` holds `failures` (the failed steps counted per
    reason: a ConvergenceError or FlowError reason such as "singular-point"
    or "singular", or "value-error"), `ds_final`, `double_points`, `switch`
    (the failure that ended the doubly symmetric form, a theta step never
    does; or None), `contraction_max` (over the accepted steps), and, after
    a b = 0 crossing, `b_zero_refine` ("ok" or the reason the endpoint
    correction failed).

    `Branch.termination` names the ending with one of the TERM_* labels
    (see the module docstring); `classify_endpoint` reports it unchanged.
    """
    if direction not in (-1, 1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    step = step or StepControl()
    stop = stop or StopRules()
    ds_max = step.ds_max if step.ds_max is not None else 0.05 * max(1.0, params.T0)
    if step.ds_min > ds_max:
        raise ValueError(f"ds_min {step.ds_min!r} exceeds ds_max {ds_max!r}")
    a_min, a_max, T_min = A_COLLISION * params.a0, A_BOUND * params.a0, T_LOWER * params.T0
    T_max = stop.T_max if stop.T_max is not None else T_UPPER * params.T0
    kind, d, (unit, _) = _on_family(start, params, config)
    start = replace(start, kind=kind, residual=d.residual, theta=d.theta)
    points = [BranchPoint(point=start, tangent=direction * unit, arc=0.0)]

    ds = ds_max / 4.0
    streak = 0
    failures: dict[str, int] = {}
    switch, contraction_max = None, 0.0
    b_zero_refine = None
    termination = None

    while termination is None:
        if len(points) >= stop.max_points:
            termination = TERM_BUDGET
            break
        prev_bp = points[-1]
        x_prev = prev_bp.point.vector()
        pred = x_prev + ds * prev_bp.tangent
        if len(points) >= 2:  # the tangent's change over the last step gives the curvature
            before = points[-2]
            pred += 0.5 * ds**2 * (prev_bp.tangent - before.tangent) / (prev_bp.arc - before.arc)
        try:
            if pred[0] <= 0 or pred[2] <= T_min:
                raise ConvergenceError("predictor left the parameter domain", "domain")
            guess = SeedPoint(*pred, kind=kind)
            corrected, dcorr, contraction = newton_correct_full(
                guess, params, config,
                constraint=hyperplane(pred, prev_bp.tangent),
                max_flows=_CORRECTOR_MAX_FLOWS,
            )
            if contraction > _MAX_CONTRACTION:
                raise ConvergenceError(f"Newton contraction {contraction:.3g} is too slow", "contraction")
            unit, _ = _tangent_from(dcorr, corrected, prev_bp.tangent)
            if abs(corrected.theta - prev_bp.point.theta) > _MAX_THETA_STEP:
                raise ConvergenceError("ring phase moved too far in one step", "theta-step")
        except (ConvergenceError, ValueError, FlowError) as exc:
            reason = _failure_reason(exc)
            failures[reason] = failures.get(reason, 0) + 1
            if kind is SymmetryKind.DOUBLE and reason != "theta-step":  # the rest in the odd form
                kind, switch = SymmetryKind.ODD, reason
            ds *= 0.5
            streak = 0
            if ds < step.ds_min:
                termination = TERM_COLLISION if reason == SINGULAR else TERM_STEP
            continue

        contraction_max = max(contraction_max, contraction)
        arc = prev_bp.arc + float(np.linalg.norm(corrected.vector() - x_prev))
        points.append(BranchPoint(point=corrected, tangent=unit, arc=arc))

        if prev_bp.point.b * corrected.b < 0.0:
            refined, b_zero_refine = _refine_b_zero(prev_bp.point, corrected, params, config)
            if refined is not None:
                arc2 = arc + float(np.linalg.norm(refined.vector() - corrected.vector()))
                points.append(BranchPoint(point=refined, tangent=unit, arc=arc2))
            termination = TERM_B_ZERO
        elif corrected.b == 0.0:  # landed on the circular family: nothing to refine
            termination = TERM_B_ZERO
        elif not (a_min < corrected.a < a_max and corrected.T < T_max):
            termination = TERM_BOUND
        else:
            streak += 1
            if streak >= _GROW_AFTER:
                ds = min(ds * _GROW, ds_max)
                streak = 0

    if points[-1].point.a <= a_min:
        termination = TERM_COLLISION
    stats = {"failures": failures, "ds_final": ds, "switch": switch, "contraction_max": contraction_max,
             "double_points": sum(bp.point.kind is SymmetryKind.DOUBLE for bp in points)}
    if b_zero_refine is not None:
        stats["b_zero_refine"] = b_zero_refine
    return Branch(params=params, points=points, termination=termination, stats=stats)


@dataclass(frozen=True)
class EndpointReport:
    """How a traced branch ended: its termination label and, for a trivial
    limit, the gaps of `branch.end` to the closed-form seed."""

    label: str  # one of the TERM_* labels
    detail: dict


def classify_endpoint(branch: Branch) -> EndpointReport:
    """Report the ending `continue_branch` named in `branch.termination`.

    For a trivial limit the detail holds the closed-form bifurcation point
    (seed_a, seed_T) and the end point's gaps to it
    (delta_a, delta_T); for every other ending it is empty.
    """
    detail: dict = {}
    if branch.termination == TERM_B_ZERO:
        end = branch.end
        ref = bifurcation_point(branch.params)
        detail = {
            "seed_a": ref.a0,
            "seed_T": ref.T_star,
            "delta_a": abs(end.a - ref.a0),
            "delta_T": abs(end.T - ref.T_star),
        }
    return EndpointReport(branch.termination, detail)


def branch_to_csv(branch: Branch, path) -> None:
    """Flat dump: one row per branch point, header idx,a,b,T,theta,residual."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("idx,a,b,T,theta,residual\n")
        for i, bp in enumerate(branch.points):
            p = bp.point
            fh.write(
                f"{i},{p.a!r},{p.b!r},{p.T!r},{p.theta!r},{p.residual!r}\n"
            )


def branch_summary(branch: Branch) -> dict:
    return {
        "params": branch.params.to_dict(),
        "n_points": len(branch.points),
        "termination": branch.termination,
        "endpoint_detail": classify_endpoint(branch).detail,
        "start": branch.start.to_dict(),
        "end": branch.end.to_dict(),
        "arc_length": branch.points[-1].arc,
        "stats": branch.stats,
    }


def branch_to_json(branch: Branch, path) -> None:
    """Summary plus the full point list; reload with branch_from_json."""
    payload = branch_summary(branch)
    payload["points"] = [
        {
            **bp.point.to_dict(),
            "tangent": [float(v) for v in bp.tangent],
            "arc": bp.arc,
        }
        for bp in branch.points
    ]
    with open(path, "w", encoding="utf-8") as fh:
        write_json(payload, fh)


def branch_from_json(path) -> Branch:
    """Reload a branch_to_json file; a file written with a "kind" key must name "odd"."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if "kind" in payload and payload["kind"] != "odd":
        raise ValueError(f"branch kind {payload['kind']!r} is not read: every branch is odd ({OLD_KIND_HINT})")
    params = SystemParams.from_dict(payload["params"])
    points = [  # points written before x_norm was dropped still hold it, unread
        BranchPoint(
            point=SeedPoint.from_dict(rec),
            tangent=np.array(rec["tangent"]),
            arc=float(rec["arc"]),
        )
        for rec in payload["points"]
    ]
    return Branch(
        params=params,
        points=points,
        # files written before the TERM_* labels were renamed carry the
        # label under "endpoint_label"
        termination=payload.get("endpoint_label", payload["termination"]),
        stats=payload.get("stats", {}),
    )
