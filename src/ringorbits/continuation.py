"""Pseudo-arclength continuation of symmetric periodic families.

A family is the zero set of the desingularized residual pair in the
three parameters (a, b, T).  Its tangent direction is the cross product
of the two residual gradients; the tracer takes an Euler predictor step
along the (sign-continuous) unit tangent and corrects in the hyperplane
orthogonal to it, adapting the step length to corrector failures.  Each
corrector call may run at most _CORRECTOR_MAX_FLOWS flows: a correction
that needs more is crawling, and halving the step is cheaper than letting
it finish or fail late.

Tracing stops at a crossing of b = 0 (the circular family: the endpoint
is refined by a fixed-b correction and classified as a trivial limit),
on collision evidence (the integrator hits the ring-collapse guard, or a
shrinks to nothing), on parameter bounds, or on the point budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bifurcate import bifurcation_point
from .integrate import SINGULAR, FlowError, IntegratorConfig
from .model import SystemParams
from .shoot import (
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
    "SingularPointError",
    "StepControl",
    "StopRules",
    "BranchPoint",
    "Branch",
    "EndpointReport",
    "tangent",
    "continue_branch",
    "classify_endpoint",
    "theta_curvature_numeric",
    "branch_to_csv",
    "branch_to_json",
    "branch_from_json",
    "TERM_B_ZERO",
    "TERM_COLLISION",
    "TERM_BOUND",
    "TERM_BUDGET",
    "TERM_STEP",
]

TERM_B_ZERO = "b-zero"
TERM_COLLISION = "collision"
TERM_BOUND = "bound"
TERM_BUDGET = "budget"
TERM_STEP = "step-failure"


# The observed maximum, with no margin: every corrector call that converges
# on the three reference branches runs at most 12 flows ((3, 3, 7, 11): 9;
# (3, 92, 242, 11): 7 towards the circular family, 12 towards collision),
# and the one stalled call of the (3, 3, 7, 11) trace to T = 42 ran 114
# before failing.  On other systems or tolerances a call that would
# converge in 13 or more flows is rejected too, and its step is retried
# at half the length.
_CORRECTOR_MAX_FLOWS = 12


class SingularPointError(RuntimeError):
    """The residual gradients are rank deficient: no unique branch direction."""


@dataclass(frozen=True)
class StepControl:
    """Arclength step policy.

    ds_max defaults to 0.05*max(1, T0); the step halves on corrector
    failure and grows by `grow` after `grow_after` consecutive successes.
    cos_min rejects steps across which the unit tangent turns by more
    than about 60 degrees: near-tangent families pass very close to each
    other in (a, b, T), and an abrupt tangent swing is the signature of
    the corrector hopping onto the wrong curve.
    """

    ds0: float | None = None
    ds_min: float = 1e-8
    ds_max: float | None = None
    grow: float = 1.3
    grow_after: int = 4
    cos_min: float = 0.5

    def __post_init__(self):
        for name in ("ds0", "ds_min", "ds_max"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")

    def resolved(self, params: SystemParams) -> "StepControl":
        ds_max = self.ds_max if self.ds_max is not None else 0.05 * max(1.0, params.T0)
        ds0 = self.ds0 if self.ds0 is not None else ds_max / 4.0
        return replace(self, ds0=min(ds0, ds_max), ds_max=ds_max)


@dataclass(frozen=True)
class StopRules:
    """Termination thresholds for `continue_branch`."""

    max_points: int = 20000
    b_tol: float = 1e-3
    a_min: float | None = None   # default 1e-3 * a0
    a_max: float | None = None   # default 1e3 * a0
    T_min: float | None = None   # default 1e-3 * T0
    T_max: float | None = None   # default 50 * T0

    def resolved(self, params: SystemParams) -> "StopRules":
        return replace(
            self,
            a_min=self.a_min if self.a_min is not None else 1e-3 * params.a0,
            a_max=self.a_max if self.a_max is not None else 1e3 * params.a0,
            T_min=self.T_min if self.T_min is not None else 1e-3 * params.T0,
            T_max=self.T_max if self.T_max is not None else 50.0 * params.T0,
        )


@dataclass(frozen=True)
class BranchPoint:
    """A corrected family member with its local branch geometry."""

    point: SeedPoint
    tangent: np.ndarray   # unit, sign-continuous along the branch
    x_norm: float         # magnitude of the unnormalized tangent field
    arc: float            # cumulative arclength from the start


@dataclass
class Branch:
    """Result of one continuation run."""

    kind: SymmetryKind
    params: SystemParams
    points: list[BranchPoint]
    termination: str
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def start(self) -> SeedPoint:
        return self.points[0].point

    @property
    def end(self) -> SeedPoint:
        return self.points[-1].point

    def thetas(self) -> np.ndarray:
        return np.array([bp.point.theta for bp in self.points])


def _tangent_from(d: DesingPoint, where: tuple, prev: np.ndarray | None) -> tuple[np.ndarray, float]:
    X = np.cross(d.grad_value, d.grad_rt)
    nrm = float(np.linalg.norm(X))
    scale = float(np.linalg.norm(d.grad_value) * np.linalg.norm(d.grad_rt))
    if nrm <= 1e-12 * max(scale, 1e-300):
        raise SingularPointError(f"residual gradients are parallel at (a, b, T) = {where!r}")
    unit = X / nrm
    if prev is not None and float(np.dot(unit, prev)) < 0.0:
        unit = -unit
    return unit, nrm


def tangent(
    point: SeedPoint,
    params: SystemParams,
    config: IntegratorConfig | None = None,
    prev: np.ndarray | None = None,
    residual_tol: float = 1e-6,
) -> tuple[np.ndarray, float]:
    """Unit tangent of the family at a corrected point, with the raw magnitude.

    The direction is grad(value) x grad(R_t) in (a, b, T); `prev` fixes the
    orientation by sign continuity.  Rejects points whose desingularized
    residuals exceed residual_tol, and raises SingularPointError where the
    gradients are (numerically) parallel.
    """
    d = desing_eval(point.a, point.b, point.T, point.kind, params, config, grad=True)
    worst = max(abs(d.value), abs(d.rt))
    if worst > residual_tol:
        raise ValueError(
            f"point is not on the family: desingularized residuals {d.value:.3e}, {d.rt:.3e} "
            f"exceed {residual_tol:.1e}"
        )
    return _tangent_from(d, (point.a, point.b, point.T), prev)


def _evaluate_seed(x: np.ndarray, kind: SymmetryKind, params, config) -> SeedPoint:
    d = desing_eval(float(x[0]), float(x[1]), float(x[2]), kind, params, config)
    return SeedPoint(
        a=float(x[0]),
        b=float(x[1]),
        T=float(x[2]),
        kind=kind,
        residual=float(max(abs(d.value), abs(d.rt))),
        theta=d.theta,
    )


def _failure_reason(exc: Exception) -> str:
    """Label of a failed step: the ConvergenceError reason, the FlowError
    status, or "singular-point" / "value-error"."""
    if isinstance(exc, ConvergenceError):
        return exc.reason
    if isinstance(exc, FlowError):
        return exc.status
    if isinstance(exc, SingularPointError):
        return "singular-point"
    return "value-error"


def _refine_b_zero(lo: SeedPoint, hi: SeedPoint, params, config, tol) -> tuple[SeedPoint | None, str]:
    """Correct the interpolated b = 0 crossing between two branch points.

    Returns the corrected point and "ok", or None and the failure reason.
    """
    db = hi.b - lo.b
    w = 0.5 if db == 0.0 else min(max(-lo.b / db, 0.0), 1.0)
    a = lo.a + w * (hi.a - lo.a)
    T = lo.T + w * (hi.T - lo.T)
    try:
        guess = SeedPoint(a=a, b=0.0, T=T, kind=lo.kind)
        return newton_correct(guess, params, config, tol=tol), "ok"
    except (ConvergenceError, FlowError, ValueError) as exc:
        return None, _failure_reason(exc)


def continue_branch(
    start: SeedPoint,
    direction: int,
    params: SystemParams,
    config: IntegratorConfig | None = None,
    step: StepControl | None = None,
    stop: StopRules | None = None,
    corrector_tol: float = 1e-10,
) -> Branch:
    """Trace the family through `start` in one direction.

    direction (+1 or -1) orients the first step along or against the raw
    tangent; afterwards the orientation follows by continuity.  The start
    must already satisfy the residuals (correct it first if unsure).

    Each corrector call gets a budget of _CORRECTOR_MAX_FLOWS flows.  A
    failed step (corrector failure, flow failure, singular point, tangent
    turn or a predictor outside a > 0, T > 0) halves ds and is retried;
    ds below ds_min ends the trace.  `Branch.stats` holds
    `failed_predictor_steps` (their total), `failures` (their count per
    reason: a ConvergenceError reason, a FlowError status, "singular-point"
    or "value-error"), `ds_final`, and, after a b = 0 crossing,
    `b_zero_refine` ("ok" or the reason the endpoint correction failed).
    """
    if direction not in (-1, 1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    step = (step or StepControl()).resolved(params)
    stop = (stop or StopRules()).resolved(params)
    kind = start.kind

    unit, xn = tangent(start, params, config)  # raises if the start is off-family
    unit = direction * unit
    if math.isnan(start.theta) or math.isnan(start.residual):
        start = _evaluate_seed(start.vector(), kind, params, config)
    points = [BranchPoint(point=start, tangent=unit, x_norm=xn, arc=0.0)]

    ds = step.ds0
    streak = 0
    failures: dict[str, int] = {}
    b_zero_refine = None
    termination = None

    while termination is None:
        if len(points) >= stop.max_points:
            termination = TERM_BUDGET
            break
        prev_bp = points[-1]
        x_prev = prev_bp.point.vector()
        pred = x_prev + ds * prev_bp.tangent
        try:
            if pred[0] <= 0 or pred[2] <= 0:
                raise ConvergenceError("predictor left the parameter domain", "domain")
            guess = SeedPoint(a=float(pred[0]), b=float(pred[1]), T=float(pred[2]), kind=kind)
            corrected, dcorr = newton_correct_full(
                guess, params, config, tol=corrector_tol,
                constraint=hyperplane(pred, prev_bp.tangent),
                max_flows=_CORRECTOR_MAX_FLOWS,
            )
            unit, xn = _tangent_from(
                dcorr, (corrected.a, corrected.b, corrected.T), prev_bp.tangent
            )
            if float(np.dot(unit, prev_bp.tangent)) < step.cos_min:
                raise ConvergenceError("tangent turned too sharply: likely branch hop", "tangent-turn")
        except (ConvergenceError, SingularPointError, ValueError, FlowError) as exc:
            reason = _failure_reason(exc)
            failures[reason] = failures.get(reason, 0) + 1
            ds *= 0.5
            streak = 0
            if ds < step.ds_min:
                termination = TERM_COLLISION if reason == SINGULAR else TERM_STEP
            continue

        arc = prev_bp.arc + float(np.linalg.norm(corrected.vector() - x_prev))
        new_bp = BranchPoint(point=corrected, tangent=unit, x_norm=xn, arc=arc)

        prev_b = prev_bp.point.b
        crossed = prev_b * corrected.b < 0.0
        approaching_zero = abs(corrected.b) <= stop.b_tol and abs(corrected.b) < abs(prev_b)
        if crossed or approaching_zero:
            points.append(new_bp)
            refined, b_zero_refine = _refine_b_zero(
                prev_bp.point, corrected, params, config, corrector_tol
            )
            if refined is not None:
                arc2 = arc + float(np.linalg.norm(refined.vector() - corrected.vector()))
                points.append(BranchPoint(point=refined, tangent=unit, x_norm=xn, arc=arc2))
            termination = TERM_B_ZERO
            break
        if corrected.a <= stop.a_min or corrected.a >= stop.a_max:
            points.append(new_bp)
            termination = TERM_COLLISION if corrected.a <= stop.a_min else TERM_BOUND
            break
        if corrected.T <= stop.T_min or corrected.T >= stop.T_max:
            points.append(new_bp)
            termination = TERM_BOUND
            break

        points.append(new_bp)
        streak += 1
        if streak >= step.grow_after:
            ds = min(ds * step.grow, step.ds_max)
            streak = 0

    stats = {"failed_predictor_steps": sum(failures.values()), "failures": failures, "ds_final": ds}
    if b_zero_refine is not None:
        stats["b_zero_refine"] = b_zero_refine
    return Branch(kind=kind, params=params, points=points, termination=termination, stats=stats)


@dataclass(frozen=True)
class EndpointReport:
    """Classification of where a traced branch ended."""

    label: str  # collision | trivial-limit | unbounded | budget | step-failure
    endpoint: SeedPoint
    detail: dict


def classify_endpoint(branch: Branch) -> EndpointReport:
    """Map a branch termination onto its qualitative endpoint type.

    A final point with a below 1e-3*a0 counts as a collision regardless of
    what stopped the tracer.  A b = 0 ending is a trivial limit; the detail
    reports the gap to the closed-form bifurcation point of the same kind.
    """
    end = branch.end
    params = branch.params
    detail: dict = {"termination": branch.termination, "n_points": len(branch.points)}
    if end.a < 1e-3 * params.a0 or branch.termination == TERM_COLLISION:
        return EndpointReport("collision", end, detail)
    if branch.termination == TERM_B_ZERO:
        ref = bifurcation_point(params, branch.kind)
        detail["seed_a"] = ref.a0
        detail["seed_T"] = ref.T_star
        detail["delta_a"] = abs(end.a - ref.a0)
        detail["delta_T"] = abs(end.T - ref.T_star)
        return EndpointReport("trivial-limit", end, detail)
    if branch.termination == TERM_BOUND:
        return EndpointReport("unbounded", end, detail)
    if branch.termination == TERM_BUDGET:
        return EndpointReport("budget", end, detail)
    return EndpointReport("step-failure", end, detail)


def theta_curvature_numeric(
    params: SystemParams,
    config: IntegratorConfig | None = None,
    b_max: float | None = None,
    n_points: int = 6,
    corrector_tol: float = 1e-11,
) -> tuple[float, float]:
    """Numeric (first, second) derivative of the phase along the odd family.

    Walks the family away from its seed on both sides of b = 0, correcting
    (a, T) at fixed b, and accumulates the parameter of the unnormalized
    tangent field via d(tau) = db / X_b.  The second derivative comes from
    extrapolating the symmetric difference quotient 2*(theta - theta0)/tau^2
    to tau = 0 by a linear fit in tau^2; the first derivative from the
    outermost symmetric pair.
    """
    kind = SymmetryKind.ODD
    seed = bifurcation_point(params, kind)
    a0, T0 = seed.a0, seed.T_star
    if b_max is None:
        b_max = 0.02 * math.sqrt((params.M + params.n * params.m) / params.r0)

    d0 = desing_eval(a0, 0.0, T0, kind, params, config, grad=True)
    theta0 = d0.theta

    def x_b(d):
        # b-component of grad(value) x grad(R_t)
        return d.grad_value[2] * d.grad_rt[0] - d.grad_value[0] * d.grad_rt[2]

    def walk(sign):
        taus, thetas = [], []
        tau = 0.0
        b_prev, xb_prev = 0.0, x_b(d0)
        guess = SeedPoint(a=a0, b=0.0, T=T0, kind=kind)
        for j in range(1, n_points + 1):
            b = sign * b_max * j / n_points
            guess = SeedPoint(a=guess.a, b=b, T=guess.T, kind=kind)
            pt, d = newton_correct_full(guess, params, config, tol=corrector_tol)
            xb = x_b(d)
            tau += (b - b_prev) * 0.5 * (1.0 / xb + 1.0 / xb_prev)
            taus.append(tau)
            thetas.append(pt.theta)
            b_prev, xb_prev = b, xb
            guess = pt
        return np.array(taus), np.array(thetas)

    tau_p, th_p = walk(+1.0)
    tau_m, th_m = walk(-1.0)

    # First derivative from the widest symmetric pair.
    xi1 = float((th_p[-1] - th_m[-1]) / (tau_p[-1] - tau_m[-1]))

    taus = np.concatenate([tau_p, tau_m])
    thetas = np.concatenate([th_p, th_m])
    quot = 2.0 * (thetas - theta0) / taus**2
    coeffs = np.polyfit(taus**2, quot, 1)
    xi2 = float(coeffs[1])
    return xi1, xi2


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
    report = classify_endpoint(branch)
    return {
        "kind": branch.kind.value,
        "params": branch.params.to_dict(),
        "n_points": len(branch.points),
        "termination": branch.termination,
        "endpoint_label": report.label,
        "endpoint_detail": report.detail,
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
            "x_norm": bp.x_norm,
            "arc": bp.arc,
        }
        for bp in branch.points
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def branch_from_json(path) -> Branch:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = SymmetryKind.parse(payload["kind"])
    params = SystemParams.from_dict(payload["params"])
    points = [
        BranchPoint(
            point=SeedPoint.from_dict(rec),
            tangent=np.array(rec["tangent"]),
            x_norm=float(rec["x_norm"]),
            arc=float(rec["arc"]),
        )
        for rec in payload["points"]
    ]
    return Branch(
        kind=kind,
        params=params,
        points=points,
        termination=payload["termination"],
        stats=payload.get("stats", {}),
    )
