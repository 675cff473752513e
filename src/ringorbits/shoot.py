"""Symmetry-residual shooting for periodic solutions.

A solution launched from the symmetric initial condition (f, fdot, r, rdot)
= (0, b, r0, 0) closes into a periodic orbit of the reduced system when it
hits another symmetric configuration:

  odd       F(a,b,T) = 0 and R_t(a,b,T) = 0       -> period 2T
  double    F_t(a,b,T/2) = 0 and R_t(a,b,T/2) = 0 -> period 2T

The first residual is F or F_t, `SymmetryKind.index`.  The second kind is
the doubly symmetric form of an odd orbit, in odd coordinates: an orbit
mirror-symmetric about T/2 has F(T) = 0 and R_t(T) = -R_t(0) = 0, so it is
odd, and flows half as long give its residuals.  Every first residual
vanishes identically in b on the circular family, so the corrector works
with the desingularized forms F/b and F_t/b.  These extend smoothly across
b = 0, where they become the b-sensitivities F_b and F_tb of the flow;
parity in b removes their b-derivative there, and the explicit step _FD_DB
recovers the remaining mixed derivative by one-sided differencing.

One damped Newton corrector serves every caller.  The residual pair fixes
a curve in (a, b, T); a third row c(a, b, T) = 0 picks one point of it, and
Newton solves the bordered 3x3 system [grad value; grad R_t; grad c]
(Allgower & Georg, ch. 2).  The third row is built by `fixed_b` (b held),
`hyperplane` (pseudo-arclength continuation) or `phase` (the member whose
ring phase is a given angle).

The corrector's work has one bound: at most max_flows flows, one per
residual evaluation away from b = 0 and two at b = 0, rejected line-search
trials included; continuation passes a small one so that a crawling
correction fails fast.  Its domain is a > 0, T > T_LOWER*T0: every T = 0
point solves the residual pair trivially (F ~ b*T), so a trial outside it
is damped further, and `desing_eval` refuses a T at or below the floor.
Every failure raises ConvergenceError with a `reason` that names the bound
or condition that stopped it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .integrate import FlowError, IntegratorConfig, eval_at
from .model import SystemParams, _count, _real

__all__ = [
    "SymmetryKind",
    "SeedPoint",
    "ConvergenceError",
    "require_above_floor",
    "desing_eval",
    "DesingPoint",
    "fixed_b",
    "hyperplane",
    "phase",
    "newton_correct",
    "newton_correct_full",
]

# The corrector's defaults, for every caller that does not choose its own.
CORRECTOR_TOL = 1e-10
# Generous against what converging calls need (ROADMAP item 9 records the
# flows per call), so only a corrector that is lost runs out; the
# continuation step passes its own, tighter bound.
CORRECTOR_MAX_FLOWS = 64
T_LOWER = 1e-3  # the corrector's floor on T, as a multiple of params.T0

# One-sided step used for d/da of the desingularized residual at b = 0;
# the integrand is odd in b so the quotient is accurate to O(step^2).
_FD_DB = 1e-5

_MAX_HALVINGS = 8

# How a point of the odd/even kind, which is no longer read, converts.
OLD_KIND_HINT = "an 'odd_even' point (a, b, T) is the point (a, b, 2T) of kind 'double'"


class ConvergenceError(RuntimeError):
    """A corrector, or a continuation step built on it, did not converge.

    `reason` classifies the failure:
      budget             the max_flows flows were spent
      contraction        a continuation corrector converged, but contracted too slowly
      line-search        no damped trial in the domain decreased the residual
      singular-jacobian  the bordered Jacobian is numerically singular
      singular-point     the residual gradients are parallel: no branch direction
      domain             a continuation predictor left a > 0, T > T_LOWER*T0
      theta-step         a continuation step turned the ring phase too far
      off-bracket        a resonance was solved outside its bracket
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class SymmetryKind(enum.Enum):
    ODD = "odd"
    DOUBLE = "double"  # the doubly symmetric form of the odd family

    @property
    def index(self) -> int:
        """The state component of the first residual: 0 (F) for odd, 1 (F_t) for double."""
        return 0 if self is SymmetryKind.ODD else 1

    @property
    def fraction(self) -> float:
        """The share of T the residuals are read at: 1/2 for double, 1 for odd."""
        return 0.5 if self is SymmetryKind.DOUBLE else 1.0


@dataclass(frozen=True)
class SeedPoint:
    """One member of a symmetric periodic family: parameters (a, b, T).

    a > 0, b and T > 0 are stored as floats (`model._real`), so a point of numpy scalars
    writes as one of floats.  `residual` stores the max-norm of the desingularized residual pair
    at the point, `theta` the accumulated ring phase over [0, T], both NaN for points that have
    not been evaluated.  `kind` takes a SymmetryKind or its value ("odd", "double"), stored as the enum.
    """

    a: float
    b: float
    T: float
    kind: SymmetryKind = SymmetryKind.ODD
    residual: float = math.nan
    theta: float = math.nan

    def __post_init__(self):
        for name, bound in (("a", "positive"), ("b", ""), ("T", "positive")):
            object.__setattr__(self, name, _real(name, getattr(self, name), bound))
        try:
            object.__setattr__(self, "kind", SymmetryKind(self.kind))
        except ValueError:
            raise ValueError(
                f"unknown symmetry kind {self.kind!r}; expected 'odd' or 'double' ({OLD_KIND_HINT})"
            ) from None

    def vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.T])

    @property
    def period(self) -> float:
        return 2 * self.T

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value}

    @classmethod
    def from_dict(cls, d: dict) -> "SeedPoint":
        return cls(
            a=float(d["a"]),
            b=float(d["b"]),
            T=float(d["T"]),
            kind=d.get("kind", "odd"),
            residual=float(d.get("residual", math.nan)),
            theta=float(d.get("theta", math.nan)),
        )


def require_above_floor(T: float, params: SystemParams) -> None:
    """Raise ValueError unless T lies above the floor T_LOWER*T0."""
    if not T > T_LOWER * params.T0:
        raise ValueError(f"T={float(T)!r} is at or below the floor T_LOWER*T0 = {T_LOWER * params.T0!r}")


@dataclass(frozen=True)
class DesingPoint:
    """Desingularized residual data at (a, b, T).

    value is F/b (odd) or F_t/b (double), continued across b = 0
    by the flow sensitivities; rt is R_t; theta is the ring phase.  The
    three gradients are w.r.t. (a, b, T).
    """

    value: float
    rt: float
    theta: float
    grad_value: np.ndarray
    grad_rt: np.ndarray
    grad_theta: np.ndarray

    @property
    def residual(self) -> float:
        """Max-norm of the desingularized residual pair (value, rt)."""
        return float(max(abs(self.value), abs(self.rt)))


def desing_eval(
    a: float,
    b: float,
    T: float,
    kind: SymmetryKind,
    params: SystemParams,
    config: IntegratorConfig | None = None,
) -> DesingPoint:
    """The desingularized residuals and their gradients, from augmented flows:
    one flow away from b = 0, two at b = 0; ValueError at T <= T_LOWER*T0."""
    require_above_floor(T, params)
    # The flows run for s*T, s = 1/2 in the doubly symmetric form, which halves
    # the T-column and doubles theta.  y is the state at s*T, then its a- and
    # b-sensitivity columns from 5 and 10 on; dy is the vector field there.
    s, i = kind.fraction, kind.index
    if b == 0.0:
        e = eval_at(a, 0.0, s * T, params, config, augmented=True)
        value, vt = e.y[10 + i], s * e.dy[10 + i]
        # d(value)/da at b = 0 from a one-sided quotient; the numerator is
        # odd in b, so the O(step) term cancels.
        e2 = eval_at(a, _FD_DB, s * T, params, config, augmented=True)
        va = e2.y[5 + i] / _FD_DB
        vb = 0.0  # parity: the desingularized residual is even in b
    else:
        e = eval_at(a, b, s * T, params, config, augmented=True)
        value = e.y[i] / b
        va = e.y[5 + i] / b
        vb = (e.y[10 + i] - value) / b
        vt = s * e.dy[i] / b
    return DesingPoint(
        value,
        e.Rt,
        e.Theta / s,
        grad_value=np.array([va, vb, vt]),
        grad_rt=np.array([e.Rta, e.Rtb, s * e.dy[3]]),
        grad_theta=np.array([e.Tha / s, e.Thb / s, e.dy[4]]),
    )


def _too_ill_conditioned(J: np.ndarray) -> bool:
    try:
        return np.linalg.cond(J) > 1e12
    except np.linalg.LinAlgError:
        return True


# A constraint maps (x, d), the point (a, b, T) and its residual data, to
# the value of the third residual row and its gradient in (a, b, T).
Constraint = Callable[[np.ndarray, DesingPoint], tuple[float, np.ndarray]]


def fixed_b(b: float) -> Constraint:
    """Hold b at the given value: the row b - b_fixed with gradient e_b."""
    row = np.array([0.0, 1.0, 0.0])
    return lambda x, d: (float(x[1] - b), row)


def hyperplane(x_ref: np.ndarray, normal: np.ndarray) -> Constraint:
    """Stay in the plane <x - x_ref, normal> = 0 (arclength continuation)."""
    normal = np.asarray(normal, dtype=float)
    return lambda x, d: (float(np.dot(x - x_ref, normal)), normal)


def phase(angle: float) -> Constraint:
    """Land on the family member whose ring phase theta equals angle."""
    return lambda x, d: (d.theta - angle, d.grad_theta)


def newton_correct(
    guess: SeedPoint,
    params: SystemParams,
    config: IntegratorConfig | None = None,
    *,
    tol: float = CORRECTOR_TOL,
    max_flows: int = CORRECTOR_MAX_FLOWS,
    constraint: Constraint | None = None,
) -> SeedPoint:
    """Newton-correct a seed onto the family and one extra condition.

    All of (a, b, T) solve the bordered system (value, R_t, c) = 0, where
    c is the constraint row: `fixed_b(guess.b)` by default, `hyperplane`
    for arclength continuation, or `phase` for a resonant member.

    Each update is damped by a line search on the max-norm of the three
    residuals (at most 8 halvings; a trial outside a > 0, T > T_LOWER*T0 is
    halved without a flow).  A guess that already meets `tol` is returned
    after the initial evaluation.  max_flows bounds the flows the call runs.

    Raises ValueError before any flow unless tol is finite and positive
    (`model._real`), max_flows a whole number >= 1 and guess.T > T_LOWER*T0; ConvergenceError with `reason`
    "budget", "line-search" or "singular-jacobian"; and FlowError from the
    initial evaluation.
    """
    point, _, _ = newton_correct_full(
        guess, params, config, tol=tol, max_flows=max_flows, constraint=constraint
    )
    return point


def newton_correct_full(
    guess: SeedPoint,
    params: SystemParams,
    config: IntegratorConfig | None = None,
    *,
    tol: float = CORRECTOR_TOL,
    max_flows: int = CORRECTOR_MAX_FLOWS,
    constraint: Constraint | None = None,
) -> tuple[SeedPoint, DesingPoint, float]:
    """Like `newton_correct` but also returns the residual data at the
    corrected point, gradients included, so callers can reuse them, and the
    contraction |dx_1|/|dx_0| of its first two full updates (0.0 if fewer ran)."""
    tol = _real("tol", tol, "positive")
    max_flows = _count("max_flows", max_flows, 1)
    kind = guess.kind
    if constraint is None:
        constraint = fixed_b(guess.b)
    n_flows = 0

    def evaluate(xv):
        nonlocal n_flows
        # desing_eval flows twice at b = 0, once elsewhere
        n_flows += 2 if xv[1] == 0.0 else 1
        if n_flows > max_flows:
            raise ConvergenceError(
                f"flow budget spent: {max_flows} flows without reaching {tol:.1e}",
                "budget",
            )
        dv = desing_eval(xv[0], xv[1], xv[2], kind, params, config)
        c, row = constraint(xv, dv)
        res = np.array([dv.value, dv.rt, c])
        return dv, res, row, float(np.max(np.abs(res)))

    x = guess.vector()
    d, res, row, norm = evaluate(x)
    T_min = T_LOWER * params.T0
    update_norms = []
    while norm > tol:
        J = np.array([d.grad_value, d.grad_rt, row])
        if _too_ill_conditioned(J):
            raise ConvergenceError("corrector Jacobian is numerically singular", "singular-jacobian")
        step = np.linalg.solve(J, -res)
        update_norms.append(float(np.linalg.norm(step)))

        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = x + lam * step
            if trial[0] > 0 and trial[2] > T_min:
                try:
                    d_new, res_new, row_new, new = evaluate(trial)
                except FlowError:
                    pass  # trial stepped into a collision: damp further
                else:
                    if new < norm:
                        x, d, res, row, norm = trial, d_new, res_new, row_new, new
                        break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"line search stalled after {_MAX_HALVINGS} halvings; residual {norm:.3e}",
                "line-search",
            )
    point = SeedPoint(*x, kind=kind, residual=d.residual, theta=d.theta)
    contraction = update_norms[1] / update_norms[0] if len(update_norms) >= 2 else 0.0
    return point, d, contraction
