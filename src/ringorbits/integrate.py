"""Adaptive Dormand-Prince 5(4) integration with dense output.

A fixed explicit tableau keeps runs bit-reproducible: the same inputs on the
same build always produce the same floats.  Error control follows the
classic PI controller (safety 0.9, beta 0.04, step-change factors clamped to
[1/5, 10]); the continuous extension is the standard quartic interpolant of
the pair, so sampled values carry the same order of accuracy as the steps.

The step runs on lists of Python floats, not on numpy arrays: the systems
here have 5 or 15 components, and at that size numpy's per-call overhead
costs more than the arithmetic.  Each component is computed with the
operations numpy applied to whole vectors, in the same order (left-to-right
stage sums, then the product with h, then the sum with y), and the error
norm sums its squares in numpy's pairwise order, so the floats are those of
an array implementation bit for bit.  Dense output keeps each accepted
state, step size and stage as raw doubles and computes the interpolants of
all steps as arrays when the flow finishes.

The driver integrates forward only and clamps the final step onto t_end
exactly.  A SingularityError raised by the right-hand side is treated as a
collision inside the step: the step is retried smaller until the step size
underflows, at which point the flow stops with status "singular" and a
bracket around the failure time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    SingularityError,
    SystemParams,
    augmented_initial,
    make_reduced_rhs,
    make_variational_rhs,
    reduced_initial,
)

__all__ = [
    "IntegratorConfig",
    "DenseOutput",
    "FlowResult",
    "FlowError",
    "flow",
    "EvalPoint",
    "eval_at",
    "OK",
    "SINGULAR",
    "BUDGET",
]

OK = "ok"
SINGULAR = "singular"
BUDGET = "budget-exceeded"

# Dormand-Prince 5(4) coefficients.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Difference between the 5th and the embedded 4th order weights.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
# Dense output coefficients.
_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423

_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - _BETA * 0.75
_MAX_GROW = 10.0
_MAX_SHRINK = 0.2


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets for `flow`.

    h_max defaults to one sixteenth of the integration span when left None,
    which keeps the controller from striding over a full oscillation of the
    axial mode.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    h_init: float | None = None
    h_max: float | None = None
    max_steps: int = 2_000_000
    dense: bool = False

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-3):
                raise ValueError(f"{name} must lie in (0, 1e-3], got {v!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        for name in ("h_init", "h_max"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive when given, got {v!r}")


class DenseOutput:
    """Per-step quartic interpolants of an accepted integration.

    states holds the state at every grid time, shape (steps + 1, dim), and
    rcont the five quartic coefficients of every step, shape (steps, 5,
    dim).  Evaluation at a stored step boundary returns the accepted state
    bit-for-bit; interior times use the continuous extension of the step
    that contains them.
    """

    def __init__(self, t_grid: np.ndarray, states: np.ndarray, rcont: np.ndarray):
        self._t = np.asarray(t_grid, dtype=float)
        self._states = states
        self._rcont = rcont

    @property
    def t_min(self) -> float:
        return float(self._t[0])

    @property
    def t_max(self) -> float:
        return float(self._t[-1])

    def at(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    def sample(self, ts) -> np.ndarray:
        """States at the times ts, shape (len(ts), dim)."""
        grid = self._t
        ts = np.asarray(ts, dtype=float)
        outside = ~((grid[0] <= ts) & (ts <= grid[-1]))
        if outside.any():
            t = float(ts[outside][0])
            raise ValueError(f"time {t!r} outside the integrated range [{grid[0]!r}, {grid[-1]!r}]")
        i = np.searchsorted(grid, ts, side="right") - 1
        hit = ts == grid[i]
        out = np.empty((len(ts), self._states.shape[1]))
        out[hit] = self._states[i[hit]]
        i, t = i[~hit], ts[~hit]
        th = ((t - grid[i]) / (grid[i + 1] - grid[i]))[:, None]
        r1, r2, r3, r4, r5 = self._rcont[i].transpose(1, 0, 2)
        out[~hit] = r1 + th * (r2 + (1.0 - th) * (r3 + th * (r4 + (1.0 - th) * r5)))
        return out


@dataclass
class FlowResult:
    """Outcome of one call to `flow`."""

    status: str
    t: float
    y: np.ndarray
    n_steps: int
    n_rejected: int
    step_times: np.ndarray
    dense: DenseOutput | None = None
    singular_bracket: tuple[float, float] | None = None

    def require_ok(self) -> "FlowResult":
        if self.status != OK:
            raise FlowError(self, f"integration stopped with status {self.status!r} at t={self.t!r}")
        return self


class FlowError(RuntimeError):
    """Raised when a flow needed by a calling algorithm did not finish."""

    def __init__(self, result: FlowResult, message: str):
        super().__init__(message)
        self.result = result

    @property
    def status(self) -> str:
        return self.result.status


def _error_norm(v: np.ndarray, sc: np.ndarray) -> float:
    return float(np.sqrt(np.mean((v / sc) ** 2)))


def _pairwise_sum(v: list[float]) -> float:
    """Sum v in the order of numpy's pairwise summation, as np.sum does."""
    n = len(v)
    if n < 8:
        s = 0.0
        for x in v:
            s += x
        return s
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])
    m = n - n % 8
    p = v[:8]
    for i in range(8, m, 8):
        p = [a + b for a, b in zip(p, v[i : i + 8])]
    s = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
    for x in v[m:]:
        s += x
    return s


def _dense_output(grid, states, steps, stages) -> DenseOutput:
    """Quartic coefficients of every accepted step, computed as arrays once."""
    y = np.array(states).reshape(len(grid), -1)
    h = np.array(steps).reshape(-1, 1)
    k1, k3, k4, k5, k6, k7 = np.array(stages).reshape(-1, 6, y.shape[1]).transpose(1, 0, 2)
    ydiff = y[1:] - y[:-1]
    bspl = h * k1 - ydiff
    dk = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
    rcont = np.stack([y[:-1], ydiff, bspl, ydiff - h * k7 - bspl, dk], axis=1)
    return DenseOutput(np.array(grid), y, rcont)


def _initial_step(rhs, t0, y0, f0, span, atol, rtol, h_max):
    # Deterministic two-probe heuristic for the first trial step.
    sc = atol + rtol * np.abs(y0)
    d0 = _error_norm(y0, sc)
    d1 = _error_norm(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, h_max)
    try:
        f1 = rhs(t0 + h0, y0 + h0 * f0)
        d2 = _error_norm(np.asarray(f1) - f0, sc) / h0
    except SingularityError:
        return max(h0 * 1e-3, 1e-12 * span)
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, span, h_max)


def flow(rhs, y0, t_end: float, config: IntegratorConfig | None = None, t0: float = 0.0) -> FlowResult:
    """Integrate y' = rhs(t, y) from t0 to t_end (t_end >= t0).

    Returns a FlowResult; callers that need a completed flow should chain
    `.require_ok()`.  With config.dense the result carries a DenseOutput
    whose values at accepted step times equal the stored states exactly.
    rhs receives the state as a list of floats and returns a sequence of
    the same length.
    """
    config = config or IntegratorConfig()
    t0, t_end = float(t0), float(t_end)
    y = np.asarray(y0, dtype=float).tolist()
    span = t_end - t0
    if span < 0:
        raise ValueError("flow integrates forward only (t_end < t0)")
    grid = [t0]
    states, steps, stages = array("d", y), array("d"), array("d")  # for dense output
    if span == 0:
        dense = _dense_output(grid, states, steps, stages) if config.dense else None
        return FlowResult(OK, t_end, np.array(y), 0, 0, np.array(grid), dense)

    atol, rtol = float(config.abs_tol), float(config.rel_tol)
    h_max = float(config.h_max) if config.h_max is not None else span / 16.0
    h_max = min(h_max, span)
    h_floor = 1e-14 * max(abs(t0), abs(t_end), 1.0)
    n = len(y)

    t = t0
    k1 = rhs(t, y)  # an invalid initial state is the caller's error: let it raise
    h = config.h_init
    h = float(h) if h is not None else _initial_step(rhs, t, np.array(y), np.array(k1), span, atol, rtol, h_max)
    h = min(h, h_max)

    n_steps = 0
    n_rejected = 0
    facold = 1e-4
    rejected = False

    def finish(status, bracket=None):
        dense = _dense_output(grid, states, steps, stages) if config.dense else None
        return FlowResult(status, t, np.array(y), n_steps, n_rejected, np.array(grid), dense, bracket)

    while True:
        if n_steps + n_rejected >= config.max_steps:
            return finish(BUDGET)
        h = min(h, h_max)
        last = t + h >= t_end
        if last:
            h = t_end - t
        try:
            k2 = rhs(t + _C2 * h, [u + h * (_A21 * a) for u, a in zip(y, k1)])
            k3 = rhs(t + _C3 * h, [u + h * (_A31 * a + _A32 * b) for u, a, b in zip(y, k1, k2)])
            k4 = rhs(t + _C4 * h, [u + h * (_A41 * a + _A42 * b + _A43 * c) for u, a, b, c in zip(y, k1, k2, k3)])
            k5 = rhs(t + _C5 * h, [u + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                                   for u, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = rhs(t + h, [u + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                             for u, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            ynew = [u + h * (_A71 * a + _A73 * c + _A74 * d + _A75 * e + _A76 * f)
                    for u, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(t + h, ynew)
            # Squared scaled error per component, with the floats of
            # (err_vec / (atol + rtol * max(|y|, |ynew|))) ** 2 on arrays.
            sq = [
                (x := h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
                 / (atol + rtol * (p if (p := abs(u)) >= (q := abs(v)) else q))) * x
                for u, v, a, c, d, e, f, g in zip(y, ynew, k1, k3, k4, k5, k6, k7)
            ]
            err = math.sqrt(_pairwise_sum(sq) / n)
            if not math.isfinite(err) or not all(map(math.isfinite, ynew)):
                err = math.inf
        except SingularityError as exc:
            n_rejected += 1
            bracket_hi = exc.t if exc.t is not None else t + h
            h *= 0.5
            rejected = True
            if h < h_floor:
                return finish(SINGULAR, (t, bracket_hi))
            continue

        if err <= 1.0:
            n_steps += 1
            if config.dense:
                states.extend(ynew)
                steps.append(h)
                for k in (k1, k3, k4, k5, k6, k7):
                    stages.extend(k)
            t = t_end if last else t + h
            y = ynew
            k1 = k7
            grid.append(t)
            if last:
                return finish(OK)
            if err == 0.0:
                fac = _MAX_SHRINK
            else:
                fac11 = err**_EXPO1
                fac = fac11 / facold**_BETA
                fac = max(1.0 / _MAX_GROW, min(1.0 / _MAX_SHRINK, fac / _SAFETY))
            hnew = h / fac
            if rejected:
                hnew = min(hnew, h)
                rejected = False
            facold = max(err, 1e-4)
            h = hnew
        else:
            n_rejected += 1
            rejected = True
            if err == math.inf:
                h *= 0.5
            else:
                fac11 = err**_EXPO1
                h = h / min(1.0 / _MAX_SHRINK, fac11 / _SAFETY)
            if h < h_floor:
                return finish(SINGULAR, (t, t + h))


@dataclass(frozen=True)
class EvalPoint:
    """Flow values at time T used by the shooting residuals.

    F, Ft are the axial separation and its velocity at T; R, Rt the ring
    radius and radial velocity; Theta the accumulated phase.  Ftt, Rtt,
    Thetat come from the vector field at the endpoint.  The sensitivity
    fields are filled only when the evaluation is augmented.
    """

    a: float
    b: float
    T: float
    F: float
    Ft: float
    R: float
    Rt: float
    Theta: float
    Ftt: float
    Rtt: float
    Thetat: float
    Fa: float | None = None
    Fta: float | None = None
    Ra: float | None = None
    Rta: float | None = None
    Tha: float | None = None
    Fb: float | None = None
    Ftb: float | None = None
    Rb: float | None = None
    Rtb: float | None = None
    Thb: float | None = None

    @property
    def augmented(self) -> bool:
        return self.Fa is not None


def eval_at(
    a: float,
    b: float,
    T: float,
    params: SystemParams,
    config: IntegratorConfig | None = None,
    augmented: bool = False,
) -> EvalPoint:
    """Flow the symmetric initial condition (0, b, r0, 0, 0) for time T.

    The angular parameter a enters through the momentum C = r0*a.  With
    augmented=True the flow carries the sensitivity columns w.r.t. a and b.
    """
    if T < 0:
        raise ValueError(f"evaluation time must be nonnegative, got {T!r}")
    config = config or IntegratorConfig()
    if config.h_max is None and T > 0:
        config = replace(config, h_max=T / 16.0)
    C = params.r0 * a
    if augmented:
        rhs = make_variational_rhs(params, C)
        y0 = augmented_initial(b, params)
    else:
        rhs = make_reduced_rhs(params, C)
        y0 = reduced_initial(b, params)
    res = flow(rhs, y0, T, config).require_ok()
    y = res.y
    d = rhs(res.t, y)
    base = dict(
        a=a, b=b, T=T,
        F=float(y[0]), Ft=float(y[1]), R=float(y[2]), Rt=float(y[3]), Theta=float(y[4]),
        Ftt=float(d[1]), Rtt=float(d[3]), Thetat=float(d[4]),
    )
    if augmented:
        base.update(
            Fa=float(y[5]), Fta=float(y[6]), Ra=float(y[7]), Rta=float(y[8]), Tha=float(y[9]),
            Fb=float(y[10]), Ftb=float(y[11]), Rb=float(y[12]), Rtb=float(y[13]), Thb=float(y[14]),
        )
    return EvalPoint(**base)

