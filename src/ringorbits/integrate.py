"""Adaptive Dormand-Prince 5(4) integration with dense output.

A fixed explicit tableau keeps runs bit-reproducible: the same inputs on the
same build always produce the same floats.  Error control follows the
classic PI controller (safety 0.9, beta 0.04, step-change factors clamped to
[1/5, 10]); the continuous extension is the standard quartic interpolant of
the pair, so sampled values carry the same order of accuracy as the steps.

The step runs on Python floats, not on numpy arrays: the systems here have
5 or 15 components, and at that size numpy's per-call overhead costs more
than the arithmetic.  The trial step is generated as source once per state
dimension, the first time a flow of that dimension runs (`_step_function`):
every component of every stage is written out on local variables, which
costs a third less per step than looping over lists of components.  Each
component is computed with the operations numpy applies to whole vectors,
in the same order (left-to-right stage sums, then the product with h, then
the sum with y), and the error norm adds its squares in numpy's pairwise
order, written out by running `_pairwise_sum` itself on the terms as
source; so the floats are those of an array implementation bit for bit.
The generated source is registered in linecache, so tracebacks and inspect
show its lines.  Dense output keeps each accepted state, step size and
stage as raw doubles and computes the interpolants of all steps as arrays
when the flow finishes.

`flow` integrates forward from t = 0 and clamps the final step onto t_end
exactly.  A trial step fails when its error estimate is not finite, which
is how a right-hand side reports a collision inside the step: it returns
NaN (the fields of `model` do so below the ring-collapse floor).  A failed
trial is retried at half the step until the step size underflows, at
which point the flow stops with status "singular" at the last accepted
time.
"""

from __future__ import annotations

import functools
import linecache
import math
from array import array
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .model import (
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
# Accepted plus rejected trial steps after which a flow stops as BUDGET.
_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, step ceiling and dense output for `flow`.

    h_max defaults to one sixteenth of the integration span when left None,
    which keeps the controller from striding over a full oscillation of the
    axial mode.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    h_max: float | None = None
    dense: bool = False

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-3):
                raise ValueError(f"{name} must lie in (0, 1e-3], got {v!r}")
        if self.h_max is not None and not self.h_max > 0:
            raise ValueError(f"h_max must be positive when given, got {self.h_max!r}")


class DenseOutput:
    """Per-step quartic interpolants of an accepted integration.

    states holds the state at every grid time, shape (steps + 1, dim), and
    rcont the five quartic coefficients of every step, shape (steps, 5,
    dim).  Evaluation at a stored step boundary returns the accepted state
    bit-for-bit; interior times use the continuous extension of the step
    that contains them.
    """

    def __init__(self, grid: np.ndarray, states: np.ndarray, rcont: np.ndarray):
        self.grid = np.asarray(grid, dtype=float)  # the accepted step times
        self._states = states
        self._rcont = rcont

    def sample(self, ts) -> np.ndarray:
        """States at the times ts, shape (len(ts), dim)."""
        grid = self.grid
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
    dy: np.ndarray  # the vector field at (t, y)
    dense: DenseOutput | None = None

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


def _pairwise_sum(v: list[float]) -> float:
    """Sum v in the order of numpy's pairwise summation, as np.sum does.

    On `_Term`s it writes that sum as source, for the generated step.
    """
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


class _Term(str):
    """A summand written as source: adding terms writes the sum's expression."""

    def __add__(self, other):
        return _Term(f"({self} + {other})")

    def __radd__(self, other):
        return _Term(f"({other!r} + {self})")


# Rows of the tableau as (time coefficient, ((stage, coefficient), ...)); a
# time coefficient of None stands for t + h.
_STAGE_ROWS = (
    (_C2, ((1, _A21),)),
    (_C3, ((1, _A31), (2, _A32))),
    (_C4, ((1, _A41), (2, _A42), (3, _A43))),
    (_C5, ((1, _A51), (2, _A52), (3, _A53), (4, _A54))),
    (None, ((1, _A61), (2, _A62), (3, _A63), (4, _A64), (5, _A65))),
)
_SOLUTION_ROW = ((1, _A71), (3, _A73), (4, _A74), (5, _A75), (6, _A76))
_ERROR_ROW = ((1, _E1), (3, _E3), (4, _E4), (5, _E5), (6, _E6), (7, _E7))


def _step_source(n: int) -> str:
    """Source of one DP5(4) trial step on n components, written out per component.

    Every stage sum runs left to right, then takes the product with h and
    the sum with y, as the array expressions y + h * (a1 * k1 + ...) do;
    the squared scaled errors are added in numpy's pairwise order.
    """

    def combo(row, i):
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in row)

    def unpack(name, source):
        return f"    {''.join(f'{name}{i}, ' for i in range(n))}= {source}"

    lines = ["def step(rhs, t, h, y, k1, atol, rtol):", unpack("y", "y"), unpack("k1_", "k1")]
    for s, (c, row) in enumerate(_STAGE_ROWS, start=2):
        lines.append(f"    k{s} = rhs(t + {'h' if c is None else f'{c!r} * h'}, [")
        lines += [f"        y{i} + h * ({combo(row, i)})," for i in range(n)]
        lines += ["    ])", unpack(f"k{s}_", f"k{s}")]
    lines += [f"    z{i} = y{i} + h * ({combo(_SOLUTION_ROW, i)})" for i in range(n)]
    lines += [f"    ynew = [{', '.join(f'z{i}' for i in range(n))}]", "    k7 = rhs(t + h, ynew)"]
    lines.append(unpack("k7_", "k7"))
    # (err_vec / (atol + rtol * max(|y|, |ynew|))) per component
    lines += [
        f"    x{i} = h * ({combo(_ERROR_ROW, i)})"
        f" / (atol + rtol * (p if (p := abs(y{i})) >= (q := abs(z{i})) else q))"
        for i in range(n)
    ]
    total = _pairwise_sum([_Term(f"x{i} * x{i}") for i in range(n)])
    lines += [f"    err = sqrt({total} / {n})", "    return ynew, k3, k4, k5, k6, k7, err"]
    return "\n".join(lines) + "\n"


@functools.cache
def _step_function(n: int):
    """The generated trial step for n components, compiled on first use.

    step(rhs, t, h, y, k1, atol, rtol) returns (ynew, k3, k4, k5, k6, k7,
    err); a non-finite stage makes err non-finite, and an exception of rhs
    propagates.  Its source is registered in linecache, so tracebacks and
    inspect.getsource show it.
    """
    source = _step_source(n)
    filename = f"<ringorbits.integrate step n={n}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(keepends=True), filename)
    namespace = {"__name__": __name__, "sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["step"]


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


def _initial_step(rhs, y0, f0, span, atol, rtol, h_max):
    # Deterministic two-probe heuristic for the first trial step from t = 0.
    # Each RMS norm adds its squares in numpy's pairwise order, as np.mean
    # does.  A probe where the field is not finite, or a derivative whose
    # norm overflows, gets a short first step.
    sc = [atol + rtol * abs(v) for v in y0]

    def rms(v):
        return math.sqrt(_pairwise_sum([(x / s) * (x / s) for x, s in zip(v, sc)]) / len(sc))

    d0 = rms(y0)
    d1 = rms(f0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, h_max)
    if h0 == 0.0:  # d1 overflowed
        return 1e-12 * span
    f1 = rhs(h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = rms([u - f for u, f in zip(f1, f0)]) / h0
    if not math.isfinite(d2):
        return max(h0 * 1e-3, 1e-12 * span)
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** 0.2 if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, span, h_max)


def flow(rhs, y0, t_end: float, config: IntegratorConfig | None = None) -> FlowResult:
    """Integrate y' = rhs(t, y) from t = 0 to t_end >= 0.

    Returns a FlowResult; callers that need a completed flow should chain
    `.require_ok()`.  With config.dense the result carries a DenseOutput
    whose values at accepted step times equal the stored states exactly.
    rhs receives the state as a list of floats and returns a sequence of
    the same length, non-finite where the state is out of its domain.  A
    non-finite end time, initial state or initial derivative raises
    ValueError before any step.
    """
    config = config or IntegratorConfig()
    t_end = float(t_end)
    y = np.asarray(y0, dtype=float).tolist()
    if not all(map(math.isfinite, (t_end, *y))):
        raise ValueError(f"flow needs a finite end time and state, got t_end={t_end!r}, y0={y!r}")
    if t_end < 0:
        raise ValueError("flow integrates forward only (t_end < 0)")
    t = 0.0
    k1 = rhs(t, y)  # an invalid initial state is the caller's error: let it raise
    if not all(map(math.isfinite, k1)):
        raise ValueError(f"vector field is not finite at the initial state: {list(k1)!r}")
    grid, states, steps, stages = [t], array("d", y), array("d"), array("d")  # for dense output
    n_steps = 0
    n_rejected = 0

    def finish(status):
        dense = _dense_output(grid, states, steps, stages) if config.dense else None
        return FlowResult(status, t, np.array(y), n_steps, n_rejected, np.array(k1), dense)

    if t_end == 0:
        return finish(OK)

    atol, rtol = float(config.abs_tol), float(config.rel_tol)
    h_max = float(config.h_max) if config.h_max is not None else t_end / 16.0
    h_max = min(h_max, t_end)
    h_floor = 1e-14 * max(t_end, 1.0)
    step = _step_function(len(y))
    h = min(_initial_step(rhs, y, k1, t_end, atol, rtol, h_max), h_max)

    facold = 1e-4
    rejected = False

    while True:
        if n_steps + n_rejected >= _MAX_STEPS:
            return finish(BUDGET)
        h = min(h, h_max)
        last = t + h >= t_end
        if last:
            h = t_end - t
        ynew, k3, k4, k5, k6, k7, err = step(rhs, t, h, y, k1, atol, rtol)
        if not math.isfinite(err) or not all(map(math.isfinite, ynew)):
            err = math.inf

        if err <= 1.0:
            n_steps += 1
            t = t_end if last else t + h
            if config.dense:
                grid.append(t)
                states.extend(ynew)
                steps.append(h)
                for k in (k1, k3, k4, k5, k6, k7):
                    stages.extend(k)
            y = ynew
            k1 = k7
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
                return finish(SINGULAR)


@dataclass(frozen=True)
class EvalPoint:
    """Flow values at time T used by the shooting residuals.

    The fields follow the state layout: F, Ft are the axial separation and
    its velocity at T, R, Rt the ring radius and radial velocity, Theta the
    accumulated phase, then the a- and b-sensitivity columns (None unless
    augmented).  Rtt and Thetat come from the vector field at the endpoint.
    """

    F: float
    Ft: float
    R: float
    Rt: float
    Theta: float
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
    _: KW_ONLY
    Rtt: float
    Thetat: float


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
    C = params.r0 * a
    if augmented:
        rhs, y0 = make_variational_rhs(params, C), augmented_initial(b, params)
    else:
        rhs, y0 = make_reduced_rhs(params, C), reduced_initial(b, params)
    res = flow(rhs, y0, T, config).require_ok()
    d = res.dy.tolist()
    return EvalPoint(*res.y.tolist(), Rtt=d[3], Thetat=d[4])
