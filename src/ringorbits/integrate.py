"""Adaptive Dormand-Prince 8(5,3) integration (Hairer's DOP853) with dense output.

A fixed explicit tableau keeps runs bit-reproducible: the same inputs on the
same build always produce the same floats.  The step is the eighth-order
solution of Hairer's `dop853.f`, its error estimate err5^2 / sqrt(err5^2 +
0.01 err3^2) from the embedded fifth- and third-order solutions, and its
controller that of `dop853.f` with Lund stabilisation (h scales with
facold^beta / err^(1/8 - 0.2 beta), beta 0.06, safety 0.85, by a factor in
[0.333, 6]).  The continuous extension is the pair's seventh-order
interpolant; its three extra stages per step are paid only with dense output.

The step runs on Python floats, not on numpy arrays: the systems here have
5 or 15 components, and at that size numpy's per-call overhead costs more
than the arithmetic.  The trial step is generated as source on first use
(`_step_function`), with every component of every stage written out on
local variables: a third cheaper per step than loops over lists.  Each
stage's sums are written once: the step of a state dimension passes them
to rhs in one call, and the step of a `model` field (rhs.func.field, its
constants rhs.args) assigns them to the field's inputs and writes its lines
inline in stages 2 to 12.  Each component is computed with the operations
numpy applies to whole vectors, in the same order (left-to-right stage
sums, then the product with h, then the sum with y), and the error norms
add their squares left to right, so the floats are those of the array form
in the tests bit for bit, inline or called.  `model._compile` registers
the generated source in linecache, so tracebacks and inspect show it.
Dense output keeps each accepted state, step size and stage as raw doubles
and builds the interpolants of all steps when the flow ends.

`flow` integrates forward from t = 0 and clamps the final step onto t_end
exactly.  A trial step fails when its error estimate, its new state or the
field there is not finite, which is how a right-hand side reports a
collision inside the step: it returns NaN (the fields of `model` do so
below the ring-collapse floor, where a stage written inline gives a NaN
error).  A failed trial is retried at a third of the step until the step
falls below 1e-14*max(1, t_end); the flow then stops with status
"singular" at the last accepted time.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .model import (
    SystemParams,
    _compile,
    _real,
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
    "eval_at",
    "OK",
    "SINGULAR",
    "BUDGET",
]

OK = "ok"
SINGULAR = "singular"
BUDGET = "budget-exceeded"

# Hairer's DOP853 tableau, transcribed from dop853.f.  _STAGE_ROWS holds
# (c_s, ((j, a_sj), ...)) for the stages s = 2, ..., 12 of a trial step;
# _SOLUTION_ROW the eighth-order weights b_j; _ERROR5_ROW the differences
# b_j - bhat_j to the embedded fifth-order weights; _ORDER3_ROW the weights
# of the embedded third-order solution.  Stage 13 is the field at the new
# state, the first stage of the next step.
_STAGE_ROWS = (
    (5.26001519587677318785587544488e-2, ((1, 5.26001519587677318785587544488e-2),)),
    (7.89002279381515978178381316732e-2, (
        (1, 1.97250569845378994544595329183e-2), (2, 5.91751709536136983633785987549e-2))),
    (1.18350341907227396726757197510e-1, (
        (1, 2.95875854768068491816892993775e-2), (3, 8.87627564304205475450678981324e-2))),
    (2.81649658092772603273242802490e-1, (
        (1, 2.41365134159266685502369798665e-1), (3, -8.84549479328286085344864962717e-1),
        (4, 9.24834003261792003115737966543e-1))),
    (3.33333333333333333333333333333e-1, (
        (1, 3.7037037037037037037037037037e-2), (4, 1.70828608729473871279604482173e-1),
        (5, 1.25467687566822425016691814123e-1))),
    (0.25, (
        (1, 3.7109375e-2), (4, 1.70252211019544039314978060272e-1),
        (5, 6.02165389804559606850219397283e-2), (6, -1.7578125e-2))),
    (3.07692307692307692307692307692e-1, (
        (1, 3.70920001185047927108779319836e-2), (4, 1.70383925712239993810214054705e-1),
        (5, 1.07262030446373284651809199168e-1), (6, -1.53194377486244017527936158236e-2),
        (7, 8.27378916381402288758473766002e-3))),
    (6.51282051282051282051282051282e-1, (
        (1, 6.24110958716075717114429577812e-1), (4, -3.36089262944694129406857109825),
        (5, -8.68219346841726006818189891453e-1), (6, 2.75920996994467083049415600797e1),
        (7, 2.01540675504778934086186788979e1), (8, -4.34898841810699588477366255144e1))),
    (0.6, (
        (1, 4.77662536438264365890433908527e-1), (4, -2.48811461997166764192642586468),
        (5, -5.90290826836842996371446475743e-1), (6, 2.12300514481811942347288949897e1),
        (7, 1.52792336328824235832596922938e1), (8, -3.32882109689848629194453265587e1),
        (9, -2.03312017085086261358222928593e-2))),
    (8.57142857142857142857142857142e-1, (
        (1, -9.3714243008598732571704021658e-1), (4, 5.18637242884406370830023853209),
        (5, 1.09143734899672957818500254654), (6, -8.14978701074692612513997267357),
        (7, -1.85200656599969598641566180701e1), (8, 2.27394870993505042818970056734e1),
        (9, 2.49360555267965238987089396762), (10, -3.0467644718982195003823669022))),
    (1.0, (
        (1, 2.27331014751653820792359768449), (4, -1.05344954667372501984066689879e1),
        (5, -2.00087205822486249909675718444), (6, -1.79589318631187989172765950534e1),
        (7, 2.79488845294199600508499808837e1), (8, -2.85899827713502369474065508674),
        (9, -8.87285693353062954433549289258), (10, 1.23605671757943030647266201528e1),
        (11, 6.43392746015763530355970484046e-1))),
)
_SOLUTION_ROW = (
    (1, 5.42937341165687622380535766363e-2), (6, 4.45031289275240888144113950566),
    (7, 1.89151789931450038304281599044), (8, -5.8012039600105847814672114227),
    (9, 3.1116436695781989440891606237e-1), (10, -1.52160949662516078556178806805e-1),
    (11, 2.01365400804030348374776537501e-1), (12, 4.47106157277725905176885569043e-2),
)
_ERROR5_ROW = (
    (1, 1.312004499419488073250102996e-2), (6, -1.225156446376204440720569753),
    (7, -4.957589496572501915214079952e-1), (8, 1.664377182454986536961530415),
    (9, -3.503288487499736816886487290e-1), (10, 3.341791187130174790297318841e-1),
    (11, 8.192320648511571246570742613e-2), (12, -2.235530786388629525884427845e-2),
)
_ORDER3_ROW = (
    (1, 2.44094488188976377952755905512e-1), (9, 7.33846688281611857341361741547e-1),
    (12, 2.20588235294117647058823529412e-2),
)
# The seventh-order continuous extension: stages 14 to 16 in the layout of
# _STAGE_ROWS (stage 13 is the field at the new state), and the rows d_4 to
# d_7 of its coefficients over the stages 1 and 6 to 16.
_DENSE_STAGE_ROWS = (
    (0.1, (
        (1, 5.61675022830479523392909219681e-2), (7, 2.53500210216624811088794765333e-1),
        (8, -2.46239037470802489917441475441e-1), (9, -1.24191423263816360469010140626e-1),
        (10, 1.5329179827876569731206322685e-1), (11, 8.20105229563468988491666602057e-3),
        (12, 7.56789766054569976138603589584e-3), (13, -8.298e-3))),
    (0.2, (
        (1, 3.18346481635021405060768473261e-2), (6, 2.83009096723667755288322961402e-2),
        (7, 5.35419883074385676223797384372e-2), (8, -5.49237485713909884646569340306e-2),
        (11, -1.08347328697249322858509316994e-4), (12, 3.82571090835658412954920192323e-4),
        (13, -3.40465008687404560802977114492e-4), (14, 1.41312443674632500278074618366e-1))),
    (7.77777777777777777777777777778e-1, (
        (1, -4.28896301583791923408573538692e-1), (6, -4.69762141536116384314449447206),
        (7, 7.68342119606259904184240953878), (8, 4.06898981839711007970213554331),
        (9, 3.56727187455281109270669543021e-1), (13, -1.39902416515901462129418009734e-3),
        (14, 2.9475147891527723389556272149), (15, -9.15095847217987001081870187138))),
)
_DENSE_ROWS = (
    (
        (1, -8.4289382761090128651353491142), (6, 5.6671495351937776962531783590e-1),
        (7, -3.0689499459498916912797304727), (8, 2.3846676565120698287728149680),
        (9, 2.1170345824450282767155149946), (10, -8.7139158377797299206789907490e-1),
        (11, 2.2404374302607882758541771650), (12, 6.3157877876946881815570249290e-1),
        (13, -8.8990336451333310820698117400e-2), (14, 1.8148505520854727256656404962e1),
        (15, -9.1946323924783554000451984436), (16, -4.4360363875948939664310572000),
    ),
    (
        (1, 1.0427508642579134603413151009e1), (6, 2.4228349177525818288430175319e2),
        (7, 1.6520045171727028198505394887e2), (8, -3.7454675472269020279518312152e2),
        (9, -2.2113666853125306036270938578e1), (10, 7.7334326684722638389603898808),
        (11, -3.0674084731089398182061213626e1), (12, -9.3321305264302278729567221706),
        (13, 1.5697238121770843886131091075e1), (14, -3.1139403219565177677282850411e1),
        (15, -9.3529243588444783865713862664), (16, 3.5816841486394083752465898540e1),
    ),
    (
        (1, 1.9985053242002433820987653617e1), (6, -3.8703730874935176555105901742e2),
        (7, -1.8917813819516756882830838328e2), (8, 5.2780815920542364900561016686e2),
        (9, -1.1573902539959630126141871134e1), (10, 6.8812326946963000169666922661),
        (11, -1.0006050966910838403183860980), (12, 7.7771377980534432092869265740e-1),
        (13, -2.7782057523535084065932004339), (14, -6.0196695231264120758267380846e1),
        (15, 8.4320405506677161018159903784e1), (16, 1.1992291136182789328035130030e1),
    ),
    (
        (1, -2.5693933462703749003312586129e1), (6, -1.5418974869023643374053993627e2),
        (7, -2.3152937917604549567536039109e2), (8, 3.5763911791061412378285349910e2),
        (9, 9.3405324183624310003907691704e1), (10, -3.7458323136451633156875139351e1),
        (11, 1.0409964950896230045147246184e2), (12, 2.9840293426660503123344363579e1),
        (13, -4.3533456590011143754432175058e1), (14, 9.6324553959188282948394950600e1),
        (15, -3.9177261675615439165231486172e1), (16, -1.4972683625798562581422125276e2),
    ),
)

_SAFETY = 0.85
_BETA = 0.06
_EXPO1 = 0.125 - 0.2 * _BETA  # 1/8 for the eighth-order solution
_MAX_GROW = 6.0
_MAX_SHRINK = 0.333
# Accepted plus rejected trial steps after which a flow stops as BUDGET.
_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, step ceiling and dense output for `flow`; each real is stored as a float (`model._real`).

    rel_tol and abs_tol lie in (0, 1e-3].  h_max, finite and positive, defaults to one sixteenth of the
    span when left None, which keeps the controller from striding over a full oscillation of the axial mode.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    h_max: float | None = None
    dense: bool = False

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            v = _real(name, getattr(self, name), "positive")
            if v > 1e-3:
                raise ValueError(f"{name} must lie in (0, 1e-3], got {v!r}")
            object.__setattr__(self, name, v)
        if self.h_max is not None:
            object.__setattr__(self, "h_max", _real("h_max", self.h_max, "positive"))


class DenseOutput:
    """Per-step interpolants of degree 7 of an accepted integration.

    states holds the state at every grid time, shape (steps + 1, dim), and
    rcont the eight coefficients of every step, shape (steps, 8, dim).
    Evaluation at a stored step boundary returns the accepted state
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
        s = ((t - grid[i]) / (grid[i + 1] - grid[i]))[:, None]
        s1 = 1.0 - s
        r1, r2, r3, r4, r5, r6, r7, r8 = self._rcont[i].transpose(1, 0, 2)
        out[~hit] = r1 + s * (r2 + s1 * (r3 + s * (r4 + s1 * (r5 + s * (r6 + s1 * (r7 + s * r8))))))
        return out


def _component(i: int) -> property:
    return property(lambda self: float(self.y[i]), doc=f"y[{i}] as a float")


@dataclass
class FlowResult:
    """Outcome of one call to `flow`.

    On a flow of `eval_at`, y is the state (F, Ft, R, Rt, Theta): the axial
    separation and its velocity, the ring radius and its radial velocity,
    and the accumulated phase; an augmented flow appends the a- and
    b-sensitivity columns, 15 components in all.  Each component reads by
    its name as a float; on a plain flow the sensitivity names raise
    IndexError.
    """

    status: str
    t: float
    y: np.ndarray
    n_steps: int
    n_rejected: int
    dy: np.ndarray  # the vector field at (t, y)
    dense: DenseOutput | None = None

    F, Ft, R, Rt, Theta, Fa, Fta, Ra, Rta, Tha, Fb, Ftb, Rb, Rtb, Thb = map(_component, range(15))

    def require_ok(self) -> "FlowResult":
        if self.status != OK:
            raise FlowError(self, f"integration stopped with status {self.status!r} at t={self.t!r}")
        return self


class FlowError(RuntimeError):
    """Raised when a flow needed by a calling algorithm did not finish; `reason` is its status."""

    def __init__(self, result: FlowResult, message: str):
        super().__init__(message)
        self.result = result
        self.reason = result.status


def _step_source(n: int, field=None) -> str:
    """Source of one DOP853 trial step on n components, written out per component.

    Every stage sum runs left to right, then takes the product with h and
    the sum with y, as the array expressions y + h * (a1 * k1 + ...) do;
    the squared scaled errors are added left to right.  A `model` field
    is written into stages 2 to 12; below its floor the error is NaN.
    """

    def combo(row, i):
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in row)

    def unpack(name, source):
        return f"    {''.join(f'{name}{i}, ' for i in range(n))}= {source}"

    constants = f"{field.constants}, " if field else ""
    lines = [f"def step({constants}rhs, t, h, y, k1, atol, rtol):", unpack("y", "y"), unpack("k1_", "k1")]
    for s, (c, row) in enumerate(_STAGE_ROWS, start=2):
        sums = [f"y{i} + h * ({combo(row, i)})" for i in range(n)]
        if field:
            lines += [f"    {v} = {x}" for v, x in zip(field.inputs, sums) if v]
            lines += [f"    if {field.floor}:", "        return None, nan, None"]
            lines += [f"    {line}" for line in field.lines]
            lines += [f"    k{s}_{i} = {v}" for i, v in enumerate(field.outputs)]
        else:
            lines.append(unpack(f"k{s}_", f"rhs(t + {c!r} * h, [{', '.join(sums)}])"))
    # d is the eighth-order increment; e and g are the differences to the
    # fifth- and third-order solutions, over atol + rtol * max(|y|, |ynew|)
    for i in range(n):
        lines += [
            f"    d{i} = {combo(_SOLUTION_ROW, i)}",
            f"    z{i} = y{i} + h * d{i}",
            f"    s{i} = atol + rtol * (p if (p := abs(y{i})) >= (q := abs(z{i})) else q)",
            f"    e{i} = ({combo(_ERROR5_ROW, i)}) / s{i}",
            f"    g{i} = (d{i} - ({combo(_ORDER3_ROW, i)})) / s{i}",
        ]
    for total, v in (("err5", "e"), ("err3", "g")):
        lines.append(f"    {total} = {' + '.join(f'{v}{i} * {v}{i}' for i in range(n))}")
    kept = [f"({''.join(f'k{s}_{i}, ' for i in range(n))})" for s in range(6, 13)]
    lines += [
        "    deno = (err5 + 0.01 * err3) or 1.0",
        f"    err = h * err5 / sqrt({n} * deno)",
        f"    return [{', '.join(f'z{i}' for i in range(n))}], err, ({', '.join(kept)})",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _step_function(n: int, field=None):
    """The generated trial step for n components, compiled on first use.

    step(rhs, t, h, y, k1, atol, rtol) returns (ynew, err, (k6, ..., k12)),
    the stages that dense output keeps, each a tuple of components; a
    non-finite stage makes err non-finite, and an exception of rhs
    propagates.  The step of a `model` field takes its constants first, as
    the field's function does, and never calls rhs.
    """
    return _compile(_step_source(n, field), f"<ringorbits.integrate step n={n}{' fused' if field else ''}>", "step")


def _dense_output(rhs, grid, states, steps, stages) -> DenseOutput:
    """Interpolant coefficients of every accepted step, computed as arrays once.

    stages holds k1 and k6 to k13 of every step; the stages 14 to 16 that
    only the interpolant needs are called here.
    """
    y = np.array(states).reshape(len(grid), -1)
    h = np.array(steps).reshape(-1, 1)
    k = dict(zip((1, *range(6, 14)), np.array(stages).reshape(-1, 9, y.shape[1]).transpose(1, 0, 2)))
    for s, (c, row) in enumerate(_DENSE_STAGE_ROWS, start=14):
        args = (y[:-1] + h * sum(a * k[j] for j, a in row)).tolist()
        k[s] = np.array([rhs(t + c * dt, v) for t, dt, v in zip(grid, steps, args)]).reshape(y[1:].shape)
    ydiff = y[1:] - y[:-1]
    bspl = h * k[1] - ydiff
    rcont = [y[:-1], ydiff, bspl, ydiff - h * k[13] - bspl]
    rcont += [h * sum(d * k[j] for j, d in row) for row in _DENSE_ROWS]
    return DenseOutput(np.array(grid), y, np.stack(rcont, axis=1))


def _initial_step(rhs, y0, f0, span, atol, rtol, h_max):
    # Deterministic two-probe heuristic for the first trial step from t = 0.
    # Each RMS norm adds its squares left to right.  A probe where the field
    # is not finite, or a derivative whose norm overflows, gets a short first
    # step.  flow passes h_max <= span, so h_max alone caps the step.
    sc = [atol + rtol * abs(v) for v in y0]

    def rms(v):
        total = 0.0
        for x, s in zip(v, sc):
            total += (x / s) * (x / s)
        return math.sqrt(total / len(sc))

    d0 = rms(y0)
    d1 = rms(f0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_max)
    if h0 == 0.0:  # d1 overflowed
        return 1e-12 * span
    f1 = rhs(h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = rms([u - f for u, f in zip(f1, f0)]) / h0
    if not math.isfinite(d2):
        return max(h0 * 1e-3, 1e-12 * span)
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** 0.125 if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, h_max)


def flow(rhs, y0, t_end: float, config: IntegratorConfig | None = None) -> FlowResult:
    """Integrate y' = rhs(t, y) from t = 0 to t_end >= 0.

    Returns a FlowResult; callers that need a completed flow should chain
    `.require_ok()`.  With config.dense the result carries a DenseOutput
    whose values at accepted step times equal the stored states exactly.
    rhs receives the state as a list of floats and returns a sequence of
    the same length, non-finite where the state is out of its domain.  A
    negative or non-finite end time, an empty or non-finite initial state, or
    an initial derivative not finite or of another length raises ValueError before any step.
    """
    config = config or IntegratorConfig()
    t_end = float(t_end)
    y = np.asarray(y0, dtype=float).tolist()
    if not y or not all(map(math.isfinite, (t_end, *y))):
        raise ValueError(f"flow needs a finite end time and a nonempty finite state, got t_end={t_end!r}, y0={y!r}")
    if t_end < 0:
        raise ValueError("flow integrates forward only (t_end < 0)")
    t = 0.0
    k1 = rhs(t, y)  # an invalid initial state is the caller's error: let it raise
    if len(k1) != len(y):
        raise ValueError(f"vector field has {len(k1)} components at a state of {len(y)}")
    if not all(map(math.isfinite, k1)):
        raise ValueError(f"vector field is not finite at the initial state: {list(k1)!r}")
    grid, states, steps, stages = [t], array("d", y), array("d"), array("d")  # for dense output
    n_steps = 0
    n_rejected = 0

    def finish(status):
        dense = _dense_output(rhs, grid, states, steps, stages) if config.dense else None
        return FlowResult(status, t, np.array(y), n_steps, n_rejected, np.array(k1), dense)

    if t_end == 0:
        return finish(OK)

    atol, rtol = config.abs_tol, config.rel_tol
    h_max = min(config.h_max if config.h_max is not None else t_end / 16.0, t_end)
    h_floor = 1e-14 * max(t_end, 1.0)
    field = getattr(getattr(rhs, "func", None), "field", None)  # a field of `model` is written into the step
    step = functools.partial(_step_function(len(y), field), *rhs.args) if field else _step_function(len(y))
    h = _initial_step(rhs, y, k1, t_end, atol, rtol, h_max)

    facold = 1e-4
    rejected = False

    while True:
        if n_steps + n_rejected >= _MAX_STEPS:
            return finish(BUDGET)
        h = min(h, h_max)
        last = t + h >= t_end
        if last:
            h = t_end - t
        ynew, err, kept = step(rhs, t, h, y, k1, atol, rtol)
        t_new = t_end if last else t + h
        if not math.isfinite(err) or not all(map(math.isfinite, ynew)):
            err = math.inf
        if err <= 1.0:
            k13 = rhs(t_new, ynew)
            if not all(map(math.isfinite, k13)):
                err = math.inf
        fac = err**_EXPO1 / _SAFETY

        if err <= 1.0:
            n_steps += 1
            t = t_new
            if config.dense:
                grid.append(t)
                states.extend(ynew)
                steps.append(h)
                for k in (k1, *kept, k13):
                    stages.extend(k)
            y = ynew
            k1 = k13
            if last:
                return finish(OK)
            hnew = h / max(1.0 / _MAX_GROW, min(1.0 / _MAX_SHRINK, fac / facold**_BETA))
            if rejected:
                hnew = min(hnew, h)
                rejected = False
            facold = max(err, 1e-4)
            h = hnew
        else:
            n_rejected += 1
            rejected = True
            h /= min(1.0 / _MAX_SHRINK, fac)
            if h < h_floor:
                return finish(SINGULAR)


def eval_at(
    a: float,
    b: float,
    T: float,
    params: SystemParams,
    config: IntegratorConfig | None = None,
    augmented: bool = False,
) -> FlowResult:
    """Flow the symmetric initial condition (0, b, r0, 0, 0) for time T.

    The angular parameter a enters through the momentum C = r0*a.  With
    augmented=True the flow carries the sensitivity columns w.r.t. a and b.
    Returns the completed flow; FlowError if it stopped early, and
    ValueError from `flow` before any step for T < 0.
    """
    C = params.r0 * a
    if augmented:
        rhs, y0 = make_variational_rhs(params, C), augmented_initial(b, params)
    else:
        rhs, y0 = make_reduced_rhs(params, C), reduced_initial(b, params)
    return flow(rhs, y0, T, config).require_ok()
