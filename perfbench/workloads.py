"""The benchmark's four workloads along flow -> corrector -> continuation -> reconstruction.

Each workload turns a seed into inputs (`make_inputs`) and runs one pass over
them (`run_pass`).  A pass marks a `Clock` at every operation boundary; the
passes of a workload are deterministic, so the runner can line up the same
segment across passes.  The correctness checks run after the last mark and
are not timed.

Package functions are looked up on their modules at call time
(`orbits.reconstruct`, never a name bound at import), so a tracer that
replaces module attributes sees the benchmark's own calls as well as the
package's internal ones.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ringorbits import continuation, integrate, model, orbits, shoot
from ringorbits.continuation import StepControl, StopRules
from ringorbits.integrate import FlowError, IntegratorConfig
from ringorbits.model import SystemParams
from ringorbits.orbits import ResonanceTarget
from ringorbits.shoot import SeedPoint

INPUTS = Path(__file__).resolve().parent / "inputs"

# The paper's two reference systems.
LIGHT = SystemParams(n=3, m=3.0, M=7.0, r0=11.0)
HEAVY = SystemParams(n=3, m=92.0, M=242.0, r0=11.0)
HEAVY_SEED = (1.84153, 3.79392, 7.31715)

# Criterion 5: the printed (a, b, T) of the resonant members of the light system.
PRINTED_MEMBERS = (
    (ResonanceTarget(3, 4), (0.866953, 0.187583, 29.4405)),
    (ResonanceTarget(4, 5), (0.775642, 0.400635, 32.6636)),
    (ResonanceTarget(1, 1), (0.547954, 0.634946, 41.1787)),
)
# Criterion 6: printed endpoint of the heavy family at its trivial limit.
HEAVY_LIMIT = (5.17965, 5.03224)

CORRECTOR_TOL = 1e-10
SWEEP_DRAWS = 400
EXPORT_SAMPLES_PER_PERIOD = 1024


class Clock:
    """Wall and CPU timestamps at the operation boundaries of one pass.

    `tags` maps a mark index to the point the continuation corrector returned
    there, so accepted branch points can be matched to their marks.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.tags: dict[int, object] = {}

    def mark(self, tag=None) -> int:
        self.marks.append((time.perf_counter(), time.process_time()))
        index = len(self.marks) - 1
        if tag is not None:
            self.tags[index] = tag
        return index


# Bindings whose every return marks the clock: flows and the lift of each
# reconstructed sample cut a pass into short segments, and the corrector's
# returns inside `continue_branch` tell which mark ends which branch point.
MARKED_BINDINGS = (
    (integrate, "flow", False),
    (orbits, "flow", False),
    (orbits, "cartesian_lift", False),
    (continuation, "newton_correct_full", True),
)


@contextmanager
def segment_marks(clock: Clock):
    """Mark the clock at every return of the bindings in MARKED_BINDINGS.

    The wrappers cost about a microsecond per call; a pass makes at most a
    few thousand calls.  A binding that is absent is skipped, and the pass
    is then cut more coarsely.
    """
    saved = []

    def wrap(inner, tagged):
        def marked(*args, **kwargs):
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                clock.mark(result[0] if tagged and result is not None else None)

        return marked

    try:
        for module, attr, tagged in MARKED_BINDINGS:
            inner = getattr(module, attr, None)
            if inner is not None:
                saved.append((module, attr, inner))
                setattr(module, attr, wrap(inner, tagged))
        yield
    finally:
        for module, attr, inner in reversed(saved):
            setattr(module, attr, inner)


@dataclass
class PassOutput:
    """What one pass did, for timing and for the correctness checks.

    ops holds (first, last) mark indices of each operation, op_ok whether it
    passed its checks and op_kind "point" for branch points; checks holds the
    pass-level verdicts (a failed one fails every operation of the pass) and
    values the result floats for the digest.
    """

    ops: list[tuple[int, int]] = field(default_factory=list)
    op_ok: list[bool] = field(default_factory=list)
    op_kind: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    values: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add_op(self, first: int, last: int, ok: bool, kind: str = "op") -> None:
        self.ops.append((first, last))
        self.op_ok.append(bool(ok))
        self.op_kind.append(kind)

    def digest(self) -> str:
        h = hashlib.sha256()
        for v in self.values:
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())
        return h.hexdigest()[:16]


def _increasing_b(point: SeedPoint, params: SystemParams, cfg: IntegratorConfig) -> int:
    unit, _ = continuation.tangent(point, params, cfg)
    return 1 if unit[1] > 0 else -1


def _branch_ops(out: PassOutput, clock: Clock, branch, begin: int, end: int) -> None:
    """One operation per accepted branch point, from the previous acceptance
    (or the start of the call) to the corrector return that produced it; a
    point with no mark of its own (the refined b = 0 endpoint) ends at `end`."""
    tagged = sorted(clock.tags.items())
    prev = begin
    for bp in branch.points[1:]:
        idx = next((i for i, p in tagged if i > prev and i <= end and p is bp.point), end)
        out.add_op(prev, idx, bp.point.residual <= CORRECTOR_TOL, kind="point")
        prev = idx
    out.values.append([v for bp in branch.points for v in (*bp.point.vector(), bp.point.theta)])


def _conservation(diag: dict) -> float:
    return max(diag["energy_drift"], diag["momentum_max"], diag["com_max"], diag["lz_drift"])


# -- light_pipeline --------------------------------------------------------


def light_inputs(seed: int) -> dict:
    return {"params": LIGHT, "guess": SeedPoint(a=LIGHT.a0, b=0.05, T=LIGHT.T0)}


def light_pass(inputs: dict, clock: Clock, workdir: Path) -> PassOutput:
    P, cfg = inputs["params"], IntegratorConfig()
    out = PassOutput()
    m0 = clock.mark()
    start = shoot.newton_correct(inputs["guess"], P, cfg, tol=1e-12)
    direction = _increasing_b(start, P, cfg)
    m1 = clock.mark()
    branch = continuation.continue_branch(
        start, direction, P, cfg, step=StepControl(), stop=StopRules(T_max=42.0)
    )
    m2 = clock.mark()
    members, member_marks = [], [m2]
    for target, _ in PRINTED_MEMBERS:
        members.append(orbits.find_resonance(branch, target, cfg))
        member_marks.append(clock.mark())
    k_strict, _ = orbits.closure_order(PRINTED_MEMBERS[-1][0], P.n)
    traj = orbits.reconstruct(members[-1], P, periods=k_strict, config=cfg)
    clock.mark()

    out.add_op(m0, m1, start.residual <= 1e-12)
    _branch_ops(out, clock, branch, m1, m2)
    diag = traj.diagnostics
    orbit_ok = diag["closure_error"] < 1e-6 and _conservation(diag) < 1e-9
    for i, (member, (_, printed)) in enumerate(zip(members, PRINTED_MEMBERS)):
        ok = float(np.max(np.abs(member.vector() - np.array(printed)))) < 1e-2
        if i == len(members) - 1:
            ok = ok and orbit_ok
        out.add_op(member_marks[i], member_marks[i + 1], ok)
        out.values.append([*member.vector(), member.theta])
    out.checks["branch reaches T_max"] = branch.termination == continuation.TERM_BOUND
    out.values.append([diag[k] for k in sorted(diag)])
    out.values.append(traj.positions)
    out.info = {"points": len(branch.points), "closure_error": diag["closure_error"],
                "conservation": _conservation(diag)}
    return out


# -- heavy_family ----------------------------------------------------------


def heavy_inputs(seed: int) -> dict:
    a, b, T = HEAVY_SEED
    return {"params": HEAVY, "guess": SeedPoint(a=a, b=b, T=T)}


def heavy_pass(inputs: dict, clock: Clock, workdir: Path) -> PassOutput:
    Q, cfg = inputs["params"], IntegratorConfig()
    out = PassOutput()
    m0 = clock.mark()
    q0 = shoot.newton_correct(inputs["guess"], Q, cfg, tol=1e-12)
    up = _increasing_b(q0, Q, cfg)
    m1 = clock.mark()
    to_limit = continuation.continue_branch(q0, -up, Q, cfg)
    m2 = clock.mark()
    to_collision = continuation.continue_branch(q0, up, Q, cfg, stop=StopRules(max_points=60))
    m3 = clock.mark()
    limit = continuation.classify_endpoint(to_limit)
    collision = continuation.classify_endpoint(to_collision)
    clock.mark()

    out.add_op(m0, m1, q0.residual <= 1e-12)
    _branch_ops(out, clock, to_limit, m1, m2)
    end = to_limit.end
    out.checks["trivial limit at the printed endpoint"] = (
        limit.label == "trivial-limit"
        and abs(end.a - HEAVY_LIMIT[0]) < 5e-3
        and abs(end.T - HEAVY_LIMIT[1]) < 5e-3
        and abs(end.T - Q.T0) < 5e-3
    )
    _branch_ops(out, clock, to_collision, m2, m3)
    out.checks["collision label"] = collision.label == "collision"
    out.info = {
        "limit": [limit.label, len(to_limit.points)],
        "collision": [collision.label, len(to_collision.points)],
    }
    return out


# -- param_sweep -----------------------------------------------------------


def _draw(u) -> tuple[SystemParams, float, float, float]:
    """Map a point of the unit 7-cube onto the ranges of criterion 8."""
    params = SystemParams(
        n=2 + min(int(4 * u[0]), 3),
        m=0.1 + 299.9 * u[1],
        M=0.1 + 299.9 * u[2],
        r0=1.0 + 19.0 * u[3],
    )
    a = params.a0 * (0.7 + 0.6 * u[4])
    b = 5.0 * u[5]
    T = min(max((0.25 + 0.75 * u[6]) * params.T0, 0.5), 12.0)
    return params, float(a), float(b), float(T)


def sweep_inputs(seed: int) -> dict:
    """Latin-hypercube draws, so every seed covers the ranges evenly and the
    work per pass varies little between seeds; collided draws are replaced
    from a reserve of plain uniform draws."""
    rng = np.random.default_rng(seed)
    strata = np.array([rng.permutation(SWEEP_DRAWS) for _ in range(7)]).T
    cube = (strata + rng.uniform(size=(SWEEP_DRAWS, 7))) / SWEEP_DRAWS
    reserve = rng.uniform(size=(SWEEP_DRAWS, 7))
    return {"draws": [_draw(u) for u in cube], "reserve": [_draw(u) for u in reserve]}


def sweep_pass(inputs: dict, clock: Clock, workdir: Path) -> PassOutput:
    cfg = IntegratorConfig()
    out = PassOutput()
    reserve = iter(inputs["reserve"])
    done = []
    redraws = 0
    prev = clock.mark()
    for draw in inputs["draws"]:
        while True:
            params, a, b, T = draw
            try:
                ev = integrate.eval_at(a, b, T, params, cfg, augmented=True)
            except FlowError:
                prev = clock.mark()
                redraws += 1
                draw = next(reserve)
                continue
            done.append((draw, ev, prev, clock.mark()))
            prev = done[-1][3]
            break
    for (params, a, b, T), ev, first, last in done:
        C = params.r0 * a
        e0 = model.reduced_energy(model.reduced_initial(b, params), params, C)
        e1 = model.reduced_energy(np.array([ev.F, ev.Ft, ev.R, ev.Rt, ev.Theta]), params, C)
        out.add_op(first, last, abs(e1 - e0) / max(abs(e0), 1.0) < 1e-9)
        out.values.append([ev.F, ev.Ft, ev.R, ev.Rt, ev.Theta, ev.Fa, ev.Ra, ev.Fb, ev.Rb])
    out.info = {"redraws": redraws, "redraw_frac": redraws / (redraws + len(done))}
    return out


# -- orbit_export ----------------------------------------------------------


def export_inputs(seed: int) -> dict:
    with open(INPUTS / "members.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    return {
        "params": SystemParams.from_dict(payload["params"]),
        "members": [
            (ResonanceTarget(m["n1"], m["n2"]), SeedPoint.from_dict(m["point"]))
            for m in payload["members"]
        ],
    }


def _csv_matches(path: Path, traj) -> bool:
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    n_bodies = traj.positions.shape[1]
    expect = np.concatenate(
        [
            np.repeat(traj.times, n_bodies)[:, None],
            np.tile(np.arange(n_bodies, dtype=float), len(traj.times))[:, None],
            traj.positions.reshape(-1, 3),
            traj.velocities.reshape(-1, 3),
        ],
        axis=1,
    )
    return rows.shape == expect.shape and np.array_equal(rows, expect)


def _json_matches(path: Path, traj) -> bool:
    back = orbits.load_trajectory(path)
    return (
        all(
            np.array_equal(getattr(back, k), getattr(traj, k))
            for k in ("times", "positions", "velocities", "masses")
        )
        and back.diagnostics == traj.diagnostics
        and back.source == traj.source
    )


def export_pass(inputs: dict, clock: Clock, workdir: Path) -> PassOutput:
    P, cfg = inputs["params"], IntegratorConfig()
    out = PassOutput()
    written = []
    prev = clock.mark()
    for target, point in inputs["members"]:
        k_strict, _ = orbits.closure_order(target, P.n)
        traj = orbits.reconstruct(
            point, P, periods=k_strict, samples_per_period=EXPORT_SAMPLES_PER_PERIOD, config=cfg
        )
        paths = {fmt: workdir / f"{target.tag}.{fmt}" for fmt in ("csv", "json")}
        for fmt, path in paths.items():
            orbits.export(traj, fmt, path)
        last = clock.mark()
        written.append((traj, paths, prev, last))
        prev = last
    size = 0
    for traj, paths, first, last in written:
        diag = traj.diagnostics
        ok = (
            diag["closure_error"] < 1e-6
            and _conservation(diag) < 1e-9
            and _csv_matches(paths["csv"], traj)
            and _json_matches(paths["json"], traj)
        )
        out.add_op(first, last, ok)
        h = hashlib.sha256()
        for path in paths.values():
            data = path.read_bytes()
            size += len(data)
            h.update(data)
        out.values.append(np.frombuffer(h.digest(), dtype=np.uint8))
        out.values.append([diag[k] for k in sorted(diag)])
    out.info = {"export_bytes": size}
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    run_pass: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("light_pipeline", light_inputs, light_pass),
        Workload("heavy_family", heavy_inputs, heavy_pass),
        Workload("param_sweep", sweep_inputs, sweep_pass),
        Workload("orbit_export", export_inputs, export_pass),
    )
}
