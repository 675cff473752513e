"""Span tracer that wraps ringorbits' public functions from outside the package.

Package modules bind each other's functions by name at import, so a wrapper
has to replace the name in every module that calls the function: the table
below lists each binding with the layer it belongs to.  Spans (name, start,
end, parent) stay in memory; a layer's self time is its spans' durations
minus the time their child spans cover, and minus the vector-field and lift
time spent directly inside them, which is the `model` layer's time.

The vector-field closures are not spans: the factories are wrapped so that
the closures they return count and time each call, which keeps the tracer's
cost near half a microsecond per call.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

from ringorbits import continuation, integrate, orbits, shoot

MODULES = {"integrate": integrate, "shoot": shoot, "continuation": continuation, "orbits": orbits}

# (module, attribute, layer) of every binding that opens a span.
SPAN_BINDINGS = (
    ("integrate", "flow", "integrate"),
    ("orbits", "flow", "integrate"),
    ("integrate", "eval_at", "integrate"),
    ("shoot", "eval_at", "integrate"),
    ("shoot", "desing_eval", "shoot"),
    ("continuation", "desing_eval", "shoot"),
    ("shoot", "newton_correct", "shoot"),
    ("shoot", "newton_correct_full", "shoot"),
    ("continuation", "newton_correct_full", "shoot"),
    ("continuation", "newton_correct", "shoot"),
    ("orbits", "newton_correct", "shoot"),
    ("continuation", "continue_branch", "continuation"),
    ("continuation", "tangent", "continuation"),
    ("continuation", "classify_endpoint", "continuation"),
    ("orbits", "find_resonance", "orbits"),
    ("orbits", "reconstruct", "orbits"),
    ("orbits", "export", "orbits"),
)
# Vector-field factories: the closures they return are counted and timed.
RHS_BINDINGS = (
    ("integrate", "make_reduced_rhs", "reduced"),
    ("integrate", "make_variational_rhs", "variational"),
    ("orbits", "make_reduced_rhs", "reduced"),
)
# Cartesian lift and conservation diagnostics as imported into `orbits`.
LIFT_BINDINGS = tuple(
    ("orbits", name)
    for name in (
        "cartesian_lift",
        "cartesian_energy",
        "center_of_mass",
        "total_momentum",
        "total_angular_momentum",
    )
)
# `bifurcate` is closed-form and costs microseconds: only its calls are counted.
COUNT_BINDINGS = (("continuation", "bifurcation_point"),)

LAYERS = ("model", "integrate", "shoot", "continuation", "orbits")
FAILURE_CLASSES = ("ConvergenceError", "FlowError")


class _Frame:
    __slots__ = (
        "id", "name", "layer", "site", "parent", "start",
        "child", "model", "flows", "evals", "attempts", "returned",
    )

    def __init__(self, span_id, name, layer, site, parent):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.site = site
        self.parent = parent
        self.start = 0.0
        self.child = 0.0
        self.model = 0.0
        self.flows = 0
        self.evals = 0
        self.attempts = 0
        self.returned = []


class Tracer:
    """Records spans and vector-field counters while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[_Frame] = []
        self.rhs = {"reduced": [0, 0.0], "variational": [0, 0.0]}
        self.lift = {name: [0, 0.0] for _, name in LIFT_BINDINGS}
        self.counts = {f"{mod}.{name}": 0 for mod, name in COUNT_BINDINGS}
        self.missing: list[str] = []
        self.origin = time.perf_counter()
        self._next_id = 0

    @contextmanager
    def installed(self):
        """Replace every binding in the tables, and put them back on exit."""
        saved = []
        wrappers = (
            [(m, a, self._span_wrapper(a, layer, m)) for m, a, layer in SPAN_BINDINGS]
            + [(m, a, self._rhs_factory_wrapper(kind)) for m, a, kind in RHS_BINDINGS]
            + [(m, a, self._lift_wrapper(a)) for m, a in LIFT_BINDINGS]
            + [(m, a, self._count_wrapper(f"{m}.{a}")) for m, a in COUNT_BINDINGS]
        )
        try:
            for mod_name, attr, make in wrappers:
                mod = MODULES[mod_name]
                inner = getattr(mod, attr, None)
                if inner is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, inner))
                setattr(mod, attr, make(inner))
            yield self
        finally:
            for mod, attr, inner in reversed(saved):
                setattr(mod, attr, inner)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, layer, site):
        tracer = self
        perf = time.perf_counter

        def make(inner):
            def traced(*args, **kwargs):
                stack = tracer.stack
                frame = _Frame(tracer._next_id, name, layer, site, stack[-1] if stack else None)
                tracer._next_id += 1
                stack.append(frame)
                result = error = None
                frame.start = perf()
                try:
                    result = inner(*args, **kwargs)
                    return result
                except Exception as exc:
                    error = type(exc).__name__
                    raise
                finally:
                    end = perf()
                    stack.pop()
                    tracer._close(frame, end, args, kwargs, result, error)

            return traced

        return make

    def _rhs_factory_wrapper(self, kind):
        tracer = self
        acc = self.rhs[kind]
        perf = time.perf_counter

        def make(factory):
            def wrapped_factory(*args, **kwargs):
                rhs = factory(*args, **kwargs)

                def timed(t, y):
                    t0 = perf()
                    try:
                        return rhs(t, y)
                    finally:
                        dt = perf() - t0
                        acc[0] += 1
                        acc[1] += dt
                        if tracer.stack:
                            tracer.stack[-1].model += dt

                return timed

            return wrapped_factory

        return make

    def _lift_wrapper(self, name):
        tracer = self
        acc = self.lift[name]
        perf = time.perf_counter

        def make(inner):
            def timed(*args, **kwargs):
                t0 = perf()
                try:
                    return inner(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    acc[0] += 1
                    acc[1] += dt
                    if tracer.stack:
                        tracer.stack[-1].model += dt

            return timed

        return make

    def _count_wrapper(self, key):
        counts = self.counts

        def make(inner):
            def counted(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)

            return counted

        return make

    # -- span bookkeeping ----------------------------------------------------

    def _close(self, frame, end, args, kwargs, result, error):
        duration = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child += duration
        span = {
            "id": frame.id,
            "name": frame.name,
            "layer": frame.layer,
            "site": frame.site,
            "parent": None if parent is None else parent.id,
            "start": frame.start - self.origin,
            "end": end - self.origin,
            "self": duration - frame.child - frame.model,
        }
        if error is not None:
            span["error"] = error
        name = frame.name
        if name == "flow":
            span["dim"] = len(args[1] if len(args) > 1 else kwargs["y0"])
            if result is not None:
                span["steps"] = result.n_steps
                span["rejected"] = result.n_rejected
                span["status"] = result.status
            for f in self.stack:
                f.flows += 1
        elif name == "desing_eval":
            b = args[1] if len(args) > 1 else kwargs["b"]
            span["b0"] = bool(b == 0.0)
            for f in self.stack:
                f.evals += 1
        elif name == "newton_correct_full":
            span["flows"] = frame.flows
            span["evals"] = frame.evals
            if frame.site == "continuation" and parent is not None:
                parent.attempts += 1
                if result is not None:
                    parent.returned.append(result[0])
        elif name == "continue_branch":
            span["flows"] = frame.flows
            span["attempts"] = frame.attempts
            if result is not None:
                ids = {id(p) for p in frame.returned}
                span["points"] = len(result.points)
                span["accepted"] = sum(1 for bp in result.points[1:] if id(bp.point) in ids)
        elif name == "reconstruct" and result is not None:
            span["samples"] = len(result.times)
        elif name == "export" and error is None:
            path = args[2] if len(args) > 2 else kwargs["path"]
            span["bytes"] = os.path.getsize(path)
        self.spans.append(span)

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer in seconds; `model` is vector field plus lift."""
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s["layer"]] += s["self"]
        out["model"] = sum(t for _, t in self.rhs.values()) + sum(t for _, t in self.lift.values())
        return out

    def work_counts(self) -> dict[str, int]:
        """The exact work counts a later change is compared against."""
        flows = [s for s in self.spans if s["name"] == "flow"]
        corrections = [s for s in self.spans if s["name"] == "newton_correct_full"]
        return {
            "flows": len(flows),
            "steps": sum(s.get("steps", 0) for s in flows),
            "rejected_steps": sum(s.get("rejected", 0) for s in flows),
            "rhs_calls": sum(n for n, _ in self.rhs.values()),
            "correct_calls": len(corrections),
            "flows_per_correct_max": max((s["flows"] for s in corrections), default=0),
            "points": sum(s.get("points", 0) for s in self.spans if s["name"] == "continue_branch"),
        }

    def layer_metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass whose timed work took traced_wall s."""
        spans = self.spans
        by = {}
        for s in spans:
            by.setdefault(s["name"], []).append(s)
        flows = by.get("flow", [])
        evals = by.get("desing_eval", [])
        corrections = by.get("newton_correct_full", [])
        branches = by.get("continue_branch", [])
        counts = self.work_counts()
        rhs_calls = counts["rhs_calls"]
        rhs_time = sum(t for _, t in self.rhs.values())
        attempted_steps = counts["steps"] + counts["rejected_steps"]
        flow_self = sum(s["self"] for s in flows)
        points = counts["points"]
        attempts = sum(s.get("attempts", 0) for s in branches)
        accepted = sum(s.get("accepted", 0) for s in branches)
        selfs = self.self_times()
        share = {k: v / traced_wall for k, v in selfs.items()}
        lift_time = sum(t for _, t in self.lift.values())
        m = {
            "model.rhs_calls": rhs_calls,
            "model.rhs_calls.reduced": self.rhs["reduced"][0],
            "model.rhs_calls.variational": self.rhs["variational"][0],
            "model.rhs_us": 1e6 * rhs_time / rhs_calls if rhs_calls else 0.0,
            "model.lift_calls": sum(n for n, _ in self.lift.values()),
            "model.lift_share": lift_time / traced_wall,
            "model.self_share": share["model"],
            "integrate.flows": counts["flows"],
            "integrate.flows.dim5": sum(1 for s in flows if s["dim"] == 5),
            "integrate.flows.dim15": sum(1 for s in flows if s["dim"] == 15),
            "integrate.steps": counts["steps"],
            "integrate.rejected_steps": counts["rejected_steps"],
            "integrate.step_us": 1e6 * flow_self / attempted_steps if attempted_steps else 0.0,
            "integrate.flow_ms_p50": 1e3 * _median([s["end"] - s["start"] for s in flows]),
            "integrate.self_share": share["integrate"],
            "shoot.desing_evals": len(evals),
            "shoot.correct_calls": counts["correct_calls"],
            "shoot.evals_per_correct_p50": _median([s["evals"] for s in corrections]),
            "shoot.flows_per_correct_max": counts["flows_per_correct_max"],
            "shoot.correct_failures.ConvergenceError": sum(
                1 for s in corrections if s.get("error") == "ConvergenceError"
            ),
            "shoot.self_share": share["shoot"],
            "continuation.points": points,
            "continuation.attempts": attempts,
            "continuation.accept_ratio": accepted / attempts if attempts else 0.0,
            "continuation.flows_per_point": (
                sum(s["flows"] for s in branches) / points if points else 0.0
            ),
            "continuation.self_share": share["continuation"],
            "orbits.resonance_corrections": sum(
                1 for s in by.get("newton_correct", []) if s["site"] == "orbits"
            ),
            "orbits.samples": sum(s.get("samples", 0) for s in by.get("reconstruct", [])),
            "orbits.export_mb": sum(s.get("bytes", 0) for s in by.get("export", [])) / 1e6,
            "orbits.self_share": share["orbits"],
        }
        return m

    def detail(self, point_ms: list[float]) -> dict:
        """Per-layer times in ms and us, and the counts that only
        `heavy_family` makes non-zero, for the report beside the metrics.

        These are kept out of the metric line because on a workload that does
        not exercise them they would read exactly zero on every run.
        """
        by = {}
        for s in self.spans:
            by.setdefault(s["name"], []).append(s)
        failures = [s["error"] for s in by.get("newton_correct_full", []) if "error" in s]

        def total_ms(name):
            return 1e3 * sum(s["end"] - s["start"] for s in by.get(name, []))

        lift_calls = self.lift["cartesian_lift"][0]
        samples = sum(s.get("samples", 0) for s in by.get("reconstruct", []))
        reconstruct_ms = total_ms("reconstruct")
        out = {
            f"model.rhs_us.{kind}": (1e6 * t / n if n else None) for kind, (n, t) in self.rhs.items()
        }
        out["model.lift_us"] = (
            1e6 * sum(t for _, t in self.lift.values()) / lift_calls if lift_calls else None
        )
        for dim in (5, 15):
            durations = [s["end"] - s["start"] for s in by.get("flow", []) if s["dim"] == dim]
            out[f"integrate.flow_ms_p50.dim{dim}"] = 1e3 * _median(durations) if durations else None
        out.update({f"{layer}.self_ms": 1e3 * t for layer, t in self.self_times().items()})
        out["continuation.point_ms_p50"] = _median(point_ms) if point_ms else None
        out["continuation.point_ms_max"] = max(point_ms) if point_ms else None
        out["orbits.reconstruct_ms"] = reconstruct_ms
        out["orbits.samples_per_s"] = 1e3 * samples / reconstruct_ms if reconstruct_ms else None
        out["orbits.export_ms"] = total_ms("export")
        out["integrate.singular_flows"] = sum(
            1 for s in by.get("flow", []) if s.get("status") == integrate.SINGULAR
        )
        out["shoot.desing_evals_b0"] = sum(1 for s in by.get("desing_eval", []) if s["b0"])
        out["shoot.correct_failures.FlowError"] = sum(1 for e in failures if e == "FlowError")
        out["shoot.correct_failures.other"] = sum(1 for e in failures if e not in FAILURE_CLASSES)
        out["bifurcate.calls"] = sum(self.counts.values())
        out["corrector_flows"] = [s["flows"] for s in by.get("newton_correct_full", [])]
        out["missing_bindings"] = list(self.missing)
        return out


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_ms_p50"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    return "count"
