"""Tangent field, arclength tracing, endpoint classification, serialization."""
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ringorbits import continuation, integrate
from ringorbits.continuation import (
    A_BOUND,
    A_COLLISION,
    T_LOWER,
    T_UPPER,
    StepControl,
    StopRules,
    TERM_B_ZERO,
    TERM_BOUND,
    TERM_BUDGET,
    TERM_COLLISION,
    TERM_STEP,
    _refine_b_zero,
    _tangent_from,
    branch_from_json,
    branch_summary,
    branch_to_csv,
    branch_to_json,
    classify_endpoint,
    continue_branch,
    tangent,
)
from ringorbits import shoot
from ringorbits.shoot import (
    ConvergenceError,
    DesingPoint,
    SeedPoint,
    SymmetryKind,
    desing_eval,
    newton_correct,
)

from conftest import count_flows, direction_of_increasing_b, theta_curvature_numeric


def segment_distance(p, q0, q1):
    """Euclidean distance from p to the segment [q0, q1]."""
    d = q1 - q0
    denom = float(d @ d)
    t = 0.0 if denom == 0.0 else min(max(float((p - q0) @ d) / denom, 0.0), 1.0)
    return float(np.linalg.norm(p - (q0 + t * d)))


def polyline_gap(point_vec, branch):
    xs = [bp.point.vector() for bp in branch.points]
    return min(segment_distance(point_vec, a, b) for a, b in zip(xs, xs[1:]))


class TestTangent:
    def test_at_the_branching_seed(self, params_p, cfg):
        seed = SeedPoint(a=params_p.a0, b=0.0, T=params_p.T0)
        unit, xn = tangent(seed, params_p, cfg)
        # the family leaves the seed straight along b
        assert abs(unit[0]) < 1e-9 and abs(unit[2]) < 1e-9
        assert abs(abs(unit[1]) - 1.0) < 1e-12
        # the raw magnitude of the doubly symmetric form, which the seed meets
        assert abs(xn - 0.10053744954007608) < 1e-9

    def test_prev_fixes_orientation(self, params_p, cfg):
        seed = SeedPoint(a=params_p.a0, b=0.0, T=params_p.T0)
        unit, _ = tangent(seed, params_p, cfg)
        d = desing_eval(seed.a, seed.b, seed.T, seed.kind, params_p, cfg)
        flipped, _ = _tangent_from(d, seed, -unit)
        assert np.allclose(flipped, -unit, atol=1e-15)

    def test_off_family_point_rejected(self, params_p, cfg):
        stray = SeedPoint(a=params_p.a0, b=0.0, T=params_p.T0 + 1.0)
        with pytest.raises(ValueError):
            tangent(stray, params_p, cfg)

    def test_field_is_parallel_to_b_axis_on_the_circular_plane(self, params_p, cfg):
        # parity makes the a- and T-components vanish for every (a, T)
        for a_fac, t_fac in [(1.0, 0.7), (1.15, 0.4), (0.85, 1.3)]:
            d = desing_eval(
                a_fac * params_p.a0, 0.0, t_fac * params_p.T0,
                SymmetryKind.ODD, params_p, cfg,
            )
            X = np.cross(d.grad_value, d.grad_rt)
            assert abs(X[0]) < 1e-9
            assert abs(X[2]) < 1e-9
            assert abs(X[1]) > 1e-3



class TestSingularPoint:
    """Parallel residual gradients leave no branch direction."""

    @staticmethod
    def _parallel_away_from(monkeypatch, start=None):
        # on-family residual data without a flow; the gradients are parallel
        # at every point but start
        def fake(a, b, T, kind, params, config=None):
            at_start = start is not None and (a, b, T) == (start.a, start.b, start.T)
            grad_rt = np.array([0.0, 1.0, 0.0]) if at_start else np.array([1.0, 0.0, 0.0])
            return DesingPoint(0.0, 0.0, 0.0, np.array([1.0, 0.0, 0.0]), grad_rt, np.zeros(3))

        monkeypatch.setattr(continuation, "desing_eval", fake)
        monkeypatch.setattr(shoot, "desing_eval", fake)

    def test_tangent_raises_singular_point(self, params_p, monkeypatch):
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        self._parallel_away_from(monkeypatch)
        with pytest.raises(ConvergenceError) as info:
            tangent(seed, params_p)
        assert info.value.reason == "singular-point"

    def test_continue_branch_counts_the_rejected_steps(self, params_p, monkeypatch):
        start = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        self._parallel_away_from(monkeypatch, start)
        step = StepControl(ds_min=0.05, ds_max=0.4)  # steps of 0.1 and 0.05, then ds < ds_min
        br = continue_branch(start, 1, params_p, step=step)
        assert br.stats["failures"] == {"singular-point": 2}
        assert br.termination == TERM_STEP
        assert len(br.points) == 1

class TestContinueBranch:
    def test_direction_validation(self, p1_corrected, params_p, cfg):
        with pytest.raises(ValueError):
            continue_branch(p1_corrected, 0, params_p, cfg)

    def test_off_family_start_rejected(self, params_p, cfg):
        stray = SeedPoint(a=params_p.a0, b=0.0, T=params_p.T0 + 1.0)
        with pytest.raises(ValueError):
            continue_branch(stray, 1, params_p, cfg)

    def test_start_is_evaluated_once(self, p1_corrected, params_p, cfg, monkeypatch):
        # a raw copy of a corrected point: the on-family check, the form, the
        # first tangent, theta and the residual all come from one flow, half
        # as long, in the doubly symmetric form
        raw = SeedPoint(a=p1_corrected.a, b=p1_corrected.b, T=p1_corrected.T)
        d = desing_eval(raw.a, raw.b, raw.T, SymmetryKind.DOUBLE, params_p, cfg)
        flows = count_flows(monkeypatch)
        br = continue_branch(raw, 1, params_p, cfg, stop=StopRules(max_points=1))
        assert [args[2] for args in flows] == [0.5 * raw.T]
        assert br.start == replace(p1_corrected, kind=SymmetryKind.DOUBLE, residual=d.residual, theta=d.theta)
        assert np.array_equal(br.points[0].tangent, tangent(p1_corrected, params_p, cfg)[0])

    def test_branch_pointwise_invariants(self, p_branch, params_p):
        ds_max = 0.05 * max(1.0, params_p.T0)
        pts = p_branch.points
        assert len(pts) > 3
        for bp in pts:
            assert bp.point.residual <= 1e-9
            assert abs(float(np.linalg.norm(bp.tangent)) - 1.0) < 1e-12
        thetas = [bp.point.theta for bp in pts]
        assert np.max(np.abs(np.diff(thetas))) <= 0.2
        arcs = np.array([bp.arc for bp in pts])
        assert np.all(np.diff(arcs) >= 0.0)
        assert arcs[-1] > arcs[0]
        for prev, cur in zip(pts, pts[1:]):
            gap = float(np.linalg.norm(cur.point.vector() - prev.point.vector()))
            assert gap <= 2.0 * ds_max + 1e-12

    def test_branch_reaches_the_printed_members(self, p_branch):
        # three members along the family, the last at theta = pi
        for target in [
            np.array([0.866953, 0.187583, 29.4405]),
            np.array([0.775642, 0.400635, 32.6636]),
            np.array([0.547954, 0.634946, 41.1787]),
        ]:
            assert polyline_gap(target, p_branch) < 0.05

    def test_branch_covers_theta_through_pi(self, p_branch):
        thetas = [bp.point.theta for bp in p_branch.points]
        assert thetas[0] < 2.33
        assert thetas[-1] > math.pi

    def test_time_bound_classified_unbounded(self, p_branch):
        assert p_branch.termination == TERM_BOUND == "unbounded"
        report = classify_endpoint(p_branch)
        assert report.label == p_branch.termination
        assert p_branch.end.T >= 42.0
        assert report.detail == {}

    def test_descending_to_the_circular_family(self, p1_corrected, params_p, cfg):
        d = -direction_of_increasing_b(p1_corrected, params_p, cfg)
        br = continue_branch(p1_corrected, d, params_p, cfg, step=StepControl(), stop=StopRules())
        assert br.termination == TERM_B_ZERO == "trivial-limit"
        report = classify_endpoint(br)
        assert report.label == br.termination
        assert br.end.b == 0.0  # the crossing is refined at exactly b = 0
        assert br.stats["b_zero_refine"] == "ok"
        assert set(report.detail) == {"seed_a", "seed_T", "delta_a", "delta_T"}
        assert report.detail["delta_a"] < 1e-6
        assert report.detail["delta_T"] < 1e-6

    def test_retrace_stays_on_the_same_curve(self, p1_corrected, params_p, cfg):
        step = StepControl(ds_max=0.25)
        d = direction_of_increasing_b(p1_corrected, params_p, cfg)
        fwd = continue_branch(
            p1_corrected, d, params_p, cfg, step=step, stop=StopRules(max_points=14)
        )
        assert fwd.termination == TERM_BUDGET
        end = fwd.end
        u_end, _ = tangent(end, params_p, cfg)
        back_dir = -1 if float(np.dot(u_end, fwd.points[-1].tangent)) > 0 else 1
        back = continue_branch(
            end, back_dir, params_p, cfg, step=step, stop=StopRules(max_points=14)
        )
        worst = max(polyline_gap(bp.point.vector(), fwd) for bp in back.points[1:])
        assert worst < 1e-2

    def test_mirror_symmetry_in_b(self, p1_corrected, params_p, cfg):
        mirrored = newton_correct(
            SeedPoint(a=params_p.a0, b=-0.05, T=params_p.T0), params_p, cfg, tol=1e-12
        )
        assert abs(mirrored.a - p1_corrected.a) < 1e-9
        assert abs(mirrored.T - p1_corrected.T) < 1e-9

    def test_point_budget(self, p1_corrected, params_p, cfg):
        d = direction_of_increasing_b(p1_corrected, params_p, cfg)
        br = continue_branch(p1_corrected, d, params_p, cfg, stop=StopRules(max_points=3))
        assert br.termination == TERM_BUDGET == "budget"
        assert len(br.points) == 3
        assert classify_endpoint(br).label == br.termination

    def test_heavy_family_runs_into_collision(self, q0_corrected, params_q, cfg):
        d = direction_of_increasing_b(q0_corrected, params_q, cfg)
        br = continue_branch(q0_corrected, d, params_q, cfg, stop=StopRules(max_points=60))
        assert br.termination == TERM_COLLISION == "collision"
        report = classify_endpoint(br)
        assert report.label == br.termination
        assert br.end.a < 1e-3 * params_q.a0
        # the doubly symmetric form runs out of budget on its step from
        # a ~ 0.19, and the odd form takes the rest, crawling near the bound
        assert br.stats["failures"] == {"theta-step": 1, "budget": 3, "domain": 4}
        assert br.stats["switch"] == "budget"

    @pytest.mark.parametrize(
        "exc, ending",
        [
            (ConvergenceError("stalled", "line-search"), TERM_STEP),
            (integrate.FlowError(SimpleNamespace(status=integrate.SINGULAR), "ring collapsed"), TERM_COLLISION),
        ],
    )
    def test_steps_failing_below_ds_min(self, p1_corrected, params_p, cfg, monkeypatch, exc, ending):
        # a trace whose steps die in the ring-collapse guard is a collision
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(continuation, "newton_correct_full", fail)
        br = continue_branch(p1_corrected, 1, params_p, cfg, step=StepControl(ds_min=1e-3))
        assert br.termination == ending
        assert classify_endpoint(br).label == br.termination
        assert len(br.points) == 1
        assert sum(br.stats["failures"].values()) == 9  # ds_max/4 halved below 1e-3

    def test_a_value_error_in_a_step_is_labelled(self, p1_corrected, params_p, cfg, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("T is at or below the floor")

        monkeypatch.setattr(continuation, "newton_correct_full", fail)
        br = continue_branch(p1_corrected, 1, params_p, cfg, step=StepControl(ds_min=1e-3))
        assert br.stats["failures"] == {"value-error": 9}
        assert br.stats["switch"] == "value-error"  # the doubly symmetric start gave way
        assert br.termination == TERM_STEP


class TestCorrectorBudget:
    def test_no_corrector_call_exceeds_twelve_flows(self, p_branch_traced):
        branch, flows = p_branch_traced
        assert len(flows) == 22
        assert max(flows) <= 12
        # the last step, past T = 41.6, turns theta by 0.23 as the family
        # nears its fold in T; it is rejected and retried at half the length
        assert branch.stats["failures"] == {"theta-step": 1}
        assert "b_zero_refine" not in branch.stats

    def test_corrector_work_stays_low(self, p_branch_traced):
        # 112 flows with the Euler predictor, 84 with the second-order one,
        # 72 (each half as long) in the doubly symmetric form
        _, flows = p_branch_traced
        assert sum(flows) <= 72

    def test_light_branch_bits_are_pinned(self, p_branch):
        # Recorded with the DOP853 step, the second-order predictor and the
        # doubly symmetric form on x86-64 (not portable).
        assert len(p_branch.points) == 22
        end = p_branch.end
        assert (end.a.hex(), end.b.hex(), end.T.hex()) == (
            "0x1.0416b281ad14bp-1",
            "0x1.50bfff52e1cdap-1",
            "0x1.527e8aafd0691p+5",
        )

    def test_refine_b_zero_interpolates_the_crossing(self, params_p, monkeypatch):
        guesses = []
        monkeypatch.setattr(continuation, "newton_correct", lambda guess, *args: guesses.append(guess) or guess)
        lo, hi = SeedPoint(a=1.0, b=0.01, T=20.0), SeedPoint(a=2.0, b=-0.03, T=24.0)
        assert _refine_b_zero(lo, hi, params_p, None) == (SeedPoint(a=1.25, b=0.0, T=21.0), "ok")
        assert guesses == [SeedPoint(a=1.25, b=0.0, T=21.0)]

    def test_refine_b_zero_reports_why_it_failed(self, params_p, cfg):
        far = {"a": 3.0 * params_p.a0, "T": 0.3 * params_p.T0}
        lo, hi = SeedPoint(b=0.01, **far), SeedPoint(b=-0.01, **far)
        assert _refine_b_zero(lo, hi, params_p, cfg) == (None, "line-search")


class TestPredictorAndContraction:
    @staticmethod
    def _recording(monkeypatch, contraction=None):
        """Record each corrector guess; with `contraction`, report that value
        instead of the corrector's own."""
        guesses = []
        inner = continuation.newton_correct_full

        def recorded(guess, *args, **kwargs):
            guesses.append(guess.vector())
            point, data, theta0 = inner(guess, *args, **kwargs)
            return point, data, theta0 if contraction is None else contraction

        monkeypatch.setattr(continuation, "newton_correct_full", recorded)
        return guesses

    def test_euler_first_then_second_order(self, p1_corrected, params_p, cfg, monkeypatch):
        guesses = self._recording(monkeypatch)
        d = direction_of_increasing_b(p1_corrected, params_p, cfg)
        br = continue_branch(p1_corrected, d, params_p, cfg, stop=StopRules(max_points=3))
        assert len(br.points) == 3 and br.stats["failures"] == {}
        p0, p1 = br.points[0], br.points[1]
        ds = 0.05 * params_p.T0 / 4.0  # the first step, not yet grown
        # the guess for the second point is the Euler point, for the third
        # the second-order one built from the tangents of the first two
        assert np.array_equal(guesses[0], p0.point.vector() + ds * p0.tangent)
        second = p1.point.vector() + ds * p1.tangent
        second += 0.5 * ds**2 * (p1.tangent - p0.tangent) / (p1.arc - p0.arc)
        assert np.all(np.abs(guesses[1] - second) <= np.spacing(np.abs(second)))
        assert not np.array_equal(guesses[1], p1.point.vector() + ds * p1.tangent)

    def test_slow_contraction_halves_the_step(self, p1_corrected, params_p, cfg, monkeypatch):
        guesses = []

        def slow(guess, *args, **kwargs):
            guesses.append(guess.vector())
            return guess, None, 0.3

        monkeypatch.setattr(continuation, "newton_correct_full", slow)
        br = continue_branch(p1_corrected, 1, params_p, cfg, step=StepControl(ds_min=1e-3))
        assert br.termination == TERM_STEP
        assert len(br.points) == 1
        assert br.stats["failures"] == {"contraction": len(guesses)} == {"contraction": 9}
        steps = [float(np.linalg.norm(g - p1_corrected.vector())) for g in guesses]
        assert steps[0] == pytest.approx(0.05 * params_p.T0 / 4.0, rel=1e-12)
        assert np.allclose(np.array(steps[1:]) / steps[:-1], 0.5, rtol=1e-9, atol=0.0)

    def test_contraction_at_the_bound_is_accepted(self, p1_corrected, params_p, cfg, monkeypatch):
        guesses = self._recording(monkeypatch, contraction=continuation._MAX_CONTRACTION)
        d = direction_of_increasing_b(p1_corrected, params_p, cfg)
        br = continue_branch(p1_corrected, d, params_p, cfg, stop=StopRules(max_points=2))
        assert len(guesses) == 1
        assert len(br.points) == 2
        assert br.stats["failures"] == {}


class TestStepAndStopDefaults:
    def test_step_control_resolution(self, p1_corrected, params_p, cfg):
        # the first step is ds_max/4, and ds_max defaults to 0.05*max(1, T0)
        br = continue_branch(p1_corrected, 1, params_p, cfg, stop=StopRules(max_points=1))
        assert abs(4.0 * br.stats["ds_final"] - 0.05 * params_p.T0) < 1e-12
        assert (continuation._GROW, continuation._GROW_AFTER, continuation._MAX_CONTRACTION) == (1.3, 4, 0.25)

    @pytest.mark.parametrize(
        "value, field",  # ds_max=None is its default
        [(v, f) for v in (0.0, -0.1, math.inf, math.nan, -math.inf, "x") for f in ("ds_min", "ds_max")]
        + [(None, "ds_min")],
    )
    def test_step_lengths_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            StepControl(**{field: value})

    def test_ds_min_above_ds_max_rejected(self, p1_corrected, params_p, cfg, monkeypatch):
        with pytest.raises(ValueError, match="ds_min 1.0 exceeds ds_max 0.1"):
            StepControl(ds_min=1.0, ds_max=0.1)
        equal = StepControl(ds_min=0.1, ds_max=0.1)
        one = StopRules(max_points=1)
        assert continue_branch(p1_corrected, 1, params_p, cfg, step=equal, stop=one).stats["ds_final"] == 0.025
        # above the default ds_max: rejected before any flow
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the step lengths were checked")

        monkeypatch.setattr(integrate, "flow", no_flow)
        default_max = 0.05 * max(1.0, params_p.T0)
        with pytest.raises(ValueError, match="exceeds ds_max"):
            continue_branch(p1_corrected, 1, params_p, cfg, step=StepControl(ds_min=2.0 * default_max))

    def test_stop_rules_resolution(self):
        rules = StopRules()
        assert (rules.max_points, rules.T_max) == (20000, None)
        assert [type(StopRules(max_points=v).max_points) for v in (3.0, np.int64(3))] == [int, int]
        assert type(StopRules(T_max=np.float32(42.0)).T_max) is float
        step = StepControl(ds_min=np.float32(1e-8), ds_max=np.float64(0.5))
        assert [type(step.ds_min), type(step.ds_max)] == [float, float]
        # multiples of a0 and T0: a_min, a_max, T_min and the default of T_max
        assert (A_COLLISION, A_BOUND, T_LOWER, T_UPPER) == (1e-3, 1e3, 1e-3, 50.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(max_points=0),
            dict(max_points=-3),
            dict(T_max=-1.0),
            dict(T_max=math.nan),
            dict(T_max=math.inf),
            *(dict(max_points=v) for v in (math.nan, math.inf, -math.inf, 2.5)),
            dict(T_max=-math.inf),
            dict(T_max="42"),
        ],
        # kw2-kw4 were the cases of the removed b_tol; the others keep their ids.
        # T_max=None is its default
        ids=["kw0", "kw1", "kw5", "kw6", "kw7", "kw8", "kw9", "kw10", "kw11", "kw12", "kw13"],
    )
    def test_stop_rules_are_validated(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            StopRules(**kw)

    def test_collision_bound_is_shared(self, p1_corrected, params_p, cfg, monkeypatch):
        # the a <= A_COLLISION*a0 rule holds at the b = 0 exit too: a refined
        # endpoint below it ends the branch in a collision
        low = SeedPoint(a=0.999 * A_COLLISION * params_p.a0, b=0.0, T=params_p.T0)
        crossings = []

        def refine(lo, hi, *args):
            crossings.append((lo.b, hi.b))
            return low, "ok"

        monkeypatch.setattr(continuation, "_refine_b_zero", refine)
        d = -direction_of_increasing_b(p1_corrected, params_p, cfg)
        br = continue_branch(p1_corrected, d, params_p, cfg)
        assert len(crossings) == 1 and crossings[0][0] > 0.0 > crossings[0][1]  # a real crossing
        assert br.stats["b_zero_refine"] == "ok"
        assert br.end == low
        assert br.termination == TERM_COLLISION
        assert classify_endpoint(br) == continuation.EndpointReport(TERM_COLLISION, {})

    def test_landing_on_b_zero_is_a_trivial_limit(self, p1_corrected, params_p, cfg, monkeypatch):
        # a step corrected onto b = 0.0 exactly ends the branch there, with
        # no crossing to refine
        inner = continuation.newton_correct_full

        def landed(*args, **kwargs):
            point, data, contraction = inner(*args, **kwargs)
            return replace(point, b=0.0), data, contraction

        def no_refine(*args):
            raise AssertionError("a landing has no crossing to refine")

        monkeypatch.setattr(continuation, "newton_correct_full", landed)
        monkeypatch.setattr(continuation, "_refine_b_zero", no_refine)
        d = -direction_of_increasing_b(p1_corrected, params_p, cfg)
        br = continue_branch(p1_corrected, d, params_p, cfg)
        assert br.termination == TERM_B_ZERO
        assert len(br.points) == 2
        assert br.start.b == p1_corrected.b != 0.0
        assert br.end.b == 0.0
        assert "b_zero_refine" not in br.stats


class TestThetaCurvature:
    def test_phase_is_critical_at_the_seed(self, params_p, cfg):
        xi1, xi2 = theta_curvature_numeric(params_p, cfg)
        assert abs(xi1) < 1e-6
        assert xi2 > 0.0

    def test_second_derivative_stable_under_sampling(self, params_p, cfg):
        _, coarse = theta_curvature_numeric(params_p, cfg, n_points=5)
        _, fine = theta_curvature_numeric(params_p, cfg, n_points=8)
        assert abs(coarse - fine) <= 5e-2 * abs(fine)


class TestDoublySymmetricForm:
    """The odd family of both reference systems is doubly symmetric: it is
    traced through its residuals at T/2, with flows half as long."""

    @pytest.mark.parametrize("name", ["p_branch", "q_limit_branch"])
    def test_every_point_meets_the_other_form(self, request, name):
        branch = request.getfixturevalue(name)
        params = branch.params
        assert branch.start.kind is SymmetryKind.DOUBLE
        assert branch.stats["double_points"] == len(branch.points)
        for bp in branch.points:
            p = bp.point
            other = SymmetryKind.ODD if p.kind is SymmetryKind.DOUBLE else SymmetryKind.DOUBLE
            assert desing_eval(p.a, p.b, p.T, other, params).residual <= 1e-9

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("name", ["p1_corrected", "q0_corrected"])
    def test_first_tangent_follows_tangent_start(self, request, cfg, name, direction):
        start = request.getfixturevalue(name)
        params = request.getfixturevalue("params_p" if name == "p1_corrected" else "params_q")
        br = continue_branch(start, direction, params, cfg, stop=StopRules(max_points=2))
        unit = direction * tangent(start, params, cfg)[0]
        assert np.array_equal(br.points[0].tangent, unit)
        assert np.sign(br.points[1].tangent[0]) == np.sign(unit[0])

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("name", ["p1_corrected", "q0_corrected"])
    def test_orientation_does_not_depend_on_the_label(self, request, cfg, name, direction):
        # the raw tangents of the odd and the doubly symmetric form point
        # opposite ways at q0: both labels are read in the doubly symmetric form
        start = request.getfixturevalue(name)
        params = request.getfixturevalue("params_p" if name == "p1_corrected" else "params_q")
        odd, double = (replace(start, kind=kind) for kind in (SymmetryKind.ODD, SymmetryKind.DOUBLE))
        assert np.array_equal(tangent(odd, params, cfg)[0], tangent(double, params, cfg)[0])
        first = [
            continue_branch(p, direction, params, cfg, stop=StopRules(max_points=2)).points[1]
            for p in (odd, double)
        ]
        assert first[0].point == first[1].point
        assert np.array_equal(first[0].tangent, first[1].tangent)

    def test_double_labelled_start_costs_one_half_flow(self, p1_corrected, params_p, cfg, monkeypatch):
        # as an odd-labelled one does (test_start_is_evaluated_once)
        start = replace(p1_corrected, kind=SymmetryKind.DOUBLE)
        flows = count_flows(monkeypatch)
        br = continue_branch(start, 1, params_p, cfg, stop=StopRules(max_points=1))
        assert [args[2] for args in flows] == [0.5 * start.T]
        assert br.start.kind is SymmetryKind.DOUBLE

    def test_off_family_start_is_tried_in_both_forms(self, p1_corrected, params_p, cfg, monkeypatch):
        stray = SeedPoint(a=p1_corrected.a, b=p1_corrected.b, T=p1_corrected.T + 1.0)
        flows = count_flows(monkeypatch)
        with pytest.raises(ValueError, match="not on the family"):
            continue_branch(stray, 1, params_p, cfg)
        assert [args[2] for args in flows] == [0.5 * stray.T, stray.T]

    def test_stored_points_are_the_corrector_returns(self, p1_corrected, params_p, cfg, monkeypatch):
        returned = []
        inner = continuation.newton_correct_full

        def recorded(*args, **kwargs):
            result = inner(*args, **kwargs)
            returned.append(result[0])
            return result

        monkeypatch.setattr(continuation, "newton_correct_full", recorded)
        d = direction_of_increasing_b(p1_corrected, params_p, cfg)
        br = continue_branch(p1_corrected, d, params_p, cfg, stop=StopRules(max_points=5))
        assert {id(bp.point) for bp in br.points[1:]} <= {id(point) for point in returned}

    def test_stats_say_what_the_form_did(self, p_branch, tmp_path):
        stats = p_branch.stats
        assert stats["double_points"] == 22
        assert stats["switch"] is None
        assert 0.0 < stats["contraction_max"] <= continuation._MAX_CONTRACTION
        path = tmp_path / "branch.json"
        branch_to_json(p_branch, path)
        payload = json.loads(path.read_text())
        for key in ("double_points", "switch", "contraction_max"):
            assert payload["stats"][key] == stats[key]
        assert [rec["kind"] for rec in payload["points"]] == ["double"] * 22


class TestSerialization:
    def test_json_roundtrip_is_exact(self, p_branch, tmp_path):
        path = tmp_path / "branch.json"
        branch_to_json(p_branch, path)
        again = branch_from_json(path)
        assert "kind" not in json.loads(path.read_text())  # every branch is odd
        assert again.termination == p_branch.termination
        assert again.params == p_branch.params
        assert len(again.points) == len(p_branch.points)
        for orig, back in zip(p_branch.points, again.points):
            assert back.point == orig.point
            assert np.array_equal(back.tangent, orig.tangent)
            assert back.arc == orig.arc

    def test_files_with_x_norm_still_load(self, p_branch, tmp_path):
        # branch points written before x_norm was dropped carry it
        path = tmp_path / "old.json"
        branch_to_json(p_branch, path)
        payload = json.loads(path.read_text())
        assert "x_norm" not in payload["points"][0]
        for rec in payload["points"]:
            rec["x_norm"] = 1.0
        path.write_text(json.dumps(payload))
        again = branch_from_json(path)
        assert [bp.point for bp in again.points] == [bp.point for bp in p_branch.points]

    @pytest.mark.parametrize("kind", ["odd", "odd_even", "double"])
    def test_files_with_a_kind_load_only_if_odd(self, p_branch, tmp_path, kind):
        # branch files written before every branch was odd name their kind
        path = tmp_path / "old.json"
        branch_to_json(p_branch, path)
        payload = json.loads(path.read_text())
        payload["kind"] = kind
        path.write_text(json.dumps(payload))
        if kind == "odd":
            assert [bp.point for bp in branch_from_json(path).points] == [bp.point for bp in p_branch.points]
        else:
            with pytest.raises(ValueError, match=r"point \(a, b, 2T\) of kind 'double'"):
                branch_from_json(path)

    def test_csv_dump(self, p_branch, tmp_path):
        path = tmp_path / "branch.csv"
        branch_to_csv(p_branch, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "idx,a,b,T,theta,residual"
        assert len(lines) == len(p_branch.points) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == p_branch.start.a
        assert float(first[3]) == p_branch.start.T

    def test_csv_cells_are_floats_for_a_start_of_numpy_scalars(self, p1_corrected, params_p, cfg, tmp_path):
        # such a start once wrote row 0 as "0,np.float64(0.8892810633285759),np.float64(0.05),..."
        start = SeedPoint(*p1_corrected.vector())
        br = continue_branch(start, 1, params_p, cfg, stop=StopRules(max_points=1))
        path = tmp_path / "branch.csv"
        branch_to_csv(br, path)
        (row,) = [[float(cell) for cell in line.split(",")] for line in path.read_text().splitlines()[1:]]
        assert row[:4] == [0.0, p1_corrected.a, p1_corrected.b, p1_corrected.T]

    def test_files_with_the_old_labels_still_load(self, p_branch, tmp_path):
        # before the TERM_* labels were renamed, "termination" held "b-zero"
        # or "bound" and "endpoint_label" the label reported today
        path = tmp_path / "old.json"
        branch_to_json(p_branch, path)
        payload = json.loads(path.read_text())
        payload.update(termination="bound", endpoint_label="unbounded")
        path.write_text(json.dumps(payload))
        assert branch_from_json(path).termination == TERM_BOUND

    def test_summary_keys(self, p_branch):
        s = branch_summary(p_branch)
        assert s["termination"] == p_branch.termination == "unbounded"
        assert s["n_points"] == len(p_branch.points)
        assert s["endpoint_detail"] == {}
        assert "endpoint_label" not in s and "kind" not in s
        assert set(s["stats"]) == {"failures", "ds_final", "double_points", "switch", "contraction_max"}
        assert s["start"]["b"] == p_branch.start.b
        assert s["arc_length"] == p_branch.points[-1].arc
