"""Symmetry residuals, desingularization, and the Newton corrector."""
import io
import json
import math

from types import SimpleNamespace

import numpy as np
import pytest

from ringorbits import shoot
from ringorbits.integrate import SINGULAR, FlowError, IntegratorConfig, eval_at, flow
from ringorbits.model import make_reduced_rhs, reduced_initial, write_json
from ringorbits.shoot import (
    _FD_DB,
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

from conftest import count_flows


class TestSymmetryKind:
    @pytest.mark.parametrize("text,kind", [("odd", SymmetryKind.ODD), ("double", SymmetryKind.DOUBLE)])
    def test_parse(self, text, kind):
        assert SeedPoint.from_dict({"a": 1.0, "b": 0.0, "T": 2.0, "kind": text}).kind is kind

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="expected 'odd' or 'double'"):
            SeedPoint.from_dict({"a": 1.0, "b": 0.0, "T": 2.0, "kind": "even"})
        # the odd/even kind is refused with its conversion to the doubly symmetric form,
        # by the constructor as by from_dict
        with pytest.raises(ValueError, match=r"point \(a, b, 2T\) of kind 'double'"):
            SeedPoint.from_dict({"a": 1.0, "b": 0.0, "T": 2.0, "kind": "odd_even"})
        with pytest.raises(ValueError, match=r"'double' \(an 'odd_even' point"):
            SeedPoint(a=1.0, b=0.0, T=2.0, kind="odd_even")

    def test_period_multiples(self):
        # both forms name the odd return time: the period is 2T, the residuals
        # are read at T and T/2
        assert [SeedPoint(a=1.0, b=0.0, T=3.0, kind=k).period for k in SymmetryKind] == [6.0, 6.0]
        assert (SymmetryKind.ODD.fraction, SymmetryKind.DOUBLE.fraction) == (1.0, 0.5)

    def test_residual_components(self):
        # the first residual is F for odd, F_t for double
        assert (SymmetryKind.ODD.index, SymmetryKind.DOUBLE.index) == (0, 1)

    def test_doubly_symmetric_form(self):
        # F_t at T/2, in the odd family's coordinates: period 2T
        double = SymmetryKind.DOUBLE
        assert (double.index, double.fraction) == (1, 0.5)
        pt = SeedPoint.from_dict({"a": 1.0, "b": 0.5, "T": 3.0, "kind": "double"})
        assert pt.kind is double and pt.period == 6.0
        assert SeedPoint.from_dict(pt.to_dict()) == pt


class TestSeedPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedPoint(a=-1.0, b=0.0, T=1.0)
        with pytest.raises(ValueError):
            SeedPoint(a=1.0, b=0.0, T=0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(a=math.inf, b=0.0, T=1.0),
            dict(a=1.0, b=math.nan, T=1.0),
            dict(a=1.0, b=math.inf, T=1.0),
            dict(a=1.0, b=-math.inf, T=1.0),
            dict(a=1.0, b=0.0, T=math.inf),
            dict(a=math.nan, b=0.0, T=1.0),
            dict(a=-math.inf, b=0.0, T=1.0),
            dict(a=1.0, b=0.0, T=-math.inf),
            dict(a="1.0", b=0.0, T=1.0),
            dict(a=1.0, b=None, T=1.0),
            dict(a=1.0, b=0.0, T="2"),
            dict(a=None, b=0.0, T=1.0),
        ],
    )
    def test_non_finite_parameters_rejected(self, kw):
        with pytest.raises(ValueError, match="must be finite"):
            SeedPoint(**kw)

    def test_numpy_scalars_are_stored_as_floats(self):
        # a np.float32 point once failed to write: "Object of type float32 is not JSON serializable"
        p = SeedPoint(a=np.float32(0.75), b=np.float64(0.05), T=np.float32(28.5))
        assert [type(v) for v in (p.a, p.b, p.T)] == [float, float, float]
        q = self.roundtrip(p)
        assert (q.a, q.b, q.T) == (0.75, 0.05, 28.5)

    def test_negative_b_allowed(self):
        SeedPoint(a=1.0, b=-0.3, T=1.0)

    def test_period(self):
        assert SeedPoint(a=1.0, b=0.0, T=3.0).period == 6.0
        assert SeedPoint(a=1.0, b=0.0, T=3.0, kind=SymmetryKind.DOUBLE).period == 6.0

    @staticmethod
    def roundtrip(p):
        # as the CLI writes a seed file and reads it back
        text = io.StringIO()
        write_json(p.to_dict(), text)
        return SeedPoint.from_dict(json.loads(text.getvalue()))

    def test_json_roundtrip_exact(self):
        p = SeedPoint(a=0.8892815, b=0.05, T=28.708, residual=3.2e-7, theta=2.3232)
        assert self.roundtrip(p) == p

    def test_json_roundtrip_with_nan_fields(self):
        p = SeedPoint(a=1.5, b=0.2, T=4.0, kind=SymmetryKind.DOUBLE)
        q = self.roundtrip(p)
        assert (q.a, q.b, q.T, q.kind) == (p.a, p.b, p.T, p.kind)
        assert math.isnan(q.residual) and math.isnan(q.theta)

    def test_kind_default_on_load(self):
        assert SeedPoint.from_dict({"a": 1.0, "b": 0.0, "T": 2.0}).kind is SymmetryKind.ODD


class TestResidual:
    def test_circular_point_vanishes(self, params_p, cfg):
        pt = SeedPoint(a=params_p.a0, b=0.0, T=params_p.T0)
        e = eval_at(pt.a, pt.b, pt.T, params_p, cfg)
        first, rt = e.y[pt.kind.index], e.Rt
        assert first == 0.0  # the axial component never leaves zero
        assert abs(rt) < 1e-12

    def test_circular_point_vanishes_for_any_time(self, params_p, cfg):
        pt = SeedPoint(a=params_p.a0, b=0.0, T=0.37 * params_p.T0)
        e = eval_at(pt.a, pt.b, pt.T, params_p, cfg)
        first, rt = e.y[pt.kind.index], e.Rt
        assert first == 0.0
        assert abs(rt) < 1e-12

    def test_printed_reference_points_are_near_solutions(self, params_p, params_q, cfg):
        e1 = eval_at(0.8892815, 0.05, 28.708, params_p, cfg)
        assert max(abs(e1.F), abs(e1.Rt)) < 1e-5
        e2 = eval_at(1.84153, 3.79392, 7.31715, params_q, cfg)
        assert max(abs(e2.F), abs(e2.Rt)) < 5e-4

    def test_odd_even_uses_axial_velocity(self, params_p, cfg):
        # the doubly symmetric form reads the odd/even residual F_t
        pt = SeedPoint(a=params_p.a0, b=0.3, T=8.0, kind=SymmetryKind.DOUBLE)
        e = eval_at(pt.a, pt.b, pt.kind.fraction * pt.T, params_p, cfg)
        assert e.y[pt.kind.index] == e.Ft


class TestDesing:
    def test_smooth_across_zero(self, params_p, cfg):
        at_zero = desing_eval(params_p.a0, 0.0, params_p.T0, SymmetryKind.ODD, params_p, cfg)
        nearby = desing_eval(params_p.a0, 1e-8, params_p.T0, SymmetryKind.ODD, params_p, cfg)
        assert abs(at_zero.value - nearby.value) < 1e-6
        assert abs(at_zero.rt - nearby.rt) < 1e-6

    @pytest.mark.parametrize("kind", [SymmetryKind.ODD, SymmetryKind.DOUBLE])
    def test_value_times_b_recovers_raw_residual(self, params_p, cfg, kind):
        a, b, T = 0.95 * params_p.a0, 0.4, 10.0
        d = desing_eval(a, b, T, kind, params_p, cfg)
        # desing_eval reads the augmented flow to fraction*T; its base
        # components are the raw pair
        e = eval_at(a, b, kind.fraction * T, params_p, cfg, augmented=True)
        raw_first, raw_rt = e.y[kind.index], e.Rt
        assert abs(d.value * b - raw_first) <= 1e-12 * max(abs(raw_first), 1e-30)
        assert d.rt == raw_rt

    def test_even_in_b(self, params_p, cfg):
        a, T = 0.93 * params_p.a0, 8.0
        for b in (0.1, 0.7):
            plus = desing_eval(a, b, T, SymmetryKind.ODD, params_p, cfg)
            minus = desing_eval(a, -b, T, SymmetryKind.ODD, params_p, cfg)
            assert abs(plus.value - minus.value) < 1e-9
            assert abs(plus.rt - minus.rt) < 1e-9

    def test_gradients_match_finite_differences(self, params_p, cfg):
        self._check_gradients(params_p, cfg, SymmetryKind.ODD)

    def test_doubly_symmetric_gradients_match_finite_differences(self, params_p, cfg):
        self._check_gradients(params_p, cfg, SymmetryKind.DOUBLE)

    @pytest.mark.parametrize("b", [0.0, 0.4])
    def test_doubly_symmetric_form_is_odd_even_at_half_time(self, params_p, cfg, b):
        a, T = 0.95 * params_p.a0, 10.0
        d = desing_eval(a, b, T, SymmetryKind.DOUBLE, params_p, cfg)
        assert_same_as_odd_even_at_half_time(d, a, b, T, params_p, cfg)

    @staticmethod
    def _check_gradients(params_p, cfg, kind):
        a, b, T = 0.95 * params_p.a0, 0.4, 10.0
        d = desing_eval(a, b, T, kind, params_p, cfg)
        step = 1e-6

        def val(aa, bb, tt):
            dd = desing_eval(aa, bb, tt, kind, params_p, cfg)
            return np.array([dd.value, dd.rt, dd.theta])

        for i, (lo, hi) in enumerate(
            [
                (val(a - step, b, T), val(a + step, b, T)),
                (val(a, b - step, T), val(a, b + step, T)),
                (val(a, b, T - step), val(a, b, T + step)),
            ]
        ):
            fd = (hi - lo) / (2.0 * step)
            assert abs(fd[0] - d.grad_value[i]) < 1e-4 * max(1.0, abs(fd[0]))
            assert abs(fd[1] - d.grad_rt[i]) < 1e-4 * max(1.0, abs(fd[1]))
            assert abs(fd[2] - d.grad_theta[i]) < 1e-4 * max(1.0, abs(fd[2]))


def reference_desing_eval(a, b, T, odd, params, config):
    """`desing_eval` as it was before it read the residual's state component
    off the kind, kept as its oracle: the odd form (odd=True) or the
    odd/even form, F_t and R_t at T, with the same arithmetic without its
    floor check and comments, and with the endpoint field values Rtt and
    Thetat that it read by name taken as dy[3] and dy[4]."""
    mu = params.mass_sum
    if b == 0.0:
        e = eval_at(a, 0.0, T, params, config, augmented=True)
        ftil = e.Fb
        value = ftil if odd else e.Ftb
        e2 = eval_at(a, _FD_DB, T, params, config, augmented=True)
        va = (e2.Fa if odd else e2.Fta) / _FD_DB
        vb = 0.0
        vt = e.Ftb if odd else -mu * ftil / params.h(e.F, e.R) ** 3
    else:
        e = eval_at(a, b, T, params, config, augmented=True)
        ftil = e.F / b
        value = ftil if odd else e.Ft / b
        va = (e.Fa if odd else e.Fta) / b
        vb = ((e.Fb if odd else e.Ftb) - value) / b
        vt = e.Ft / b if odd else -mu * ftil / params.h(e.F, e.R) ** 3
    return DesingPoint(
        value,
        e.Rt,
        e.Theta,
        grad_value=np.array([va, vb, vt]),
        grad_rt=np.array([e.Rta, e.Rtb, e.dy[3]]),
        grad_theta=np.array([e.Tha, e.Thb, e.dy[4]]),
    )


def desing_floats(d):
    return [d.value, d.rt, d.theta, *d.grad_value.tolist(), *d.grad_rt.tolist(), *d.grad_theta.tolist()]


def assert_same_as_odd_even_at_half_time(d, a, b, T, params, config):
    """The doubly symmetric data `d` at (a, b, T) is the odd/even oracle's at
    (a, b, T/2), with the T-column of the residual gradients halved and theta
    and its (a, b)-gradient doubled, all exact in floating point."""
    h = reference_desing_eval(a, b, 0.5 * T, False, params, config)
    half, double = np.array([1.0, 1.0, 0.5]), np.array([2.0, 2.0, 1.0])
    old = desing_floats(DesingPoint(h.value, h.rt, 2.0 * h.theta, half * h.grad_value,
                                    half * h.grad_rt, double * h.grad_theta))
    new = desing_floats(d)
    # d(F_t/b)/dT is now the field's F_tt/b, or F_tbt at b = 0, where the
    # oracle has -mu*(F/b)/h^3: the same quantity with its division by b
    # moved, and h^3 as the field computes it
    k = 5  # grad_value[2]
    assert [v.hex() for v in new[:k] + new[k + 1:]] == [v.hex() for v in old[:k] + old[k + 1:]]
    assert abs(new[k] - old[k]) <= 2 * math.ulp(old[k])


class TestDesingReference:
    """`desing_eval` against the branching form it replaced."""

    @pytest.fixture(params=["p1", "q0", "light_seed"])
    def point(self, request, params_p, params_q):
        """(params, a, b, T); b = 0.05 at the light system's seed (a0, T0)."""
        if request.param == "light_seed":
            return params_p, params_p.a0, 0.05, params_p.T0
        pt = request.getfixturevalue(f"{request.param}_corrected")
        return (params_p if request.param == "p1" else params_q), pt.a, pt.b, pt.T

    @pytest.mark.parametrize("kind", [SymmetryKind.ODD, SymmetryKind.DOUBLE])
    @pytest.mark.parametrize("at_zero", [True, False], ids=["b0", "b"])
    def test_same_floats(self, point, cfg, kind, at_zero):
        params, a, b, T = point
        b = 0.0 if at_zero else b
        d = desing_eval(a, b, T, kind, params, cfg)
        if kind is SymmetryKind.ODD:
            old = desing_floats(reference_desing_eval(a, b, T, True, params, cfg))
            assert [v.hex() for v in desing_floats(d)] == [v.hex() for v in old]
        else:
            assert_same_as_odd_even_at_half_time(d, a, b, T, params, cfg)


class TestNewton:
    def test_fixed_b_correction_from_family_seed(self, p1_corrected):
        # validated against the printed member at b = 0.05
        assert abs(p1_corrected.a - 0.8892815) < 1e-6
        assert abs(p1_corrected.T - 28.708) < 1e-3
        assert p1_corrected.b == 0.05  # fixed-b mode never moves b
        assert p1_corrected.residual < 1e-12
        assert abs(p1_corrected.theta - 2.3233) < 1e-3

    def test_iteration_budget_is_enough(self, params_p, cfg):
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        out = newton_correct(seed, params_p, cfg, tol=1e-12, max_flows=10)
        assert out.residual < 1e-12

    def test_heavy_system_reference_point(self, q0_corrected, params_q):
        assert abs(q0_corrected.a - 1.84153) < 1e-4
        assert abs(q0_corrected.b - 3.79392) < 1e-12  # fixed-b
        assert abs(q0_corrected.T - 7.31715) < 1e-4
        assert q0_corrected.residual < 1e-12

    def test_converged_point_returns_without_iterating(self, p1_corrected, params_p, cfg):
        again = newton_correct(p1_corrected, params_p, cfg, tol=1e-10, max_flows=1)
        assert again.a == p1_corrected.a and again.T == p1_corrected.T

    def test_perturbed_point_recovered(self, q0_corrected, params_q, cfg):
        bumped = SeedPoint(
            a=q0_corrected.a * (1.0 + 1e-4),
            b=q0_corrected.b,
            T=q0_corrected.T * (1.0 - 1e-4),
        )
        back = newton_correct(bumped, params_q, cfg, tol=1e-10)
        assert back.residual < 1e-10
        assert abs(back.a - q0_corrected.a) < 1e-6
        assert abs(back.T - q0_corrected.T) < 1e-6

    def test_unconverged_budget_raises(self, params_p, cfg):
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        with pytest.raises(ConvergenceError) as info:
            newton_correct(seed, params_p, cfg, tol=1e-12, max_flows=1)
        assert info.value.reason == "budget"

    def test_flow_budget_counts_every_evaluation(self, p1_corrected, params_p, cfg, monkeypatch):
        flows = count_flows(monkeypatch)
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        assert newton_correct_full(seed, params_p, cfg, tol=1e-12)[0] == p1_corrected
        assert len(flows) == 4  # the first evaluation and three accepted steps
        # a budget the converging evaluation just fits in changes nothing
        assert newton_correct_full(seed, params_p, cfg, tol=1e-12, max_flows=4)[0] == p1_corrected
        flows.clear()
        with pytest.raises(ConvergenceError) as info:
            newton_correct_full(seed, params_p, cfg, tol=1e-12, max_flows=3)
        assert info.value.reason == "budget"
        assert len(flows) == 3
        for k in (3.0, np.int64(3)):  # the same budget, reported as the int 3
            with pytest.raises(ConvergenceError, match="budget spent: 3 flows without"):
                newton_correct_full(seed, params_p, cfg, tol=1e-12, max_flows=k)

    def test_flow_budget_counts_two_flows_per_evaluation_at_b_zero(self, params_p, cfg, monkeypatch):
        # the bifurcation point already solves the b = 0 correction, but its
        # desingularized gradient needs a second, augmented flow
        flows = count_flows(monkeypatch)
        seed = SeedPoint(a=params_p.a0, b=0.0, T=params_p.T0)
        with pytest.raises(ConvergenceError) as info:
            newton_correct_full(seed, params_p, cfg, max_flows=1)
        assert info.value.reason == "budget"
        assert flows == []
        assert newton_correct_full(seed, params_p, cfg, max_flows=2)[0].b == 0.0
        assert len(flows) == 2

    @pytest.mark.parametrize("k", [1, 12])
    def test_flow_budget_stops_a_stalled_call(self, params_p, cfg, monkeypatch, k):
        # Predictor and tangent of the corrector call on the (3, 3, 7, 11)
        # trace to T = 42 that crawls at residuals near 1.7e-4; it spends
        # the whole default budget of 64 flows without meeting the tolerance.
        x = np.array([float.fromhex(h) for h in (
            "0x1.f2dfeb74bf037p-2", "0x1.5764cb2b50a1fp-1", "0x1.57c1f1bb77496p+5")])
        normal = np.array([float.fromhex(h) for h in (
            "-0x1.185999dfda261p-5", "0x1.46cc1be6895efp-6", "0x1.ff9921daf431cp-1")])
        flows = count_flows(monkeypatch)
        guess = SeedPoint(a=x[0], b=x[1], T=x[2])
        with pytest.raises(ConvergenceError) as info:
            newton_correct_full(guess, params_p, cfg, constraint=hyperplane(x, normal), max_flows=k)
        assert info.value.reason == "budget"
        assert len(flows) == k

    def test_trivial_root_is_outside_the_domain(self, params_p, cfg, monkeypatch):
        # Every T = 0 point solves the residual pair, since F ~ b*T there.
        # Newton from this guess heads for it, and without the T floor lands
        # at T ~ 5e-23.
        flows = count_flows(monkeypatch)
        guess = SeedPoint(a=0.95, b=0.05, T=2.0)
        with pytest.raises(ConvergenceError) as info:
            newton_correct(guess, params_p, cfg)
        assert info.value.reason == "line-search"
        assert min(args[2] for args in flows) > T_LOWER * params_p.T0

    @pytest.mark.parametrize("fraction", [1.0, 3.5e-11])
    def test_guess_below_the_T_floor_raises_before_any_flow(self, params_p, cfg, monkeypatch, fraction):
        # at T = 1e-12 (fraction 3.5e-11) the guess already meets the
        # tolerance, since F/b ~ T, so only a check before the first flow
        # can refuse it
        flows = count_flows(monkeypatch)
        guess = SeedPoint(a=0.95, b=0.05, T=fraction * T_LOWER * params_p.T0)
        with pytest.raises(ValueError, match="floor"):
            newton_correct(guess, params_p, cfg)
        assert flows == []

    @pytest.mark.parametrize(
        "name, value",
        [("tol", math.nan), ("tol", math.inf), ("tol", 0.0), ("tol", -1.0), ("max_flows", 0)]
        + [("tol", v) for v in (-math.inf, "1e-9", None)]
        + [("max_flows", v) for v in (math.nan, math.inf, -math.inf, 2.5)],
    )
    def test_bad_setting_raises_before_any_flow(self, params_p, cfg, monkeypatch, name, value):
        flows = count_flows(monkeypatch)
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        with pytest.raises(ValueError, match=name):
            newton_correct(seed, params_p, cfg, **{name: value})
        assert flows == []

    def test_repeated_row_is_a_singular_jacobian(self, params_p, cfg, monkeypatch):
        # a constraint row equal to grad(value) makes the bordered Jacobian singular
        flows = count_flows(monkeypatch)
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        with pytest.raises(ConvergenceError) as info:
            newton_correct(seed, params_p, cfg, constraint=lambda x, d: (0.0, d.grad_value))
        assert info.value.reason == "singular-jacobian"
        assert len(flows) == 1

    def test_non_finite_row_is_a_singular_jacobian(self, params_p, cfg, monkeypatch):
        # a NaN gradient row: the condition number cannot be computed (the SVD
        # does not converge), which counts as singular
        nan_row = np.full(3, np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cond(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], nan_row]))
        flows = count_flows(monkeypatch)
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        with pytest.raises(ConvergenceError) as info:
            newton_correct(seed, params_p, cfg, constraint=lambda x, d: (0.0, nan_row))
        assert info.value.reason == "singular-jacobian"
        assert len(flows) == 1

    def test_line_search_damps_a_trial_whose_flow_fails(self, p1_corrected, params_p, cfg, monkeypatch):
        # the first full trial runs into the ring-collapse guard; the line
        # search halves it as it halves a trial that does not decrease the residual
        trials, inner = [], shoot.desing_eval

        def collapse_once(a, b, T, kind, params, config=None):
            trials.append(np.array([a, b, T]))
            if len(trials) == 2:
                raise FlowError(SimpleNamespace(status=SINGULAR), "ring collapsed")
            return inner(a, b, T, kind, params, config)

        monkeypatch.setattr(shoot, "desing_eval", collapse_once)
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        point = newton_correct(seed, params_p, cfg, tol=1e-12)
        assert point.residual <= 1e-12
        assert abs(point.a - p1_corrected.a) < 1e-9 and abs(point.T - p1_corrected.T) < 1e-9
        full, half = trials[1] - trials[0], trials[2] - trials[0]
        assert np.allclose(half, 0.5 * full, rtol=1e-9, atol=1e-15)

    def test_hyperplane_constraint_enforced(self, p1_corrected, params_p, cfg):
        x_ref = p1_corrected.vector()
        normal = np.array([0.3, 0.8, 0.52])
        normal /= np.linalg.norm(normal)
        shifted = x_ref + 0.01 * normal + np.array([0.0, 0.004, -0.01])
        guess = SeedPoint(a=shifted[0], b=shifted[1], T=shifted[2])
        out = newton_correct(guess, params_p, cfg, tol=1e-10, constraint=hyperplane(shifted, normal))
        assert out.residual < 1e-10
        assert abs(float(np.dot(out.vector() - shifted, normal))) < 1e-10
        assert out.b != p1_corrected.b  # b participates in the correction

    def test_fixed_b_bits_are_pinned(self, p1_corrected, q0_corrected):
        # Recorded with the DOP853 step on x86-64 with numpy 2.4: not
        # portable across platforms.
        assert (p1_corrected.a.hex(), p1_corrected.T.hex()) == (
            "0x1.c74fd8f7e58cap-1", "0x1.cb53e23fbd998p+4"
        )
        assert (q0_corrected.a.hex(), q0_corrected.T.hex()) == (
            "0x1.d76cacbf072a5p+0", "0x1.d44b3955778e8p+2"
        )
        assert q0_corrected.b == 3.79392

    @pytest.mark.parametrize("kind", list(SymmetryKind))
    def test_a_kind_given_by_its_value_corrects_as_the_enum(self, params_p, cfg, kind):
        seed = dict(a=params_p.a0, b=0.02, T=params_p.T0)
        point = newton_correct(SeedPoint(**seed, kind=kind.value), params_p, cfg)
        assert point.kind is kind and point == newton_correct(SeedPoint(**seed, kind=kind), params_p, cfg)

    @pytest.mark.parametrize("kind", [SymmetryKind.ODD, SymmetryKind.DOUBLE])
    def test_circular_family_keeps_b_exactly_zero(self, params_p, cfg, kind):
        seed = SeedPoint(a=1.01 * params_p.a0, b=0.0, T=0.99 * params_p.T0, kind=kind)
        out = newton_correct(seed, params_p, cfg, tol=1e-11)
        assert out.b == 0.0
        assert out.residual <= 1e-11

    def test_full_variant_returns_gradients(self, params_q, cfg):
        seed = SeedPoint(a=1.84153, b=3.79392, T=7.31715)
        point, data, _ = newton_correct_full(seed, params_q, cfg, tol=1e-10)
        assert point.residual < 1e-10
        assert data.grad_value.shape == data.grad_rt.shape == data.grad_theta.shape == (3,)
        assert abs(data.value) <= 1e-10 and abs(data.rt) <= 1e-10

    def test_full_variant_returns_the_contraction(self, p1_corrected, params_p, cfg, monkeypatch):
        # the ratio of the first two full Newton updates; 0.0 before two ran
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        updates = []
        solve = np.linalg.solve

        def recorded(J, r):
            updates.append(solve(J, r))
            return updates[-1]

        monkeypatch.setattr(np.linalg, "solve", recorded)
        _, _, theta0 = newton_correct_full(seed, params_p, cfg, tol=1e-12)
        assert len(updates) == 3
        assert theta0 == np.linalg.norm(updates[1]) / np.linalg.norm(updates[0])
        assert 0.0 < theta0 < 0.25
        updates.clear()
        assert newton_correct_full(seed, params_p, cfg, tol=1e-3)[2] == 0.0
        assert len(updates) == 1
        updates.clear()
        assert newton_correct_full(p1_corrected, params_p, cfg, tol=1e-12)[2] == 0.0
        assert updates == []


class TestClosure:
    def test_odd_orbit_closes_after_two_T(self, p1_corrected, params_p):
        p = p1_corrected
        rhs = make_reduced_rhs(params_p, params_p.r0 * p.a)
        res = flow(rhs, reduced_initial(p.b, params_p), 2.0 * p.T, IntegratorConfig()).require_ok()
        target = reduced_initial(p.b, params_p)
        assert np.max(np.abs(res.y[:4] - target[:4])) < 1e-8

    def test_odd_orbit_midpoint_is_mirror_crossing(self, p1_corrected, params_p, cfg):
        e = eval_at(p1_corrected.a, p1_corrected.b, p1_corrected.T, params_p, cfg)
        assert abs(e.F) < 1e-10
        assert abs(e.Rt) < 1e-10
        assert abs(e.Ft + p1_corrected.b) < 1e-6  # axial velocity reverses sign

    def test_odd_even_orbit(self, params_p, cfg):
        # the odd/even orbit is the odd family's member met in its doubly
        # symmetric form, corrected in odd coordinates
        seed = SeedPoint(a=params_p.a0, b=0.02, T=params_p.T0, kind=SymmetryKind.DOUBLE)
        out = newton_correct(seed, params_p, cfg, tol=1e-12)
        # quarter-period: both velocities vanish
        e = eval_at(out.a, out.b, 0.5 * out.T, params_p, cfg)
        assert abs(e.Ft) < 1e-8 and abs(e.Rt) < 1e-8
        # half-period: an odd-symmetric crossing
        e2 = eval_at(out.a, out.b, out.T, params_p, cfg)
        assert abs(e2.F) < 1e-8 and abs(e2.Rt) < 1e-8
        # full period: closure in all four mechanical components
        rhs = make_reduced_rhs(params_p, params_p.r0 * out.a)
        res = flow(rhs, reduced_initial(out.b, params_p), 2.0 * out.T, IntegratorConfig()).require_ok()
        assert np.max(np.abs(res.y[:4] - reduced_initial(out.b, params_p)[:4])) < 1e-8
