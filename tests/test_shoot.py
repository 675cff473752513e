"""Symmetry residuals, desingularization, and the Newton corrector."""
import io
import json
import math

import numpy as np
import pytest

from ringorbits.integrate import IntegratorConfig, eval_at, flow
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
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("odd", SymmetryKind.ODD),
            ("ODD", SymmetryKind.ODD),
            ("odd_even", SymmetryKind.ODD_EVEN),
            ("odd-even", SymmetryKind.ODD_EVEN),
            ("odd/even", SymmetryKind.ODD_EVEN),
            ("  Odd-Even ", SymmetryKind.ODD_EVEN),
        ],
    )
    def test_parse(self, text, kind):
        assert SymmetryKind.parse(text) is kind

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            SymmetryKind.parse("even")

    def test_period_multiples(self):
        assert (SymmetryKind.ODD.q, SymmetryKind.ODD_EVEN.q) == (1, 2)

    def test_residual_components(self):
        # the first residual is F for odd, F_t for odd/even
        assert (SymmetryKind.ODD.index, SymmetryKind.ODD_EVEN.index) == (0, 1)

    def test_doubly_symmetric_form(self):
        # F_t at T/2, in the odd family's coordinates: period 2T
        double = SymmetryKind.DOUBLE
        assert (double.q, double.index, double.family) == (1, 1, SymmetryKind.ODD)
        assert [k.family for k in (SymmetryKind.ODD, SymmetryKind.ODD_EVEN)] == [SymmetryKind.ODD, SymmetryKind.ODD_EVEN]
        with pytest.raises(ValueError, match="expected 'odd' or 'odd_even'"):
            SymmetryKind.parse("double")  # no family of its own, so no --kind value
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
        ],
    )
    def test_non_finite_parameters_rejected(self, kw):
        with pytest.raises(ValueError, match="must be finite"):
            SeedPoint(**kw)

    def test_negative_b_allowed(self):
        SeedPoint(a=1.0, b=-0.3, T=1.0)

    def test_period(self):
        assert SeedPoint(a=1.0, b=0.0, T=3.0).period == 6.0
        assert SeedPoint(a=1.0, b=0.0, T=3.0, kind=SymmetryKind.ODD_EVEN).period == 12.0

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
        p = SeedPoint(a=1.5, b=0.2, T=4.0, kind=SymmetryKind.ODD_EVEN)
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
        pt = SeedPoint(a=params_p.a0, b=0.3, T=4.0, kind=SymmetryKind.ODD_EVEN)
        e = eval_at(pt.a, pt.b, pt.T, params_p, cfg)
        assert e.y[pt.kind.index] == e.Ft


class TestDesing:
    def test_smooth_across_zero(self, params_p, cfg):
        at_zero = desing_eval(params_p.a0, 0.0, params_p.T0, SymmetryKind.ODD, params_p, cfg)
        nearby = desing_eval(params_p.a0, 1e-8, params_p.T0, SymmetryKind.ODD, params_p, cfg)
        assert abs(at_zero.value - nearby.value) < 1e-6
        assert abs(at_zero.rt - nearby.rt) < 1e-6

    @pytest.mark.parametrize("kind", [SymmetryKind.ODD, SymmetryKind.ODD_EVEN])
    def test_value_times_b_recovers_raw_residual(self, params_p, cfg, kind):
        a, b, T = 0.95 * params_p.a0, 0.4, 10.0
        d = desing_eval(a, b, T, kind, params_p, cfg)
        # desing_eval reads the augmented flow; its base components are the raw pair
        e = eval_at(a, b, T, params_p, cfg, augmented=True)
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
        # the same flow to T/2: the T-column of the residual gradients halved,
        # theta and its (a, b)-gradient doubled, all bit for bit
        a, T = 0.95 * params_p.a0, 10.0
        d = desing_eval(a, b, T, SymmetryKind.DOUBLE, params_p, cfg)
        h = desing_eval(a, b, 0.5 * T, SymmetryKind.ODD_EVEN, params_p, cfg)
        half, double = np.array([1.0, 1.0, 0.5]), np.array([2.0, 2.0, 1.0])
        assert (d.value, d.rt, d.theta) == (h.value, h.rt, 2.0 * h.theta)
        assert np.array_equal(d.grad_value, half * h.grad_value)
        assert np.array_equal(d.grad_rt, half * h.grad_rt)
        assert np.array_equal(d.grad_theta, double * h.grad_theta)

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


def reference_desing_eval(a, b, T, kind, params, config):
    """`desing_eval` as it was before it read the residual's state component
    off the kind, kept as its oracle: the same arithmetic without its floor
    check and comments, with the endpoint field values Rtt and Thetat that
    it read by name taken as dy[3] and dy[4]."""
    odd = kind is SymmetryKind.ODD
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


class TestDesingReference:
    """`desing_eval` against the branching form it replaced."""

    @pytest.fixture(params=["p1", "q0", "light_seed"])
    def point(self, request, params_p, params_q):
        """(params, a, b, T); b = 0.05 at the light system's seed (a0, T0)."""
        if request.param == "light_seed":
            return params_p, params_p.a0, 0.05, params_p.T0
        pt = request.getfixturevalue(f"{request.param}_corrected")
        return (params_p if request.param == "p1" else params_q), pt.a, pt.b, pt.T

    @pytest.mark.parametrize("kind", [SymmetryKind.ODD, SymmetryKind.ODD_EVEN])
    @pytest.mark.parametrize("at_zero", [True, False], ids=["b0", "b"])
    def test_same_floats(self, point, cfg, kind, at_zero):
        params, a, b, T = point
        b = 0.0 if at_zero else b
        new = desing_floats(desing_eval(a, b, T, kind, params, cfg))
        old = desing_floats(reference_desing_eval(a, b, T, kind, params, cfg))
        if kind is SymmetryKind.ODD:
            assert [v.hex() for v in new] == [v.hex() for v in old]
        else:
            # d(F_t/b)/dT is now the field's F_tt/b, or F_tbt at b = 0, where
            # it was -mu*(F/b)/h^3: the same quantity with its division by b
            # moved, and h^3 as the field computes it
            k = 5  # grad_value[2]
            assert [v.hex() for v in new[:k] + new[k + 1:]] == [v.hex() for v in old[:k] + old[k + 1:]]
            assert abs(new[k] - old[k]) <= 2 * math.ulp(old[k])


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
        [("tol", math.nan), ("tol", math.inf), ("tol", 0.0), ("tol", -1.0), ("max_flows", 0)],
    )
    def test_bad_setting_raises_before_any_flow(self, params_p, cfg, monkeypatch, name, value):
        flows = count_flows(monkeypatch)
        seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
        with pytest.raises(ValueError, match=name):
            newton_correct(seed, params_p, cfg, **{name: value})
        assert flows == []

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

    @pytest.mark.parametrize("kind", [SymmetryKind.ODD, SymmetryKind.ODD_EVEN])
    def test_circular_family_keeps_b_exactly_zero(self, params_p, cfg, kind):
        T = params_p.T0 if kind is SymmetryKind.ODD else 0.5 * params_p.T0
        seed = SeedPoint(a=1.01 * params_p.a0, b=0.0, T=0.99 * T, kind=kind)
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
        seed = SeedPoint(a=params_p.a0, b=0.02, T=params_p.T0 / 2.0, kind=SymmetryKind.ODD_EVEN)
        out = newton_correct(seed, params_p, cfg, tol=1e-12)
        # quarter-period: both velocities vanish
        e = eval_at(out.a, out.b, out.T, params_p, cfg)
        assert abs(e.Ft) < 1e-8 and abs(e.Rt) < 1e-8
        # half-period: an odd-symmetric crossing
        e2 = eval_at(out.a, out.b, 2.0 * out.T, params_p, cfg)
        assert abs(e2.F) < 1e-8 and abs(e2.Rt) < 1e-8
        # full period: closure in all four mechanical components
        rhs = make_reduced_rhs(params_p, params_p.r0 * out.a)
        res = flow(rhs, reduced_initial(out.b, params_p), 4.0 * out.T, IntegratorConfig()).require_ok()
        assert np.max(np.abs(res.y[:4] - reduced_initial(out.b, params_p)[:4])) < 1e-8
