"""Stepper accuracy, dense output, determinism, and failure statuses."""
import math

import numpy as np
import pytest

from ringorbits.integrate import (
    BUDGET,
    OK,
    SINGULAR,
    FlowError,
    IntegratorConfig,
    _pairwise_sum,
    eval_at,
    flow,
)
from ringorbits.model import (
    augmented_initial,
    make_reduced_rhs,
    make_variational_rhs,
    reduced_initial,
)


def harmonic(t, y):
    return np.array([y[1], -y[0]])


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(rel_tol=0.0),
            dict(rel_tol=1e-2),
            dict(abs_tol=-1e-12),
            dict(max_steps=0),
            dict(h_max=0.0),
            dict(h_init=-1.0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            IntegratorConfig(**kw)

    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.rel_tol == 1e-12 and cfg.abs_tol == 1e-12
        assert cfg.h_max is None and cfg.dense is False


class TestFlow:
    def test_harmonic_oscillator_closed_form(self):
        t_end = 17.3
        res = flow(harmonic, np.array([1.0, 0.0]), t_end, IntegratorConfig())
        res.require_ok()
        assert res.t == t_end
        assert abs(res.y[0] - math.cos(t_end)) < 1e-9
        assert abs(res.y[1] + math.sin(t_end)) < 1e-9

    def test_backward_time_rejected(self):
        with pytest.raises(ValueError):
            flow(harmonic, np.array([1.0, 0.0]), -1.0)

    def test_h_max_respected(self):
        res = flow(harmonic, np.array([1.0, 0.0]), 10.0, IntegratorConfig(h_max=0.125))
        res.require_ok()
        assert np.max(np.diff(res.step_times)) <= 0.125 + 1e-15

    def test_bitwise_determinism(self, params_q):
        rhs = make_reduced_rhs(params_q, params_q.r0 * 1.84153)
        y0 = reduced_initial(3.79392, params_q)
        one = flow(rhs, y0, 7.31715, IntegratorConfig())
        two = flow(rhs, y0, 7.31715, IntegratorConfig())
        assert one.n_steps == two.n_steps
        assert np.array_equal(one.y, two.y)
        assert np.array_equal(one.step_times, two.step_times)

    def test_budget_status(self):
        res = flow(harmonic, np.array([1.0, 0.0]), 100.0, IntegratorConfig(max_steps=5))
        assert res.status == BUDGET
        assert res.t < 100.0
        with pytest.raises(FlowError) as err:
            res.require_ok()
        assert err.value.status == BUDGET

    def test_singular_status_brackets_the_collapse(self, params_p):
        # nearly no angular momentum: the ring falls onto the axis
        rhs = make_reduced_rhs(params_p, params_p.r0 * 1e-5)
        res = flow(rhs, reduced_initial(0.0, params_p), 100.0, IntegratorConfig())
        assert res.status == SINGULAR
        lo, hi = res.singular_bracket
        assert lo <= res.t <= hi
        assert hi - lo < 1e-6
        with pytest.raises(FlowError):
            res.require_ok()

    def test_tolerance_halving_is_monotone(self, params_q):
        """Halving both tolerances never increases the endpoint error.

        Error is measured against a much tighter reference run.
        """
        a, b, T = 1.84153, 3.79392, 7.31715
        rhs = make_reduced_rhs(params_q, params_q.r0 * a)
        y0 = reduced_initial(b, params_q)
        ref = flow(rhs, y0, T, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-13)).require_ok()
        tol = 1e-6
        errs = []
        for _ in range(10):
            res = flow(rhs, y0, T, IntegratorConfig(rel_tol=tol, abs_tol=tol)).require_ok()
            errs.append(float(np.max(np.abs(res.y - ref.y))))
            tol /= 2.0
        assert all(b_ <= a_ for a_, b_ in zip(errs, errs[1:]))
        assert errs[-1] < errs[0]


@pytest.fixture(scope="module")
def q_flow(params_q):
    rhs = make_reduced_rhs(params_q, params_q.r0 * 1.84153)
    y0 = reduced_initial(3.79392, params_q)
    res = flow(rhs, y0, 7.31715, IntegratorConfig(dense=True)).require_ok()
    return res, y0


class TestDenseOutput:
    def test_step_boundaries_bitwise(self, q_flow):
        res, y0 = q_flow
        assert np.array_equal(res.dense.at(0.0), y0)
        assert np.array_equal(res.dense.at(res.t), res.y)

    def test_interior_matches_direct_flow(self, q_flow, params_q):
        res, y0 = q_flow
        rhs = make_reduced_rhs(params_q, params_q.r0 * 1.84153)
        for t in (1.0, 2.5, 4.8, 6.9):
            direct = flow(rhs, y0, t, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-13)).require_ok()
            assert np.max(np.abs(res.dense.at(t) - direct.y)) < 1e-9

    def test_sample_matches_pointwise_at(self, q_flow):
        res, _ = q_flow
        ts = np.linspace(0.0, res.t, 37)
        block = res.dense.sample(ts)
        for row, t in zip(block, ts):
            assert np.array_equal(row, res.dense.at(float(t)))

    def test_sample_at_step_times_returns_stored_states(self, q_flow):
        res, y0 = q_flow
        block = res.dense.sample(res.step_times)
        assert np.array_equal(block, res.dense._states)
        assert np.array_equal(block[0], y0)
        assert np.array_equal(block[-1], res.y)

    def test_out_of_range_rejected(self, q_flow):
        res, _ = q_flow
        with pytest.raises(ValueError):
            res.dense.at(-1e-9)
        with pytest.raises(ValueError):
            res.dense.at(res.t + 1e-9)

    def test_sample_rejects_one_time_out_of_range(self, q_flow):
        res, _ = q_flow
        ts = np.linspace(0.0, res.t, 9)
        for bad in (-1e-9, res.t + 1e-9):
            with pytest.raises(ValueError, match="outside the integrated range"):
                res.dense.sample(np.append(ts, bad))

    def test_absent_without_flag(self):
        res = flow(harmonic, np.array([1.0, 0.0]), 1.0, IntegratorConfig())
        assert res.dense is None


class TestBitExact:
    """Pinned floats of the light system at the bifurcation seed (a0, 0.05, T0).

    The values were recorded with the earlier numpy-array form of the step on
    the same build; they guard reruns within one build, where every bit must
    repeat.  They are not portable: another platform, compiler or numpy build
    may round differently.
    """

    @pytest.mark.parametrize(
        "augmented, n_steps, F, Rt, Fb",
        [
            (False, 143, "0x1.01f271fc46275p-7", "0x1.4af01e0554e5ep-9", None),
            (True, 216, "0x1.01f271fc58b57p-7", "0x1.4af01e057c464p-9", "0x1.e384845554acep-2"),
        ],
    )
    def test_seed_point_bits(self, params_p, augmented, n_steps, F, Rt, Fb):
        a, b, T = params_p.a0, 0.05, params_p.T0
        pt = eval_at(a, b, T, params_p, IntegratorConfig(), augmented=augmented)
        if augmented:
            rhs, y0 = make_variational_rhs(params_p, params_p.r0 * a), augmented_initial(b, params_p)
        else:
            rhs, y0 = make_reduced_rhs(params_p, params_p.r0 * a), reduced_initial(b, params_p)
        res = flow(rhs, y0, T, IntegratorConfig()).require_ok()
        assert res.n_steps == n_steps
        assert res.y[0] == pt.F
        assert (pt.F.hex(), pt.Rt.hex()) == (F, Rt)
        assert (pt.Fb.hex() if augmented else None) == Fb

    def test_error_norm_sums_in_numpy_order(self):
        # the step's norm must add its squares exactly as np.sum does
        rng = np.random.default_rng(7)
        for n in range(1, 300):
            v = rng.uniform(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
            assert _pairwise_sum(v.tolist()) == np.sum(v)


class TestEvalAt:
    def test_circular_point_of_light_system(self, params_p, cfg):
        pt = eval_at(params_p.a0, 0.0, params_p.T0, params_p, cfg)
        assert pt.F == 0.0
        assert abs(pt.Rt) < 1e-9
        assert abs(pt.R - params_p.r0) < 1e-9
        # swing angle over the half period of the trivial solution
        assert abs(pt.Theta - math.pi * math.sqrt((math.sqrt(3.0) + 7.0) / 4.0) / 2.0) < 1e-9

    def test_reference_point_of_light_system(self, params_p, cfg):
        # residuals of the printed nearby orbit are small but nonzero
        pt = eval_at(0.8892815, 0.05, 28.708, params_p, cfg)
        assert abs(pt.F) < 1e-5
        assert abs(pt.Rt) < 1e-5
        assert abs(pt.F) > 1e-9 or abs(pt.Rt) > 1e-9

    def test_reference_point_of_heavy_system(self, params_q, cfg):
        pt = eval_at(1.84153, 3.79392, 7.31715, params_q, cfg)
        assert abs(pt.F) < 1e-3
        assert abs(pt.R - params_q.r0) < 1e-2

    def test_augmented_flag(self, params_p, cfg):
        plain = eval_at(params_p.a0, 0.1, 3.0, params_p, cfg)
        aug = eval_at(params_p.a0, 0.1, 3.0, params_p, cfg, augmented=True)
        assert not plain.augmented
        assert aug.augmented
        # step sequences differ between the 5- and 15-component flows
        assert abs(plain.F - aug.F) < 1e-9
        assert abs(plain.Rt - aug.Rt) < 1e-9
        assert aug.Fb is not None and aug.Rta is not None

    def test_negative_time_rejected(self, params_p):
        with pytest.raises(ValueError):
            eval_at(params_p.a0, 0.0, -1.0, params_p)

