"""Stepper accuracy, dense output, determinism, and failure statuses."""
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import traceback

import numpy as np
import pytest

from ringorbits import integrate as ig
from ringorbits.integrate import (
    BUDGET,
    OK,
    SINGULAR,
    FlowError,
    IntegratorConfig,
    _step_function,
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
            dict(h_max=math.nan),
            dict(h_max=0.0),
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

    # a small step budget, so that a flow that does not check its inputs
    # ends at once instead of spinning through two million steps
    @pytest.mark.parametrize(
        "y0,t_end",
        [
            ([1.0, 0.0], math.inf),
            ([1.0, 0.0], math.nan),
            ([math.nan, 0.0], 1.0),
            ([1.0, math.inf], 1.0),
        ],
    )
    def test_non_finite_times_and_states_rejected(self, monkeypatch, y0, t_end):
        monkeypatch.setattr(ig, "_MAX_STEPS", 100)
        with pytest.raises(ValueError, match="finite"):
            flow(harmonic, y0, t_end)

    def test_non_finite_initial_derivative_rejected(self, monkeypatch):
        def nan_field(t, y):
            return [math.nan, -y[0]]

        monkeypatch.setattr(ig, "_MAX_STEPS", 100)
        with pytest.raises(ValueError, match="vector field is not finite"):
            flow(nan_field, [1.0, 0.0], 1.0)

    @pytest.mark.parametrize("t_end", [0.0, 2.5])
    def test_endpoint_derivative_is_the_field_there(self, t_end):
        res = flow(harmonic, [1.0, 0.0], t_end)
        assert [v.hex() for v in res.dy] == [v.hex() for v in harmonic(res.t, res.y)]

    def test_h_max_respected(self):
        res = flow(harmonic, np.array([1.0, 0.0]), 10.0, IntegratorConfig(h_max=0.125, dense=True))
        res.require_ok()
        assert np.max(np.diff(res.dense.grid)) <= 0.125 + 1e-15

    def test_bitwise_determinism(self, params_q):
        rhs = make_reduced_rhs(params_q, params_q.r0 * 1.84153)
        y0 = reduced_initial(3.79392, params_q)
        one = flow(rhs, y0, 7.31715, IntegratorConfig(dense=True))
        two = flow(rhs, y0, 7.31715, IntegratorConfig(dense=True))
        assert one.n_steps == two.n_steps
        assert np.array_equal(one.y, two.y)
        assert np.array_equal(one.dense.grid, two.dense.grid)
        # dense output only records the steps: a plain flow takes the same ones
        plain = flow(rhs, y0, 7.31715, IntegratorConfig())
        assert plain.n_steps == one.n_steps
        assert np.array_equal(plain.y, one.y)

    def test_budget_status(self, monkeypatch):
        monkeypatch.setattr(ig, "_MAX_STEPS", 5)
        res = flow(harmonic, np.array([1.0, 0.0]), 100.0)
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
        with pytest.raises(FlowError):
            res.require_ok()
        # res.t is the last accepted time, and the collapse follows within 1e-6
        assert all(map(math.isfinite, rhs(res.t, res.y)))
        assert flow(rhs, res.y, 1e-6).status == SINGULAR

    def test_non_finite_probe_gets_a_short_first_step(self):
        # call 1 is the field at the start, call 2 the probe of _initial_step
        # at t = h0, call 3 the second stage of the first trial at t = c2*h
        times = []

        def nan_at_probe(t, y):
            times.append(t)
            return [math.nan, math.nan] if len(times) == 2 else [y[1], -y[0]]

        res = flow(nan_at_probe, [1.0, 0.0], 2.0)
        h0 = times[1]
        assert times[2] == ig._STAGE_ROWS[0][0] * max(h0 * 1e-3, 1e-12 * 2.0)
        assert res.status == OK

    @pytest.mark.parametrize(
        "make_rhs, initial",
        [(make_reduced_rhs, reduced_initial), (make_variational_rhs, augmented_initial)],
    )
    def test_overflowing_derivative_norm_never_divides_by_zero(self, params_p, make_rhs, initial):
        # fdot = 1e200 is f's derivative, scaled by abs_tol: the norm of the
        # scaled derivative overflows, the heuristic's first step came out 0
        # and its probe divided by it
        res = flow(make_rhs(params_p, params_p.r0 * 0.9), initial(1e200, params_p), 20.0)
        assert res.n_steps + res.n_rejected > 0

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
        assert np.array_equal(res.dense.sample([0.0])[0], y0)
        assert np.array_equal(res.dense.sample([res.t])[0], res.y)

    def test_interior_matches_direct_flow(self, q_flow, params_q):
        res, y0 = q_flow
        rhs = make_reduced_rhs(params_q, params_q.r0 * 1.84153)
        for t in (1.0, 2.5, 4.8, 6.9):
            direct = flow(rhs, y0, t, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-13)).require_ok()
            assert np.max(np.abs(res.dense.sample([t])[0] - direct.y)) < 1e-9

    def test_sample_matches_pointwise_at(self, q_flow):
        res, _ = q_flow
        ts = np.linspace(0.0, res.t, 37)
        block = res.dense.sample(ts)
        for row, t in zip(block, ts):
            assert np.array_equal(row, res.dense.sample([float(t)])[0])

    def test_sample_at_step_times_returns_stored_states(self, q_flow):
        res, y0 = q_flow
        block = res.dense.sample(res.dense.grid)
        assert np.array_equal(block, res.dense._states)
        assert np.array_equal(block[0], y0)
        assert np.array_equal(block[-1], res.y)

    def test_out_of_range_rejected(self, q_flow):
        res, _ = q_flow
        with pytest.raises(ValueError):
            res.dense.sample([-1e-9])
        with pytest.raises(ValueError):
            res.dense.sample([res.t + 1e-9])

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

    The values were recorded with the DOP853 step on x86-64 with numpy 2.4;
    they guard reruns within one build, where every bit must repeat.  They are not portable: another platform, compiler or numpy build
    may round differently.
    """

    @pytest.mark.parametrize(
        "augmented, n_steps, F, Rt, Fb",
        [
            (False, 22, "0x1.01f271fc63c6cp-7", "0x1.4af01e057ee9cp-9", None),
            (True, 31, "0x1.01f271fc5a78ap-7", "0x1.4af01e057fa25p-9", "0x1.e384845556413p-2"),
        ],
        ids=["reduced", "augmented"],
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


def left_sum(v):
    total = v[0]
    for x in v[1:]:
        total = total + x
    return total


def reference_step(rhs, t, h, y, k1, atol, rtol):
    """One DOP853 trial written on numpy arrays, the order the generated step follows.

    Stage sums run left to right over the rows of the tableau, then take the
    product with h and the sum with y; the squared scaled errors are added
    left to right, and the two norms are blended as in Hairer's dop853.f.
    """
    y, k = np.asarray(y), {1: np.asarray(k1)}

    def combo(row):
        return left_sum([c * k[j] for j, c in row])

    for s, (c, row) in enumerate(ig._STAGE_ROWS, start=2):
        k[s] = np.asarray(rhs(t + c * h, (y + h * combo(row)).tolist()), dtype=float)
    d = combo(ig._SOLUTION_ROW)
    ynew = y + h * d
    sc = atol + rtol * np.maximum(np.abs(y), np.abs(ynew))
    e5 = combo(ig._ERROR5_ROW) / sc
    e3 = (d - combo(ig._ORDER3_ROW)) / sc
    err5 = left_sum((e5 * e5).tolist())
    deno = (err5 + 0.01 * left_sum((e3 * e3).tolist())) or 1.0
    err = h * err5 / math.sqrt(len(y) * deno)
    return ynew, err, [k[s] for s in range(6, 13)]


def bits(v):
    return np.asarray(v, dtype=float).tobytes()


@pytest.fixture
def first_step_01(monkeypatch):
    """Fix the first trial step at 0.1, the step the pinned bits below were
    recorded with; `_initial_step` would choose another."""
    monkeypatch.setattr(ig, "_initial_step", lambda *args: 0.1)


class TestGeneratedStep:
    """The step written out per component against the array form, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 130])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_trial_step_matches_arrays_bitwise(self, n, as_array):
        rng = np.random.default_rng(1000 + n)
        # rows over six decades, so that the order of the error sum shows
        A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 3, size=(n, 1)) / math.sqrt(n)
        b = rng.standard_normal(n)

        def linear(t, y):
            f = A @ np.asarray(y) + t * b
            return f if as_array else f.tolist()

        y = rng.standard_normal(n).tolist()
        t, h = 0.3, 0.05
        k1 = linear(t, y)
        ynew, err, stages = _step_function(n)(linear, t, h, y, k1, 1e-9, 1e-8)
        want_y, want_err, want_stages = reference_step(linear, t, h, y, k1, 1e-9, 1e-8)
        assert bits(ynew) == bits(want_y)
        assert [bits(k) for k in stages] == [bits(k) for k in want_stages]
        assert err == want_err and 0.0 < err < math.inf

    def test_singularity_in_a_middle_stage_is_retried(self, first_step_01):
        # with the first step fixed, call 16 is the k4 stage of the second
        # trial: the first trial calls stages 2 to 12, then the field at its
        # new state
        calls = itertools.count(1)

        def once(t, y):
            if next(calls) == 16:
                return [math.nan, math.nan]
            return harmonic(t, y)

        res = flow(once, [1.0, 0.0], 2.0, IntegratorConfig())
        assert (res.status, res.n_steps, res.n_rejected) == (OK, 19, 1)
        assert [v.hex() for v in res.y] == ["-0x1.aa226575371a7p-2", "-0x1.d18f6ead1b459p-1"]

    def test_non_finite_field_at_the_new_state_rejects_the_trial(self, first_step_01):
        # with the first step fixed, call 13 is the field at the first
        # trial's new state; every stage of that trial was finite
        calls, times, seen = itertools.count(1), [], []

        def once(t, y):
            times.append(t)
            if next(calls) == 13:
                seen.append(list(y))
                return [math.nan, math.nan]
            return harmonic(t, y)

        res = flow(once, [1.0, 0.0], 2.0, IntegratorConfig())
        clean = flow(harmonic, [1.0, 0.0], 2.0, IntegratorConfig(dense=True))
        first = clean.dense.sample(clean.dense.grid[1:2])[0]  # the state the clean flow accepts first
        assert seen == [first.tolist()]
        assert (res.status, res.n_rejected, clean.n_rejected) == (OK, 1, 0)
        # the trial is retried from t = 0 at the largest shrink, about a third
        assert times[13] == ig._STAGE_ROWS[0][0] * (0.1 / (1.0 / ig._MAX_SHRINK))

    def test_singular_wall_ends_with_the_same_bracket(self, first_step_01):
        def wall(t, y):
            if t > 1.0:
                return [math.nan, math.nan]
            return harmonic(t, y)

        res = flow(wall, [1.0, 0.0], 2.0, IntegratorConfig())
        assert (res.status, res.n_steps, res.n_rejected) == (SINGULAR, 30, 35)
        assert res.t.hex() == "0x1.fffffffffffb3p-1"
        # the wall lies within the step floor of the last accepted time
        assert res.t < 1.0 < res.t + 1e-14 * 2.0

    def test_generated_source_is_shown(self, first_step_01):
        calls = itertools.count(1)

        def fails_in_k4(t, y):
            if next(calls) == 4:
                raise KeyError("k4")
            return [y[1], -y[0]]

        with pytest.raises(KeyError) as info:
            flow(fails_in_k4, [1.0, 0.0], 1.0, IntegratorConfig())
        frames = traceback.extract_tb(info.value.__traceback__)
        step_frame = next(f for f in frames if f.filename == "<ringorbits.integrate step n=2>")
        assert step_frame.line.startswith("k4 = rhs(t + 0.1183503419072274 * h, [")
        source = inspect.getsource(_step_function(5))
        assert source.startswith("def step(rhs, t, h, y, k1, atol, rtol):")
        assert "    y0, y1, y2, y3, y4, = y\n" in source


def tableau():
    """The pair on 1-based stages: A (17 x 17), nodes c and the weight rows.

    Stage 13 is the field at the new state, so its row holds the
    eighth-order weights b; stages 14 to 16 are those of the interpolant.
    """
    A, c = np.zeros((17, 17)), np.zeros(17)
    rows = itertools.chain(enumerate(ig._STAGE_ROWS, start=2), enumerate(ig._DENSE_STAGE_ROWS, start=14))
    for s, (c_s, row) in rows:
        c[s] = c_s
        for j, a in row:
            A[s, j] = a
    c[13] = 1.0
    for j, b in ig._SOLUTION_ROW:
        A[13, j] = b

    def weights(row):
        w = np.zeros(17)
        for j, v in row:
            w[j] = v
        return w

    return A, c, weights


def near(value, target, terms):
    # equal up to the rounding of the decimal coefficients and of the
    # powers of c: a few units in the last place of the largest term
    return abs(value - target) <= 8 * 2.0**-53 * math.fsum(map(abs, terms))


class TestTableau:
    """The transcribed DOP853 coefficients against the conditions they must meet."""

    def test_row_sums_are_the_nodes(self):
        A, c, _ = tableau()
        for s in range(2, 17):
            assert near(math.fsum(A[s]), c[s], [*A[s], c[s]]), s

    @pytest.mark.parametrize("name, order", [("eighth", 8), ("fifth", 5), ("third", 3)])
    def test_weights_meet_the_quadrature_conditions(self, name, order):
        A, c, weights = tableau()
        b = {
            "eighth": A[13],
            "fifth": A[13] - weights(ig._ERROR5_ROW),
            "third": weights(ig._ORDER3_ROW),
        }[name]
        for k in range(order):
            terms = b * c**k
            assert near(math.fsum(terms), 1.0 / (k + 1), terms), k
        # and not one order more: the embedded solutions differ from b
        terms = b * c**order
        assert not near(math.fsum(terms), 1.0 / (order + 1), terms)

    def test_coefficients_match_scipy(self):
        pytest.importorskip("scipy")
        from scipy.integrate._ivp import dop853_coefficients as ref

        A, c, weights = tableau()
        np.testing.assert_array_max_ulp(A[1:, 1:], ref.A, maxulp=1)
        np.testing.assert_array_max_ulp(c[1:], ref.C, maxulp=1)
        np.testing.assert_array_max_ulp(weights(ig._ERROR5_ROW)[1:14], ref.E5, maxulp=1)
        np.testing.assert_array_max_ulp((A[13] - weights(ig._ORDER3_ROW))[1:13], ref.E3[:12], maxulp=1)
        dense = np.array([weights(row)[1:] for row in ig._DENSE_ROWS])
        np.testing.assert_array_max_ulp(dense, ref.D, maxulp=1)


# The endpoint error of a flow at the default tolerance 1e-12: its max-norm
# distance from the same flow at 1e-14.  The points are the three members of
# the benchmark's inputs/members.json on (3, 3, 7, 11), heavy q0 (the seed
# corrected at fixed b) and a point near collision on the heavy family of
# (3, 92, 242, 11).  The errors are those of the DP5(4) pair this step
# replaced, measured before the change, for the reduced flow, the state part
# of the augmented flow and the whole augmented flow.
NEAR_COLLISION = (0.005249, 3.599859, 6.046395)
DP54_ENDPOINT_ERRORS = [
    ("p", (0.8669531797954539, 0.18758239787398256, 29.440535601622745), (9.504e-13, 1.190e-13, 3.702e-12)),
    ("p", (0.775642175355026, 0.4006347048747275, 32.66364538968041), (4.873e-12, 7.407e-13, 8.303e-12)),
    ("p", (0.5479523994755245, 0.6349438170700882, 41.178260698458764), (1.020e-11, 1.875e-12, 3.135e-11)),
    ("q", (1.8415019957043366, 3.79392, 7.317091306183095), (6.857e-12, 1.487e-12, 3.586e-12)),
    ("q", NEAR_COLLISION, (1.662e-06, 2.918e-08, 4.831e-02)),
]
# Near collision the sensitivity columns pass through 1e10 before they end
# near 1: at 1e-12 the step lands 0.24 from its 1e-14 endpoint (and 0.25 from
# its 1e-15 one), where DP5(4) landed 0.073 from the same 1e-15 endpoint.
_NEAR_COLLISION_COLUMNS = pytest.mark.xfail(
    strict=True, reason="the sensitivity columns near collision are less accurate than DP5(4)'s"
)


def _accuracy_cases():
    for system, point, errors in DP54_ENDPOINT_ERRORS:
        for part, dp54 in zip(("reduced", "augmented state", "augmented"), errors):
            marks = _NEAR_COLLISION_COLUMNS if (point, part) == (NEAR_COLLISION, "augmented") else ()
            yield pytest.param(system, point, part, dp54, marks=marks, id=f"{system}-{point[0]}-{part}")


@pytest.mark.parametrize("system, point, part, dp54", list(_accuracy_cases()))
def test_endpoint_at_least_as_close_as_dp54(request, system, point, part, dp54):
    params = request.getfixturevalue(f"params_{system}")
    a, b, T = point
    if part == "reduced":
        rhs, y0 = make_reduced_rhs(params, params.r0 * a), reduced_initial(b, params)
    else:
        rhs, y0 = make_variational_rhs(params, params.r0 * a), augmented_initial(b, params)
    y = flow(rhs, y0, T, IntegratorConfig()).require_ok().y
    ref = flow(rhs, y0, T, IntegratorConfig(rel_tol=1e-14, abs_tol=1e-14)).require_ok().y
    gap = np.abs(y - ref)
    assert float(np.max(gap[:5] if part == "augmented state" else gap)) <= dp54


def test_import_generates_no_step_and_loads_no_new_module():
    # set-up cost: importing the package compiles no step and loads no
    # module beyond numpy's but these
    allowed = {
        "__future__", "_blake2", "_hashlib", "_json", "array", "copy",
        "dataclasses", "hashlib", "json", "ringorbits",
    }
    probe = (
        "import sys, numpy; before = set(sys.modules); import ringorbits; "
        "from ringorbits import integrate; "
        "new = sorted({m.split('.')[0] for m in set(sys.modules) - before}); "
        "import json; print(json.dumps(new)); print(integrate._step_function.cache_info().currsize)"
    )
    src = os.path.dirname(os.path.dirname(ig.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    loaded, generated = out.stdout.splitlines()
    assert set(json.loads(loaded)) <= allowed
    assert generated == "0"


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
        assert (len(plain.y), len(plain.dy), len(aug.y), len(aug.dy)) == (5, 5, 15, 15)
        for name in ("Fa", "Thb"):
            with pytest.raises(IndexError):
                getattr(plain, name)
        # step sequences differ between the 5- and 15-component flows
        assert abs(plain.F - aug.F) < 1e-9
        assert abs(plain.Rt - aug.Rt) < 1e-9
        assert (aug.Fb, aug.Rta) == (aug.y[10], aug.y[8])

    @pytest.mark.parametrize("augmented", [False, True])
    def test_one_flow_and_no_extra_field_call(self, params_p, cfg, monkeypatch, augmented):
        # the endpoint derivative is the flow's last stage: eval_at calls the
        # vector field exactly as often as the flow it runs
        calls = []

        def counting(factory):
            def make(*args):
                rhs = factory(*args)
                return lambda t, y: calls.append(t) or rhs(t, y)
            return make

        monkeypatch.setattr(ig, "make_reduced_rhs", counting(make_reduced_rhs))
        monkeypatch.setattr(ig, "make_variational_rhs", counting(make_variational_rhs))
        a, b, T = params_p.a0, 0.1, 3.0
        pt = eval_at(a, b, T, params_p, cfg, augmented=augmented)
        in_eval = len(calls)
        C = params_p.r0 * a
        if augmented:
            rhs, y0 = ig.make_variational_rhs(params_p, C), augmented_initial(b, params_p)
        else:
            rhs, y0 = ig.make_reduced_rhs(params_p, C), reduced_initial(b, params_p)
        res = flow(rhs, y0, T, cfg)
        assert in_eval == len(calls) - in_eval
        assert pt.dy == tuple(rhs(res.t, res.y))

    @pytest.mark.parametrize("augmented", [False, True])
    def test_collapse_reaches_the_flow_as_nan(self, params_p, monkeypatch, augmented):
        # nearly no angular momentum: the ring falls onto the axis; the field
        # answers below the collision floor with NaN, which the flow rejects
        nan_calls = []

        def recording(factory):
            def make(*args):
                rhs = factory(*args)

                def field(t, y):
                    d = rhs(t, y)
                    if math.isnan(d[0]):
                        nan_calls.append(t)
                    return d
                return field
            return make

        monkeypatch.setattr(ig, "make_reduced_rhs", recording(make_reduced_rhs))
        monkeypatch.setattr(ig, "make_variational_rhs", recording(make_variational_rhs))
        with pytest.raises(FlowError) as err:
            eval_at(params_p.a0 * 1e-5, 0.0, 100.0, params_p, augmented=augmented)
        assert err.value.status == SINGULAR
        assert nan_calls

    def test_negative_time_rejected(self, params_p):
        with pytest.raises(ValueError):
            eval_at(params_p.a0, 0.0, -1.0, params_p)

