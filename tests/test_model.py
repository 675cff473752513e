"""Closed forms, right-hand sides, energy, and the full-space lift, checked
against the pairwise Newtonian field `full_rhs` defined here."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringorbits import model
from ringorbits.integrate import IntegratorConfig, flow
from ringorbits.model import (
    CartesianState,
    SystemParams,
    augmented_initial,
    cartesian_energy,
    cartesian_lift,
    center_of_mass,
    lambda_n,
    make_reduced_rhs,
    make_variational_rhs,
    reduced_energy,
    reduced_initial,
    total_angular_momentum,
    total_momentum,
)


class TestLambda:
    def test_two_ring_bodies_exact(self):
        assert lambda_n(2) == 0.25

    def test_three_ring_bodies(self):
        assert abs(lambda_n(3) - 3.0 ** -0.5) < 1e-12
        assert lambda_n(3.0) == lambda_n(np.int64(3)) == lambda_n(3)

    def test_four_ring_bodies(self):
        assert abs(lambda_n(4) - (1.0 + 2.0 * math.sqrt(2.0)) / 4.0) < 1e-12

    @given(st.integers(min_value=2, max_value=400))
    def test_positive_and_below_linear_bound(self, n):
        val = lambda_n(n)
        assert 0.0 < val < n

    def test_strictly_increasing(self):
        vals = [lambda_n(n) for n in range(2, 101)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [1, 0, -3, math.nan, math.inf, -math.inf, 2.5])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 2, got {bad!r}")):
            lambda_n(bad)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            lambda_n(2.5)

    def test_ring_above_the_cap_rejected_before_the_sum(self):
        # the O(n) csc sum would stall every command for an n such as 1e11
        assert model.N_MAX == 10**6
        with pytest.raises(ValueError, match=re.escape("n must be at most N_MAX = 1000000, got 1000001")):
            lambda_n(model.N_MAX + 1)
        with pytest.raises(ValueError, match="N_MAX"):
            SystemParams(n=model.N_MAX + 1, m=1.0, M=1.0, r0=1.0)


def test_json_format(tmp_path):
    obj = {"b": [1.0, 0.1], "a": {"z": 1, "y": None}}
    path = tmp_path / "x.json"
    with open(path, "w", encoding="utf-8") as fh:
        model.write_json(obj, fh)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestSystemParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=1, m=1.0, M=1.0, r0=1.0),
            dict(n=3, m=0.0, M=1.0, r0=1.0),
            dict(n=3, m=-2.0, M=1.0, r0=1.0),
            dict(n=3, m=1.0, M=-0.5, r0=1.0),
            dict(n=3, m=1.0, M=1.0, r0=0.0),
            dict(n=3, m=math.nan, M=1.0, r0=1.0),
            dict(n=3, m=1.0, M=math.inf, r0=1.0),
            # n = inf once raised OverflowError, from int(inf)
            *(dict(n=n, m=1.0, M=1.0, r0=1.0) for n in (math.inf, -math.inf, math.nan, 2.5)),
            dict(n=3, m=-math.inf, M=1.0, r0=1.0),
            dict(n=3, m=1.0, M=math.nan, r0=1.0),
            dict(n=3, m=1.0, M=-math.inf, r0=1.0),
            dict(n=3, m=1.0, M=1.0, r0=math.inf),
            dict(n=3, m="3", M=1.0, r0=1.0),
            dict(n=3, m=1.0, M=None, r0=1.0),
            dict(n=3, m=1.0, M=1.0, r0="11"),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SystemParams(**kw)

    def test_reals_are_stored_as_floats(self):
        p = SystemParams(n=3, m=np.float32(3.0), M=np.float64(7.0), r0=11)
        assert [type(v) for v in (p.m, p.M, p.r0)] == [float, float, float]
        assert p == SystemParams(n=3, m=3.0, M=7.0, r0=11.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(r0=1e200),   # r0**3 overflows in T0
            dict(r0=1e-200),  # r0**3 underflows: T0 = 0
            dict(M=1e308),    # kappa**2 overflows
            dict(m=1e-170),   # kappa**2 overflows
            dict(m=1e-310),   # kappa overflows
        ],
    )
    def test_values_leaving_the_float_range_rejected(self, kw):
        with pytest.raises(ValueError, match=r"kappa\*\*2 of"):
            SystemParams(**{"n": 3, "m": 3.0, "M": 7.0, "r0": 11.0, **kw})

    def test_massless_axial_body_allowed(self):
        p = SystemParams(n=4, m=2.0, M=0.0, r0=3.0)
        assert p.kappa == 1.0  # (M + nm)/(mn) with M = 0
        assert p.z_factor == 0.0

    def test_derived_constants(self, params_p):
        assert params_p.mass_sum == 16.0
        assert abs(params_p.kappa - 16.0 / 9.0) < 1e-15
        assert abs(params_p.z_factor - 7.0 / 9.0) < 1e-15
        expected_a0 = math.sqrt((3.0 * lambda_n(3) + 7.0) / 11.0)
        assert abs(params_p.a0 - expected_a0) < 1e-15
        expected_T0 = math.pi * math.sqrt(11.0 ** 3 / 16.0)
        assert abs(params_p.T0 - expected_T0) < 1e-12

    def test_h_is_weighted_hypot(self, params_p):
        f, r = 0.7, 9.5
        assert abs(params_p.h(f, r) - math.hypot(r, params_p.kappa * f)) < 1e-15
        assert params_p.h(0.0, r) == r

    def test_dict_roundtrip_exact(self, params_q):
        again = SystemParams.from_dict(params_q.to_dict())
        assert again == params_q

    @pytest.mark.parametrize("n", [3.7, "3.5", math.nan, math.inf, -math.inf, 1])
    def test_from_dict_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            SystemParams.from_dict({"n": n, "m": 1.0, "M": 1.0, "r0": 1.0})

    def test_from_dict_names_the_missing_keys(self):
        with pytest.raises(ValueError, match=r"missing parameter keys: \['M', 'r0'\]"):
            SystemParams.from_dict({"n": 3, "m": 1.0})

    def test_from_dict_normalises_an_integral_n(self):
        for n in (3.0, "3", np.int64(3)):
            p = SystemParams.from_dict({"n": n, "m": 1.0, "M": 1.0, "r0": 1.0})
            assert type(p.n) is int and p.n == 3


class TestReducedRhs:
    def test_circular_seed_is_equilibrium(self, params_p):
        a0, r0 = params_p.a0, params_p.r0
        rhs = make_reduced_rhs(params_p, r0 * a0)
        d = rhs(0.0, np.array([0.0, 0.0, r0, 0.0, 0.0]))
        assert d[0] == 0.0 and d[2] == 0.0
        assert abs(d[1]) == 0.0  # axial acceleration odd in f
        assert abs(d[3]) < 1e-15  # radial balance defines a0
        assert abs(d[4] - a0 / r0) < 1e-15  # thetadot = C/r^2 at r = r0

    def test_axial_acceleration_odd_in_f(self, params_p):
        rhs = make_reduced_rhs(params_p, 8.0)
        y = np.array([0.31, -0.2, 9.7, 0.4, 1.0])
        y_neg = y * np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
        d, d_neg = rhs(0.0, y), rhs(0.0, y_neg)
        assert abs(d[1] + d_neg[1]) < 1e-15
        assert abs(d[3] - d_neg[3]) < 1e-15

    def test_q_system_circular_thetadot(self, params_q):
        # a0 = sqrt(22 + 92/(11*sqrt(3))) for the heavy system
        assert abs(params_q.a0 - math.sqrt(22.0 + 92.0 / (11.0 * math.sqrt(3.0)))) < 1e-12
        rhs = make_reduced_rhs(params_q, params_q.r0 * params_q.a0)
        d = rhs(0.0, np.array([0.0, 0.0, 11.0, 0.0, 0.0]))
        assert abs(d[4] - params_q.a0 / 11.0) < 1e-14

    @pytest.mark.parametrize(
        "make, initial", [(make_reduced_rhs, reduced_initial), (make_variational_rhs, augmented_initial)]
    )
    def test_field_is_nan_below_the_floor(self, params_p, make, initial):
        # at and below the collision floor every component is NaN, down to
        # r = 0, where the equations would divide by zero
        rhs = make(params_p, 2.0)
        y = initial(0.0, params_p)
        floor = model.R_FLOOR_FRACTION * params_p.r0
        y[2] = 2.0 * floor
        assert all(map(math.isfinite, rhs(3.25, y.tolist())))
        for r in (floor, 1e-12, 0.0):
            y[2] = r
            d = rhs(3.25, y.tolist())
            assert len(d) == len(y) and all(map(math.isnan, d))
        # a flow cannot start there
        with pytest.raises(ValueError, match="not finite at the initial state"):
            flow(rhs, y, 1.0)

    @pytest.mark.parametrize(
        "make, initial", [(make_reduced_rhs, reduced_initial), (make_variational_rhs, augmented_initial)]
    )
    def test_field_never_reads_the_phases(self, params_q, make, initial):
        # theta, theta_a and theta_b (components 4, 9 and 14) leave every
        # component unchanged to the bit: the fused step skips their stage sums
        rng = np.random.default_rng(20261020)
        for _ in range(20):
            rhs = make(params_q, params_q.r0 * params_q.a0 * rng.uniform(0.5, 1.5))
            y = initial(rng.normal(), params_q) + rng.normal(size=len(initial(0.0, params_q)))
            moved = y.copy()
            moved[[4, 9, 14][: len(y) // 5]] = rng.normal(scale=1e3, size=len(y) // 5)
            assert [v.hex() for v in rhs(0.0, y.tolist())] == [v.hex() for v in rhs(0.0, moved.tolist())]

    @pytest.mark.parametrize(
        "make, initial", [(make_reduced_rhs, reduced_initial), (make_variational_rhs, augmented_initial)]
    )
    def test_factories_return_python_floats(self, make, initial):
        # numpy scalars in the parameters or in C must not reach the step loop
        p = SystemParams(n=3, m=np.float64(3.0), M=np.float64(7.0), r0=np.float64(11.0))
        rhs = make(p, np.float64(11.0) * np.float64(0.9))
        d = rhs(0.0, initial(0.3, p).tolist())
        assert all(type(v) is float for v in d)

    def test_trivial_family_axial_component_stays_zero(self, params_p):
        # F(a, 0, t) = 0 for every a: launching with b = 0 never excites f
        a = 1.2 * params_p.a0
        rhs = make_reduced_rhs(params_p, params_p.r0 * a)
        res = flow(rhs, reduced_initial(0.0, params_p), 25.0, IntegratorConfig(dense=True))
        res.require_ok()
        samples = res.dense.sample(np.linspace(0.0, 25.0, 301))
        assert np.all(samples[:, 0] == 0.0)
        assert np.all(samples[:, 1] == 0.0)
        assert np.ptp(samples[:, 2]) > 0.1  # the radius genuinely oscillates

    def test_axial_parity_in_b(self, params_p):
        # f is odd and r even under b -> -b along the whole flow
        a, t_end = 0.95 * params_p.a0, 7.0
        rhs = make_reduced_rhs(params_p, params_p.r0 * a)
        for b in (0.05, 0.4, 1.3):
            plus = flow(rhs, reduced_initial(b, params_p), t_end, IntegratorConfig())
            minus = flow(rhs, reduced_initial(-b, params_p), t_end, IntegratorConfig())
            plus.require_ok(), minus.require_ok()
            assert abs(plus.y[0] + minus.y[0]) < 1e-10
            assert abs(plus.y[2] - minus.y[2]) < 1e-10


class TestVariationalRhs:
    def test_closed_forms_on_circular_family(self, params_p):
        """The b-column solves a harmonic oscillator, the a-column a forced one."""
        p = params_p
        mu = p.M + p.m * p.n
        w_f = math.sqrt(mu / p.r0 ** 3)
        w_r = math.sqrt((p.lam * p.m + p.M) / p.r0 ** 3)
        rhs = make_variational_rhs(p, p.r0 * p.a0)
        for frac in (0.3, 0.5, 0.9):
            t = frac * p.T0
            res = flow(rhs, augmented_initial(0.0, p), t, IntegratorConfig())
            res.require_ok()
            fb = math.sin(w_f * t) / w_f
            ra = 2.0 / w_r * (1.0 - math.cos(w_r * t))
            rta = 2.0 * math.sin(w_r * t)
            assert abs(res.y[10] - fb) < 1e-9
            assert abs(res.y[7] - ra) < 1e-9
            assert abs(res.y[8] - rta) < 1e-9
            assert abs(res.y[12]) < 1e-10  # R_b vanishes identically
            assert abs(res.y[13]) < 1e-10  # R_bt too

    @pytest.mark.parametrize("system", [(3, 3, 7, 11.0), (3, 92, 242, 11.0), (2, 2, 10, 3.0)])
    def test_jacobian_matches_central_differences_of_the_field(self, system):
        """Each sensitivity entry is the directional derivative of the reduced
        field along its column; the a-column adds the explicit C = r0*a term."""
        p = SystemParams(*system)
        rng = np.random.default_rng(20261018)
        step = 1e-6

        def field(a, y):
            return np.array(make_reduced_rhs(p, p.r0 * a)(0.0, y.tolist()))

        for _ in range(20):
            a = p.a0 * rng.uniform(0.5, 1.5)
            f = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0) * p.r0
            y = np.array([f, rng.normal(), p.r0 * rng.uniform(0.5, 1.5), rng.normal(), rng.uniform(0.0, 6.0)])
            ya, yb = rng.normal(size=5), rng.normal(size=5)
            d = np.array(make_variational_rhs(p, p.r0 * a)(0.0, [*y, *ya, *yb]))
            assert np.array_equal(d[:5], field(a, y))
            fd_a = (field(a + step, y + step * ya) - field(a - step, y - step * ya)) / (2.0 * step)
            fd_b = (field(a, y + step * yb) - field(a, y - step * yb)) / (2.0 * step)
            assert np.max(np.abs(fd_a - d[5:10]) / (1.0 + np.abs(d[5:10]))) < 1e-7
            assert np.max(np.abs(fd_b - d[10:15]) / (1.0 + np.abs(d[10:15]))) < 1e-7

    def test_sensitivities_match_central_differences(self, params_p):
        a, b, T = 0.93 * params_p.a0, 0.6, 9.0
        cfg = IntegratorConfig()

        def end_state(aa, bb):
            rhs = make_reduced_rhs(params_p, params_p.r0 * aa)
            res = flow(rhs, reduced_initial(bb, params_p), T, cfg)
            res.require_ok()
            return res.y

        res = flow(make_variational_rhs(params_p, params_p.r0 * a), augmented_initial(b, params_p), T, cfg)
        res.require_ok()
        step = 1e-6
        fd_a = (end_state(a + step, b) - end_state(a - step, b)) / (2.0 * step)
        fd_b = (end_state(a, b + step) - end_state(a, b - step)) / (2.0 * step)
        exact_a = np.array([res.y[5], res.y[6], res.y[7], res.y[8], res.y[9]])
        exact_b = np.array([res.y[10], res.y[11], res.y[12], res.y[13], res.y[14]])
        assert np.max(np.abs(fd_a - exact_a) / np.maximum(1.0, np.abs(exact_a))) < 1e-5
        assert np.max(np.abs(fd_b - exact_b) / np.maximum(1.0, np.abs(exact_b))) < 1e-5


# Reduced states are arrays (f, fdot, r, rdot, theta).  The lift checks run
# on the light system and on a ring of 473 bodies with the same masses.
RING_473 = SystemParams(n=473, m=3.0, M=7.0, r0=11.0)


class TestReducedEnergy:
    def test_f_zero_closed_form(self, params_p):
        p = params_p
        C = 7.3
        r, rdot = 8.2, -0.4
        expected = (
            p.n * p.m / 2.0 * (rdot ** 2 + (C / r) ** 2)
            - p.n * p.m ** 2 * p.lam / r
            - p.n * p.m * p.M / r
        )
        assert abs(reduced_energy(np.array([0.0, 0.0, r, rdot, 1.1]), p, C) - expected) < 1e-12

    def test_conserved_along_reference_trajectory(self, params_q):
        # the printed-seed trajectory of the heavy system over one full period
        a, b, T = 1.84153, 3.79392, 7.31715
        C = params_q.r0 * a
        rhs = make_reduced_rhs(params_q, C)
        cfg = IntegratorConfig(dense=True)
        res = flow(rhs, reduced_initial(b, params_q), 2.0 * T, cfg)
        res.require_ok()
        e0 = reduced_energy(reduced_initial(b, params_q), params_q, C)
        ts = np.linspace(0.0, 2.0 * T, 97)
        drift = max(abs(reduced_energy(y, params_q, C) - e0) for y in res.dense.sample(ts))
        assert drift / abs(e0) < 1e-9

    def test_singularity_on_nonpositive_radius(self, params_p):
        with pytest.raises(ValueError, match="not positive"):
            reduced_energy(np.zeros(5), params_p, 1.0)


class TestCartesianLift:
    def test_flat_ring_geometry(self, params_p):
        state = np.array([0.0, 0.0, 11.0, 0.0, 0.0])
        cs = cartesian_lift(state, params_p, params_p.r0 * params_p.a0)
        assert np.allclose(cs.positions[0], 0.0, atol=1e-15)
        angles = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
        expected = 11.0 * np.stack([np.cos(angles), np.sin(angles), np.zeros(3)], axis=1)
        assert np.allclose(cs.positions[1:], expected, atol=1e-12)

    def test_central_to_ring_distance_is_h(self, params_p):
        f, r = 0.53, 9.4
        cs = cartesian_lift(np.array([f, 0.1, r, -0.2, 0.8]), params_p, 8.0)
        dists = np.linalg.norm(cs.positions[1:] - cs.positions[0], axis=1)
        assert np.allclose(dists, params_p.h(f, r), rtol=1e-14)

    def test_momentum_and_center_of_mass_vanish(self, params_p):
        for p in (params_p, RING_473):
            cs = cartesian_lift(np.array([-0.3, 0.7, 10.2, 0.5, 2.4]), p, 9.1)
            assert np.max(np.abs(total_momentum(cs))) < 1e-12
            assert np.max(np.abs(center_of_mass(cs))) < 1e-13

    def test_angular_momentum_axial_with_value_n_m_C(self, params_p):
        C = 9.77
        for p in (params_p, RING_473):
            L = total_angular_momentum(cartesian_lift(np.array([0.21, -0.4, 8.8, 0.3, 1.9]), p, C))
            assert abs(L[0]) < 1e-12 and abs(L[1]) < 1e-12
            assert abs(L[2] - p.n * p.m * C) < 1e-12 * abs(L[2])

    def test_rows_equal_single_lifts(self, monkeypatch):
        p = SystemParams(n=8, m=3.0, M=7.0, r0=11.0)  # 36 pairs: summation order shows
        rng = np.random.default_rng(7)
        Y = np.column_stack([
            rng.uniform(-1.0, 1.0, 40), rng.uniform(-1.0, 1.0, 40), rng.uniform(8.0, 12.0, 40),
            rng.uniform(-1.0, 1.0, 40), rng.uniform(0.0, 6.3, 40),
        ])
        batch = cartesian_lift(Y, p, 9.1)
        assert batch.positions.shape == (40, p.n + 1, 3)
        assert np.array_equal(batch.masses, cartesian_lift(Y[0], p, 9.1).masses)
        monkeypatch.setattr(model, "_PAIR_BLOCK", 72)  # two states per block
        energies = cartesian_energy(batch)
        for i, y in enumerate(Y):
            one = cartesian_lift(y, p, 9.1)
            assert np.array_equal(batch.positions[i], one.positions)
            assert np.array_equal(batch.velocities[i], one.velocities)
            # reference: the pair loop, summed in the same order
            pos, mass = one.positions, one.masses
            potential = 0.0
            for j in range(len(mass)):
                for k in range(j + 1, len(mass)):
                    d = pos[k] - pos[j]
                    potential -= mass[j] * mass[k] / math.sqrt(float(d @ d))
            kinetic = 0.5 * float(np.sum(mass * np.sum(one.velocities**2, axis=1)))
            assert energies[i] == cartesian_energy(one) == kinetic + potential


class CollisionError(RuntimeError):
    """Two point masses coincide in the full cartesian system."""


def full_rhs(state: CartesianState):
    """Pairwise Newtonian accelerations of the full system (G = 1).

    Returns (velocities, accelerations): the time derivative of the
    (positions, velocities) pair.  Used to cross-check the reduced
    equations, not to integrate.
    """
    pos = state.positions
    mass = state.masses
    nb = len(mass)
    acc = np.zeros_like(pos)
    for i in range(nb):
        for j in range(i + 1, nb):
            d = pos[j] - pos[i]
            dist2 = float(d @ d)
            if dist2 == 0.0:
                raise CollisionError(f"bodies {i} and {j} coincide")
            w = dist2**-1.5
            acc[i] += mass[j] * w * d
            acc[j] -= mass[i] * w * d
    return state.velocities, acc


class TestFullRhs:
    def test_two_equal_bodies_opposite_accelerations(self):
        cs = CartesianState(
            masses=np.array([5.0, 5.0]),
            positions=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
            velocities=np.zeros((2, 3)),
        )
        _, acc = full_rhs(cs)
        assert np.allclose(acc[0], -acc[1], atol=1e-15)

    def test_total_force_vanishes(self, params_q):
        cs = cartesian_lift(np.array([1.2, 0.8, 12.5, -1.1, 0.6]), params_q, 40.0)
        _, acc = full_rhs(cs)
        assert np.max(np.abs(cs.masses @ acc)) < 1e-11

    def test_coincident_bodies_collide(self):
        cs = CartesianState(
            masses=np.array([1.0, 1.0]),
            positions=np.zeros((2, 3)),
            velocities=np.zeros((2, 3)),
        )
        with pytest.raises(CollisionError):
            full_rhs(cs)

    @pytest.mark.parametrize(
        "state",
        [
            np.array([0.0, 0.0, 11.0, 0.0, 0.0]),
            np.array([0.4, 0.2, 10.5, -0.3, 0.7]),
        ],
    )
    def test_lifted_accelerations_match_reduced_equations(self, params_p, state):
        """The lift of a reduced state solves the full Newtonian equations.

        Radially the centripetal part cancels the C^2/r^3 term, the
        tangential part vanishes through angular-momentum conservation, and
        the two z-accelerations are the axial equation scaled by the mass
        ratio.
        """
        p = params_p
        C = p.r0 * p.a0
        cs = cartesian_lift(state, p, C)
        _, acc = full_rhs(cs)

        f, _, r, _, theta = state
        h3 = p.h(f, r) ** 3
        fddot = -(p.M + p.m * p.n) * f / h3
        rddot = C ** 2 / r ** 3 - p.m * p.lam / r ** 2 - p.M * r / h3
        radial = rddot - C ** 2 / r ** 3

        assert np.allclose(acc[0], [0.0, 0.0, fddot], rtol=1e-12, atol=1e-14)
        thetadot = C / r ** 2
        for k in range(p.n):
            phase = theta + 2.0 * math.pi * k / p.n
            e_r = np.array([math.cos(phase), math.sin(phase), 0.0])
            expected = radial * e_r + np.array([0.0, 0.0, -p.z_factor * fddot])
            # sanity on the derivation itself, not just the code
            assert abs(r * thetadot ** 2 - C ** 2 / r ** 3) < 1e-12
            assert np.allclose(acc[1 + k], expected, rtol=1e-12, atol=1e-12)

    def test_energy_split_is_exact(self, params_p):
        # reduced energy counts each pair once: E_full = E_reduced exactly
        state = np.array([0.4, 0.2, 10.5, -0.3, 0.7])
        for p in (params_p, RING_473):
            C = p.r0 * p.a0
            e_reduced = reduced_energy(state, p, C)
            e_full = cartesian_energy(cartesian_lift(state, p, C))
            assert abs(e_full - e_reduced) / max(abs(e_full), 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    f=st.floats(-2.0, 2.0),
    fdot=st.floats(-1.0, 1.0),
    rdot=st.floats(-1.0, 1.0),
    theta=st.floats(0.0, 6.2),
)
def test_axial_momentum_identity_any_state(f, fdot, rdot, theta):
    # M*fdot + n*m*(-M/(mn))*fdot = 0 for every state, by construction
    p = SystemParams(n=5, m=1.7, M=23.0, r0=4.0)
    cs = cartesian_lift(np.array([f, fdot, 6.0, rdot, theta]), p, 3.3)
    assert abs(total_momentum(cs)[2]) < 1e-12
