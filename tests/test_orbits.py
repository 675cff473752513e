"""Resonant members, lifted reconstruction, closure counts, and export."""
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ringorbits import orbits
from ringorbits.continuation import Branch
from ringorbits.integrate import eval_at
from ringorbits.model import SystemParams, cartesian_lift
from ringorbits.orbits import (
    ResonanceNotFound,
    ResonanceTarget,
    Trajectory,
    closure_order,
    export,
    find_resonance,
    load_trajectory,
    reconstruct,
    trajectory_filename,
)
from ringorbits.shoot import CORRECTOR_TOL, ConvergenceError, SeedPoint, SymmetryKind, newton_correct, phase

from conftest import count_flows


def brute_force_orders(n1, n2, n, q=1, k_max=1000):
    """Smallest k with k*2q*n1*pi/n2 a multiple of 2*pi (strict) or 2*pi/n."""
    strict = relabel = None
    for k in range(1, k_max + 1):
        if strict is None and (k * q * n1) % n2 == 0:
            strict = k
        if relabel is None and (k * q * n1 * n) % n2 == 0:
            relabel = k
        if strict and relabel:
            break
    return strict, relabel


class TestResonanceTarget:
    def test_angle_and_tag(self):
        t = ResonanceTarget(3, 4)
        assert abs(t.angle - 3.0 * math.pi / 4.0) < 1e-15
        assert t.tag == "3pi4"

    @pytest.mark.parametrize("n1,n2", [(0, 1), (1, 0), (-1, 2), (2, 4), (6, 3)])
    def test_validation(self, n1, n2):
        with pytest.raises(ValueError):
            ResonanceTarget(n1, n2)

    def test_whole_pi_is_valid(self):
        assert ResonanceTarget(1, 1).angle == math.pi


class TestClosureOrder:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (3, 4), (4, 5), (5, 6), (1, 2), (7, 3), (2, 3)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_brute_force(self, n1, n2, n):
        target = ResonanceTarget(n1, n2)
        assert closure_order(target, n) == brute_force_orders(n1, n2, n)

    def test_printed_cases(self):
        assert closure_order(ResonanceTarget(1, 1), 3) == (1, 1)
        assert closure_order(ResonanceTarget(3, 4), 3) == (4, 4)
        assert closure_order(ResonanceTarget(4, 5), 3) == (5, 5)
        assert closure_order(ResonanceTarget(5, 6), 3) == (6, 2)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 3), (1, 8)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_odd_even_against_brute_force(self, n1, n2, n):
        # an odd/even member (a, b, T) with phase n1*pi/n2, whose reduced
        # period 4T turned the ring by 4*theta, is the odd member (a, b, 2T)
        # with phase 2*n1*pi/n2: the same closure order
        g = math.gcd(2 * n1, n2)
        target = ResonanceTarget(2 * n1 // g, n2 // g)
        assert closure_order(target, n) == brute_force_orders(n1, n2, n, q=2)

    def test_odd_even_half_pi_member_closes_after_one_period(self, p_branch, params_p, cfg):
        # the odd pi member, corrected in the doubly symmetric form, has the
        # phase pi/2 at half its time; 2*theta turns the ring by a whole turn
        odd = find_resonance(p_branch, ResonanceTarget(1, 1), cfg)
        member = newton_correct(replace(odd, kind=SymmetryKind.DOUBLE), params_p, cfg)
        assert abs(member.theta - math.pi) <= 1e-9
        half = eval_at(member.a, member.b, 0.5 * member.T, params_p, cfg)
        assert abs(half.Theta - 0.5 * math.pi) <= 1e-9
        k_strict, k_relabel = closure_order(ResonanceTarget(1, 1), params_p.n)
        assert (k_strict, k_relabel) == (1, 1)
        traj = reconstruct(member, params_p, periods=k_strict, samples_per_period=64, config=cfg)
        assert traj.diagnostics["closure_error"] < 1e-6

    def test_needs_a_ring(self):
        with pytest.raises(ValueError):
            closure_order(ResonanceTarget(1, 2), 1)


class TestFindResonance:
    def test_three_quarter_pi_member(self, p_branch, cfg):
        target = ResonanceTarget(3, 4)
        pt = find_resonance(p_branch, target, cfg)
        assert abs(pt.theta - target.angle) <= 1e-8
        assert pt.residual <= 1e-9
        printed = np.array([0.866953, 0.187583, 29.4405])
        assert np.max(np.abs(pt.vector() - printed)) < 1e-2

    @pytest.mark.parametrize("n1,n2", [(3, 4), (9, 10)])
    def test_phase_meets_the_corrector_tolerance(self, p_branch, cfg, n1, n2):
        target = ResonanceTarget(n1, n2)
        pt = find_resonance(p_branch, target, cfg)
        assert abs(pt.theta - target.angle) <= CORRECTOR_TOL
        assert pt.residual <= CORRECTOR_TOL

    @pytest.mark.parametrize("offset, layout", [(0.0, "lsh"), (0.0, "ssh"), (5e-9, "lsh")])
    def test_stored_point_at_the_angle_is_corrected(self, p_branch, cfg, monkeypatch, offset, layout):
        # a stored phase equal to the angle brackets it, at either end of a
        # pair, and the corrector stops at its first evaluation; one 5e-9
        # off is corrected onto it
        target = ResonanceTarget(3, 4)
        member = find_resonance(p_branch, target, cfg)
        stored = newton_correct(member, p_branch.params, cfg, constraint=phase(target.angle + offset))
        if offset == 0.0:
            stored = replace(stored, theta=target.angle)
        else:
            assert abs(stored.theta - target.angle - offset) < 1e-10
        i = next(i for i, bp in enumerate(p_branch.points) if bp.point.theta > target.angle)
        lo, hi = p_branch.points[i - 1], p_branch.points[i]
        by_letter = {"l": lo, "s": replace(lo, point=stored), "h": hi}
        stub = replace(p_branch, points=[by_letter[c] for c in layout])
        flows = count_flows(monkeypatch)
        pt = find_resonance(stub, target, cfg)
        assert abs(pt.theta - target.angle) <= 1e-10
        if offset == 0.0:
            assert len(flows) == 1 and pt.vector().tolist() == stored.vector().tolist()

    @pytest.mark.parametrize("kinds", [("double", "double"), ("double", "odd"), ("odd", "odd")])
    def test_member_takes_the_form_of_its_bracket(self, p_branch, cfg, kinds):
        # a bracket across the switch to the odd form solves in the odd form
        target = ResonanceTarget(3, 4)
        i = next(i for i, bp in enumerate(p_branch.points) if bp.point.theta > target.angle)
        pair = [replace(bp, point=replace(bp.point, kind=SymmetryKind(k)))
                for bp, k in zip(p_branch.points[i - 1:i + 1], kinds)]
        pt = find_resonance(replace(p_branch, points=pair), target, cfg)
        assert pt.kind is (SymmetryKind.DOUBLE if kinds == ("double", "double") else SymmetryKind.ODD)
        assert abs(pt.theta - target.angle) <= CORRECTOR_TOL
        assert np.max(np.abs(pt.vector() - find_resonance(p_branch, target, cfg).vector())) < 1e-9

    def test_member_outside_its_bracket_is_a_convergence_error(self, p_branch, cfg):
        # Two stored points near theta = 0.87*pi relabeled so that their
        # phases bracket 4*pi/5: the real member lies far outside their chord.
        target = ResonanceTarget(4, 5)
        near = [bp for bp in p_branch.points if 0.86 * math.pi < bp.point.theta < 0.9 * math.pi]
        shift = 0.5 * (near[0].point.theta + near[1].point.theta) - target.angle
        stub = Branch(
            params=p_branch.params,
            points=[replace(bp, point=replace(bp.point, theta=bp.point.theta - shift)) for bp in near[:2]],
            termination="budget",
        )
        with pytest.raises(ConvergenceError) as info:
            find_resonance(stub, target, cfg)
        assert info.value.reason == "off-bracket"

    def test_angle_outside_branch(self, p_branch, cfg):
        with pytest.raises(ResonanceNotFound):
            find_resonance(p_branch, ResonanceTarget(3, 2), cfg)

    def test_short_branch_rejected(self, p_branch):
        stub = Branch(
            params=p_branch.params,
            points=p_branch.points[:1],
            termination="budget",
        )
        with pytest.raises(ResonanceNotFound):
            find_resonance(stub, ResonanceTarget(3, 4))


class TestReconstruct:
    def test_heavy_reference_orbit_conserves_everything(self, q0_corrected, params_q, cfg):
        traj = reconstruct(q0_corrected, params_q, periods=1, config=cfg)
        d = traj.diagnostics
        assert d["energy_drift"] < 1e-9
        assert d["lz_drift"] < 1e-9
        assert d["momentum_max"] < 1e-9
        assert d["com_max"] < 1e-9
        # the reduced orbit closes, but the lift rotates by a non-resonant
        # angle per period, so the full configuration lands elsewhere
        assert d["closure_error"] > 1.0

    def test_samples_and_shapes(self, q0_corrected, params_q, cfg):
        traj = reconstruct(q0_corrected, params_q, periods=2, samples_per_period=64, config=cfg)
        n_samples = 2 * 64 + 1
        assert traj.times.shape == (n_samples,)
        assert traj.positions.shape == (n_samples, params_q.n + 1, 3)
        assert traj.velocities.shape == traj.positions.shape
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 2.0 * q0_corrected.period
        assert traj.periods == 2

    def test_odd_time_symmetry_of_the_lift(self, q0_corrected, params_q, cfg):
        traj = reconstruct(q0_corrected, params_q, periods=1, samples_per_period=128, config=cfg)
        z = traj.positions[:, 0, 2]  # axial body height
        ring_r = np.linalg.norm(traj.positions[:, 1, :2], axis=1)
        assert np.max(np.abs(z + z[::-1])) < 1e-7     # f(2T - t) = -f(t)
        assert np.max(np.abs(ring_r - ring_r[::-1])) < 1e-7  # r even
        # ring phase strictly increases: positive angular momentum all along
        phase = np.unwrap(np.arctan2(traj.positions[:, 1, 1], traj.positions[:, 1, 0]))
        assert np.all(np.diff(phase) > 0.0)

    def test_circular_member_lifts_to_a_rigid_circle(self, params_p, cfg):
        seed = SeedPoint(a=params_p.a0, b=0.0, T=params_p.T0)
        traj = reconstruct(seed, params_p, periods=1, samples_per_period=64, config=cfg)
        assert np.max(np.abs(traj.positions[:, 0, :])) < 1e-12  # axial body parked
        ring_r = np.linalg.norm(traj.positions[:, 1:, :2], axis=2)
        assert np.max(np.abs(ring_r - params_p.r0)) < 1e-9
        assert np.max(np.abs(traj.positions[:, 1:, 2])) < 1e-12

    def test_validation(self, q0_corrected, params_q):
        with pytest.raises(ValueError):
            reconstruct(q0_corrected, params_q, periods=0)
        with pytest.raises(ValueError):
            reconstruct(q0_corrected, params_q, samples_per_period=1)

    @pytest.mark.parametrize("kw", [{"periods": 2.5}, {"samples_per_period": 64.5}, {"periods": math.nan}])
    def test_non_integer_counts_rejected_before_any_flow(self, q0_corrected, params_q, monkeypatch, kw):
        flows = []
        monkeypatch.setattr(orbits, "flow", lambda *a, **k: flows.append(a))
        with pytest.raises(ValueError, match="periods must be a positive integer|samples per period"):
            reconstruct(q0_corrected, params_q, **kw)
        assert flows == []

    @pytest.mark.parametrize("n", [3.0, np.int64(3)], ids=["float", "int64"])
    def test_an_integral_n_reconstructs_and_exports_as_an_int(self, n, cfg, tmp_path):
        # range() in the lift and in closure_order, and the JSON writers, need an int
        params = SystemParams(n=n, m=3.0, M=7.0, r0=11.0)
        assert type(params.n) is int and params == SystemParams(n=3, m=3.0, M=7.0, r0=11.0)
        assert closure_order(ResonanceTarget(3, 4), params.n) == (4, 4)
        traj = reconstruct(SeedPoint(a=params.a0, b=0.0, T=params.T0), params, samples_per_period=8, config=cfg)
        assert traj.positions.shape == (9, 4, 3)
        export(traj, "json", tmp_path / "orbit.json")
        assert '"n": 3,' in (tmp_path / "orbit.json").read_text()

    @pytest.mark.filterwarnings("error")
    def test_orbit_out_of_float_range_raises_without_warnings(self, params_p, cfg):
        # the axial body flies off at b = 1e300: energies overflow to inf
        point = SeedPoint(a=0.9, b=1e300, T=28.0)
        with pytest.raises(ValueError, match="float range: .*energy_drift"):
            reconstruct(point, params_p, samples_per_period=8, config=cfg)


@pytest.fixture(scope="module")
def five_sixth_point(p_branch, cfg):
    return find_resonance(p_branch, ResonanceTarget(5, 6), cfg)


@pytest.fixture(scope="module")
def small_traj(q0_corrected, params_q, cfg):
    return reconstruct(q0_corrected, params_q, periods=1, samples_per_period=8, config=cfg)


class TestRelabelClosure:
    def test_orders(self):
        assert closure_order(ResonanceTarget(5, 6), 3) == (6, 2)

    def test_two_periods_close_only_up_to_relabeling(self, five_sixth_point, params_p, cfg):
        traj = reconstruct(five_sixth_point, params_p, periods=2, samples_per_period=128, config=cfg)
        assert traj.diagnostics["closure_error"] > 1.0
        assert traj.diagnostics["closure_error_relabel"] < 1e-6

    def test_six_periods_close_strictly(self, five_sixth_point, params_p, cfg):
        traj = reconstruct(five_sixth_point, params_p, periods=6, samples_per_period=64, config=cfg)
        assert traj.diagnostics["closure_error"] < 1e-6


def reference_export(traj, fmt, path):
    """The writers `export` had before it wrote in blocks, kept verbatim as its byte oracle."""
    if fmt == "csv":
        rows = zip(traj.times.tolist(), traj.positions.tolist(), traj.velocities.tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,body,x,y,z,vx,vy,vz\n")
            for t, bodies_p, bodies_v in rows:
                for body, ((x, y, z), (vx, vy, vz)) in enumerate(zip(bodies_p, bodies_v)):
                    fh.write(f"{t!r},{body},{x!r},{y!r},{z!r},{vx!r},{vy!r},{vz!r}\n")
    elif fmt == "json":
        payload = {
            "params": traj.params.to_dict(),
            "source": traj.source.to_dict(),
            "periods": traj.periods,
            "masses": traj.masses.tolist(),
            "times": traj.times.tolist(),
            "positions": traj.positions.tolist(),
            "velocities": traj.velocities.tolist(),
            "diagnostics": traj.diagnostics,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def tiny_traj():
    """Two samples of two bodies with no system behind them, as a CSV export may be built by hand."""
    return Trajectory(
        times=np.array([0.0, 0.5]),
        positions=np.arange(12, dtype=float).reshape(2, 2, 3),
        velocities=np.arange(12, dtype=float).reshape(2, 2, 3) / 7.0,
        masses=np.array([1.0, 2.0]),
        params=None,
        source=None,
        periods=1,
        diagnostics={},
    )


def synthetic_traj(n_samples, n_bodies=4):
    """A trajectory of random floats over many magnitudes, with no flow behind it."""
    rng = np.random.default_rng(0)
    shape = (n_samples, n_bodies, 3)
    return Trajectory(
        times=np.linspace(0.0, 58.88107120324549, n_samples),
        positions=rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape),
        velocities=rng.standard_normal(shape),
        masses=np.array([7.0] + [3.0] * (n_bodies - 1)),
        params=SystemParams(n=n_bodies - 1, m=3.0, M=7.0, r0=11.0),
        source=SeedPoint(a=0.8669531797954539, b=0.18758239787398256, T=29.440535601622745,
                         residual=4.729303635214014e-12, theta=2.356194490192342),
        periods=1,
        diagnostics={"closure_error": 1.4e-9, "energy_drift": 3.3e-13},
    )


def lifted_traj(n_samples):
    """Random reduced states lifted by `cartesian_lift`: every sample holds the axial
    body's zeros, one z and one vz for the whole ring, and t once per body."""
    rng = np.random.default_rng(1)
    params = SystemParams(n=3, m=3.0, M=7.0, r0=11.0)
    states = rng.standard_normal((n_samples, 5)) + [0.0, 0.0, 11.0, 0.0, 0.0]
    states[0, :2] = 0.0  # f = fdot = 0, as a reconstruction starts: the ring's z and vz are -0.0
    state = cartesian_lift(states, params, 9.5)
    return replace(
        synthetic_traj(n_samples),
        positions=state.positions,
        velocities=state.velocities,
        masses=state.masses,
        params=params,
    )


def assert_same_bytes(traj, fmt, tmp_path):
    export(traj, fmt, tmp_path / f"new.{fmt}")
    reference_export(traj, fmt, tmp_path / f"old.{fmt}")
    assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"old.{fmt}").read_bytes()


class TestExportBytes:
    """`export` writes the bytes of the reference writers, across every block seam."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_small_traj(self, small_traj, tmp_path, fmt):
        assert_same_bytes(small_traj, fmt, tmp_path)

    def test_hand_built_csv_without_a_system(self, tmp_path):
        assert_same_bytes(tiny_traj(), "csv", tmp_path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_block_seams(self, tmp_path, fmt, blocks, extra):
        n_samples = blocks * orbits._EXPORT_BLOCK + extra
        assert_same_bytes(synthetic_traj(n_samples), fmt, tmp_path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_extreme_floats(self, tmp_path, fmt):
        special = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.7976931348623157e308]
        traj = synthetic_traj(len(special), n_bodies=3)
        traj.times[:] = special
        traj.positions.reshape(-1)[: len(special)] = special
        traj.velocities.reshape(-1)[-len(special):] = special[::-1]
        assert_same_bytes(traj, fmt, tmp_path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_samples", [1, orbits._EXPORT_BLOCK - 1, orbits._EXPORT_BLOCK + 1])
    def test_lifted_samples(self, tmp_path, fmt, n_samples):
        assert_same_bytes(lifted_traj(n_samples), fmt, tmp_path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signed_zeros_and_repeats_in_one_block(self, tmp_path, fmt):
        traj = synthetic_traj(4, n_bodies=3)
        p, v = traj.positions, traj.velocities
        p[:, 0, 0] = 0.0
        p[:, 1, 0] = -0.0  # a column equal to the one above as floats, not as bits
        p[:, 2, 0] = [0.0, -0.0, 0.0, -0.0]
        p[:, 2, 1] = [-0.0, 0.0, -0.0, 0.0]
        v[:, 1, 2] = p[:, 1, 1]  # a whole column repeated
        v[0, 0, :] = traj.times[1]  # one value across columns of one sample
        assert_same_bytes(traj, fmt, tmp_path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_arrays_that_are_not_c_contiguous(self, tmp_path, fmt):
        base = lifted_traj(2 * orbits._EXPORT_BLOCK + 3)
        traj = replace(
            base,
            times=base.times[::2],
            positions=base.positions[::2],
            velocities=np.asfortranarray(base.velocities[::2]),
        )
        assert not traj.positions.flags.c_contiguous and not traj.velocities.flags.c_contiguous
        assert_same_bytes(traj, fmt, tmp_path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_is_bounded_by_a_block(self, tmp_path, fmt):
        # the whole-array writers reached ~7.4 MB on this trajectory
        traj = synthetic_traj(5121)
        tracemalloc.start()
        try:
            export(traj, fmt, tmp_path / f"big.{fmt}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestExport:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["times", "positions", "velocities"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_array_is_refused_before_the_file_opens(self, tmp_path, fmt, name, bad):
        traj = synthetic_traj(3)
        getattr(traj, name).reshape(-1)[-1] = bad
        path = tmp_path / f"bad.{fmt}"
        with pytest.raises(ValueError, match=name):
            export(traj, fmt, path)
        assert not path.exists()

    def test_csv_layout(self, tmp_path):
        traj = tiny_traj()
        path = tmp_path / "tiny.csv"
        export(traj, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,body,x,y,z,vx,vy,vz"
        assert len(lines) == 5  # 2 samples x 2 bodies, body fastest
        cells = lines[3].split(",")
        assert float(cells[0]) == 0.5 and cells[1] == "0"
        assert [float(c) for c in cells[2:5]] == [6.0, 7.0, 8.0]
        assert lines[2].split(",")[1] == "1"

    def test_json_roundtrip_bitwise(self, small_traj, tmp_path):
        path = tmp_path / "orbit.json"
        export(small_traj, "json", path)
        again = load_trajectory(path)
        assert np.array_equal(again.times, small_traj.times)
        assert np.array_equal(again.positions, small_traj.positions)
        assert np.array_equal(again.velocities, small_traj.velocities)
        assert np.array_equal(again.masses, small_traj.masses)
        assert again.params == small_traj.params
        assert again.source == small_traj.source
        assert again.diagnostics == small_traj.diagnostics

    def test_exports_are_byte_stable(self, small_traj, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export(small_traj, "json", a)
        export(small_traj, "json", b)
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        export(small_traj, "csv", c)
        export(small_traj, "csv", d)
        assert c.read_bytes() == d.read_bytes()

    def test_unknown_format(self, small_traj, tmp_path):
        with pytest.raises(ValueError):
            export(small_traj, "parquet", tmp_path / "x.parquet")


class TestFilename:
    def test_shape_and_determinism(self, q0_corrected):
        target = ResonanceTarget(3, 4)
        name = trajectory_filename(q0_corrected, target)
        assert re.fullmatch(r"odd_3pi4_[0-9a-f]{8}\.csv", name)
        assert trajectory_filename(q0_corrected, target) == name
        assert trajectory_filename(q0_corrected, target, ext="json").endswith(".json")

    def test_distinct_points_get_distinct_names(self, q0_corrected, p1_corrected):
        target = ResonanceTarget(1, 1)
        assert trajectory_filename(q0_corrected, target) != trajectory_filename(p1_corrected, target)
