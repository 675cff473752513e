"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with -s to see the verdict lines as they happen; each test asserts its
criterion exactly as stated, so a genuine discrepancy shows up red rather
than silently relaxed.  Criterion 7 is expected to fail: the closed-form
phase curvature disagrees with the numeric value by far more than its
stated 1% band; ROADMAP item 5 sets out the findings and the open
derivation.
"""
import math
import time

import numpy as np
import pytest

from ringorbits.bifurcate import bifurcation_point, xi_second_derivative
from ringorbits.continuation import (
    StepControl,
    StopRules,
    classify_endpoint,
    continue_branch,
    tangent,
    theta_curvature_numeric,
)
from ringorbits.integrate import IntegratorConfig, eval_at, flow
from ringorbits.model import (
    SystemParams,
    lambda_n,
    make_reduced_rhs,
    reduced_energy,
    reduced_initial,
)
from ringorbits.orbits import ResonanceTarget, closure_order, find_resonance, reconstruct
from ringorbits.shoot import SeedPoint, SymmetryKind, newton_correct

from conftest import direction_of_increasing_b


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def simpson(vals: np.ndarray, h: float) -> float:
    # composite 1/3 rule; needs an odd number of uniform samples
    return h / 3.0 * float(vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2]) + 2.0 * np.sum(vals[2:-2:2]))


def test_criterion_01_ring_constants():
    errs = [
        abs(lambda_n(3) - 3.0 ** -0.5),
        abs(lambda_n(4) - (1.0 + 2.0 * math.sqrt(2.0)) / 4.0),
    ]
    ok = lambda_n(2) == 0.25 and all(e < 1e-12 for e in errs)
    report(1, ok, f"lambda_2 exact, lambda_3/lambda_4 off closed forms by {max(errs):.2e}")
    assert lambda_n(2) == 0.25
    assert errs[0] < 1e-12
    assert errs[1] < 1e-12


def test_criterion_02_light_system_seed(params_p, cfg):
    rep = bifurcation_point(params_p)
    theta_closed = math.pi * math.sqrt(7.0 + math.sqrt(3.0)) / 4.0
    e_a = abs(rep.a0 - 0.890967)
    e_T = abs(rep.T_star - 28.6536)
    e_th = abs(rep.theta0 - theta_closed)
    integrated = eval_at(rep.a0, 0.0, rep.T_star, params_p, cfg).Theta
    e_int = abs(integrated - rep.theta0)
    ok = e_a < 1e-4 and e_T < 1e-4 and e_th < 1e-4 and e_int < 1e-9
    report(2, ok, f"(a0, T0) off by ({e_a:.1e}, {e_T:.1e}); theta closed-form off {e_th:.1e}, integrated off {e_int:.1e}")
    assert e_a < 1e-4 and e_T < 1e-4
    assert e_th < 1e-4
    assert e_int < 1e-9


def test_criterion_03_heavy_system_seed(params_q):
    rep = bifurcation_point(params_q)
    T_closed = 11.0 * math.sqrt(11.0 / 518.0) * math.pi
    e_T = abs(rep.T_star - T_closed)
    e_Tp = abs(rep.T_star - 5.03586)
    e_a = abs(rep.a0 - 5.17965)
    ok = e_T < 1e-12 and e_Tp < 1e-4 and e_a < 1e-4
    report(3, ok, f"T0 off closed form by {e_T:.1e}, printed values off by ({e_a:.1e}, {e_Tp:.1e})")
    assert e_T < 1e-12
    assert e_Tp < 1e-4
    assert e_a < 1e-4


def test_criterion_04_fixed_b_correction(params_p, cfg):
    t0 = time.perf_counter()
    seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
    out = newton_correct(seed, params_p, cfg, tol=1e-10, max_flows=10)
    wall = time.perf_counter() - t0
    e_a = abs(out.a - 0.8892815)
    e_T = abs(out.T - 28.708)
    ok = e_a < 1e-3 and e_T < 1e-3 and out.residual < 1e-6 and wall < 5.0
    report(4, ok, f"landed at ({out.a:.6f}, {out.T:.4f}), residual {out.residual:.1e}, {wall:.2f} s")
    assert e_a < 1e-3 and e_T < 1e-3
    assert out.residual < 1e-6
    assert wall < 5.0


def test_criterion_05_branch_to_the_printed_members(params_p, cfg):
    targets = [
        (ResonanceTarget(3, 4), np.array([0.866953, 0.187583, 29.4405])),
        (ResonanceTarget(4, 5), np.array([0.775642, 0.400635, 32.6636])),
        (ResonanceTarget(1, 1), np.array([0.547954, 0.634946, 41.1787])),
    ]
    t0 = time.perf_counter()
    start = newton_correct(SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0), params_p, cfg, tol=1e-12)
    d = direction_of_increasing_b(start, params_p, cfg)
    branch = continue_branch(start, d, params_p, cfg, step=StepControl(), stop=StopRules(T_max=42.0))
    gaps = []
    for target, printed in targets:
        pt = find_resonance(branch, target, cfg)
        gaps.append(float(np.max(np.abs(pt.vector() - printed))))
    wall = time.perf_counter() - t0
    ok = all(g < 1e-2 for g in gaps) and wall < 300.0
    report(5, ok, f"refined members off printed values by {max(gaps):.1e} max-norm, {wall:.0f} s")
    assert all(g < 1e-2 for g in gaps)
    assert wall < 300.0


def test_criterion_06_heavy_branch_trivial_limit(q0_corrected, params_q, cfg):
    d = -direction_of_increasing_b(q0_corrected, params_q, cfg)
    branch = continue_branch(q0_corrected, d, params_q, cfg)
    rep = classify_endpoint(branch)
    end = branch.end
    e_a = abs(end.a - 5.17965)
    e_T = abs(end.T - 5.03224)
    e_T0 = abs(end.T - params_q.T0)
    ok = rep.label == "trivial-limit" and e_a < 5e-3 and e_T < 5e-3 and e_T0 < 5e-3
    report(6, ok, f"{rep.label} at (a, T) = ({end.a:.5f}, {end.T:.5f}); printed off ({e_a:.1e}, {e_T:.1e}), closed form off {e_T0:.1e}")
    assert rep.label == "trivial-limit"
    assert e_a < 5e-3 and e_T < 5e-3
    assert e_T0 < 5e-3


def test_criterion_07_phase_curvature(params_p, cfg):
    closed = xi_second_derivative(params_p)
    xi1, xi2 = theta_curvature_numeric(params_p, cfg)
    ok_first = abs(xi1) <= 1e-6
    ok_second = abs(xi2 - closed) <= 0.01 * abs(closed)
    ok = ok_first and ok_second
    report(
        7,
        ok,
        f"xi'(0) = {xi1:.1e} (bound 1e-6); xi''(0) closed form {closed:.6f} vs numeric {xi2:.6f}"
        + ("" if ok_second else "  [known discrepancy, see ROADMAP item 5]"),
    )
    assert ok_first
    assert ok_second


def test_criterion_08_random_trajectory_sweep():
    rng = np.random.default_rng(20260815)
    cfg = IntegratorConfig()
    worst_e = worst_th = worst_fd = 0.0
    count = 0
    while count < 20:
        n = int(rng.integers(2, 6))
        m = float(rng.uniform(0.1, 300.0))
        M = float(rng.uniform(0.1, 300.0))
        r0 = float(rng.uniform(1.0, 20.0))
        b = float(rng.uniform(0.0, 5.0))
        params = SystemParams(n=n, m=m, M=M, r0=r0)
        a = float(params.a0 * rng.uniform(0.7, 1.3))
        T = min(max(float(rng.uniform(0.25, 1.0) * params.T0), 0.5), 12.0)
        C = params.r0 * a
        rhs = make_reduced_rhs(params, C)
        try:
            res = flow(rhs, reduced_initial(b, params), T, cfg).require_ok()
        except Exception:
            continue  # a draw that collides is redrawn
        count += 1

        e0 = reduced_energy(reduced_initial(b, params), params, C)
        e1 = reduced_energy(res.y, params, C)
        worst_e = max(worst_e, abs(e1 - e0) / max(abs(e0), 1.0))

        dense = flow(rhs, reduced_initial(b, params), T, IntegratorConfig(dense=True)).require_ok()
        ts = np.linspace(0.0, T, 4001)
        rs = dense.dense.sample(ts)[:, 2]
        th_quad = simpson(C / rs**2, ts[1] - ts[0])
        worst_th = max(worst_th, abs(th_quad - res.y[4]) / max(abs(res.y[4]), 1.0))

        ev = eval_at(a, b, T, params, cfg, augmented=True)
        da = 1e-6 * max(1.0, abs(a))
        db = 1e-6 * max(1.0, abs(b))
        ap_, am = eval_at(a + da, b, T, params, cfg), eval_at(a - da, b, T, params, cfg)
        bp_, bm = eval_at(a, b + db, T, params, cfg), eval_at(a, b - db, T, params, cfg)
        pairs = [
            ((ap_.F - am.F) / (2 * da), ev.Fa), ((ap_.R - am.R) / (2 * da), ev.Ra),
            ((ap_.Rt - am.Rt) / (2 * da), ev.Rta), ((ap_.Theta - am.Theta) / (2 * da), ev.Tha),
            ((bp_.F - bm.F) / (2 * db), ev.Fb), ((bp_.R - bm.R) / (2 * db), ev.Rb),
            ((bp_.Rt - bm.Rt) / (2 * db), ev.Rtb), ((bp_.Theta - bm.Theta) / (2 * db), ev.Thb),
        ]
        for fd, exact in pairs:
            worst_fd = max(worst_fd, abs(fd - exact) / max(1.0, abs(exact)))

    ok = worst_e < 1e-9 and worst_th < 1e-9 and worst_fd < 1e-5
    report(8, ok, f"20 systems: energy drift {worst_e:.1e}, phase quadrature gap {worst_th:.1e}, sensitivity vs FD {worst_fd:.1e}")
    assert worst_e < 1e-9
    assert worst_th < 1e-9
    assert worst_fd < 1e-5


def test_criterion_09_odd_even_family_member(params_p, cfg):
    seed = SeedPoint(a=params_p.a0, b=0.02, T=params_p.T0 / 2.0, kind=SymmetryKind.ODD_EVEN)
    out = newton_correct(seed, params_p, cfg, tol=1e-12)
    e = eval_at(out.a, out.b, out.T, params_p, cfg)
    rhs = make_reduced_rhs(params_p, params_p.r0 * out.a)
    res = flow(rhs, reduced_initial(out.b, params_p), 4.0 * out.T, IntegratorConfig()).require_ok()
    closure = float(np.max(np.abs(res.y[:4] - reduced_initial(out.b, params_p)[:4])))
    ok = closure < 1e-8 and abs(e.Ft) < 1e-8 and abs(e.Rt) < 1e-8
    report(9, ok, f"4T closure {closure:.1e}; quarter-period velocities ({abs(e.Ft):.1e}, {abs(e.Rt):.1e})")
    assert closure < 1e-8
    assert abs(e.Ft) < 1e-8
    assert abs(e.Rt) < 1e-8


def test_criterion_10_reconstructed_resonant_orbit(p_branch, params_p, cfg):
    target = ResonanceTarget(1, 1)
    point = find_resonance(p_branch, target, cfg)
    k_strict, _ = closure_order(target, params_p.n)
    traj = reconstruct(point, params_p, periods=k_strict, config=cfg)
    d = traj.diagnostics
    cons = max(d["energy_drift"], d["momentum_max"], d["com_max"], d["lz_drift"])
    ok = d["closure_error"] < 1e-6 and cons < 1e-9
    report(10, ok, f"{k_strict}-period closure {d['closure_error']:.1e}, worst conservation {cons:.1e}")
    assert d["closure_error"] < 1e-6
    assert cons < 1e-9
