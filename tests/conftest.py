"""Shared fixtures: the two reference systems and expensive session artifacts,
and the numeric phase curvature that checks the closed form of `bifurcate`."""
import math

import numpy as np
import pytest

from ringorbits import continuation, shoot
from ringorbits.bifurcate import bifurcation_point
from ringorbits.continuation import StepControl, StopRules, continue_branch, tangent
from ringorbits.integrate import IntegratorConfig
from ringorbits.model import SystemParams
from ringorbits.shoot import SeedPoint, SymmetryKind, desing_eval, newton_correct, newton_correct_full

# theta_curvature_numeric walks out to |b| = _CURVATURE_B * sqrt(mass_sum/r0)
# and corrects each point to _CURVATURE_TOL.
_CURVATURE_B, _CURVATURE_TOL = 0.02, 1e-11


@pytest.fixture(scope="session")
def params_p():
    return SystemParams(n=3, m=3, M=7, r0=11.0)


@pytest.fixture(scope="session")
def params_q():
    return SystemParams(n=3, m=92, M=242, r0=11.0)


@pytest.fixture(scope="session")
def cfg():
    return IntegratorConfig()


@pytest.fixture(scope="session")
def p1_corrected(params_p, cfg):
    # fixed-b correction from the bifurcation seed, same start the docs use
    seed = SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0)
    return newton_correct(seed, params_p, cfg, tol=1e-12)


@pytest.fixture(scope="session")
def q0_corrected(params_q, cfg):
    seed = SeedPoint(a=1.84153, b=3.79392, T=7.31715)
    return newton_correct(seed, params_q, cfg, tol=1e-12)


def count_flows(monkeypatch) -> list:
    """Record every flow that desing_eval runs (the unit of max_flows)."""
    calls = []
    inner = shoot.eval_at

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(shoot, "eval_at", counted)
    return calls


def direction_of_increasing_b(point, params, cfg):
    unit, _ = tangent(point, params, cfg)
    return 1 if unit[1] > 0 else -1


@pytest.fixture(scope="session")
def p_branch_traced(params_p, cfg, p1_corrected):
    """The odd family away from the trivial line, far enough to pass theta = pi,
    with the flows each continuation corrector call spent."""
    flows, per_call = [0], []

    def count_calls(inner):
        def counted(*args, **kwargs):
            flows[0] += 1
            return inner(*args, **kwargs)
        return counted

    def record_calls(inner):
        def recorded(*args, **kwargs):
            before = flows[0]
            try:
                return inner(*args, **kwargs)
            finally:
                per_call.append(flows[0] - before)
        return recorded

    direction = direction_of_increasing_b(p1_corrected, params_p, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shoot, "eval_at", count_calls(shoot.eval_at))
        mp.setattr(continuation, "newton_correct_full", record_calls(continuation.newton_correct_full))
        branch = continue_branch(
            p1_corrected, direction, params_p, cfg,
            step=StepControl(), stop=StopRules(T_max=42.0),
        )
    return branch, per_call


@pytest.fixture(scope="session")
def p_branch(p_branch_traced):
    return p_branch_traced[0]


@pytest.fixture(scope="session")
def q_limit_branch(params_q, cfg, q0_corrected):
    """The heavy family from q0 down to its trivial limit (criterion 6)."""
    d = -direction_of_increasing_b(q0_corrected, params_q, cfg)
    return continue_branch(q0_corrected, d, params_q, cfg)


def theta_curvature_numeric(
    params: SystemParams,
    config: IntegratorConfig | None = None,
    n_points: int = 6,
) -> tuple[float, float]:
    """Numeric (first, second) derivative of the phase along the odd family.

    Walks the family away from its seed on both sides of b = 0, correcting
    (a, T) at fixed b, and accumulates the parameter of the unnormalized
    tangent field via d(tau) = db / X_b.  The second derivative comes from
    extrapolating the symmetric difference quotient 2*(theta - theta0)/tau^2
    to tau = 0 by a linear fit in tau^2; the first derivative from the
    outermost symmetric pair.
    """
    seed = bifurcation_point(params)
    a0, T0 = seed.a0, seed.T_star
    b_max = _CURVATURE_B * math.sqrt(params.mass_sum / params.r0)

    d0 = desing_eval(a0, 0.0, T0, SymmetryKind.ODD, params, config)
    theta0 = d0.theta

    def x_b(d):
        # b-component of grad(value) x grad(R_t)
        return d.grad_value[2] * d.grad_rt[0] - d.grad_value[0] * d.grad_rt[2]

    def walk(sign):
        taus, thetas = [], []
        tau = 0.0
        b_prev, xb_prev = 0.0, x_b(d0)
        guess = SeedPoint(a=a0, b=0.0, T=T0)
        for j in range(1, n_points + 1):
            b = sign * b_max * j / n_points
            guess = SeedPoint(a=guess.a, b=b, T=guess.T)
            pt, d, _ = newton_correct_full(guess, params, config, tol=_CURVATURE_TOL)
            xb = x_b(d)
            tau += (b - b_prev) * 0.5 * (1.0 / xb + 1.0 / xb_prev)
            taus.append(tau)
            thetas.append(pt.theta)
            b_prev, xb_prev = b, xb
            guess = pt
        return np.array(taus), np.array(thetas)

    tau_p, th_p = walk(+1.0)
    tau_m, th_m = walk(-1.0)

    # First derivative from the widest symmetric pair.
    xi1 = float((th_p[-1] - th_m[-1]) / (tau_p[-1] - tau_m[-1]))

    taus = np.concatenate([tau_p, tau_m])
    thetas = np.concatenate([th_p, th_m])
    quot = 2.0 * (thetas - theta0) / taus**2
    coeffs = np.polyfit(taus**2, quot, 1)
    xi2 = float(coeffs[1])
    return xi1, xi2
