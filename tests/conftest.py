"""Shared fixtures: the two reference systems and expensive session artifacts."""
import pytest

from ringorbits import continuation, shoot
from ringorbits.continuation import StepControl, StopRules, continue_branch, tangent
from ringorbits.integrate import IntegratorConfig
from ringorbits.model import SystemParams
from ringorbits.shoot import SeedPoint, newton_correct


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
