"""Branching seeds on the circular family and their nondegeneracy data."""
import math

import numpy as np
import pytest

from ringorbits.bifurcate import (
    bifurcation_point,
    degeneracy_margin,
    resonance_ratio,
    xi_second_derivative,
)
from ringorbits.integrate import eval_at
from ringorbits.model import SystemParams
from ringorbits.shoot import SymmetryKind


class TestResonanceRatio:
    def test_light_system_closed_form(self, params_p):
        s = resonance_ratio(params_p)
        assert abs(s - math.sqrt((math.sqrt(3.0) + 7.0) / 16.0)) < 1e-14

    def test_heavy_system_closed_form(self, params_q):
        s = resonance_ratio(params_q)
        expected = math.sqrt((92.0 / math.sqrt(3.0) + 242.0) / 518.0)
        assert abs(s - expected) < 1e-14

    @pytest.mark.parametrize(
        "n,m,M",
        [(2, 1.0, 0.5), (3, 5.0, 2.0), (4, 0.5, 100.0), (5, 300.0, 0.1), (9, 2.0, 2.0)],
    )
    def test_strictly_between_bounds(self, n, m, M):
        # lam < n (true up to n = 472) forces s < 1; a positive M lifts s
        # off the lower bound
        p = SystemParams(n=n, m=m, M=M, r0=3.0)
        s = resonance_ratio(p)
        lower = math.sqrt(p.lam / p.n)
        assert lower < s < 1.0

    def test_massless_center_sits_on_the_lower_bound(self):
        p = SystemParams(n=2, m=1.0, M=0.0, r0=3.0)
        assert resonance_ratio(p) == math.sqrt(p.lam / p.n)


class TestDegeneracyMargin:
    def test_light_system_value(self, params_p):
        s = resonance_ratio(params_p)
        margin = degeneracy_margin(s, SymmetryKind.ODD)
        assert margin == abs(2.0 * math.sin(math.pi * s))
        # cross-check: the flow-computed tangent norm at the same seed
        assert abs(margin - 1.4632977439775088) < 1e-10

    def test_vanishes_on_integers_for_odd(self):
        assert degeneracy_margin(1.0, SymmetryKind.ODD) < 1e-15
        assert degeneracy_margin(2.0, SymmetryKind.ODD) < 1e-15

    def test_odd_even_only_cares_about_even_integers(self):
        # the doubly symmetric form reads the odd/even residuals at T/2
        assert degeneracy_margin(2.0, SymmetryKind.DOUBLE) < 1e-15
        assert abs(degeneracy_margin(1.0, SymmetryKind.DOUBLE) - 2.0) < 1e-15


class TestNondegeneracy:
    def test_reference_systems_are_clean(self, params_p, params_q):
        for p in (params_p, params_q):
            rep = bifurcation_point(p)
            assert rep.nondegenerate
            assert rep.margin > 0.1 and rep.margin_double > 0.1

    def test_huge_central_mass_pinches_the_odd_margin(self):
        # s -> 1 as M -> inf; at M = 2e9 the ratio sits within 1e-9 of 1
        p = SystemParams(n=3, m=1.0, M=2e9, r0=11.0)
        s = resonance_ratio(p)
        assert abs(s - 1.0) < 1e-9
        rep = bifurcation_point(p)
        assert not rep.nondegenerate
        assert rep.margin < 1e-8
        # 1 is not an even integer: the doubly symmetric form stays clear of it
        assert abs(rep.margin_double - 2.0) < 1e-8

    @pytest.mark.parametrize(
        "n,s,margin",
        [(472, 0.99995432330, 2.8699519e-4), (473, 1.00012273501, 7.7116677e-4)],
    )
    def test_ratio_crosses_one_where_lambda_crosses_n(self, n, s, margin):
        # with M = 0, s = sqrt(lam/n): lam_n < n up to n = 472, lam_n > n from 473
        p = SystemParams(n=n, m=1.0, M=0.0, r0=1.0)
        rep = bifurcation_point(p)
        assert rep.s == pytest.approx(s, rel=1e-6)
        assert rep.margin == pytest.approx(margin, rel=1e-6)
        assert rep.margin_double == pytest.approx(2.0, abs=1e-6)
        assert rep.nondegenerate


class TestBifurcationPoint:
    def test_light_system_exact_values(self, params_p):
        rep = bifurcation_point(params_p)
        assert rep.T_star == params_p.T0
        assert abs(rep.a0 - math.sqrt((math.sqrt(3.0) + 7.0) / 11.0)) < 1e-14
        assert abs(rep.T_star - math.pi * 11.0 * math.sqrt(11.0) / 4.0) < 1e-10
        assert rep.b == 0.0
        assert rep.nondegenerate

    def test_light_system_printed_values(self, params_p):
        rep = bifurcation_point(params_p)
        assert abs(rep.a0 - 0.890967) < 1e-4
        assert abs(rep.T_star - 28.6536) < 1e-4
        assert abs(rep.theta0 - 2.32086) < 1e-4

    def test_heavy_system_printed_values(self, params_q):
        rep = bifurcation_point(params_q)
        assert abs(rep.a0 - 5.17965) < 1e-4
        assert abs(rep.T_star - 5.03586) < 1e-4
        assert rep.T_exact == "11*sqrt(11/518)*pi"
        assert abs(rep.T_star - 11.0 * math.sqrt(11.0 / 518.0) * math.pi) < 1e-12

    def test_exact_form_of_a_numpy_radius(self):
        # r0 given as np.float64 once printed as "np.float64(11.5)*sqrt(np.float64(11.5)/16)*pi"
        rep = bifurcation_point(SystemParams(3, 3.0, 7.0, np.float64(11.5)))
        assert rep.T_exact == "11.5*sqrt(11.5/16)*pi"

    def test_one_seed_carries_both_margins(self, params_p):
        # the odd/even seed (a0, 0, T0/2) is the doubly symmetric form of (a0, 0, T0)
        rep = bifurcation_point(params_p)
        assert (rep.T_star, rep.T_exact) == (params_p.T0, "11*sqrt(11/16)*pi")
        assert rep.margin == degeneracy_margin(rep.s, SymmetryKind.ODD)
        assert rep.margin_double == abs(2.0 * math.sin(math.pi * rep.s / 2.0))
        assert rep.xi2 is not None

    def test_theta0_matches_integrated_phase(self, params_p, params_q, cfg):
        for p in (params_p, params_q):
            rep = bifurcation_point(p)
            assert rep.theta0 == rep.a0 * rep.T_star / p.r0
            e = eval_at(rep.a0, 0.0, rep.T_star, p, cfg)
            assert abs(e.Theta - rep.theta0) < 1e-9

    def test_s_field_consistent(self, params_q):
        rep = bifurcation_point(params_q)
        assert rep.s == resonance_ratio(params_q)


class TestPhaseCurvature:
    def test_light_system_regression_value(self, params_p):
        val = xi_second_derivative(params_p)
        assert abs(val - 217.37049004100066) < 1e-12 * 217.37
        assert val > 0.0

    @pytest.mark.parametrize(
        "n,m,M,r0,expected",
        [
            (3, 92.0, 242.0, 11.0, 1.722551),
            (5, 2.0, 9.0, 7.0, 61.648965),
            (4, 5.0, 1.0, 7.0, -12.822664),
        ],
    )
    def test_regression_table(self, n, m, M, r0, expected):
        # transcription locks; the last row shows the sign can flip
        val = xi_second_derivative(SystemParams(n=n, m=m, M=M, r0=r0))
        assert abs(val - expected) < 1e-5 * max(1.0, abs(expected))

    def test_report_carries_the_value(self, params_p):
        rep = bifurcation_point(params_p)
        assert rep.xi2 == xi_second_derivative(params_p)

    def test_value_out_of_float_range_is_reported_as_none(self):
        # m**2 overflows in the denominators
        params = SystemParams(n=3, m=1e200, M=7.0, r0=11.0)
        with pytest.raises(ValueError, match="floating point"):
            xi_second_derivative(params)
        assert bifurcation_point(params).xi2 is None
