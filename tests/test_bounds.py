"""Dimension-bound formulas: frozen hand evaluations, constants, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsvlab import bounds as B
from nsvlab.errors import InvalidParameterError, WrongRegimeError

import oracles


def inp(d=2, nu=1.0, alpha=1.0, g_norm=1.0, geometry="torus", **kw):
    if d == 3 and "domain_measure" not in kw:
        kw["domain_measure"] = (2 * math.pi) ** 3
    return B.BoundsInput(d=d, nu=nu, alpha=alpha, g_norm=g_norm, geometry=geometry, **kw)


class TestBasicBound:
    def test_2d_hand_value(self):
        # (a+1)^2/(8 pi a) G^2 at a=1, G=1: 4/(8 pi) = 1/(2 pi)
        assert B.bound_basic(inp()).value == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_3d_hand_value(self):
        # (a+1)^2/(6 pi a^{3/2}) G^2 at a=1, G=1: 2/(3 pi)
        e = B.bound_basic(inp(d=3, geometry="domain"))
        assert e.value == pytest.approx(2 / (3 * math.pi), rel=1e-12)

    def test_alpha_zero_flagged_infinite(self):
        e = B.bound_basic(inp(alpha=0.0))
        assert math.isinf(e.value) and e.validity == B.OUT_OF_RANGE

    def test_blowup_rates_as_alpha_vanishes(self):
        # 1/alpha in 2D, alpha^{-3/2} in 3D: ratio test over a decade
        v2 = [B.bound_basic(inp(alpha=a)).value for a in (1e-3, 1e-4)]
        assert v2[1] / v2[0] == pytest.approx(10.0, rel=0.01)
        v3 = [B.bound_basic(inp(d=3, alpha=a, geometry="domain")).value for a in (1e-3, 1e-4)]
        assert v3[1] / v3[0] == pytest.approx(10.0**1.5, rel=0.01)


class TestRefinedAndSymmetric3d:
    def test_refined_hand_value(self):
        # C(1+a)G^{5/2}((1+a)a^{-3/4}G^{3/2}+1) at a=1, G=1, C=1: 2*(2+1) = 6
        e = B.bound_3d_refined(inp(d=3, geometry="domain"))
        assert e.value == pytest.approx(6.0, rel=1e-12)
        assert e.validity == B.MODULO_CONSTANT

    def test_refined_vanishes_with_forcing(self):
        assert B.bound_3d_refined(inp(d=3, g_norm=0.0, geometry="domain")).value == 0.0

    def test_refined_small_alpha_leading_power(self):
        # dominant term ~ a^{-3/4} G^4 for small a, large G
        big = inp(d=3, alpha=1e-6, g_norm=1e3, geometry="domain")
        lead = big.grashof**4 * big.alpha_lambda1**-0.75
        assert B.bound_3d_refined(big).value == pytest.approx(lead, rel=0.01)

    @pytest.mark.parametrize("bound", [B.bound_3d_refined, B.bound_3d_symmetric])
    def test_alpha_zero_diverges(self, bound):
        e = bound(inp(d=3, alpha=0.0, g_norm=10.0, geometry="domain"))
        assert (e.value, e.validity, e.detail) == (math.inf, B.OUT_OF_RANGE, "diverges at alpha=0")

    def test_refined_wrong_dimension(self):
        with pytest.raises(WrongRegimeError):
            B.bound_3d_refined(inp(d=2))

    def test_symmetric_hand_value_and_branch(self):
        # a=1, G=2: 4 * min[1, 4] = 4, alpha branch active
        e = B.bound_3d_symmetric(inp(d=3, g_norm=2.0, geometry="domain"))
        assert e.value == pytest.approx(4.0, rel=1e-12)
        assert "alpha" in e.detail

    def test_symmetric_branch_switch_point(self):
        # branches equal exactly when a^{3/4} G^2 = 1
        alpha = 0.3
        g = alpha ** (-3 / 8)  # G^2 = a^{-3/4}
        e = B.bound_3d_symmetric(inp(d=3, alpha=alpha, g_norm=g, geometry="domain",
                                     lambda1=1.0))
        first, second = alpha**-0.75, g**2
        assert first == pytest.approx(second, rel=1e-12)
        assert e.value == pytest.approx(alpha**-0.75 * g**2 * first, rel=1e-12)


class TestQuadratic2d:
    def test_torus_alpha0(self):
        # c_lt/2 G^2 = 3 pi/64 at G=1
        e = B.bound_2d_quadratic(inp(alpha=0.0))
        assert e.value == pytest.approx(3 * math.pi / 64, rel=1e-12)

    def test_alpha_one_doubles(self):
        v0 = B.bound_2d_quadratic(inp(alpha=0.0)).value
        v1 = B.bound_2d_quadratic(inp(alpha=1.0)).value
        assert v1 == pytest.approx(2 * v0, rel=1e-12)

    def test_continuity_at_alpha0(self):
        v0 = B.bound_2d_quadratic(inp(alpha=0.0)).value
        v_eps = B.bound_2d_quadratic(inp(alpha=1e-9)).value
        assert v_eps == pytest.approx(v0, rel=1e-8)


class TestLinear2d:
    def test_domain_constant(self):
        e = B.bound_2d_linear(inp(geometry="domain", alpha=0.0, lambda1=2 * math.pi / (4 * math.pi**2)))
        calg = 4 * math.pi**2 * 1.0
        assert e.value / calg == pytest.approx(0.108349, abs=2e-6)

    def test_torus_constant(self):
        e = B.bound_2d_linear(inp(alpha=0.0))
        assert e.value / inp().grashof_cal == pytest.approx(math.sqrt(3) / (8 * math.pi**1.5), rel=1e-12)

    def test_out_of_range_reports_alpha0(self):
        base = inp(alpha=0.0)
        alpha0 = base.alpha0_linear
        e = B.bound_2d_linear(inp(alpha=2 * alpha0))
        assert e.validity == B.OUT_OF_RANGE
        assert f"{alpha0:.6g}" in e.detail


class TestLog2d:
    def test_exact_branch_constants(self):
        assert B.CONSTANTS.log_branch_coeff == pytest.approx(16 / math.pi ** (2 / 3), rel=1e-12)
        assert B.CONSTANTS.log_branch_offset == pytest.approx(
            0.5 * math.log(math.pi) + 6 * math.log(2) + 1, rel=1e-12)

    def test_min_branch_selection(self):
        # calG = 1e9: log branch wins; calG = 1e4: linear branch wins
        nu = 1.0
        for calg, branch in ((1e9, "log"), (1e4, "linear")):
            g_norm = calg / (4 * math.pi**2)
            e = B.bound_2d_log(inp(alpha=0.0, g_norm=g_norm))
            assert branch in e.detail

    def test_rejects_non_torus(self):
        with pytest.raises(WrongRegimeError):
            B.bound_2d_log(inp(geometry="domain", lambda1=2 * math.pi / (4 * math.pi**2)))

    def test_rejects_zero_forcing(self):
        with pytest.raises(InvalidParameterError):
            B.bound_2d_log(inp(g_norm=0.0))

    def test_log_branch_bounds_nothing_below_its_zero(self):
        # calG = 4e-4: ln calG + offset < 0, so the log branch is inf (not a
        # complex cube root) and the linear branch is the min, here and in
        # the classical bounds
        calg = 1e-5 * 4 * math.pi**2
        assert math.log(calg) + B.CONSTANTS.log_branch_offset < 0
        e = B.bound_2d_log(inp(alpha=0.0, g_norm=1e-5))
        assert "linear branch" in e.detail
        assert e.value == pytest.approx(B.CONSTANTS.linear_torus_coeff * calg, rel=1e-12)
        vals = B.classical_ns_bounds(inp(alpha=0.0, g_norm=1e-5))
        assert vals["classical_torus_log"] == math.inf
        assert vals["min"] == vals["classical_torus_linear"]


class TestClassicalBounds:
    def test_constants(self):
        c = B.CONSTANTS
        assert c.classical_calg_coeff == pytest.approx(0.054175, abs=2e-6)
        assert c.classical_torus_coeff == pytest.approx(0.027494, abs=2e-6)
        assert c.log_branch_coeff_classical == pytest.approx(2 ** (10 / 3) / math.pi ** (2 / 3), rel=1e-12)
        assert c.log_branch_offset_classical == pytest.approx(
            0.5 * math.log(math.pi) + (23 / 4) * math.log(2) + 1, rel=1e-12)

    def test_requires_alpha_zero(self):
        with pytest.raises(WrongRegimeError):
            B.classical_ns_bounds(inp(alpha=0.5))

    def test_min_of_three(self):
        vals = B.classical_ns_bounds(inp(alpha=0.0, g_norm=10.0))
        assert vals["min"] == min(vals["classical_calg"], vals["classical_torus_linear"],
                                  vals["classical_torus_log"])


class TestDecimalSummaries:
    def test_every_printed_decimal_is_the_upward_rounding(self):
        # the published summaries are ceilings of the exact constants at the
        # printed precision (several are NOT nearest roundings)
        for name, exact, decimals, printed in B.DECIMAL_SUMMARIES:
            assert oracles.ceil_at(exact, decimals) == pytest.approx(printed, abs=1e-9), name

    def test_summaries_within_one_unit_in_last_place(self):
        for name, exact, decimals, printed in B.DECIMAL_SUMMARIES:
            assert 0 <= printed - exact < 10.0**-decimals, name


class TestThresholds:
    def test_g0_default_and_variant(self):
        th = B.compute_thresholds()
        # independent fixed-point oracle x -> 7.46^3 (ln x + off)
        for off, got in ((5.74, th.g0), (5.24, th.g0_variant_524)):
            x = 6000.0
            for _ in range(60):
                x = 7.46**3 * (math.log(x) + off)
            assert got == pytest.approx(x, rel=1e-6)
        assert th.g0 == pytest.approx(5994.33, rel=1e-4)
        assert th.g0_variant_524 == pytest.approx(5770.99, rel=1e-4)

    def test_crossover_classical_fixed_point_oracle(self):
        th = B.compute_thresholds()
        x = 1e8
        for _ in range(60):
            x = (4.7 / 0.028) ** 3 * (math.log(x) + 5.56)
        assert th.crossover_classical == pytest.approx(x, rel=1e-6)
        assert th.crossover_classical == pytest.approx(1.1404e8, rel=1e-3)

    def test_crossover_log_fixed_point_oracle(self):
        # equality point of the two printed branches; the published summary
        # value 2.6e8 is an erratum, reproducible only with a branch constant
        # of 8.5 in place of 7.46 (asserted in acceptance criterion 2c)
        th = B.compute_thresholds()
        x = 1e8
        for _ in range(60):
            x = (7.46 / 0.039) ** 3 * (math.log(x) + 5.74)
        assert th.crossover_log_vs_linear == pytest.approx(x, rel=1e-6)
        assert th.crossover_log_vs_linear == pytest.approx(1.7293e8, rel=1e-3)

    def test_bisection_needs_bracket(self):
        with pytest.raises(ArithmeticError):
            B.bisect_root(lambda x: 1.0 + x * 0, 0.0, 1.0)


class TestReportAndInvariants:
    @settings(max_examples=25, deadline=None)
    @given(g1=st.floats(0.1, 1e4), g2=st.floats(0.1, 1e4), alpha=st.floats(1e-6, 10))
    def test_monotone_in_grashof(self, g1, g2, alpha):
        lo, hi = sorted((g1, g2))
        for fn in (B.bound_basic, B.bound_2d_quadratic, B.bound_2d_linear, B.bound_2d_log):
            a = fn(inp(alpha=alpha, g_norm=lo)).value
            b = fn(inp(alpha=alpha, g_norm=hi)).value
            assert a <= b * (1 + 1e-12)

    def test_grashof_relation_g_le_calg_over_2pi(self):
        # lambda1 >= 2 pi / |domain| makes G <= calG/(2 pi)
        for d, geometry, lam1, measure in [
            (2, "torus", 1.0, 4 * math.pi**2),
            (2, "domain", 1.0, math.pi),
            (2, "domain", 7.0, 2.0),
        ]:
            i = B.BoundsInput(d=d, nu=0.7, alpha=0.1, g_norm=3.0,
                              lambda1=lam1, domain_measure=measure, geometry=geometry)
            if lam1 >= 2 * math.pi / measure:
                assert i.grashof <= i.grashof_cal / (2 * math.pi) + 1e-12

    def test_report_assembles_2d(self):
        rep = B.build_report(inp(alpha=0.0, g_norm=10.0))
        ids = {e.formula_id for e in rep.entries}
        assert {"basic-2d", "quadratic-2d", "linear-2d-torus", "log-2d-torus",
                "classical-min"} <= ids
        assert "threshold_g0" in rep.derived
        payload = rep.as_dict()
        assert all("formula_id" in e for e in payload["bounds"])

    def test_report_assembles_3d(self):
        rep = B.build_report(inp(d=3, geometry="domain"))
        ids = {e.formula_id for e in rep.entries}
        assert ids == {"basic-3d", "refined-3d", "symmetric-3d"}

    def test_input_validation_torus_normalization(self):
        with pytest.raises(InvalidParameterError):
            B.BoundsInput(d=2, nu=1, alpha=0, g_norm=1, lambda1=2.0)  # lam1*|T^2| != 4pi^2

    def test_out_of_range_never_clipped(self):
        base = inp(alpha=0.0, g_norm=10.0)
        entry = B.bound_2d_linear(inp(alpha=10 * base.alpha0_linear, g_norm=10.0))
        assert entry.validity == B.OUT_OF_RANGE
        assert math.isfinite(entry.value)  # value still reported, not clipped
