import math

import pytest
from hypothesis import given, settings, strategies as st

from fdcell import analytic, closedform
from fdcell.model import NetworkParams, Scenario, threshold_from_rate
from fdcell.quadrature import QuadratureConfig

QUAD = QuadratureConfig()

rates = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
positive_rates = st.floats(min_value=1e-6, max_value=8.0)
radii = st.floats(min_value=0.05, max_value=80.0)
thresholds = st.floats(min_value=1e-6, max_value=40.0)
densities = st.floats(min_value=1e-4, max_value=3e-2)
exponents = st.floats(min_value=2.1, max_value=6.0)
power_ratios = st.floats(min_value=1e-3, max_value=1e3)


def params_from(lam, a1, a2, ratio):
    return NetworkParams(lam=lam, alpha1=a1, alpha2=a2, p_b=1.0, p_u=ratio)


class TestThresholdProperties:
    @given(r1=rates, r2=rates)
    def test_strictly_increasing(self, r1, r2):
        lo, hi = sorted((r1, r2))
        if lo == hi:
            return
        for scenario in Scenario:
            assert threshold_from_rate(lo, scenario) < \
                threshold_from_rate(hi, scenario)

    @given(rate=positive_rates)
    def test_half_duplex_strictly_dominates(self, rate):
        fd = threshold_from_rate(rate, Scenario.TWO_NODE_FD)
        hd = threshold_from_rate(rate, Scenario.HALF_DUPLEX)
        assert hd > fd

    def test_equality_only_at_zero(self):
        assert threshold_from_rate(0.0, Scenario.HALF_DUPLEX) == \
            threshold_from_rate(0.0, Scenario.TWO_NODE_FD) == 0.0


def full_uplink_exponent(r, t, lam, a1, a2, ratio):
    """Independent closed form of the full-plane transform's exponent using
    integral_0^inf u/(1+u^n) du = (pi/n)/sin(2*pi/n)."""
    ystar2 = (ratio * t * r ** a1) ** (2.0 / a2)
    return 2.0 * math.pi * lam * ystar2 * (math.pi / a2) / math.sin(2.0 * math.pi / a2)


class TestLaplaceProperties:
    # exp() underflows to exactly 0.0 for exponents beyond ~745, so strict
    # positivity is asserted only where the exponent provably stays finite

    @given(r=radii, t=thresholds, lam=densities, a1=exponents)
    @settings(max_examples=60, deadline=None)
    def test_bs_transform_in_unit_interval(self, r, t, lam, a1):
        p = NetworkParams(lam=lam, alpha1=a1)
        value = analytic.bs_interference_laplace(r, t, p, QUAD)
        assert 0.0 <= value <= 1.0
        # J = integral_0^1 T*v^(a1-3)/(1+T*v^a1) dv <= T/(a1-2), so the
        # exponent magnitude is at most 2*pi*lam*r^2*T/(a1-2)
        if 2.0 * math.pi * lam * r * r * t / (a1 - 2.0) < 700.0:
            assert value > 0.0
            assert math.log(value) <= 0.0

    @given(r=radii, t=thresholds, lam=densities, a1=exponents, a2=exponents,
           ratio=power_ratios)
    @settings(max_examples=60, deadline=None)
    def test_full_uplink_transform_matches_closed_exponent(self, r, t, lam,
                                                           a1, a2, ratio):
        p = params_from(lam, a1, a2, ratio)
        value = analytic.uplink_laplace_full(r, t, p, QUAD)
        assert 0.0 <= value <= 1.0
        exponent = full_uplink_exponent(r, t, lam, a1, a2, ratio)
        if exponent < 700.0:
            assert value > 0.0
            assert math.log(value) <= 0.0
            assert value == pytest.approx(math.exp(-exponent), rel=1e-6)

    @given(r=radii, t=thresholds, lam=densities, a1=exponents, a2=exponents,
           ratio=power_ratios)
    @settings(max_examples=25, deadline=None)
    def test_exclusion_never_hurts(self, r, t, lam, a1, a2, ratio):
        p = params_from(lam, a1, a2, ratio)
        full = analytic.uplink_laplace_full(r, t, p, QUAD)
        excluded = analytic.uplink_laplace_excluded(r, t, p, QUAD)
        assert 0.0 <= excluded <= 1.0
        # the ordering is strict mathematically; allow quadrature slack when
        # the two transforms coincide to within the solver tolerance
        assert excluded >= full - 10 * QUAD.rel_tol_inner
        if full > 1e-300:
            assert excluded > 0.0

    def test_exclusion_strictly_larger_at_macroscopic_gap(self):
        full = analytic.uplink_laplace_full(10.0, 1.0, NetworkParams(), QUAD)
        excluded = analytic.uplink_laplace_excluded(10.0, 1.0, NetworkParams(),
                                                    QUAD)
        assert excluded > full + 0.1


class TestOutageMonotonicity:
    RATE_GRID = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)

    def test_closed_forms_nondecreasing_in_rate(self):
        for fn in (lambda r: closedform.two_node_outage(r, 1e-3, 1e-4, QUAD).value,
                   lambda r: closedform.three_node_outage(r).value,
                   lambda r: closedform.half_duplex_outage(r).value):
            values = [fn(r) for r in self.RATE_GRID]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_general_nondecreasing_in_rate(self):
        p = NetworkParams(sigma_l2=1e-4)
        grid = (0.0, 0.5, 1.0, 2.0, 4.0)
        for fn in (analytic.two_node_outage, analytic.three_node_outage,
                   analytic.half_duplex_outage):
            values = [fn(p, r, QUAD).value for r in grid]
            assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))
            assert values[0] == 0.0

    def test_two_node_nondecreasing_in_loop_gain(self):
        for rate in (0.5, 1.0, 2.0):
            values = [analytic.two_node_outage(NetworkParams(sigma_l2=sl),
                                               rate, QUAD).value
                      for sl in (0.0, 1e-5, 1e-4, 1e-3)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_two_node_below_three_node_without_li(self):
        for rate in (0.1, 0.5, 1.0, 2.0, 4.0):
            assert analytic.two_node_outage(NetworkParams(), rate, QUAD).value \
                <= analytic.three_node_outage(NetworkParams(), rate, QUAD).value


class TestDensityInvariance:
    @pytest.mark.parametrize("lam", [1e-4, 1e-2])
    def test_interference_limited_outages_density_free(self, lam):
        ref = NetworkParams()
        moved = NetworkParams(lam=lam)
        for fn in (analytic.two_node_outage, analytic.three_node_outage,
                   analytic.half_duplex_outage):
            assert abs(fn(moved, 1.0, QUAD).value - fn(ref, 1.0, QUAD).value) \
                < 10 * QUAD.rel_tol_outer


class TestNoiseLimits:
    def test_converges_to_interference_limited_value(self):
        rate = 0.5
        noisy = NetworkParams(sigma_n2=1.0, p_b=1e9, p_u=1e9)
        for noisy_fn, clean_fn in (
                (analytic.three_node_outage, analytic.three_node_outage),
                (analytic.half_duplex_outage, analytic.half_duplex_outage)):
            clean = clean_fn(NetworkParams(), rate, QUAD).value
            assert noisy_fn(noisy, rate, QUAD).value == \
                pytest.approx(clean, abs=1e-4)
