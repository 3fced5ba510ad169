import math

import pytest
from hypothesis import given, settings, strategies as st

from fdcell import analytic, closedform
from fdcell.model import NetworkParams, Scenario, threshold_from_rate
from fdcell.quadrature import QuadratureConfig
from fdcell.simulate import SimConfig, estimate_outage, simulate_sinr
from test_analytic import exact_two_node

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


def scaled(r, lam):
    """The transforms' distance x = r*sqrt(lam*pi); the oracles stay in r."""
    return r * math.sqrt(lam * math.pi)


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
        value = analytic.bs_interference_laplace(scaled(r, lam), t, p)
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
        value = analytic.uplink_laplace_full(scaled(r, lam), t, p)
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
        full = analytic.uplink_laplace_full(scaled(r, lam), t, p)
        excluded = analytic.uplink_laplace_excluded(scaled(r, lam), t, p, QUAD)
        assert 0.0 <= excluded <= 1.0
        # the ordering is strict mathematically; allow quadrature slack when
        # the two transforms coincide to within the solver tolerance
        assert excluded >= full - 10 * QUAD.rel_tol_inner
        if full > 1e-300:
            assert excluded > 0.0

    def test_exclusion_strictly_larger_at_macroscopic_gap(self):
        x = scaled(10.0, NetworkParams().lam)
        full = analytic.uplink_laplace_full(x, 1.0, NetworkParams())
        excluded = analytic.uplink_laplace_excluded(x, 1.0, NetworkParams(), QUAD)
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


class TestExactDensityInvariance:
    @pytest.mark.parametrize("ratio", [1.0, 0.3])
    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_bit_identical_across_density(self, alpha, ratio):
        # at zero noise and loop gain and alpha1 = alpha2 the density cancels
        # in the unit gains, so the quadrature sees the same integrand
        for fn in (analytic.two_node_outage, analytic.three_node_outage,
                   analytic.half_duplex_outage):
            values = {fn(params_from(lam, alpha, alpha, ratio), 1.0, QUAD).value
                      for lam in (1e-4, 1e-3, 1e-2)}
            assert len(values) == 1

    @pytest.mark.parametrize("rate", [0.1, 1.0, 3.0])
    def test_closed_form_bit_identical_across_density(self, rate):
        # its kernels take the scaled distance x, so without loop gain the
        # density enters nowhere, down to densities whose u = x^2/(pi*lam)
        # is near the largest double
        values = {closedform.two_node_outage(rate, lam, 0.0, QUAD).value
                  for lam in (1e-300, 1e-160, 1e-4, 1e-3, 1e-2, 1e10)}
        assert len(values) == 1


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


def log_uniform(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda e: 10.0 ** e)


# the general route's whole domain: alpha in (2, 8], powers 1e-6..1e4 apart,
# rates down to 1e-9, densities over ten decades; the closed forms' own
# point (alpha = 4, equal powers, no noise, mu = 1) and the exact two-node
# oracle's (alpha1 = alpha2, no noise, no loop gain) are drawn on purpose,
# since they have measure zero
edge_alphas = st.floats(min_value=2.0, max_value=8.0, exclude_min=True)
edge_exponents = st.one_of(st.just(4.0), edge_alphas)


@st.composite
def edge_params(draw):
    kind = draw(st.sampled_from(("closed", "exact", "any")))
    closed, exact = kind == "closed", kind == "exact"
    a1 = 4.0 if closed else draw(edge_alphas if exact else edge_exponents)
    a2 = 4.0 if closed else a1 if exact else draw(edge_exponents)
    ratio = 1.0 if closed else draw(log_uniform(-6, 4))
    sigma_n2 = 0.0 if closed or exact else \
        draw(st.one_of(st.just(0.0), log_uniform(-6, 2)))
    mu = 1.0 if closed else draw(log_uniform(-1, 1))
    sigma_l2 = 0.0 if exact else draw(st.one_of(st.just(0.0), log_uniform(-6, 0)))
    return NetworkParams(lam=draw(log_uniform(-8, 2)), alpha1=a1, alpha2=a2,
                         p_b=1.0, p_u=ratio, sigma_n2=sigma_n2, mu=mu,
                         sigma_l2=sigma_l2)


class TestDomainEdges:
    """The general route and Monte Carlo over the edges of the domain: a
    value in [0, 1], nondecreasing in the rate and in the loop gain, and the
    closed form's and the exact two-node oracle's values wherever they
    apply."""

    @given(params=edge_params(), r_lo=log_uniform(-9, 1), r_step=log_uniform(-3, 1),
           li_step=log_uniform(-6, 0))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_general_route(self, params, r_lo, r_step, li_step):
        r_hi = min(10.0, r_lo * (1.0 + r_step))
        more_li = params.replace(sigma_l2=params.sigma_l2 + li_step)
        tol = 10 * QUAD.rel_tol_outer
        for scenario in Scenario:
            lo = analytic.outage(scenario, params, r_lo, QUAD).value
            hi = analytic.outage(scenario, params, r_hi, QUAD).value
            assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
            assert lo <= hi + tol
            if closedform.applicable(params):
                assert closedform.outage(scenario, params, r_lo, QUAD).value == \
                    pytest.approx(lo, abs=1e-4)
        lo = analytic.two_node_outage(params, r_lo, QUAD).value
        if params.sigma_n2 == params.sigma_l2 == 0.0 and \
                params.alpha1 == params.alpha2:
            assert lo == pytest.approx(exact_two_node(params, r_lo), abs=1e-9)
        hi = analytic.two_node_outage(more_li, r_lo, QUAD).value
        assert 0.0 <= hi <= 1.0
        assert lo <= hi + tol

    @given(params=edge_params(), r_lo=log_uniform(-9, 1), r_step=log_uniform(-3, 1),
           li_step=log_uniform(-6, 0))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_monte_carlo(self, params, r_lo, r_step, li_step):
        # on shared parts each trial's outage is monotone in T and in the
        # loop scale, and so is their mean, to the last bit; a RuntimeWarning
        # fails the test (filterwarnings in pyproject.toml)
        r_hi = min(10.0, r_lo * (1.0 + r_step))
        sim = SimConfig(trials=64, window_factor=8.0)
        two_node = Scenario.TWO_NODE_FD
        parts = simulate_sinr(params, tuple(Scenario), sim)
        for scenario in Scenario:
            lo, hi = (estimate_outage(params, scenario, rate, sim,
                                      parts=parts[scenario]).value
                      for rate in (r_lo, r_hi))
            assert 0.0 <= lo <= hi <= 1.0
        lo, hi = (estimate_outage(p, two_node, r_lo, sim,
                                  parts=parts[two_node]).value
                  for p in (params, params.replace(
                      sigma_l2=params.sigma_l2 + li_step)))
        assert lo <= hi
