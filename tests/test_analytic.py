import functools
import math
import os
import platform
import subprocess
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from scipy import integrate as sp_integrate

import fdcell
from fdcell import analytic, closedform, quadrature
from fdcell.model import NetworkParams, Scenario, threshold_from_rate
from fdcell.quadrature import (
    QuadratureConfig,
    QuadratureError,
    exclusion_average,
    inner_integral_memo,
    integrate,
)

QUAD = QuadratureConfig()
DEFAULTS = NetworkParams()


def scaled(r, lam=DEFAULTS.lam):
    """The transforms' distance x = r*sqrt(lam*pi) of a physical distance r;
    the oracles below stay in r."""
    return r * math.sqrt(lam * math.pi)


def bs_laplace_quartic(r, t, lam):
    """Closed reduction of the BS Laplace transform at alpha1 = 4."""
    st = math.sqrt(t)
    return math.exp(-math.pi * lam * r * r * st * math.atan(st))


def uplink_full_quartic(r, t, lam):
    """Closed reduction of the full-plane uplink transform at alpha1 = alpha2 = 4,
    equal powers."""
    return math.exp(-math.pi * lam * r * r * math.sqrt(t) * (math.pi / 2.0))


def uplink_excluded_tensor_oracle(r, t, params, n=2000):
    """Non-adaptive 2000x2000 trapezoid evaluation of the exclusion-averaged
    uplink transform in the physical distances r and rho."""
    a2 = params.alpha2
    a = params.p_u / params.p_b * t
    ystar = (a * r ** params.alpha1) ** (1.0 / a2)
    lam = params.lam
    rho_max = math.sqrt(math.log(1.0 / QUAD.tail_cut) / (lam * math.pi))
    rho = np.linspace(0.0, rho_max, n + 1)
    c = rho / ystar

    grid = np.linspace(0.0, 1.0, n + 1)
    tail1 = np.trapezoid(grid ** (a2 - 3.0) / (1.0 + grid ** a2), grid)

    g = np.empty_like(c)
    near = c <= 1.0
    if near.any():
        cn = c[near][:, None]
        u = cn + grid[None, :] * (1.0 - cn)
        head = np.trapezoid(u / (1.0 + u ** a2), u, axis=1)
        g[near] = head + tail1
    far = ~near
    if far.any():
        cf = c[far][:, None]
        integ = grid[None, :] ** (a2 - 3.0) / (1.0 + (grid[None, :] / cf) ** a2)
        g[far] = cf[:, 0] ** (2.0 - a2) * np.trapezoid(integ, grid, axis=1)

    outer = (2.0 * math.pi * lam * rho * np.exp(-lam * math.pi * rho ** 2)
             * np.exp(-2.0 * math.pi * lam * ystar ** 2 * g))
    return float(np.trapezoid(outer, rho))


def tail_integral_by_quad(c, alpha):
    """integral_c^inf u/(1+u^alpha) du by tight adaptive quadrature, split
    at 1; beyond 1 in the scaled variable u = c*t so the tail starts at 1."""
    def q(fn, lo, hi):
        return sp_integrate.quad(fn, lo, hi, epsabs=0.0, epsrel=1.2e-14,
                                 limit=200)[0]

    if c < 1.0:
        f = lambda u: u / (1.0 + u ** alpha)
        return q(f, c, 1.0) + q(f, 1.0, math.inf)
    return c * c * q(lambda t: t / (1.0 + (c * t) ** alpha), 1.0, math.inf)


@functools.cache
def tail_integral_by_mpmath(c, alpha):
    """integral_c^inf u/(1+u^alpha) du in mpmath at the caller's precision,
    as c^(2-alpha)/(alpha-2) - integral_c^inf u^(1-alpha)/(1+u^alpha) du,
    whose remainder stays small as alpha -> 2; at c = 0, split at 1."""
    import mpmath

    c, alpha = mpmath.mpf(c), mpmath.mpf(alpha)
    if c == 0:
        return (mpmath.quad(lambda u: u / (1 + u ** alpha), [0, 1])
                + tail_integral_by_mpmath(1.0, float(alpha)))
    rest = mpmath.quad(lambda u: u ** (1 - alpha) / (1 + u ** alpha),
                       [c, 1, mpmath.inf] if c < 1 else [c, mpmath.inf])
    return c ** (2 - alpha) / (alpha - 2) - rest


class TestTailIntegral:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 6.0, 8.0])
    def test_against_quadrature(self, alpha):
        for c in (0.0, 1e-6, 1e-2, 0.5, 1.0, 2.0, 1e2, 1e6):
            assert analytic.tail_integral(c, alpha) == pytest.approx(
                tail_integral_by_quad(c, alpha), rel=1e-12)

    def test_quartic_identity(self):
        # E(c, 4) = arccot(c^2)/2, the kernel behind closedform's formulas
        for c in (0.0, 1e-3, 0.5, 1.0, 2.0, 3.0, 1e2, 1e3):
            assert analytic.tail_integral(c, 4.0) == pytest.approx(
                closedform.arccot(c * c) / 2.0, rel=1e-12)


class TestBsInterferenceLaplace:
    def test_zero_threshold(self):
        assert analytic.bs_interference_laplace(scaled(10.0), 0.0, DEFAULTS) == 1.0

    def test_quartic_reduction(self):
        value = analytic.bs_interference_laplace(scaled(10.0), 1.0, DEFAULTS)
        assert value == pytest.approx(bs_laplace_quartic(10.0, 1.0, 1e-3),
                                      rel=1e-9)

    def test_tiny_radius_limit(self):
        value = analytic.bs_interference_laplace(scaled(1e-6), 1.0, DEFAULTS)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_general_exponent(self):
        p = NetworkParams(alpha1=3.3)
        value = analytic.bs_interference_laplace(scaled(5.0, p.lam), 2.0, p)
        assert 0.0 < value < 1.0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            analytic.bs_interference_laplace(0.0, 1.0, DEFAULTS)


@pytest.mark.parametrize("transform", [analytic.bs_interference_laplace,
                                       analytic.uplink_laplace_full,
                                       analytic.uplink_laplace_excluded])
def test_nan_threshold_is_rejected(transform):
    # a NaN threshold must raise, not read as no interference
    with pytest.raises(ValueError, match="threshold"):
        transform(1.0, math.nan, DEFAULTS)


class TestUplinkLaplaceFull:
    def test_zero_threshold(self):
        assert analytic.uplink_laplace_full(scaled(10.0), 0.0, DEFAULTS) == 1.0

    def test_quartic_reduction(self):
        value = analytic.uplink_laplace_full(scaled(10.0), 1.0, DEFAULTS)
        assert value == pytest.approx(uplink_full_quartic(10.0, 1.0, 1e-3),
                                      rel=1e-9)

    def test_vanishing_user_power(self):
        p = NetworkParams(p_u=1e-30)
        value = analytic.uplink_laplace_full(scaled(10.0, p.lam), 1.0, p)
        assert value == pytest.approx(1.0, abs=1e-12)


class TestUplinkScale:
    @pytest.mark.parametrize("params", [
        DEFAULTS, NetworkParams(alpha1=3.0, alpha2=4.5, p_u=0.3, lam=2e-2),
        NetworkParams(alpha1=5.5, alpha2=2.5, p_b=7.0, lam=1e-5)])
    def test_agrees_with_the_plain_form(self, params):
        # (T*g_u/g_b * x^alpha1)^(2/alpha2) where nothing overflows
        x = np.geomspace(1e-3, 6.0, 50)
        for t in (1e-6, 0.3, 1.0, 15.0):
            plain = (t * params.sinr_scales()[0] * x ** params.alpha1) ** (
                2.0 / params.alpha2)
            s = analytic._uplink_scale(x, t, params)
            assert np.all(abs(s - plain) <= 1e-13 * plain)

    def test_no_zero_times_infinity(self):
        # g_u/g_b underflows to 0 where x^alpha1 overflows: the product is
        # formed in logs, so s is 0, tiny or inf as it should be, not NaN
        p = NetworkParams(alpha1=1000.0, alpha2=2.0001, lam=214.0,
                          p_b=7.69e-130, p_u=5.13e14)
        t = threshold_from_rate(1e-12, Scenario.THREE_NODE_FD)
        assert p.sinr_scales()[0] == 0.0
        s = analytic._uplink_scale(np.array([1.0, 10.0, 50.0]), t, p)
        assert s[0] == 0.0 and 0.0 < s[1] < 1e-270 and s[2] == math.inf


class TestUplinkLaplaceExcluded:
    def test_zero_threshold(self):
        assert analytic.uplink_laplace_excluded(scaled(10.0), 0.0, DEFAULTS,
                                                QUAD) == 1.0

    def test_strictly_between_full_and_one(self):
        full = analytic.uplink_laplace_full(scaled(10.0), 1.0, DEFAULTS)
        excl = analytic.uplink_laplace_excluded(scaled(10.0), 1.0, DEFAULTS,
                                                QUAD)
        assert full < excl <= 1.0

    def test_against_tensor_oracle(self):
        value = analytic.uplink_laplace_excluded(scaled(10.0), 1.0, DEFAULTS,
                                                 QUAD)
        oracle = uplink_excluded_tensor_oracle(10.0, 1.0, DEFAULTS)
        assert value == pytest.approx(oracle, abs=1e-5)

    def test_against_tensor_oracle_asymmetric(self):
        p = NetworkParams(alpha1=3.6, alpha2=4.4, p_u=0.25)
        value = analytic.uplink_laplace_excluded(scaled(7.0, p.lam), 2.5, p,
                                                 QUAD)
        oracle = uplink_excluded_tensor_oracle(7.0, 2.5, p)
        assert value == pytest.approx(oracle, abs=1e-5)

    @staticmethod
    def y_form_by_quad(s, a2):
        """g(s) in the exclusion radius y, the form before the substitution
        y = c*sqrt(s), by tight adaptive quadrature; beyond y = 7 the pdf
        weight holds less than 1e-21."""
        f = lambda y: 2.0 * y * math.exp(
            -y * y - 2.0 * s * analytic.tail_integral(y / math.sqrt(s), a2))
        points = [math.sqrt(s)] if math.sqrt(s) < 7.0 else None
        return sp_integrate.quad(f, 0.0, 7.0, epsabs=1e-14, epsrel=1e-13,
                                 limit=400, points=points)[0]

    @pytest.mark.parametrize("a2", [2.05, 3.0, 4.0, 8.0])
    def test_against_y_form(self, a2):
        # at alpha1 = alpha2, equal powers and T = 1, x = sqrt(s); one call
        # per s, and one call on all of them, whose shared interval must
        # still hold each column's head and tail
        p = NetworkParams(alpha1=a2, alpha2=a2)
        x = np.sqrt([1e-10, 1e-4, 1.0, 1e2, 1e4])
        s = analytic._uplink_scale(x, 1.0, p)
        oracle = [self.y_form_by_quad(si, a2) for si in s]
        single = [analytic.uplink_laplace_excluded(xi, 1.0, p, QUAD) for xi in x]
        batch = analytic.uplink_laplace_excluded(x, 1.0, p, QUAD)
        assert single == pytest.approx(oracle, abs=1e-9, rel=0)
        assert batch == pytest.approx(oracle, abs=1e-9, rel=0)

    def test_zero_and_infinite_scale_columns(self):
        # s = x^alpha1 underflows to 0 (no interference) and overflows to
        # inf (certain loss); the finite column is unaffected by them
        x = np.array([1e-200, 1.0, 1e200])
        meta, dead_meta = {"inner_evaluations": 0}, {"inner_evaluations": 0}
        with np.errstate(over="ignore"):
            s = analytic._uplink_scale(x, 1.0, DEFAULTS)
            value = analytic.uplink_laplace_excluded(x, 1.0, DEFAULTS, QUAD,
                                                     meta=meta)
            dead = analytic.uplink_laplace_excluded(x[[0, 2]], 1.0, DEFAULTS,
                                                    QUAD, meta=dead_meta)
        assert s[0] == 0.0 and s[2] == math.inf
        assert value[0] == 1.0 and value[2] == 0.0
        assert value[1] == analytic.uplink_laplace_excluded(1.0, 1.0, DEFAULTS,
                                                            QUAD)
        assert meta["inner_evaluations"] > 0 and meta["inner_evaluations"] % 21 == 0
        # the dead columns alone run no inner integral
        assert (dead == [1.0, 0.0]).all() and dead_meta["inner_evaluations"] == 0


class TestTwoNodeOutage:
    def test_zero_rate(self):
        assert analytic.two_node_outage(DEFAULTS, 0.0, QUAD).value == 0.0

    def test_matches_half_duplex_near_0_6(self):
        fd = analytic.two_node_outage(DEFAULTS, 0.6, QUAD).value
        hd = analytic.half_duplex_outage(DEFAULTS, 0.6, QUAD).value
        assert abs(fd - hd) < 0.02

    def test_loop_interference_anchor(self):
        p = NetworkParams(sigma_l2=1e-3)
        value = analytic.two_node_outage(p, 0.5, QUAD).value
        assert value == pytest.approx(0.80, abs=0.05)

    def test_matches_closed_form(self):
        for sl in (0.0, 1e-3):
            p = NetworkParams(sigma_l2=sl)
            general = analytic.two_node_outage(p, 1.0, QUAD).value
            closed = closedform.two_node_outage(1.0, 1e-3, sl, QUAD).value
            assert general == pytest.approx(closed, abs=1e-6)


class TestThreeNodeOutage:
    def test_zero_rate(self):
        assert analytic.three_node_outage(DEFAULTS, 0.0, QUAD).value == 0.0

    def test_unit_rate_value(self):
        value = analytic.three_node_outage(DEFAULTS, 1.0, QUAD).value
        assert value == pytest.approx(0.7020, abs=1e-3)

    def test_density_free(self):
        ref = analytic.three_node_outage(DEFAULTS, 1.0, QUAD).value
        dense = analytic.three_node_outage(NetworkParams(lam=1e-2), 1.0, QUAD).value
        assert abs(dense - ref) < 10 * QUAD.rel_tol_outer


class TestHalfDuplexOutage:
    def test_zero_rate(self):
        assert analytic.half_duplex_outage(DEFAULTS, 0.0, QUAD).value == 0.0

    def test_unit_rate_value(self):
        # closed reduction: 1 - 1/(1 + sqrt(3)*arctan(sqrt(3)))
        st = math.sqrt(3.0)
        expected = 1.0 - 1.0 / (1.0 + st * math.atan(st))
        value = analytic.half_duplex_outage(DEFAULTS, 1.0, QUAD).value
        assert value == pytest.approx(expected, abs=1e-6)
        assert value == pytest.approx(0.6446, abs=1e-3)

    def test_crosses_three_node_near_1_7(self):
        hd = analytic.half_duplex_outage(DEFAULTS, 1.7, QUAD).value
        assert hd == pytest.approx(0.7955, abs=0.01)
        fd = analytic.three_node_outage(DEFAULTS, 1.7, QUAD).value
        assert abs(hd - fd) < 0.01


class TestNoiseBehavior:
    def test_decreasing_in_power_and_floor(self):
        rate = 0.1
        floor = analytic.three_node_outage(DEFAULTS, rate, QUAD).value
        values = []
        for pb in (1e0, 1e3, 1e6, 1e9):
            p = NetworkParams(sigma_n2=1.0, p_b=pb, p_u=pb)
            values.append(analytic.three_node_outage(p, rate, QUAD).value)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(floor, abs=1e-4)
        assert all(v > floor for v in values)

    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
    def test_mu_scales_noise_and_loop_terms(self, scenario):
        # the fading rate cancels in the interference transforms and enters
        # only as mu*sigma_n2 and mu*sigma_l2
        p = NetworkParams(sigma_n2=1e-6, sigma_l2=1e-3, mu=2.0)
        doubled = NetworkParams(sigma_n2=2e-6, sigma_l2=2e-3)
        assert analytic.outage(scenario, p, 0.5, QUAD).value == pytest.approx(
            analytic.outage(scenario, doubled, 0.5, QUAD).value, abs=1e-12)
        assert analytic.outage(scenario, p, 0.5, QUAD).value > \
            analytic.outage(scenario, p.replace(mu=1.0), 0.5, QUAD).value


def exact_interference_limited(scenario, params, rate, tail=tail_integral_by_quad):
    """Exact three-node or half-duplex outage at zero noise and
    alpha1 = alpha2 = alpha, for any power ratio and density:
    1 - 1/(1 + 2J + 2*(p_u*T/p_b)^(2/alpha)*E(0, alpha)) with
    J = T^(2/alpha)*E(T^(-1/alpha), alpha); half-duplex drops the last term.
    E is the interference tail integral, by default by tight adaptive
    quadrature."""
    a = params.alpha1
    t = threshold_from_rate(rate, scenario)
    denominator = 1.0 + 2.0 * t ** (2.0 / a) * tail(t ** (-1.0 / a), a)
    if scenario is Scenario.THREE_NODE_FD:
        denominator += 2.0 * (params.p_u * t / params.p_b) ** (2.0 / a) * \
            tail(0.0, a)
    return 1.0 - 1.0 / denominator


ORACLE_CASES = [(scenario, NetworkParams(lam=lam, alpha1=alpha, alpha2=alpha,
                                         p_u=ratio), rate)
                for scenario in (Scenario.THREE_NODE_FD, Scenario.HALF_DUPLEX)
                for alpha in (2.2, 3.0, 4.0, 6.0)
                for ratio in (1e-3, 0.3, 1.0, 30.0)
                for rate in (0.05, 1.0, 4.0)
                for lam in (1e-4, 1e-2)]


def exact_two_node(params, rate):
    """Exact two-node outage at zero noise, zero loop gain and
    alpha1 = alpha2 = alpha, for any power ratio and density: in v = x^2 the
    nested integral separates, and the v integral of v*exp(-v*A(t)) is
    1/A(t)^2, leaving
    coverage = integral_0^inf c / (1 + 2J + c*(t + 2E(sqrt(t), alpha)))^2 dt
    with c = (T*p_u/p_b)^(2/alpha), J = T^(2/alpha)*E(T^(-1/alpha), alpha)
    and E the interference tail integral.  Integrated in z = ln t, where
    the integrand is a bump at the knee t = (1 + 2J)/c, with E's own bend
    at t = 1, and falls like exp(-|z|) on both sides: from 40 below the
    lower of the two to 40 above the higher, it misses under 1e-17 at any
    alpha, power ratio and rate."""
    a = params.alpha1
    t = threshold_from_rate(rate, Scenario.TWO_NODE_FD)
    if t == 0.0:
        return 0.0
    c = (t * params.p_u / params.p_b) ** (2.0 / a)
    base = 1.0 + 2.0 * t ** (2.0 / a) * analytic.tail_integral(t ** (-1.0 / a), a)

    def integrand(z):
        s = math.exp(z)
        return c * s / (base + c * (s + 2.0 * analytic.tail_integral(
            math.sqrt(s), a))) ** 2

    knee = math.log(base / c)
    bends = sorted({knee, 0.0})
    return 1.0 - sp_integrate.quad(integrand, bends[0] - 40.0, bends[-1] + 40.0,
                                   points=bends, epsabs=0.0, epsrel=1e-12,
                                   limit=500)[0]


TWO_NODE_ORACLE_CASES = [NetworkParams(lam=lam, alpha1=alpha, alpha2=alpha,
                                       p_u=ratio)
                         for alpha in (2.2, 3.0, 4.0, 6.0)
                         for ratio in (1e-3, 1.0, 30.0)
                         for lam in (1e-4, 1e-2)]


class TestExactOracle:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_general_route_matches_beyond_quartic(self):
        # and the error bound each estimate reports covers its true error
        for s, p, r in ORACLE_CASES:
            est = analytic.outage(s, p, r, QUAD)
            error = abs(est.value - exact_interference_limited(s, p, r))
            assert error < 1e-9
            assert error <= est.meta["abserr"] < 1e-7
            assert est.meta["evaluations"] >= 21

    @pytest.mark.parametrize("scenario", [Scenario.THREE_NODE_FD,
                                          Scenario.HALF_DUPLEX],
                             ids=lambda s: s.value)
    def test_general_route_matches_near_alpha_2(self, scenario):
        # the quadrature oracle fails below alpha ~ 2.2, where E(c, alpha)
        # grows as c^(2-alpha)/(alpha-2); the mpmath one does not
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for c in (0.0, 0.5, 2.0):
                assert float(tail_integral_by_mpmath(c, 2.5)) == pytest.approx(
                    tail_integral_by_quad(c, 2.5), rel=1e-12)
        for alpha in (2.0 + 1e-5, 2.001, 2.05):
            for ratio in (1e-6, 1e-2, 1.0, 1e2, 1e4):
                p = NetworkParams(alpha1=alpha, alpha2=alpha, p_u=ratio)
                for rate in (1e-9, 0.1, 1.0, 3.0, 10.0):
                    with mpmath.workdps(30):
                        exact = float(exact_interference_limited(
                            scenario, p, rate, tail_integral_by_mpmath))
                    est = analytic.outage(scenario, p, rate, QUAD)
                    assert abs(est.value - exact) <= est.meta["abserr"] + 1e-15, \
                        (alpha, ratio, rate)

    def test_two_node_matches_beyond_quartic(self):
        # at alpha = 4 and p_u = p_b the closed form meets the oracle too, by
        # a route that shares neither of its integrals
        closed = 0
        for p in TWO_NODE_ORACLE_CASES:
            for rate in (0.05, 1.0, 4.0):
                exact = exact_two_node(p, rate)
                est = analytic.two_node_outage(p, rate, QUAD)
                assert abs(est.value - exact) < 1e-9, (p, rate)
                if closedform.applicable(p):
                    est = closedform.two_node_outage(rate, p.lam, 0.0, QUAD)
                    assert abs(est.value - exact) < 1e-9, (p, rate)
                    closed += 1
        assert closed == 6

    @pytest.mark.parametrize("scenario", [Scenario.TWO_NODE_FD,
                                          Scenario.HALF_DUPLEX],
                             ids=lambda s: s.value)
    def test_tiny_coverage_is_missed(self, scenario):
        # near alpha = 2 and at high rates the coverage, some 3e-7, lies at
        # x ~ 1/sqrt(1 + 2J) ~ 1e-3, below the first eighth's smallest nodes
        # of [0, sqrt(ln(1/tail_cut))]; an outer interval that ignored J
        # missed most of it and stated an abserr 10 to 100 times smaller
        # than its error
        alpha = 2.001 if scenario is Scenario.TWO_NODE_FD else 2.2
        p = NetworkParams(alpha1=alpha, alpha2=alpha)
        exact = exact_two_node(p, 10.0) if scenario is Scenario.TWO_NODE_FD \
            else exact_interference_limited(scenario, p, 10.0)
        est = analytic.outage(scenario, p, 10.0, QUAD)
        assert abs(est.value - exact) <= est.meta["abserr"]

    @pytest.mark.parametrize("sigma_l2", [0.0, 1e-3])
    def test_two_node_error_bound_against_tight_run(self, sigma_l2):
        # both two-node routes, against runs at tolerances 1e5 times tighter
        tight = QuadratureConfig(rel_tol_outer=1e-12)
        p = NetworkParams(sigma_l2=sigma_l2)
        for rate in (0.1, 1.0, 3.0):
            for route in (lambda q: analytic.two_node_outage(p, rate, q),
                          lambda q: closedform.two_node_outage(rate, p.lam,
                                                               sigma_l2, q)):
                est = route(QUAD)
                assert abs(est.value - route(tight).value) <= est.meta["abserr"]
                assert est.meta["abserr"] < 1e-7

    # unequal exponents and powers, noise and loop interference: every
    # term of the general two-node route
    GENERAL = NetworkParams(alpha1=3.3, alpha2=3.7, sigma_n2=1e-4, p_u=0.3,
                            sigma_l2=1e-3)

    def test_outer_tolerance_sets_the_inner_one(self):
        # the error bound follows rel_tol_outer below the default inner
        # tolerance 1e-9: an inner tolerance held there would keep it near
        # 1e-9
        est = analytic.two_node_outage(self.GENERAL, 1.0,
                                       QuadratureConfig(rel_tol_outer=1e-10))
        tight = analytic.two_node_outage(self.GENERAL, 1.0,
                                         QuadratureConfig(rel_tol_outer=1e-12))
        assert est.meta["abserr"] < 1e-10
        assert abs(est.value - tight.value) <= est.meta["abserr"]

    def test_tightest_tolerance_converges(self):
        # at the tightest accepted rel_tol_outer the inner tolerance is the
        # double epsilon, and every route still converges within the fixed
        # subdivision cap: three scenarios at three rates on two parameter
        # sets, and the closed-form two-node
        quad = QuadratureConfig(rel_tol_outer=100.0 * sys.float_info.epsilon)
        p = NetworkParams(sigma_l2=1e-3)
        estimates = [closedform.two_node_outage(rate, p.lam, p.sigma_l2, quad)
                     for rate in (0.1, 1.0, 3.0)]
        for params in (self.GENERAL, p):
            estimates += [analytic.outage(scenario, params, rate, quad)
                          for scenario in Scenario for rate in (0.1, 1.0, 3.0)]
        assert len(estimates) == 21
        for est in estimates:
            assert est.meta["abserr"] < 2.0 * quad.rel_tol_outer

    def test_loose_outer_tolerance_saves_inner_work(self):
        loose = analytic.two_node_outage(self.GENERAL, 1.0,
                                         QuadratureConfig(rel_tol_outer=1e-4))
        default = analytic.two_node_outage(self.GENERAL, 1.0, QUAD)
        assert (loose.meta["inner_evaluations"]
                < default.meta["inner_evaluations"])
        assert abs(loose.value - default.value) <= loose.meta["abserr"]

    def test_reports_inner_evaluations(self):
        # the nodes of all inner integrals; only two-node has any
        p = NetworkParams(sigma_l2=1e-3)
        est = analytic.two_node_outage(p, 1.0, QUAD)
        inner = est.meta["inner_evaluations"]
        assert inner >= est.meta["evaluations"] and inner % 21 == 0
        for scenario in (Scenario.THREE_NODE_FD, Scenario.HALF_DUPLEX):
            assert analytic.outage(scenario, p, 1.0, QUAD).meta[
                "inner_evaluations"] == 0
        assert analytic.two_node_outage(p, 0.0, QUAD).meta["inner_evaluations"] == 0

    @pytest.mark.parametrize("rate", [0.0, 1.0, 2000.0])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_meta_says_only_how_the_value_was_obtained(self, scenario, rate):
        # the quadrature's cost and error, the same keys on both routes; a
        # zero or infinite threshold, and the elementary closed forms, state
        # zeros
        keys = {"abserr", "evaluations", "inner_evaluations"}
        p = NetworkParams(sigma_l2=1e-3)
        for est in (analytic.outage(scenario, p, rate, QUAD),
                    closedform.outage(scenario, p, rate, QUAD)):
            assert set(est.meta) == keys
            if rate != 1.0:
                assert est.meta == dict.fromkeys(keys, 0)

    def test_noise_limited_half_duplex_query(self):
        # benchmark reference block 0: coverage sits at small distances,
        # where a quadrature in u = x^2 misses it (0.99999999)
        p = NetworkParams(alpha1=5.772356456975604, alpha2=3.045705259383103,
                          p_u=0.04309960279422604,
                          sigma_n2=0.0026777726555827306,
                          sigma_l2=0.0006010889016033227)
        value = analytic.half_duplex_outage(p, 1.6700020114759768, QUAD).value
        assert value == pytest.approx(0.9900207083923116, abs=1e-9)


class TestEdgeOfDomain:
    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
    def test_infinite_threshold_is_certain_outage(self, scenario):
        rate = 2000.0 if scenario is not Scenario.HALF_DUPLEX else 600.0
        assert threshold_from_rate(rate, scenario) == math.inf
        p = NetworkParams(sigma_n2=1e-3, sigma_l2=1e-3)
        assert analytic.outage(scenario, p, rate, QUAD).value == 1.0

    @pytest.mark.parametrize("lam", [1e-200, 1e-300])
    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
    def test_tiny_density(self, scenario, lam):
        # the unit gains underflow, their ratios do not
        assert analytic.outage(scenario, NetworkParams(lam=lam), 1.0,
                               QUAD).value == \
            analytic.outage(scenario, NetworkParams(), 1.0, QUAD).value

    @pytest.mark.parametrize("extra", [{}, {"sigma_n2": 1.0, "sigma_l2": 1e-3}],
                             ids=["interference-limited", "noise-and-loop"])
    @pytest.mark.parametrize("rate", [1.0, 2.0])
    @pytest.mark.parametrize("alpha1", [500.0, 1e3, 1e6])
    @pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
    def test_large_alpha1(self, scenario, alpha1, rate, extra):
        # x^alpha1 overflows beyond x = 1 and underflows below it, against
        # scales capped at the largest double: no term may become 0*inf,
        # which RuntimeWarning, an error here, would show
        p = NetworkParams(alpha1=alpha1, **extra)
        assert 0.0 <= analytic.outage(scenario, p, rate, QUAD).value <= 1.0

    def test_far_apart_inner_scales(self):
        # one inner call's scales span some 500 e-folds: on one shared
        # interval, 200 subintervals did not reach the tolerance
        # (QuadratureError).  The reference is that outage with a cap of 4000
        # subintervals and one interval, the value before columns were
        # grouped by scale.
        p = NetworkParams(alpha1=100.0, alpha2=3.0, p_u=1e-12)
        reference = 0.9889910639016841
        assert abs(analytic.two_node_outage(p, 1e-12, QUAD).value
                   - reference) <= 1e-12


@pytest.fixture
def nodes(monkeypatch):
    """The nodes of each call of the integrand, and of each round of
    integrate, as two lists."""
    calls, rounds = [], []
    rule = quadrature._rule

    def counted(fn, lo, hi):
        rounds.append(21 * len(lo))

        def call(x):
            calls.append(x.size)
            return fn(x)
        return rule(call, lo, hi)

    monkeypatch.setattr(quadrature, "_rule", counted)
    return calls, rounds


class TestQuadratureContract:
    def test_columns_meet_their_own_tolerance(self):
        # columns 1e9 apart in scale, each |value| >= 1 so that its relative
        # tolerance binds: a shared absolute error would leave the small one
        # with no correct digit
        scales = np.array([1e20, 1e11, 1e2])
        result = integrate(lambda x: np.exp(-x)[:, None] * np.cos(
            np.outer(x, [1.0, 3.0, 7.0])) * scales, 0.0, 10.0, 1e-10)
        w = np.array([1.0, 3.0, 7.0])
        exact = scales * (1.0 + np.exp(-10.0) * (w * np.sin(10.0 * w)
                                                 - np.cos(10.0 * w))) / (1.0 + w * w)
        assert result.value.shape == (3,) and np.all(abs(exact) >= 1.0)
        assert np.all(abs(result.value - exact) <= 1e-10 * abs(exact))
        assert np.all(result.abserr <= 1e-10 * abs(result.value))

    def test_scalar_integrand(self):
        # one value per node gives a float
        result = integrate(lambda x: 3.0 * x * x, 0.0, 2.0, 1e-12)
        assert isinstance(result.value, float)
        assert result.value == pytest.approx(8.0, rel=1e-14)
        assert result.evaluations % 21 == 0
        assert integrate(lambda x: np.full(x.shape, 2.5), 0.0, 2.0,
                         1e-12).value == pytest.approx(5.0, rel=1e-14)

    def test_call_size_is_bounded(self, nodes):
        # a nested integral's inner array grows with the nodes per call, so
        # a round that cuts many subintervals calls the integrand in pieces
        # of at most four subintervals
        calls, rounds = nodes
        result = integrate(lambda x: np.cos(40.0 * x), 0.0, 10.0, 1e-10)
        # below |value| = 1 the tolerance is an absolute error
        exact = math.sin(400.0) / 40.0
        assert abs(exact) < 1.0 and abs(result.value - exact) <= 1e-10
        assert max(calls) == 4 * 21 < max(rounds)
        assert sum(calls) == sum(rounds) == result.evaluations

    def test_failure_carries_error_estimate(self, monkeypatch):
        # the smallest cap: the first round's eight subintervals, no cut
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 8)
        with pytest.raises(QuadratureError) as exc:
            integrate(lambda x: abs(x - 1.0 / 3.0) ** -0.4, 0.0, 1.0, 1e-12)
        assert exc.value.achieved > 0
        assert exc.value.requested > 0
        assert math.isfinite(exc.value.value)

    def test_subdivision_cap_trims_a_round(self, nodes, monkeypatch):
        # a peak on the border of two eighths asks to cut both of them; a cap
        # of 12 leaves room to cut one (8 - 1 + 4 = 11 subintervals), then none
        calls, rounds = nodes
        peak = lambda x: 1.0 / ((x - 0.5) ** 2 + 1e-6)
        integrate(peak, 0.0, 1.0, 1e-10)
        assert rounds[:2] == [8 * 21, 8 * 21]
        rounds.clear()
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 12)
        with pytest.raises(QuadratureError, match="with 11 subintervals"):
            integrate(peak, 0.0, 1.0, 1e-10)
        assert rounds == [8 * 21, 4 * 21]
        assert sum(rounds) <= 12 * 21

    def test_config_validation(self):
        # below 100 eps the derived inner tolerance is under the double
        # epsilon, which no two-node integral meets
        edge = 100.0 * sys.float_info.epsilon
        for bad in (0.0, 1.0, math.nextafter(edge, 0.0), 1e-14, 1e-300):
            with pytest.raises(ValueError, match="rel_tol_outer must be in"):
                QuadratureConfig(rel_tol_outer=bad)
        tightest = QuadratureConfig(rel_tol_outer=edge)
        assert tightest.rel_tol_inner >= sys.float_info.epsilon
        assert tightest.tail_cut >= sys.float_info.min

    def test_one_setting_derives_the_others(self):
        assert [f.name for f in fields(QuadratureConfig)] == ["rel_tol_outer"]
        # products, exact at the default
        assert QUAD.rel_tol_inner == 1e-9 and QUAD.tail_cut == 1e-12
        cfg = QuadratureConfig(rel_tol_outer=1e-4)
        assert (cfg.rel_tol_inner, cfg.tail_cut) == (1e-2 * 1e-4, 1e-5 * 1e-4)
        # the subdivision cap is the constant quadrature._MAX_SUBDIVISIONS
        for name in ("rel_tol_inner", "tail_cut", "max_subdivisions"):
            with pytest.raises(TypeError):
                QuadratureConfig(**{name: 1e-9})
            with pytest.raises(AttributeError):
                setattr(QUAD, name, 1e-9)


class TestExclusionAverage:
    # a constant kernel k gives exactly exp(-s*k), so beyond the tolerance
    # the only error is the cut head and tail
    BOUND = QUAD.rel_tol_inner + 2.0 * QUAD.tail_cut

    @pytest.mark.parametrize("k", [0.0, 1e-6, 1.0])
    def test_constant_kernel(self, k):
        # one call on columns 1e24 apart, whose shared interval must still
        # hold each column's head and tail
        s = np.array([1e-12, 1e-6, 1.0, 1e6, 1e12])
        g = exclusion_average(lambda t: np.full(t.shape, k), s, QUAD)
        assert np.all(abs(g.value - np.exp(-s * k)) <= self.BOUND)
        assert np.all(g.abserr <= self.BOUND)
        assert g.evaluations > 0 and g.evaluations % 21 == 0

    def test_limits_and_scalar(self):
        one = lambda t: np.ones(t.shape)
        g = exclusion_average(one, np.array([0.0, 2.0, math.inf]), QUAD)
        assert g.value[0] == 1.0 and g.value[2] == 0.0
        assert g.abserr[0] == 0.0 and g.abserr[2] == 0.0
        assert g.value[1] == pytest.approx(math.exp(-2.0), abs=self.BOUND)
        # a 0-d s gives a 0-d value, the same as its column in an array
        scalar = exclusion_average(one, 2.0, QUAD)
        assert np.ndim(scalar.value) == 0 and scalar.value == g.value[1]
        assert scalar.evaluations == g.evaluations
        # the limits alone run no quadrature
        dead = exclusion_average(one, np.array([0.0, math.inf]), QUAD)
        assert list(dead.value) == [1.0, 0.0] and dead.evaluations == 0
        zero = exclusion_average(one, 0.0, QUAD)
        assert np.ndim(zero.value) == 0 and zero.value == 1.0


    @staticmethod
    def plain(kappa, s, cfg, *args):
        """g(s) with the integrand broadcast term by term, on the interval
        exclusion_average takes for one group of scales."""
        log_s = np.log(s)

        def integrand(w):
            t = np.exp(w)
            k = t + kappa(t, *args)
            return np.exp(log_s + w[:, None] - k[:, None] * s)

        w_lo = math.log(cfg.tail_cut) - log_s.max()
        w_hi = math.log(math.log(1.0 / cfg.tail_cut)) - log_s.min()
        return integrate(integrand, w_lo, w_hi, cfg.rel_tol_inner).value

    KERNELS = [(analytic._exclusion_kernel, (2.5,)),
               (analytic._exclusion_kernel, (4.0,)),
               (analytic._exclusion_kernel, (6.0,)), (closedform.arccot, ())]

    @pytest.mark.parametrize("kappa, args", KERNELS,
                             ids=["a2=2.5", "a2=4", "a2=6", "arccot"])
    def test_matches_the_plain_integrand(self, kappa, args):
        # the exponent as one matrix product: the same integral to rounding
        s = np.geomspace(1e-6, 1e3, 84)
        g = exclusion_average(kappa, s, QUAD, *args)
        assert np.all(abs(g.value - self.plain(kappa, s, QUAD, *args)) <= 1e-13)

    @pytest.mark.parametrize("kappa, args, s", [
        (closedform.arccot, (), 1e-3), (analytic._exclusion_kernel, (2.5,), 1.0),
        (analytic._exclusion_kernel, (6.0,), 50.0)])
    def test_matches_mpmath(self, kappa, args, s):
        mpmath = pytest.importorskip("mpmath")
        if args:
            a = mpmath.mpf(args[0])
            full = (mpmath.pi / a) / mpmath.sin(2 * mpmath.pi / a)
            # 2*tail_integral(sqrt(t), a): the full line minus the head
            kernel = lambda t: 2 * full - t * mpmath.hyp2f1(1, 2 / a, 1 + 2 / a,
                                                            -t ** (a / 2))
        else:
            kernel = mpmath.acot
        with mpmath.workdps(20):
            exact = mpmath.quad(lambda t: s * mpmath.exp(-s * (t + kernel(t))),
                                [0, 1 / s, 10 / s, 100 / s, mpmath.inf])
        g = exclusion_average(kappa, s, QUAD, *args)
        assert abs(g.value - float(exact)) <= 1e-10


def counts(memo) -> tuple[int, int]:
    """(computed, reused) of an inner-integral memo: its misses and hits."""
    info = memo.cache_info()
    return info.misses, info.hits


class TestInnerIntegralMemo:
    S = np.array([1e-3, 0.5, 2.0])

    def test_no_state_outside_a_scope(self):
        # each unscoped call computes afresh, and a scope opened after them
        # finds nothing stored
        kernel = analytic._exclusion_kernel
        a = exclusion_average(kernel, self.S, QUAD, 4.0)
        b = exclusion_average(kernel, self.S, QUAD, 4.0)
        assert a is not b and a.value is not b.value
        assert list(a.value) == list(b.value)
        with inner_integral_memo() as memo:
            c = exclusion_average(kernel, self.S, QUAD, 4.0)
        assert c is not a and counts(memo) == (1, 0)
        # read-only in a scope and out of one alike
        assert not (a.value.flags.writeable or a.abserr.flags.writeable)

    def test_identical_call_returns_the_stored_integral(self):
        kernel = analytic._exclusion_kernel
        fresh = exclusion_average(kernel, self.S, QUAD, 4.0)
        with inner_integral_memo() as memo:
            first = exclusion_average(kernel, self.S, QUAD, 4.0)
            # another array of the same scales and another equal config
            again = exclusion_average(kernel, self.S.copy(), QuadratureConfig(),
                                      4.0)
            # one of the scales alone is another integral
            scalar = exclusion_average(kernel, 2.0, QUAD, 4.0)
        assert again is first and counts(memo) == (2, 1)
        assert list(first.value) == list(fresh.value)
        assert list(first.abserr) == list(fresh.abserr)
        assert first.evaluations == fresh.evaluations
        assert not first.value.flags.writeable
        with pytest.raises(ValueError):
            first.value[0] = 0.0
        assert np.ndim(scalar.value) == 0

    def test_kernels_never_share_an_entry(self):
        # the general kernel at alpha2 = 4 and the closed form's arccot are
        # different functions of t; neither may serve the other
        general = analytic._exclusion_kernel
        with inner_integral_memo() as memo:
            g = exclusion_average(general, self.S, QUAD, 4.0)
            c = exclusion_average(closedform.arccot, self.S, QUAD)
            assert counts(memo) == (2, 0)
            assert exclusion_average(general, self.S, QUAD, 4.0) is g
            assert exclusion_average(closedform.arccot, self.S, QUAD) is c
            assert exclusion_average(general, self.S, QUAD, 3.0) is not g
        assert counts(memo) == (3, 2)
        assert list(g.value) != list(c.value)

    def test_memo_is_bounded(self):
        kernel = analytic._exclusion_kernel
        with inner_integral_memo() as memo:
            for k in range(quadrature._MEMO_SIZE + 1):
                exclusion_average(kernel, 1.0 + k, QUAD, 4.0)
            assert memo.cache_info().currsize == quadrature._MEMO_SIZE
            # the least recently used, the first, was dropped
            exclusion_average(kernel, 1.0, QUAD, 4.0)
        assert memo.cache_info().hits == 0

    def test_each_thread_has_its_own_memo(self):
        # both scopes stay open until both threads have computed, and the
        # second thread computes after the first has stored its integral
        kernel = analytic._exclusion_kernel
        stored, done = threading.Event(), threading.Barrier(2, timeout=10)
        results = [None, None]

        def scoped(i):
            with inner_integral_memo() as memo:
                if i:
                    stored.wait(timeout=10)
                g = exclusion_average(kernel, self.S, QUAD, 4.0)
                results[i] = g, counts(memo)
                stored.set()
                done.wait()

        threads = [threading.Thread(target=scoped, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        (a, a_counts), (b, b_counts) = results
        assert a is not b and list(a.value) == list(b.value)
        assert a_counts == b_counts == (1, 0)

    def test_a_thread_started_in_a_scope_computes_unscoped(self):
        kernel = analytic._exclusion_kernel
        results = []
        with inner_integral_memo() as memo:
            worker = threading.Thread(target=lambda: results.append(
                exclusion_average(kernel, self.S, QUAD, 4.0)))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert counts(memo) == (0, 0)
            # the worker stored nothing: this thread computes, then reuses
            first = exclusion_average(kernel, self.S, QUAD, 4.0)
            again = exclusion_average(kernel, self.S, QUAD, 4.0)
        assert first is not results[0] and again is first
        assert list(first.value) == list(results[0].value)
        assert counts(memo) == (1, 1)

    @pytest.mark.parametrize("route", ["general", "closed"])
    def test_reused_estimate_equals_a_fresh_one(self, route):
        p = NetworkParams(sigma_l2=1e-3)
        estimate = (functools.partial(analytic.two_node_outage, p, 1.5, QUAD)
                    if route == "general" else
                    functools.partial(closedform.two_node_outage, 1.5, p.lam,
                                      p.sigma_l2, QUAD))
        fresh = estimate()
        with inner_integral_memo() as memo:
            estimate()
            computed, _ = counts(memo)
            reused = estimate()
        assert counts(memo) == (computed, computed)
        assert reused.value == fresh.value and reused.meta == fresh.meta
        assert reused.meta["inner_evaluations"] > 0


class TestNestedArrays:
    """The inner integrand of a two-node outage holds (inner nodes, outer
    nodes) arrays.  Under glibc's default 128 kB mmap threshold the heap
    serves and reuses them; above it every round maps and faults in fresh
    pages."""

    LIMIT = 128 * 1024 // 8  # doubles

    @pytest.fixture
    def sizes(self, monkeypatch):
        # len(s) * t.size of every inner integrand call, in doubles
        sizes = []

        def recording(kappa, s, cfg, *args):
            def counted(t, *args):
                sizes.append(np.size(s) * t.size)
                return kappa(t, *args)
            return exclusion_average(counted, s, cfg, *args)

        for module in (analytic, closedform):
            monkeypatch.setattr(module, "exclusion_average", recording)
        return sizes

    @pytest.mark.parametrize("sigma_l2", [0.0, 1e-3])
    @pytest.mark.parametrize("rate", [0.5, 3.5])
    def test_fig3_routes_stay_under_the_threshold(self, sizes, rate, sigma_l2):
        p = NetworkParams(sigma_l2=sigma_l2)
        analytic.two_node_outage(p, rate, QUAD)
        general = len(sizes)
        closedform.two_node_outage(rate, p.lam, sigma_l2, QUAD)
        assert 0 < general < len(sizes)
        assert max(sizes) <= self.LIMIT

    def test_general_query_stays_under_the_threshold(self, sizes):
        p = NetworkParams(alpha1=3.0, alpha2=3.6, p_u=0.3, sigma_n2=1e-3,
                          sigma_l2=1e-3)
        analytic.two_node_outage(p, 1.5, QUAD)
        assert sizes and max(sizes) <= self.LIMIT


# a 4-rate fig3 analytic and closed-form sweep (the benchmark's
# rate-sweep-analytic request), once to warm up, then the minor page faults
# of each of 10 more
_FAULT_PROBE = """
import resource
from dataclasses import replace
from fdcell import sweep
spec = replace(sweep.build_preset("fig3")[0], grid=(0.5, 1.5, 2.5, 3.5),
               methods=("analytic", "closed-form"))
sweep.run_sweep(spec)
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep.run_sweep(spec)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's page faults")
def test_sweeps_reuse_the_heap():
    # in a fresh interpreter, where nothing has raised glibc's dynamic mmap
    # threshold; a sweep whose arrays were mapped anew each round took
    # thousands of faults
    src = os.path.dirname(os.path.dirname(fdcell.__file__))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 10 and max(faults) < 100, faults
