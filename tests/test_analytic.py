import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from fdcell import analytic, closedform
from fdcell.model import NetworkParams, Scenario, threshold_from_rate
from fdcell.quadrature import (
    QuadratureConfig,
    QuadratureError,
    exclusion_average,
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
        # x^alpha1 underflows to s = 0 (no interference) and overflows to
        # s = inf (certain loss); the finite column is unaffected by them
        x = np.array([1e-200, 1.0, 1e100])
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


def exact_interference_limited(scenario, params, rate):
    """Exact three-node or half-duplex outage at zero noise and
    alpha1 = alpha2 = alpha, for any power ratio and density:
    1 - 1/(1 + 2J + 2*(p_u*T/p_b)^(2/alpha)*E(0, alpha)) with
    J = T^(2/alpha)*E(T^(-1/alpha), alpha); half-duplex drops the last term.
    E is the interference tail integral, here by tight adaptive quadrature."""
    a = params.alpha1
    t = threshold_from_rate(rate, scenario)
    denominator = 1.0 + 2.0 * t ** (2.0 / a) * tail_integral_by_quad(
        t ** (-1.0 / a), a)
    if scenario is Scenario.THREE_NODE_FD:
        denominator += 2.0 * (params.p_u * t / params.p_b) ** (2.0 / a) * \
            tail_integral_by_quad(0.0, a)
    return 1.0 - 1.0 / denominator


ORACLE_CASES = [(scenario, NetworkParams(lam=lam, alpha1=alpha, alpha2=alpha,
                                         p_u=ratio), rate)
                for scenario in (Scenario.THREE_NODE_FD, Scenario.HALF_DUPLEX)
                for alpha in (2.2, 3.0, 4.0, 6.0)
                for ratio in (1e-3, 0.3, 1.0, 30.0)
                for rate in (0.05, 1.0, 4.0)
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

    @pytest.mark.parametrize("sigma_l2", [0.0, 1e-3])
    def test_two_node_error_bound_against_tight_run(self, sigma_l2):
        # both two-node routes, against runs at tolerances 1e5 times tighter
        tight = QuadratureConfig(rel_tol_inner=1e-13, rel_tol_outer=1e-12,
                                 tail_cut=1e-15, max_subdivisions=2000)
        p = NetworkParams(sigma_l2=sigma_l2)
        for rate in (0.1, 1.0, 3.0):
            for route in (lambda q: analytic.two_node_outage(p, rate, q),
                          lambda q: closedform.two_node_outage(rate, p.lam,
                                                               sigma_l2, q)):
                est = route(QUAD)
                assert abs(est.value - route(tight).value) <= est.meta["abserr"]
                assert est.meta["abserr"] < 1e-7

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


class TestQuadratureContract:
    def test_columns_meet_their_own_tolerance(self):
        # columns 1e9 apart in scale: a shared absolute error would leave the
        # small one with no correct digit
        scales = np.array([1e9, 1.0, 1e-9])
        result = integrate(lambda x: np.exp(-x)[:, None] * np.cos(
            np.outer(x, [1.0, 3.0, 7.0])) * scales, 0.0, 10.0, 1e-10, QUAD)
        w = np.array([1.0, 3.0, 7.0])
        exact = scales * (1.0 + np.exp(-10.0) * (w * np.sin(10.0 * w)
                                                 - np.cos(10.0 * w))) / (1.0 + w * w)
        assert result.value.shape == (3,)
        assert np.all(abs(result.value - exact) <= 1e-10 * abs(exact))
        assert np.all(result.abserr <= 1e-10 * abs(result.value))

    def test_scalar_integrand(self):
        # one value per node, or one value for all nodes
        result = integrate(lambda x: 3.0 * x * x, 0.0, 2.0, 1e-12, QUAD)
        assert isinstance(result.value, float)
        assert result.value == pytest.approx(8.0, rel=1e-14)
        assert result.evaluations % 21 == 0
        assert integrate(lambda x: 2.5, 0.0, 2.0, 1e-12, QUAD).value == \
            pytest.approx(5.0, rel=1e-14)

    def test_call_size_is_bounded(self):
        # a nested integral's inner array grows with the nodes per call, so
        # a round that cuts many subintervals calls the integrand in pieces
        sizes = []

        def oscillating(x):
            sizes.append(x.size)
            return np.cos(40.0 * x)

        result = integrate(oscillating, 0.0, 10.0, 1e-10, QUAD)
        assert result.value == pytest.approx(math.sin(400.0) / 40.0,
                                             rel=1e-10)
        assert max(sizes) == 16 * 21 and sum(sizes) == result.evaluations

    def test_failure_carries_error_estimate(self):
        cfg = QuadratureConfig(max_subdivisions=2)
        with pytest.raises(QuadratureError) as exc:
            integrate(lambda x: abs(x - 1.0 / 3.0) ** -0.4, 0.0, 1.0, 1e-12, cfg)
        assert exc.value.achieved > 0
        assert exc.value.requested > 0
        assert math.isfinite(exc.value.value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol_inner=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(tail_cut=1.5)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)


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
