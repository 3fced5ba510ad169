import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from fdcell import closedform
from fdcell.quadrature import QuadratureConfig

QUAD = QuadratureConfig()
LAM = 1e-3


def scaled(u):
    """x = sqrt(pi*lam*u), the kernels' scaled serving distance, at LAM."""
    return np.sqrt(math.pi * LAM * np.asarray(u, dtype=float))[()]


class TestBsKernel:
    def test_unity_at_origin(self):
        assert closedform.bs_kernel(0.0, 1.0) == 1.0

    def test_zero_rate_reduces_to_distance_law(self):
        for u in (1.0, 50.0, 500.0):
            assert closedform.bs_kernel(scaled(u), 0.0) == \
                pytest.approx(math.exp(-math.pi * LAM * u), rel=1e-14)

    def test_spot_value(self):
        # direct arithmetic: exp(-0.1*pi*(1 + pi/4)) at u=100, T=1
        expected = math.exp(-0.1 * math.pi * (1.0 + math.pi / 4.0))
        assert expected == pytest.approx(0.5707, abs=1e-4)
        assert closedform.bs_kernel(scaled(100.0), 1.0) == \
            pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("u", [-1.0, np.array([0.0, 5.0, -1e-12])])
def test_negative_squared_distance_rejected(u):
    # a negative squared distance is a negative scaled distance
    x = np.copysign(scaled(abs(u)), u)
    with pytest.raises(ValueError, match="x must be >= 0"):
        closedform.bs_kernel(x, 1.0)
    with pytest.raises(ValueError, match="x must be >= 0"):
        closedform.uplink_kernel(x, 1.0, QUAD)


class TestUplinkKernel:
    """The kernel is the uplink weight in units of 1/(pi*lam), so each
    oracle in u is scaled by pi*lam."""

    def test_zero_u_is_pure_exponential_integral(self):
        # 1/(pi*lam) in u
        assert closedform.uplink_kernel(0.0, 1.0, QUAD) == \
            pytest.approx(1.0, rel=1e-14)

    def test_zero_rate_same_limit(self):
        assert closedform.uplink_kernel(scaled(123.0), 0.0, QUAD) == \
            pytest.approx(1.0, rel=1e-14)

    def test_against_brute_force_trapezoid(self):
        # independent oracle: 1e6-panel trapezoid over v in [0, 20/(pi*lam)]
        u, rate = 100.0, 1.0
        t = 2.0 ** rate - 1.0
        pil = math.pi * LAM
        ust = u * math.sqrt(t)
        v = np.linspace(0.0, 20.0 / pil, 1_000_001)
        f = np.exp(-pil * (v + ust * (math.pi / 2 - np.arctan(v / ust))))
        oracle = np.trapezoid(f, v)
        value = closedform.uplink_kernel(scaled(u), rate, QUAD)
        assert value == pytest.approx(pil * oracle, rel=1e-6)

    @staticmethod
    def z_form_by_quad(c):
        """pi*lam times the kernel in z = pi*lam*v, the form before the
        substitution z = c*e^w, by tight adaptive quadrature; beyond z = 60
        the integrand is below 1e-26."""
        f = lambda z: math.exp(-z - c * math.atan2(1.0, z / c))
        points = [c] if c < 60.0 else None
        return sp_integrate.quad(f, 0.0, 60.0, epsabs=1e-14, epsrel=1e-13,
                                 limit=400, points=points)[0]

    def test_against_z_form(self):
        # c = pi*lam*u*sqrt(T) = x^2 with T = 1; one call per c, and one
        # call on all of them, whose shared interval must still hold each
        # column's head and tail
        c = np.array([1e-10, 1e-4, 1.0, 1e2, 1e4])
        x = np.sqrt(c)
        oracle = [self.z_form_by_quad(ci) for ci in c]
        single = [closedform.uplink_kernel(xi, 1.0, QUAD) for xi in x]
        batch = closedform.uplink_kernel(x, 1.0, QUAD)
        assert single == pytest.approx(oracle, abs=1e-9, rel=0)
        assert batch == pytest.approx(oracle, abs=1e-9, rel=0)

    def test_zero_and_infinite_scale_columns(self):
        # c = 0 is the bare exclusion-radius law, c = inf certain loss; the
        # finite column is unaffected by them
        x = scaled([0.0, 100.0, math.inf])
        meta, dead_meta = {"inner_evaluations": 0}, {"inner_evaluations": 0}
        value = closedform.uplink_kernel(x, 1.0, QUAD, meta=meta)
        assert value[0] == 1.0 and value[2] == 0.0
        assert value[1] == closedform.uplink_kernel(x[1], 1.0, QUAD)
        assert meta["inner_evaluations"] > 0 and meta["inner_evaluations"] % 21 == 0
        # the dead columns alone run no inner integral
        dead = closedform.uplink_kernel(x[[0, 2]], 1.0, QUAD, meta=dead_meta)
        assert (dead == [1.0, 0.0]).all() and dead_meta["inner_evaluations"] == 0


class TestTwoNodeOutage:
    def test_zero_rate(self):
        assert closedform.two_node_outage(0.0, LAM, 0.0, QUAD).value == 0.0

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 1e-2])
    def test_density_free_without_loop_interference(self, lam):
        ref = closedform.two_node_outage(1.0, 1e-3, 0.0, QUAD).value
        assert closedform.two_node_outage(1.0, lam, 0.0, QUAD).value == \
            pytest.approx(ref, abs=1e-4)

    def test_never_above_three_node(self):
        for rate in (0.1, 0.5, 1.0, 2.0, 4.0):
            p2 = closedform.two_node_outage(rate, LAM, 0.0, QUAD).value
            p3 = closedform.three_node_outage(rate).value
            assert p2 <= p3

    def test_loop_interference_anchor(self):
        # strong residual loop gain drives outage to ~80% already at R=0.5
        value = closedform.two_node_outage(0.5, LAM, 1e-3, QUAD).value
        assert 0.75 <= value <= 0.85

    def test_monotone_in_loop_gain(self):
        values = [closedform.two_node_outage(1.0, LAM, sl, QUAD).value
                  for sl in (0.0, 1e-5, 1e-4, 1e-3)]
        assert all(b > a for a, b in zip(values, values[1:]))


    def test_reports_error_bound_and_evaluations(self):
        meta = closedform.two_node_outage(1.0, LAM, 1e-3, QUAD).meta
        assert 0.0 < meta["abserr"] < 1e-7
        assert meta["evaluations"] >= 21

    def test_reports_inner_evaluations(self):
        # the nodes of all inner integrals; only two-node has any
        meta = closedform.two_node_outage(1.0, LAM, 1e-3, QUAD).meta
        inner = meta["inner_evaluations"]
        assert inner >= meta["evaluations"] and inner % 21 == 0
        assert closedform.three_node_outage(1.0).meta["inner_evaluations"] == 0
        assert closedform.half_duplex_outage(1.0).meta["inner_evaluations"] == 0

    @pytest.mark.parametrize("lam", [1e-160, 1e-200, 1e-300])
    def test_tiny_density(self, lam):
        # the (pi*lam)^2 normaliser of an integral in u underflows here
        assert closedform.two_node_outage(1.0, lam, 0.0, QUAD).value == \
            pytest.approx(closedform.two_node_outage(1.0, LAM, 0.0, QUAD).value,
                          abs=1e-12)


class TestInfiniteThreshold:
    def test_certain_outage(self):
        # T = 2^R - 1 overflows to inf beyond R = 1024 (512 half-duplex)
        assert closedform.two_node_outage(2000.0, LAM, 0.0, QUAD).value == 1.0
        assert closedform.three_node_outage(2000.0).value == 1.0
        assert closedform.half_duplex_outage(600.0).value == 1.0


class TestThreeNodeOutage:
    def test_zero_rate(self):
        assert closedform.three_node_outage(0.0).value == 0.0

    def test_spot_values_match_direct_arithmetic(self):
        assert closedform.three_node_outage(1.0).value == pytest.approx(
            1.0 - 1.0 / (1.0 + math.atan(1.0) + math.pi / 2.0), abs=1e-14)
        st = math.sqrt(3.0)
        assert closedform.three_node_outage(2.0).value == pytest.approx(
            1.0 - 1.0 / (1.0 + st * (math.atan(st) + math.pi / 2.0)), abs=1e-14)

    def test_increasing_and_bounded(self):
        grid = np.linspace(0.05, 6.0, 40)
        values = [closedform.three_node_outage(r).value for r in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)


class TestHalfDuplexOutage:
    def test_zero_rate(self):
        assert closedform.half_duplex_outage(0.0).value == 0.0

    def test_spot_value(self):
        st = math.sqrt(3.0)
        expected = 1.0 - 1.0 / (1.0 + st * math.atan(st))
        assert expected == pytest.approx(0.6446, abs=1e-3)
        assert closedform.half_duplex_outage(1.0).value == \
            pytest.approx(expected, abs=1e-14)

    def test_increasing_and_bounded(self):
        grid = np.linspace(0.05, 6.0, 40)
        values = [closedform.half_duplex_outage(r).value for r in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)

    def test_meets_three_node_near_1_7(self):
        assert abs(closedform.half_duplex_outage(1.7).value
                   - closedform.three_node_outage(1.7).value) < 0.01

    def test_single_crossing_with_three_node(self):
        grid = np.linspace(0.01, 4.0, 800)
        diff = np.array([closedform.half_duplex_outage(r).value
                         - closedform.three_node_outage(r).value for r in grid])
        signs = np.sign(diff)
        changes = np.count_nonzero(signs[:-1] != signs[1:])
        assert changes == 1
        crossing = grid[np.nonzero(signs[:-1] != signs[1:])[0][0]]
        assert 1.5 <= crossing <= 1.9
