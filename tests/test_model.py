import math
import sys

import numpy as np
import pytest
from scipy import integrate, optimize

from fdcell.model import (
    Method,
    NetworkParams,
    OutageEstimate,
    Scenario,
    nearest_bs_distance_pdf,
    threshold_from_rate,
)


class TestThresholdFromRate:
    def test_full_duplex_unit_rate(self):
        assert threshold_from_rate(1.0, Scenario.TWO_NODE_FD) == pytest.approx(1.0)
        assert threshold_from_rate(1.0, Scenario.THREE_NODE_FD) == pytest.approx(1.0)

    def test_half_duplex_doubles_the_rate(self):
        assert threshold_from_rate(1.0, Scenario.HALF_DUPLEX) == pytest.approx(3.0)

    def test_zero_rate_is_zero_threshold(self):
        for scenario in Scenario:
            assert threshold_from_rate(0.0, scenario) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            threshold_from_rate(-0.1, Scenario.TWO_NODE_FD)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError):
            threshold_from_rate(math.nan, Scenario.TWO_NODE_FD)

    def test_overflow_is_infinite_threshold(self):
        # 2^R - 1 exceeds the largest double beyond R = 1024 (512 half-duplex)
        assert threshold_from_rate(1023.0, Scenario.TWO_NODE_FD) < math.inf
        assert threshold_from_rate(1025.0, Scenario.TWO_NODE_FD) == math.inf
        assert threshold_from_rate(513.0, Scenario.HALF_DUPLEX) == math.inf
        assert threshold_from_rate(math.inf, Scenario.THREE_NODE_FD) == math.inf

    def test_half_duplex_dominates_at_equal_rate(self):
        for rate in (1e-12, 0.3, 1.0, 4.0):
            fd = threshold_from_rate(rate, Scenario.TWO_NODE_FD)
            hd = threshold_from_rate(rate, Scenario.HALF_DUPLEX)
            assert hd > fd


class TestNearestBsDistancePdf:
    def test_zero_at_origin(self):
        assert nearest_bs_distance_pdf(0.0, 1e-3) == 0.0

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 1e-2])
    def test_normalization(self, lam):
        total, err = integrate.quad(nearest_bs_distance_pdf, 0.0, np.inf,
                                    args=(lam,))
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 1e-2])
    def test_mode_location(self, lam):
        # independent check: maximize the pdf numerically and compare with the
        # stationary point of 2*pi*lam*r*exp(-lam*pi*r^2)
        res = optimize.minimize_scalar(lambda r: -nearest_bs_distance_pdf(r, lam),
                                       bounds=(0.0, 5.0 / math.sqrt(lam)),
                                       method="bounded",
                                       options={"xatol": 1e-12})
        expected = 1.0 / math.sqrt(2.0 * math.pi * lam)
        assert res.x == pytest.approx(expected, rel=1e-6)

    def test_vectorized(self):
        r = np.array([0.0, 1.0, 10.0])
        out = nearest_bs_distance_pdf(r, 1e-3)
        assert out.shape == (3,)
        assert out[0] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            nearest_bs_distance_pdf(1.0, 0.0)
        with pytest.raises(ValueError):
            nearest_bs_distance_pdf(-1.0, 1e-3)


class TestNetworkParams:
    def test_defaults_are_valid(self):
        p = NetworkParams()
        assert p.lam == 1e-3 and p.alpha1 == 4.0 and p.p_b == p.p_u == 1.0

    @pytest.mark.parametrize("bad", [
        {"lam": 0.0}, {"lam": -1e-3},
        {"alpha1": 2.0}, {"alpha2": 1.5},
        {"p_b": 0.0}, {"p_u": -1.0},
        {"sigma_n2": -0.1}, {"sigma_l2": -1e-9}, {"mu": 0.0},
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            NetworkParams(**bad)

    def test_zero_noise_and_li_allowed(self):
        NetworkParams(sigma_n2=0.0, sigma_l2=0.0)

    def test_replace(self):
        p = NetworkParams().replace(sigma_l2=1e-3)
        assert p.sigma_l2 == 1e-3 and p.lam == 1e-3

    def test_sinr_scales(self):
        # unit gains p*(lam*pi)^(alpha/2) = 2e-4 (BS) and 5e-3 (user); mu
        # scales only noise (0.2) and loop (1e-2); all are over the BS gain
        p = NetworkParams(lam=1e-2 / math.pi, alpha1=4.0, alpha2=3.0, p_b=2.0,
                          p_u=5.0, sigma_n2=0.1, sigma_l2=1e-3, mu=2.0)
        assert p.sinr_scales() == pytest.approx(
            (5e-3 / 2e-4, 0.2 / 2e-4, 1e-2 / 2e-4), rel=1e-12)


    def test_sinr_scales_at_tiny_density(self):
        # g_b = p_b*(lam*pi)^(alpha1/2) underflows to 0 here; the ratios are
        # exact at alpha1 = alpha2 and capped at the largest double otherwise
        assert NetworkParams(lam=1e-300, p_u=0.3).sinr_scales() == (0.3, 0.0, 0.0)
        gain_u, noise, loop = NetworkParams(lam=1e-300, alpha2=3.0, sigma_n2=1.0,
                                            sigma_l2=1.0).sinr_scales()
        assert gain_u == pytest.approx((1e-300 * math.pi) ** -0.5, rel=1e-12)
        assert noise == loop == sys.float_info.max


class TestOutageEstimate:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            OutageEstimate(1.5, Method.ANALYTIC_GENERAL)
        with pytest.raises(ValueError):
            OutageEstimate(-0.5, Method.MONTE_CARLO)
        with pytest.raises(ValueError):
            OutageEstimate(0.5, Method.MONTE_CARLO, stderr=-1e-3)

    def test_quadrature_jitter_snapped(self):
        assert OutageEstimate(-1e-12, Method.ANALYTIC_GENERAL).value == 0.0
        assert OutageEstimate(1.0 + 1e-12, Method.ANALYTIC_GENERAL).value == 1.0
