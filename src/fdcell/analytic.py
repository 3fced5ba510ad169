"""General outage probabilities: closed-form interference kernels inside
adaptive radial quadrature.

The downlink outage of each architecture is an expectation over the serving
distance r of a conditional coverage probability that factors into a noise
term, a residual loop-interference term (two-node only) and Laplace transforms
of the BS- and uplink-generated interference.  Every transform's
semi-infinite integral is one Gauss hypergeometric kernel,
:func:`tail_integral`, so no quadrature runs inside a transform.  Only the
Gaussian-weighted radial integrals (serving distance r, and the exclusion
radius rho of the two-node uplink) are integrated adaptively, truncated where
exp(-lam*pi*r^2) falls below the configured tail cut.

The fading rate mu is normalized to 1 throughout this module: it cancels in
every interference term, so the expressions depend only on the threshold, the
distances and the power ratio.
"""

from __future__ import annotations

import math

from scipy.special import hyp2f1

from .model import Method, NetworkParams, OutageEstimate, Scenario, threshold_from_rate
from .quadrature import QuadratureConfig, gaussian_tail_radius, integrate

__all__ = [
    "bs_interference_laplace",
    "uplink_laplace_full",
    "uplink_laplace_excluded",
    "two_node_outage",
    "three_node_outage",
    "half_duplex_outage",
    "outage",
]


def tail_integral(c: float, alpha: float) -> float:
    """integral_c^inf u/(1+u^alpha) du for c >= 0 and alpha > 2.

    A Gauss hypergeometric function (the rho(T, alpha) of Andrews, Baccelli
    and Ganti, IEEE TCOM 2011).  Each branch keeps the series argument in
    [-1, 0], where 2F1 is well conditioned: up to c = 1 the head
    integral_0^c is subtracted from the full-line value, beyond it the tail
    is expanded in powers of c^-alpha.
    """
    if c > 1.0:
        return c ** (2.0 - alpha) / (alpha - 2.0) * hyp2f1(
            1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, -c ** -alpha)
    full = (math.pi / alpha) / math.sin(2.0 * math.pi / alpha)
    if c == 0.0:
        return full
    return full - 0.5 * c * c * hyp2f1(1.0, 2.0 / alpha, 1.0 + 2.0 / alpha,
                                       -c ** alpha)


def bs_interference_laplace(r: float, threshold: float, params: NetworkParams,
                            quad: QuadratureConfig | None = None) -> float:
    """Laplace transform of the interference from all BSs beyond the serving
    one, evaluated at the conditional SINR threshold:

        exp(-2*pi*lam * integral_r^inf  T/(T + (x/r)^alpha1) * x dx).

    Scaling u = x / (r*T^(1/alpha1)) gives r^2 * J with
    J = T^(2/alpha1) * tail_integral(T^(-1/alpha1), alpha1).  `quad` is
    accepted for the common transform signature and not used.
    """
    _check_radial_args(r, threshold)
    if threshold == 0.0:
        return 1.0
    a1 = params.alpha1
    j = threshold ** (2.0 / a1) * tail_integral(threshold ** (-1.0 / a1), a1)
    return math.exp(-2.0 * math.pi * params.lam * r * r * j)


def uplink_laplace_full(r: float, threshold: float, params: NetworkParams,
                        quad: QuadratureConfig | None = None) -> float:
    """Laplace transform of the uplink interference when interferers form an
    unrestricted plane PPP (three-node architecture):

        exp(-2*pi*lam * integral_0^inf  a/(a + y^alpha2 / r^alpha1) * y dy)

    with a = (p_u/p_b)*T.  Scaling by y* = (a*r^alpha1)^(1/alpha2) leaves
    y*^2 * tail_integral(0, alpha2).  `quad` is accepted for the common
    transform signature and not used.
    """
    _check_radial_args(r, threshold)
    a = params.p_u / params.p_b * threshold
    if a == 0.0:
        return 1.0
    ystar2 = (a * r ** params.alpha1) ** (2.0 / params.alpha2)
    c_all = tail_integral(0.0, params.alpha2)
    return math.exp(-2.0 * math.pi * params.lam * ystar2 * c_all)


def uplink_laplace_excluded(r: float, threshold: float, params: NetworkParams,
                            quad: QuadratureConfig | None = None) -> float:
    """Laplace transform of the uplink interference with the nearest
    interferer held outside a disk of random radius rho (two-node
    architecture): the full-plane transform's inner integral starts at rho
    instead of 0, i.e. at rho/y* in the scaled variable, and rho is averaged
    over the nearest-neighbor distance law by adaptive quadrature.

    Always at least as large as :func:`uplink_laplace_full` at identical
    arguments, since excluding a disk removes interference.
    """
    _check_radial_args(r, threshold)
    a = params.p_u / params.p_b * threshold
    if a == 0.0:
        return 1.0
    quad = quad or QuadratureConfig()
    a2 = params.alpha2
    ystar2 = (a * r ** params.alpha1) ** (2.0 / a2)
    ystar = math.sqrt(ystar2)
    tol = quad.rel_tol_inner

    lam = params.lam
    lam_pi = lam * math.pi
    two_pi_lam = 2.0 * math.pi * lam

    def integrand(rho: float) -> float:
        w = two_pi_lam * rho * math.exp(-lam_pi * rho * rho)
        if w == 0.0:
            return 0.0
        return w * math.exp(-two_pi_lam * ystar2 * tail_integral(rho / ystar, a2))

    rho_max = gaussian_tail_radius(lam, quad)
    # the integrand is bounded by the exclusion-radius pdf, so the value is
    # a probability-like quantity in (0, 1]
    return integrate(integrand, 0.0, rho_max, tol, quad, abs_tol=tol)


def two_node_outage(params: NetworkParams, rate_r: float,
                    quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Downlink outage of the two-node architecture: both ends are
    full-duplex, so the user suffers residual loop interference but no
    same-cell uplink interferer."""
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    li_coef = params.p_u / params.p_b * params.sigma_l2 * t
    return _radial_outage(params, Scenario.TWO_NODE_FD, rate_r, t,
                          quad or QuadratureConfig(),
                          li_coef=li_coef, uplink=uplink_laplace_excluded)


def three_node_outage(params: NetworkParams, rate_r: float,
                      quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Downlink outage of the three-node architecture: only the BS is
    full-duplex; the downlink user sees the whole uplink user process but no
    loop interference."""
    t = threshold_from_rate(rate_r, Scenario.THREE_NODE_FD)
    return _radial_outage(params, Scenario.THREE_NODE_FD, rate_r, t,
                          quad or QuadratureConfig(),
                          li_coef=0.0, uplink=uplink_laplace_full)


def half_duplex_outage(params: NetworkParams, rate_r: float,
                       quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Half-duplex baseline in the RF-chain-conserved comparison: no uplink
    interference, no loop interference, and the doubled-rate threshold."""
    t = threshold_from_rate(rate_r, Scenario.HALF_DUPLEX)
    return _radial_outage(params, Scenario.HALF_DUPLEX, rate_r, t,
                          quad or QuadratureConfig(),
                          li_coef=0.0, uplink=None)


def outage(scenario: Scenario, params: NetworkParams, rate_r: float,
           quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Outage of any architecture by the general route."""
    if scenario is Scenario.TWO_NODE_FD:
        return two_node_outage(params, rate_r, quad)
    if scenario is Scenario.THREE_NODE_FD:
        return three_node_outage(params, rate_r, quad)
    return half_duplex_outage(params, rate_r, quad)


def _radial_outage(params: NetworkParams, scenario: Scenario, rate_r: float,
                   t: float, quad: QuadratureConfig,
                   li_coef: float, uplink) -> OutageEstimate:
    meta = {"scenario": scenario.value, "rate": rate_r, "params": params.as_dict()}
    if t == 0.0:
        # the coverage integrand is exactly the serving-distance pdf
        return OutageEstimate(0.0, Method.ANALYTIC_GENERAL, meta=meta)
    lam_pi = params.lam * math.pi
    noise_coef = t * params.sigma_n2 / params.p_b
    a1 = params.alpha1

    def integrand(r: float) -> float:
        ra = r ** a1
        w = 2.0 * lam_pi * r * math.exp(-lam_pi * r * r - noise_coef * ra)
        if li_coef:
            w /= 1.0 + li_coef * ra
        if w == 0.0:
            return 0.0
        w *= bs_interference_laplace(r, t, params, quad)
        if uplink is not None:
            w *= uplink(r, t, params, quad)
        return w

    r_max = gaussian_tail_radius(params.lam, quad)
    cover = integrate(integrand, 0.0, r_max, quad.rel_tol_outer, quad,
                      abs_tol=quad.rel_tol_outer)
    return OutageEstimate(1.0 - cover, Method.ANALYTIC_GENERAL, meta=meta)


def _check_radial_args(r: float, threshold: float) -> None:
    if not r > 0:
        raise ValueError(f"serving distance must be > 0, got {r}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
