"""General outage probabilities: closed-form interference kernels inside
adaptive radial quadrature.

The downlink outage of each architecture is an expectation over the serving
distance of a conditional coverage probability that factors into a noise
term, a residual loop-interference term (two-node only) and Laplace transforms
of the BS- and uplink-generated interference.  Every transform's
semi-infinite integral is one Gauss hypergeometric kernel,
:func:`tail_integral`, so no quadrature runs inside a transform.

Distances are scaled to x = r*sqrt(lam*pi), the square root of the
simulator's u = lam*pi*r^2, with the fixed nearest-point law 2x*exp(-x^2):
the density and the powers enter only through the unit gains and the mu rule
of :meth:`NetworkParams.sinr_scales`.  Only the Gaussian-weighted integrals
(serving distance x, and the exclusion distance y of the two-node uplink) run
by adaptive quadrature, on [0, sqrt(ln(1/tail_cut))].  In x, QUADPACK sees an
affine image of the physical radial integral; in u, a noise-limited query's
coverage sits against the origin of a long interval, where it is missed.
"""

from __future__ import annotations

import math

from scipy.special import hyp2f1

from .model import Method, NetworkParams, OutageEstimate, Scenario, threshold_from_rate
from .quadrature import QuadratureConfig, integrate

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


def bs_interference_laplace(x: float, threshold: float,
                            params: NetworkParams) -> float:
    """Laplace transform of the interference from all BSs beyond the serving
    one at scaled distance x, at the conditional SINR threshold T:

        exp(-2 * integral_x^inf  T/(T + (v/x)^alpha1) * v dv) = exp(-2*x^2*J)

    with J = T^(2/alpha1) * tail_integral(T^(-1/alpha1), alpha1).
    """
    _check_radial_args(x, threshold)
    if threshold == 0.0:
        return 1.0
    a1 = params.alpha1
    j = threshold ** (2.0 / a1) * tail_integral(threshold ** (-1.0 / a1), a1)
    return math.exp(-2.0 * x * x * j)


def uplink_laplace_full(x: float, threshold: float,
                        params: NetworkParams) -> float:
    """Laplace transform of the uplink interference when interferers form an
    unrestricted plane PPP (three-node architecture):
    exp(-2*s*tail_integral(0, alpha2)), with s from :func:`_uplink_scale`.
    """
    s = _uplink_scale(x, threshold, params)
    return math.exp(-2.0 * s * tail_integral(0.0, params.alpha2))


def uplink_laplace_excluded(x: float, threshold: float, params: NetworkParams,
                            quad: QuadratureConfig | None = None) -> float:
    """Laplace transform of the uplink interference with the nearest
    interferer held outside a disk of random scaled radius y (two-node
    architecture), averaged over y's law by adaptive quadrature:

        integral_0^inf 2y*exp(-y^2) * exp(-2*s*tail_integral(y/sqrt(s), alpha2)) dy,

    a function of s and alpha2 alone.  Never below :func:`uplink_laplace_full`
    at identical arguments, since excluding a disk removes interference.
    """
    s = _uplink_scale(x, threshold, params)
    if s == 0.0:
        return 1.0
    quad = quad or QuadratureConfig()
    a2 = params.alpha2
    root_s = math.sqrt(s)
    tol = quad.rel_tol_inner

    def integrand(y: float) -> float:
        w = 2.0 * y * math.exp(-y * y)
        if w == 0.0:
            return 0.0
        return w * math.exp(-2.0 * s * tail_integral(y / root_s, a2))

    # the integrand is bounded by the exclusion-radius pdf, so the value is
    # a probability-like quantity in (0, 1]
    y_max = math.sqrt(math.log(1.0 / quad.tail_cut))
    return integrate(integrand, 0.0, y_max, tol, quad, abs_tol=tol)


def two_node_outage(params: NetworkParams, rate_r: float,
                    quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Downlink outage of the two-node architecture: both ends are
    full-duplex, so the user suffers residual loop interference but no
    same-cell uplink interferer."""
    return _radial_outage(params, Scenario.TWO_NODE_FD, rate_r, quad,
                          lambda x, t: uplink_laplace_excluded(x, t, params, quad))


def three_node_outage(params: NetworkParams, rate_r: float,
                      quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Downlink outage of the three-node architecture: only the BS is
    full-duplex; the downlink user sees the whole uplink user process but no
    loop interference."""
    return _radial_outage(params, Scenario.THREE_NODE_FD, rate_r, quad,
                          lambda x, t: uplink_laplace_full(x, t, params))


def half_duplex_outage(params: NetworkParams, rate_r: float,
                       quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Half-duplex baseline in the RF-chain-conserved comparison: no uplink
    interference, no loop interference, and the doubled-rate threshold."""
    return _radial_outage(params, Scenario.HALF_DUPLEX, rate_r, quad, None)


def outage(scenario: Scenario, params: NetworkParams, rate_r: float,
           quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Outage of any architecture by the general route."""
    if scenario is Scenario.TWO_NODE_FD:
        return two_node_outage(params, rate_r, quad)
    if scenario is Scenario.THREE_NODE_FD:
        return three_node_outage(params, rate_r, quad)
    return half_duplex_outage(params, rate_r, quad)


def _radial_outage(params: NetworkParams, scenario: Scenario, rate_r: float,
                   quad: QuadratureConfig | None, uplink) -> OutageEstimate:
    """1 - integral of 2x*exp(-x^2) * P(covered | x) over the serving
    distance x; uplink(x, T) is the uplink factor, None for half-duplex."""
    meta = {"scenario": scenario.value, "rate": rate_r, "params": params.as_dict()}
    t = threshold_from_rate(rate_r, scenario)
    if t == 0.0:
        # the coverage integrand is exactly the serving-distance pdf
        return OutageEstimate(0.0, Method.ANALYTIC_GENERAL, meta=meta)
    gain_b, _, noise, loop = params.sinr_scales()
    noise_coef = t * noise / gain_b
    # averaging over the unit-mean loop gain L turns exp(-li_coef*x^a1*L)
    # into 1/(1 + li_coef*x^a1); only the two-node user has a loop
    li_coef = t * loop / gain_b if scenario is Scenario.TWO_NODE_FD else 0.0
    a1 = params.alpha1

    def integrand(x: float) -> float:
        xa = x ** a1
        w = 2.0 * x * math.exp(-x * x - noise_coef * xa)
        if li_coef:
            w /= 1.0 + li_coef * xa
        if w == 0.0:
            return 0.0
        w *= bs_interference_laplace(x, t, params)
        if uplink is not None:
            w *= uplink(x, t)
        return w

    quad = quad or QuadratureConfig()
    x_max = math.sqrt(math.log(1.0 / quad.tail_cut))
    cover = integrate(integrand, 0.0, x_max, quad.rel_tol_outer, quad,
                      abs_tol=quad.rel_tol_outer)
    return OutageEstimate(1.0 - cover, Method.ANALYTIC_GENERAL, meta=meta)


def _uplink_scale(x: float, threshold: float, params: NetworkParams) -> float:
    """s = (T*g_u/g_b * x^alpha1)^(2/alpha2), the mapped distance u at which
    an uplink user's mean power equals the serving BS's over T."""
    _check_radial_args(x, threshold)
    gain_b, gain_u, _, _ = params.sinr_scales()
    a = threshold * (gain_u / gain_b)
    return (a * x ** params.alpha1) ** (2.0 / params.alpha2)


def _check_radial_args(x: float, threshold: float) -> None:
    if not x > 0:
        raise ValueError(f"serving distance must be > 0, got {x}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
