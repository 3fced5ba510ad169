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
the density and the powers enter only through the gain ratios and the mu
rule of :meth:`NetworkParams.sinr_scales`.  Only the Gaussian-weighted
integrals run by adaptive quadrature: over the serving distance x on
[0, sqrt(ln(1/tail_cut)/(1 + 2J))], J the BS interference exponent of
:func:`bs_interference_laplace`, and for the two-node uplink over the
exclusion distance y.  In x the quadrature sees an affine image of the physical radial
integral; in u, a noise-limited query's coverage sits against the origin of
a long interval, where it is missed.

The transforms and :func:`tail_integral` take arrays, so each round of the
outer quadrature evaluates its integrand once on all its nodes, and the
two-node uplink factor integrates over the exclusion distance for all of
them in one call of :func:`fdcell.quadrature.exclusion_average`, which
:mod:`fdcell.closedform` calls too, with its own kernel.

This route is the package's only user of scipy: :func:`tail_integral` imports
``scipy.special.hyp2f1`` on its first call, not when this module is imported.
That import costs about 0.2 s and 17 MB, so ``import fdcell``, Monte Carlo,
the closed forms and the CLI's other commands run without it.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
import time

import numpy as np

from .model import Method, NetworkParams, OutageEstimate, Scenario, threshold_from_rate
from .quadrature import QuadratureConfig, exclusion_average, integrate

__all__ = [
    "bs_interference_laplace",
    "uplink_laplace_full",
    "uplink_laplace_excluded",
    "two_node_outage",
    "three_node_outage",
    "half_duplex_outage",
    "outage",
]

log = logging.getLogger(__name__)


def tail_integral(c, alpha: float):
    """integral_c^inf u/(1+u^alpha) du for c >= 0 (a float or an array) and
    alpha > 2.

    A Gauss hypergeometric function (the rho(T, alpha) of Andrews, Baccelli
    and Ganti, IEEE TCOM 2011).  Each branch keeps the series argument in
    [-1, 0], where 2F1 is well conditioned: up to c = 1 the head
    integral_0^c is subtracted from the full-line value, beyond it the tail
    is expanded in powers of c^-alpha.  An array takes one masked 2F1 call
    per branch; a single value, as the transforms' constants are, is
    computed as a float and skips the masking.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        c = float(c)
        return _tail_far(c, alpha) if c > 1.0 else _tail_near(c, alpha)
    out = np.empty(c.shape)
    far = c > 1.0
    out[far] = _tail_far(c[far], alpha)
    out[~far] = _tail_near(c[~far], alpha)
    return out


def _tail_far(c, alpha: float):
    """tail_integral for c > 1, in powers of c^-alpha."""
    return c ** (2.0 - alpha) / (alpha - 2.0) * _hyp2f1()(
        1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, -c ** -alpha)


def _tail_near(c, alpha: float):
    """tail_integral for 0 <= c <= 1: the full line minus the head."""
    return _full_line(alpha) - 0.5 * c * c * _hyp2f1()(
        1.0, 2.0 / alpha, 1.0 + 2.0 / alpha, -c ** alpha)


@functools.cache
def _hyp2f1():
    """scipy's Gauss hypergeometric ufunc, imported on the first call, which
    logs its time at DEBUG: fdcell.sweep.sweep_rows makes it before any row."""
    t0 = time.perf_counter()
    from scipy.special import hyp2f1
    log.debug("scipy.special loaded in %.0f ms", (time.perf_counter() - t0) * 1e3)
    return hyp2f1


def _full_line(alpha: float) -> float:
    """tail_integral(0, alpha) = (pi/alpha) / sin(2*pi/alpha)."""
    return (math.pi / alpha) / math.sin(2.0 * math.pi / alpha)


def bs_interference_laplace(x, threshold: float, params: NetworkParams):
    """Laplace transform of the interference from all BSs beyond the serving
    one at scaled distance x (a float or an array), at the conditional SINR
    threshold T:

        exp(-2 * integral_x^inf  T/(T + (v/x)^alpha1) * v dv) = exp(-2*x^2*J)

    with J = T^(2/alpha1) * tail_integral(T^(-1/alpha1), alpha1).
    """
    x = _check_radial_args(x, threshold)
    return np.exp(-2.0 * x * x * _bs_exponent(threshold, params))


def uplink_laplace_full(x, threshold: float, params: NetworkParams):
    """Laplace transform of the uplink interference when interferers form an
    unrestricted plane PPP (three-node architecture):
    exp(-2*s*tail_integral(0, alpha2)), with s from :func:`_uplink_scale`.
    """
    s = _uplink_scale(x, threshold, params)
    return np.exp(-2.0 * s * _full_line(params.alpha2))


def uplink_laplace_excluded(x, threshold: float, params: NetworkParams,
                            quad: QuadratureConfig = QuadratureConfig(), *,
                            meta: dict | None = None):
    """Laplace transform of the uplink interference with the nearest
    interferer held outside a disk of random scaled radius y (two-node
    architecture), averaged over y's law:

        g(s) = integral_0^inf 2y*exp(-y^2) * exp(-2*s*tail_integral(y/sqrt(s), alpha2)) dy,

    a function of s and alpha2 alone.  In t = y^2/s it reads

        g(s) = integral_0^inf s*exp(-s*(t + 2*tail_integral(sqrt(t), alpha2))) dt,

    the :func:`fdcell.quadrature.exclusion_average` of a kernel of t and alpha2,
    which sets the variable, the interval and the limits s = 0 -> 1 and
    s = inf -> 0.  Since g does not depend on the loop gain or, at
    alpha1 = alpha2 and equal powers, on the density, a sweep computes it
    once per set of scales and reuses it (see
    :func:`fdcell.quadrature.inner_integral_memo`).  When meta is given, the
    inner nodes the value rests on are added to meta["inner_evaluations"],
    computed or reused.  Never below :func:`uplink_laplace_full` at
    identical arguments, since excluding a disk removes interference.
    """
    g = exclusion_average(_exclusion_kernel, _uplink_scale(x, threshold, params),
                          quad, params.alpha2)
    if meta is not None:
        meta["inner_evaluations"] += g.evaluations
    return g.value


def _exclusion_kernel(t, alpha2: float):
    """The kernel 2*tail_integral(sqrt(t), alpha2) of the two-node exclusion
    average."""
    return 2.0 * tail_integral(np.sqrt(t), alpha2)


def two_node_outage(params: NetworkParams, rate_r: float,
                    quad: QuadratureConfig = QuadratureConfig()) -> OutageEstimate:
    """Downlink outage of the two-node architecture: both ends are
    full-duplex, so the user suffers residual loop interference but no
    same-cell uplink interferer."""
    return _radial_outage(params, Scenario.TWO_NODE_FD, rate_r, quad)


def three_node_outage(params: NetworkParams, rate_r: float,
                      quad: QuadratureConfig = QuadratureConfig()) -> OutageEstimate:
    """Downlink outage of the three-node architecture: only the BS is
    full-duplex; the downlink user sees the whole uplink user process but no
    loop interference."""
    return _radial_outage(params, Scenario.THREE_NODE_FD, rate_r, quad)


def half_duplex_outage(params: NetworkParams, rate_r: float,
                       quad: QuadratureConfig = QuadratureConfig()) -> OutageEstimate:
    """Half-duplex baseline in the RF-chain-conserved comparison: no uplink
    interference, no loop interference, and the doubled-rate threshold."""
    return _radial_outage(params, Scenario.HALF_DUPLEX, rate_r, quad)


def outage(scenario: Scenario, params: NetworkParams, rate_r: float,
           quad: QuadratureConfig = QuadratureConfig()) -> OutageEstimate:
    """Outage of any architecture by the general route."""
    if scenario is Scenario.TWO_NODE_FD:
        return two_node_outage(params, rate_r, quad)
    if scenario is Scenario.THREE_NODE_FD:
        return three_node_outage(params, rate_r, quad)
    return half_duplex_outage(params, rate_r, quad)


def _radial_outage(params: NetworkParams, scenario: Scenario, rate_r: float,
                   quad: QuadratureConfig) -> OutageEstimate:
    """1 - integral of 2x*exp(-x^2) * P(covered | x) over the serving
    distance x, with the scenario's uplink factor.  The error bound is the
    integral's estimate, plus the truncated tail, plus for two-node the
    tolerance and both truncated tails of the inner integrals, which the pdf
    weight carries over as is."""
    meta = {"abserr": 0.0, "evaluations": 0, "inner_evaluations": 0}
    t = threshold_from_rate(rate_r, scenario)
    if t == 0.0 or t == math.inf:
        # the coverage integrand is exactly the serving-distance pdf, or 0
        return OutageEstimate(0.0 if t == 0.0 else 1.0, Method.ANALYTIC_GENERAL,
                              meta=meta)
    _, noise, loop = params.sinr_scales()
    # capped as the scales are: at large alpha1, x^a1 underflows to 0 or
    # overflows, and no term may become 0*inf
    noise_coef = min(t * noise, sys.float_info.max)
    two_node = scenario is Scenario.TWO_NODE_FD
    # averaging over the unit-mean loop gain L turns exp(-li_coef*x^a1*L)
    # into 1/(1 + li_coef*x^a1); only the two-node user has a loop
    li_coef = min(t * loop, sys.float_info.max) if two_node else 0.0
    a1 = params.alpha1

    def integrand(x: np.ndarray) -> np.ndarray:
        xa = x ** a1
        w = 2.0 * x * np.exp(-x * x - noise_coef * xa if noise_coef else -x * x)
        if li_coef:
            w /= 1.0 + li_coef * xa
        w *= bs_interference_laplace(x, t, params)
        if two_node:
            live = w > 0.0
            w[live] *= uplink_laplace_excluded(x[live], t, params, quad,
                                               meta=meta)
        elif scenario is Scenario.THREE_NODE_FD:
            w *= uplink_laplace_full(x, t, params)
        return w

    # every factor but the weight and the BS transform is at most 1, so the
    # integrand is at most 2x*exp(-x^2*(1 + 2J)), whose mass beyond x_max is
    # at most tail_cut; a coverage squeezed towards 0 by a large J stays in
    # view
    x_max = math.sqrt(math.log(1.0 / quad.tail_cut)
                      / (1.0 + 2.0 * _bs_exponent(t, params)))
    # at tiny densities the gain ratios are huge and some products overflow:
    # inf in an exponent or a denominator is the right limit
    with np.errstate(over="ignore"):
        cover = integrate(integrand, 0.0, x_max, quad.rel_tol_outer)
    abserr = cover.abserr + quad.tail_cut
    if two_node:
        abserr += quad.rel_tol_inner + 2.0 * quad.tail_cut
    meta.update(abserr=abserr, evaluations=cover.evaluations)
    return OutageEstimate(1.0 - cover.value, Method.ANALYTIC_GENERAL, meta=meta)


def _bs_exponent(threshold: float, params: NetworkParams) -> float:
    """J = T^(2/alpha1) * tail_integral(T^(-1/alpha1), alpha1), 0 at T = 0."""
    if threshold == 0.0:
        return 0.0
    a1 = params.alpha1
    return threshold ** (2.0 / a1) * tail_integral(threshold ** (-1.0 / a1), a1)


def _uplink_scale(x, threshold: float, params: NetworkParams):
    """s = (T*g_u/g_b * x^alpha1)^(2/alpha2), the mapped distance u at which
    an uplink user's mean power equals the serving BS's over T.

    Formed in logs, with ln(g_u/g_b) from p_u/p_b and lam*pi: T*g_u/g_b may
    underflow to 0 where x^alpha1 overflows, and their product would be
    0*inf.  An s beyond the doubles is 0 or inf, the limits the uplink
    factors take exactly."""
    x = _check_radial_args(x, threshold)
    if threshold == 0.0:
        return np.zeros_like(x)[()]
    p = params
    log_coef = (math.log(threshold) + math.log(p.p_u) - math.log(p.p_b)
                + 0.5 * (p.alpha2 - p.alpha1) * math.log(p.lam * math.pi))
    with np.errstate(over="ignore"):
        return np.exp((log_coef + p.alpha1 * np.log(x)) * (2.0 / p.alpha2))


def _check_radial_args(x, threshold: float):
    """x as a float or an array, once every distance is > 0."""
    x = np.asarray(x, dtype=float)
    if not (x > 0).all():
        raise ValueError(f"serving distance must be > 0, got {x.min()}")
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return x[()]
