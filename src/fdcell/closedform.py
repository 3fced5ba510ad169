"""Oracles for the quartic path-loss special case.

When both path-loss exponents are 4, BS and user powers are equal and the
network is interference-limited (no noise), the radial outage integrals
collapse: the three-node and half-duplex outages become elementary formulas
and the two-node outage reduces to a double integral in the squared
distances u = r^2 and v = rho^2 with arccot kernels.  They are oracles for
the general quadrature in :mod:`fdcell.analytic`, which is as fast on this
case, and which shares the quadrature driver and
:func:`fdcell.quadrature.exclusion_average` with them but none of their
kernels.  The kernels take arrays of the scaled distance x = sqrt(pi*lam*u),
as the general route's transforms do, so the two-node inner integral over v
runs once for all outer nodes of a round, and its scales, free of the
density, are shared by a sweep's densities.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Method, NetworkParams, OutageEstimate, Scenario, threshold_from_rate
from .quadrature import QuadratureConfig, exclusion_average, integrate

__all__ = [
    "REQUIREMENTS",
    "applicable",
    "arccot",
    "bs_kernel",
    "uplink_kernel",
    "two_node_outage",
    "three_node_outage",
    "half_duplex_outage",
    "outage",
]


REQUIREMENTS = "alpha1=alpha2=4, p_b=p_u, sigma_n2=0 and mu=1"


def applicable(params: NetworkParams) -> bool:
    """True when these parameters meet REQUIREMENTS, the conditions the
    closed forms are derived under."""
    return (params.alpha1 == 4.0 and params.alpha2 == 4.0
            and params.p_b == params.p_u
            and params.sigma_n2 == 0.0 and params.mu == 1.0)


def arccot(x):
    """Inverse cotangent on x >= 0 (a float or an array), decreasing from
    pi/2 at 0 toward 0."""
    return np.arctan2(1.0, x)


def bs_kernel(x, rate_r: float):
    """Joint weight of the serving-distance law and the other-BS interference
    suppression at scaled serving distance x (a float or an array):

        exp(-x^2 * (1 + sqrt(T)*arctan(sqrt(T)))),  T = 2^R - 1.
    """
    x = _check_x(x)
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    st = math.sqrt(t)
    return np.exp(-x * x * (1.0 + st * math.atan(st)))


def uplink_kernel(x, rate_r: float, quad: QuadratureConfig = QuadratureConfig(),
                  *, meta: dict | None = None):
    """Uplink interference weight averaged over the exclusion radius at
    scaled serving distance x (a float or an array), in units of 1/(pi*lam):
    with z = pi*lam*v,

        integral over z >= 0 of exp(-(z + c*arccot(z/c))),  c = x^2*sqrt(T).

    In t = z/c it is integral_0^inf c*exp(-c*(t + arccot(t))) dt, the
    :func:`fdcell.quadrature.exclusion_average` of a kernel of t alone,
    which sets the variable, the interval and the limits: at c = 0 the
    weight is exactly 1, at c = inf it is 0.  The density does not enter,
    so a sweep's densities share each inner integral.  When meta is given,
    the inner nodes are added to meta["inner_evaluations"].
    """
    x = _check_x(x)
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    g = exclusion_average(arccot, x * x * math.sqrt(t), quad)
    if meta is not None:
        meta["inner_evaluations"] += g.evaluations
    return g.value


def two_node_outage(rate_r: float, lam: float, sigma_l2: float,
                    quad: QuadratureConfig = QuadratureConfig()) -> OutageEstimate:
    """Two-node outage under the quartic special case.

    Takes sigma_l2 explicitly rather than a NetworkParams because only the
    density, the rate and the residual loop gain survive the specialization,
    and the density only in the loop term.  The outer integral runs over x,
    as the general route's does: a high-rate coverage density is not
    pressed against the origin as in pi*lam*u.  The error bound is its
    estimate, plus its truncated tail, plus the tolerance and both truncated
    tails of the inner integrals.
    """
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    meta = {"abserr": 0.0, "evaluations": 0, "inner_evaluations": 0}
    if t == 0.0 or t == math.inf:
        return OutageEstimate(0.0 if t == 0.0 else 1.0,
                              Method.ANALYTIC_CLOSED_FORM, meta=meta)
    pil = math.pi * lam
    li = sigma_l2 * t

    def integrand(x: np.ndarray) -> np.ndarray:
        # the coverage density in x, so the integral is the coverage
        # probability in (0, 1]; only the loop term reads the density
        w = 2.0 * x * bs_kernel(x, rate_r)
        live = w > 0.0
        xl = x[live]
        ul = xl * xl / pil
        w[live] *= uplink_kernel(xl, rate_r, quad, meta=meta) / (1.0 + li * ul * ul)
        return w

    # at tiny densities li*u^2 overflows: inf is the right limit
    with np.errstate(over="ignore"):
        cover = integrate(integrand, 0.0,
                          math.sqrt(math.log(1.0 / quad.tail_cut)),
                          quad.rel_tol_outer)
    meta.update(abserr=cover.abserr + 3.0 * quad.tail_cut + quad.rel_tol_inner,
                evaluations=cover.evaluations)
    return OutageEstimate(1.0 - cover.value, Method.ANALYTIC_CLOSED_FORM,
                          meta=meta)


def three_node_outage(rate_r: float) -> OutageEstimate:
    """Three-node outage under the quartic special case,

        1 - 1/(1 + sqrt(T)*(arctan(sqrt(T)) + pi/2)),

    which is independent of the network density (no lam argument by design).
    """
    t = threshold_from_rate(rate_r, Scenario.THREE_NODE_FD)
    st = math.sqrt(t)
    value = 1.0 - 1.0 / (1.0 + st * (math.atan(st) + math.pi / 2.0))
    return OutageEstimate(value, Method.ANALYTIC_CLOSED_FORM, meta={
        "abserr": 0.0, "evaluations": 0, "inner_evaluations": 0})


def half_duplex_outage(rate_r: float) -> OutageEstimate:
    """Half-duplex baseline under the quartic special case: no uplink
    interference, doubled-rate threshold T' = 2^(2R) - 1,

        1 - 1/(1 + sqrt(T')*arctan(sqrt(T'))).
    """
    t = threshold_from_rate(rate_r, Scenario.HALF_DUPLEX)
    st = math.sqrt(t)
    value = 1.0 - 1.0 / (1.0 + st * math.atan(st))
    return OutageEstimate(value, Method.ANALYTIC_CLOSED_FORM, meta={
        "abserr": 0.0, "evaluations": 0, "inner_evaluations": 0})


def outage(scenario: Scenario, params: NetworkParams, rate_r: float,
           quad: QuadratureConfig = QuadratureConfig()) -> OutageEstimate:
    """Outage of any architecture under the quartic special case; the caller
    checks :func:`applicable` first."""
    if scenario is Scenario.TWO_NODE_FD:
        return two_node_outage(rate_r, params.lam, params.sigma_l2, quad)
    if scenario is Scenario.THREE_NODE_FD:
        return three_node_outage(rate_r)
    return half_duplex_outage(rate_r)


def _check_x(x):
    """x as a float or an array, once every scaled distance is >= 0."""
    x = np.asarray(x, dtype=float)
    if not (x >= 0).all():
        raise ValueError(f"x must be >= 0, got {x.min()}")
    return x[()]
