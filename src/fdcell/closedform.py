"""Oracles for the quartic path-loss special case.

When both path-loss exponents are 4, BS and user powers are equal and the
network is interference-limited (no noise), the radial outage integrals
collapse: the three-node and half-duplex outages become elementary formulas
and the two-node outage reduces to a double integral in the squared
distances u = r^2 and v = rho^2 with arccot kernels.  They are oracles for
the general quadrature in :mod:`fdcell.analytic`, which is as fast on this
case, and which shares the quadrature driver and
:func:`fdcell.quadrature.exclusion_average` with them but none of their
kernels.  The kernels take arrays of u, so the two-node inner integral over
v runs once for all outer nodes of a round.
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


def bs_kernel(u, rate_r: float, lam: float):
    """Joint weight of the serving-distance law and the other-BS interference
    suppression at squared serving distance u (a float or an array):

        exp(-pi*lam*u * (1 + sqrt(T)*arctan(sqrt(T)))),  T = 2^R - 1.
    """
    u = _check_u(u)
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    st = math.sqrt(t)
    return np.exp(-math.pi * lam * u * (1.0 + st * math.atan(st)))


def uplink_kernel(u, rate_r: float, lam: float,
                  quad: QuadratureConfig | None = None, *,
                  meta: dict | None = None):
    """Uplink interference weight averaged over the squared exclusion radius v,
    at squared serving distance u (a float or an array):

        integral over v >= 0 of exp(-pi*lam*(v + u*sqrt(T)*arccot(v/(u*sqrt(T))))).

    In t = v/(u*sqrt(T)) it is 1/(pi*lam) times

        integral_0^inf c*exp(-c*(t + arccot(t))) dt,  c = pi*lam*u*sqrt(T),

    the :func:`fdcell.quadrature.exclusion_average` of a kernel of t alone,
    which sets the variable, the interval and the limits: at c = 0 the
    weight is exactly 1/(pi*lam), at c = inf it is 0.  When meta is given,
    the inner nodes are added to meta["inner_evaluations"].
    """
    u = _check_u(u)
    quad = quad or QuadratureConfig()
    pil = math.pi * lam
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    g = exclusion_average(arccot, pil * (u * math.sqrt(t)), quad)
    if meta is not None:
        meta["inner_evaluations"] += g.evaluations
    return g.value / pil


def two_node_outage(rate_r: float, lam: float, sigma_l2: float,
                    quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Two-node outage under the quartic special case.

    Takes sigma_l2 explicitly rather than a NetworkParams because only the
    density, the rate and the residual loop gain survive the specialization.
    The outer integral runs over x = sqrt(pi*lam*u), as the general route's
    does: no power of the density scales it, and a high-rate coverage
    density is not pressed against the origin as in pi*lam*u.  The error
    bound is its estimate, plus its truncated tail, plus the tolerance and
    both truncated tails of the inner integrals.
    """
    quad = quad or QuadratureConfig()
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    meta = {"abserr": 0.0, "evaluations": 0, "inner_evaluations": 0}
    if t == 0.0 or t == math.inf:
        return OutageEstimate(0.0 if t == 0.0 else 1.0,
                              Method.ANALYTIC_CLOSED_FORM, meta=meta)
    pil = math.pi * lam
    li = sigma_l2 * t

    def integrand(x: np.ndarray) -> np.ndarray:
        # the coverage density in x, so the integral is the coverage
        # probability in (0, 1]
        u = x * x / pil
        w = 2.0 * x * bs_kernel(u, rate_r, lam)
        live = w > 0.0
        ul = u[live]
        w[live] *= pil * uplink_kernel(ul, rate_r, lam, quad, meta=meta) / (
            1.0 + li * ul * ul)
        return w

    # at tiny densities li*u^2 overflows: inf is the right limit
    with np.errstate(over="ignore"):
        cover = integrate(integrand, 0.0,
                          math.sqrt(math.log(1.0 / quad.tail_cut)),
                          quad.rel_tol_outer, quad, abs_tol=quad.rel_tol_outer)
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
           quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Outage of any architecture under the quartic special case; the caller
    checks :func:`applicable` first."""
    if scenario is Scenario.TWO_NODE_FD:
        return two_node_outage(rate_r, params.lam, params.sigma_l2, quad)
    if scenario is Scenario.THREE_NODE_FD:
        return three_node_outage(rate_r)
    return half_duplex_outage(rate_r)


def _check_u(u):
    """u as a float or an array, once every squared distance is >= 0."""
    u = np.asarray(u, dtype=float)
    if not (u >= 0).all():
        raise ValueError(f"u must be >= 0, got {u.min()}")
    return u[()]

