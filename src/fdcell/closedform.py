"""Fast paths for the quartic path-loss special case.

When both path-loss exponents are 4, BS and user powers are equal and the
network is interference-limited (no noise), the radial outage integrals
collapse: the three-node and half-duplex outages become elementary formulas
and the two-node outage reduces to a cheap double integral in the squared
distances u = r^2 and v = rho^2.  These serve both as fast evaluation paths
and as oracles for the general quadrature in :mod:`fdcell.analytic`.
"""

from __future__ import annotations

import math

from .model import Method, NetworkParams, OutageEstimate, Scenario, threshold_from_rate
from .quadrature import QuadratureConfig, integrate

__all__ = [
    "applicable",
    "arccot",
    "bs_kernel",
    "uplink_kernel",
    "two_node_outage",
    "three_node_outage",
    "half_duplex_outage",
    "outage",
]


def applicable(params: NetworkParams) -> bool:
    """True when the closed forms are valid for these parameters:
    alpha1 = alpha2 = 4, equal powers, zero noise, unit fading rate."""
    return (params.alpha1 == 4.0 and params.alpha2 == 4.0
            and params.p_b == params.p_u
            and params.sigma_n2 == 0.0 and params.mu == 1.0)


def arccot(x: float) -> float:
    """Inverse cotangent on x >= 0, decreasing from pi/2 at 0 toward 0."""
    return math.pi / 2.0 - math.atan(x)


def bs_kernel(u: float, rate_r: float, lam: float) -> float:
    """Joint weight of the serving-distance law and the other-BS interference
    suppression at squared serving distance u:

        exp(-pi*lam*u * (1 + sqrt(T)*arctan(sqrt(T)))),  T = 2^R - 1.
    """
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    st = math.sqrt(t)
    return math.exp(-math.pi * lam * u * (1.0 + st * math.atan(st)))


def uplink_kernel(u: float, rate_r: float, lam: float,
                  quad: QuadratureConfig | None = None) -> float:
    """Uplink interference weight averaged over the squared exclusion radius v:

        integral over v >= 0 of exp(-pi*lam*(v + u*sqrt(T)*arccot(v/(u*sqrt(T))))).

    The exp(-pi*lam*v) envelope is absorbed exactly by substituting
    w = exp(-pi*lam*v), leaving a bounded integrand on (0, 1].
    """
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")
    quad = quad or QuadratureConfig()
    pil = math.pi * lam
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    ust = u * math.sqrt(t)
    if ust == 0.0:
        return 1.0 / pil
    scale = pil * ust

    def mapped(w: float) -> float:
        # v = -ln(w)/(pi*lam); the exp(-pi*lam*v) factor became dw
        return math.exp(-scale * arccot(-math.log(w) / scale))

    return integrate(mapped, 0.0, 1.0, quad.rel_tol_inner, quad,
                     abs_tol=quad.rel_tol_inner) / pil


def two_node_outage(rate_r: float, lam: float, sigma_l2: float,
                    quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Two-node outage under the quartic special case.

    Takes sigma_l2 explicitly rather than a NetworkParams because only the
    density, the rate and the residual loop gain survive the specialization.
    """
    quad = quad or QuadratureConfig()
    t = threshold_from_rate(rate_r, Scenario.TWO_NODE_FD)
    meta = _meta(Scenario.TWO_NODE_FD, rate_r, lam=lam, sigma_l2=sigma_l2)
    if t == 0.0:
        return OutageEstimate(0.0, Method.ANALYTIC_CLOSED_FORM, meta=meta)
    pil = math.pi * lam
    li = sigma_l2 * t
    u_max = math.log(1.0 / quad.tail_cut) / pil
    norm = pil * pil

    def integrand(u: float) -> float:
        # normalized so the integral is the coverage probability in (0, 1]
        w = norm * bs_kernel(u, rate_r, lam)
        if w == 0.0:
            return 0.0
        return w * uplink_kernel(u, rate_r, lam, quad) / (1.0 + li * u * u)

    cover = integrate(integrand, 0.0, u_max, quad.rel_tol_outer, quad,
                      abs_tol=quad.rel_tol_outer)
    return OutageEstimate(1.0 - cover, Method.ANALYTIC_CLOSED_FORM, meta=meta)


def three_node_outage(rate_r: float) -> OutageEstimate:
    """Three-node outage under the quartic special case,

        1 - 1/(1 + sqrt(T)*(arctan(sqrt(T)) + pi/2)),

    which is independent of the network density (no lam argument by design).
    """
    t = threshold_from_rate(rate_r, Scenario.THREE_NODE_FD)
    st = math.sqrt(t)
    value = 1.0 - 1.0 / (1.0 + st * (math.atan(st) + math.pi / 2.0))
    return OutageEstimate(value, Method.ANALYTIC_CLOSED_FORM,
                          meta=_meta(Scenario.THREE_NODE_FD, rate_r))


def half_duplex_outage(rate_r: float) -> OutageEstimate:
    """Half-duplex baseline under the quartic special case: no uplink
    interference, doubled-rate threshold T' = 2^(2R) - 1,

        1 - 1/(1 + sqrt(T')*arctan(sqrt(T'))).
    """
    t = threshold_from_rate(rate_r, Scenario.HALF_DUPLEX)
    st = math.sqrt(t)
    value = 1.0 - 1.0 / (1.0 + st * math.atan(st))
    return OutageEstimate(value, Method.ANALYTIC_CLOSED_FORM,
                          meta=_meta(Scenario.HALF_DUPLEX, rate_r))


def outage(scenario: Scenario, params: NetworkParams, rate_r: float,
           quad: QuadratureConfig | None = None) -> OutageEstimate:
    """Outage of any architecture under the quartic special case; the caller
    checks :func:`applicable` first."""
    if scenario is Scenario.TWO_NODE_FD:
        return two_node_outage(rate_r, params.lam, params.sigma_l2, quad)
    if scenario is Scenario.THREE_NODE_FD:
        return three_node_outage(rate_r)
    return half_duplex_outage(rate_r)


def _meta(scenario: Scenario, rate_r: float, **extra) -> dict:
    params = {"alpha1": 4.0, "alpha2": 4.0, "power_ratio": 1.0, "sigma_n2": 0.0}
    params.update(extra)
    return {"scenario": scenario.value, "rate": rate_r, "params": params}
