"""Core system-model types shared by the analytic, closed-form and Monte Carlo paths.

All quantities are consistent linear units (no dB anywhere in the library);
distances, powers and densities are unitless as long as they are consistent
with each other.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

__all__ = [
    "EstimateRangeError",
    "Scenario",
    "Method",
    "NetworkParams",
    "OutageEstimate",
    "threshold_from_rate",
    "nearest_bs_distance_pdf",
]


class Scenario(Enum):
    """Which downlink architecture an outage value refers to."""

    TWO_NODE_FD = "two-node"
    THREE_NODE_FD = "three-node"
    HALF_DUPLEX = "half-duplex"


class Method(Enum):
    """How an outage value was obtained."""

    ANALYTIC_GENERAL = "analytic"
    ANALYTIC_CLOSED_FORM = "closed-form"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class NetworkParams:
    """Physical constants of the cellular model.

    lam       -- density of base stations and of users (points per unit area);
                 one common density for both processes
    alpha1    -- path-loss exponent BS <-> user (> 2, integrals diverge otherwise)
    alpha2    -- path-loss exponent user <-> user (> 2)
    p_b       -- BS transmit power
    p_u       -- user transmit power
    sigma_n2  -- AWGN noise power (0 for the interference-limited regime)
    sigma_l2  -- mean residual loop-interference channel gain after cancellation
    mu        -- Rayleigh fading exponential rate (mean channel power 1/mu);
                 it cancels in every interference term, so outage depends on
                 it only through mu*sigma_n2 and mu*sigma_l2 (see sinr_scales)
    """

    lam: float = 1e-3
    alpha1: float = 4.0
    alpha2: float = 4.0
    p_b: float = 1.0
    p_u: float = 1.0
    sigma_n2: float = 0.0
    sigma_l2: float = 0.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not self.alpha1 > 2:
            raise ValueError(f"alpha1 must be > 2, got {self.alpha1}")
        if not self.alpha2 > 2:
            raise ValueError(f"alpha2 must be > 2, got {self.alpha2}")
        if not self.p_b > 0:
            raise ValueError(f"p_b must be > 0, got {self.p_b}")
        if not self.p_u > 0:
            raise ValueError(f"p_u must be > 0, got {self.p_u}")
        if self.sigma_n2 < 0:
            raise ValueError(f"sigma_n2 must be >= 0, got {self.sigma_n2}")
        if self.sigma_l2 < 0:
            raise ValueError(f"sigma_l2 must be >= 0, got {self.sigma_l2}")
        if not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")

    def sinr_scales(self) -> tuple[float, float, float, float]:
        """The unit gains g_b, g_u = p*(lam*pi)^(alpha/2) and the scales
        noise, loop such that SINR = g_b*S / (noise + loop*L + g_b*I_b
        + g_u*I_u) for the unit-density, unit-power parts S, I_b, I_u, L of
        simulate.sinr_of_realization.  mu cancels in the interference terms,
        so it stays on noise and loop only."""
        lam_pi = self.lam * math.pi
        return (self.p_b * lam_pi ** (self.alpha1 / 2.0),
                self.p_u * lam_pi ** (self.alpha2 / 2.0),
                self.mu * self.sigma_n2, self.mu * self.p_u * self.sigma_l2)

    def replace(self, **changes) -> "NetworkParams":
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return asdict(self)


class EstimateRangeError(ValueError):
    """An outage value outside [0, 1]: a numerical failure, not bad input."""


# Analytic values land on the boundary only up to quadrature error; snap
# excursions below this size instead of failing validation.
_BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class OutageEstimate:
    """An outage probability with its provenance.

    stderr is the binomial standard error for Monte Carlo estimates and 0 for
    the analytic methods.  meta records scenario, target rate and the parameter
    snapshot the value was computed from.
    """

    value: float
    method: Method
    stderr: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        v = self.value
        if -_BOUNDARY_SLACK <= v < 0.0:
            object.__setattr__(self, "value", 0.0)
        elif 1.0 < v <= 1.0 + _BOUNDARY_SLACK:
            object.__setattr__(self, "value", 1.0)
        elif not 0.0 <= v <= 1.0:
            raise EstimateRangeError(f"outage value {v} outside [0, 1]")
        if self.stderr < 0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")


def threshold_from_rate(rate_r: float, scenario: Scenario) -> float:
    """Linear SINR threshold for a target rate in bits per channel use.

    Full-duplex links are in outage when log2(1+SINR) < R, half-duplex ones
    when (1/2) log2(1+SINR) < R, so the half-duplex threshold uses the doubled
    rate: 2^(2R) - 1 instead of 2^R - 1.
    """
    if rate_r < 0:
        raise ValueError(f"target rate must be >= 0, got {rate_r}")
    # expm1 keeps 2^R - 1 exact down to tiny rates
    if scenario is Scenario.HALF_DUPLEX:
        return math.expm1(2.0 * rate_r * math.log(2.0))
    return math.expm1(rate_r * math.log(2.0))


def nearest_bs_distance_pdf(r, lam: float):
    """Density of the distance to the nearest point of a planar PPP:
    2*pi*lam * r * exp(-lam*pi*r^2).

    Accepts scalars or numpy arrays for r.
    """
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distances must be >= 0")
    out = 2.0 * math.pi * lam * r * np.exp(-lam * math.pi * r * r)
    if out.ndim == 0:
        return float(out)
    return out
