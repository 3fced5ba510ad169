"""Core system-model types shared by the analytic, closed-form and Monte Carlo paths.

All quantities are consistent linear units (no dB anywhere in the library);
distances, powers and densities are unitless as long as they are consistent
with each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
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


# the lower bound of each NetworkParams field, all of which must be finite,
# and whether the bound itself is allowed
_LOWER_BOUNDS = {"lam": (0.0, False), "alpha1": (2.0, False),
                 "alpha2": (2.0, False), "p_b": (0.0, False),
                 "p_u": (0.0, False), "sigma_n2": (0.0, True),
                 "sigma_l2": (0.0, True), "mu": (0.0, False)}


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
        for name, (low, closed) in _LOWER_BOUNDS.items():
            v = getattr(self, name)
            if not (math.isfinite(v) and (v >= low if closed else v > low)):
                raise ValueError(f"{name} must be finite and "
                                 f"{'>=' if closed else '>'} {low:g}, got {v}")

    def sinr_scales(self) -> tuple[float, float, float]:
        """The user unit gain, the noise and the loop scale, each over the BS
        unit gain g_b = p_b*(lam*pi)^(alpha1/2), such that
        SINR = S / (noise + loop*L + I_b + gain_u*I_u) for the unit-density,
        unit-power parts S, I_b, I_u, L of simulate.sinr_of_realization.

        As ratios they stay finite where g_b itself underflows (lam below
        about 1e-155): gain_u = (p_u/p_b)*(lam*pi)^((alpha2 - alpha1)/2) is
        independent of lam at alpha1 = alpha2, and noise and loop grow as
        lam falls, up to the largest double (not inf, so that a part that is
        0 in some trial stays 0).  mu cancels in the interference terms, so
        it stays on noise and loop only."""
        lam_pi = self.lam * math.pi

        def over_gain_b(x: float, exponent: float) -> float:
            # x*(lam*pi)^exponent/p_b, exactly 0 at x = 0
            if x == 0.0:
                return 0.0
            try:
                return min(x / self.p_b * lam_pi ** exponent, sys.float_info.max)
            except OverflowError:
                return sys.float_info.max

        return (over_gain_b(self.p_u, (self.alpha2 - self.alpha1) / 2.0),
                over_gain_b(self.mu * self.sigma_n2, -self.alpha1 / 2.0),
                over_gain_b(self.mu * self.p_u * self.sigma_l2, -self.alpha1 / 2.0))

    def replace(self, **changes) -> "NetworkParams":
        return replace(self, **changes)


class EstimateRangeError(ValueError):
    """An outage value outside [0, 1]: a numerical failure, not bad input."""


# Analytic values land on the boundary only up to quadrature error; snap
# excursions below this size instead of failing validation.
_BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class OutageEstimate:
    """An outage probability with its provenance.

    stderr is the binomial standard error for Monte Carlo estimates and 0 for
    the analytic methods.  meta says how the value was obtained.  The general
    and closed-form routes give abserr, a bound on the value's error,
    evaluations, the outer integral's nodes, and inner_evaluations, the nodes
    of all two-node inner integrals (0 elsewhere; all three are 0 for the
    elementary closed forms).  Monte Carlo gives trials, seed and mode, the
    realization mode's name.
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
    if not rate_r >= 0:
        raise ValueError(f"target rate must be >= 0, got {rate_r}")
    # expm1 keeps 2^R - 1 exact down to tiny rates; rates beyond about 1024
    # bits (512 half-duplex) give T = inf, outage 1 on every route
    doubling = 2.0 if scenario is Scenario.HALF_DUPLEX else 1.0
    try:
        return math.expm1(doubling * rate_r * math.log(2.0))
    except OverflowError:
        return math.inf


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
