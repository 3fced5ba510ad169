"""Adaptive quadrature plumbing shared by the analytic and closed-form modules.

The polynomially-decaying interference integrals are evaluated in closed
form (:func:`fdcell.analytic.tail_integral`); what remains for quadrature are
exponentially- or Gaussian-weighted radial integrals, brought to finite
domains by truncation where the weight drops below ``tail_cut`` or by an
exact change of variable.  They are handed to QUADPACK's globally adaptive
Gauss-Kronrod scheme, which bisects the subinterval with the largest error
estimate until the tolerance is met.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from scipy import integrate as _sp_integrate

__all__ = ["QuadratureConfig", "QuadratureError", "integrate"]


class QuadratureError(ArithmeticError):
    """Raised when an adaptive integral cannot reach its requested tolerance.

    Carries the best value obtained and the achieved absolute error estimate so
    callers can decide whether to surface or retry with looser settings.
    """

    def __init__(self, message: str, value: float, achieved: float, requested: float):
        super().__init__(message)
        self.value = value
        self.achieved = achieved
        self.requested = requested


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation rules for the radial integrals.

    rel_tol_inner    -- relative tolerance for the integrals nested inside an
                        outage integral: the exclusion-radius average of the
                        two-node uplink transform and closedform.uplink_kernel;
                        kept 100x tighter than the outer one so inner error
                        never dominates the outer estimate
    rel_tol_outer    -- relative tolerance for the outermost radial integral
    tail_cut         -- epsilon at which Gaussian-weighted integrals are
                        truncated: at x = sqrt(ln(1/eps)) in the scaled
                        distance x = r*sqrt(lam*pi) of fdcell.analytic
    max_subdivisions -- adaptive refinement cap per integration level
    """

    rel_tol_inner: float = 1e-9
    rel_tol_outer: float = 1e-7
    tail_cut: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        for name in ("rel_tol_inner", "rel_tol_outer", "tail_cut"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def integrate(fn: Callable[[float], float], a: float, b: float,
              rel_tol: float, cfg: QuadratureConfig, abs_tol: float = 0.0) -> float:
    """Integrate fn over the finite interval [a, b] to a relative tolerance.

    Integrals known to be bounded by 1 (probabilities, Laplace factors) pass
    abs_tol = rel_tol: an absolute error of that size is what propagates
    through products of bounded factors, and it keeps negligible exponential
    tails from demanding unattainable relative precision.

    Raises QuadratureError when QUADPACK flags non-convergence and the
    achieved error estimate genuinely exceeds the request.
    """
    out = _sp_integrate.quad(fn, a, b, epsabs=abs_tol, epsrel=rel_tol,
                             limit=cfg.max_subdivisions, full_output=True)
    value, abserr = out[0], out[1]
    requested = max(abs_tol, rel_tol * abs(value))
    if len(out) > 3 and abserr > requested:
        raise QuadratureError(
            f"quadrature did not converge on [{a:g}, {b:g}] (achieved "
            f"{abserr:g}, requested {requested:g}): {out[3]}",
            value=value, achieved=abserr, requested=requested,
        )
    return value
