"""Globally adaptive Gauss-Kronrod quadrature with vectorised integrands.

The polynomially-decaying interference integrals are evaluated in closed
form (:func:`fdcell.analytic.tail_integral`); what remains for quadrature are
exponentially- or Gaussian-weighted radial integrals, brought to finite
domains by truncation where the weight drops below ``tail_cut`` or by an
exact change of variable.  :func:`integrate` applies the 21-point
Gauss-Kronrod rule of QUADPACK (Piessens et al., Springer 1983) to every
subinterval and refines the ones with the largest error estimates until the
tolerance is met.  Unlike QUADPACK it evaluates all nodes of all new
subintervals in one call of the integrand on an array, and the integrand may
return several columns, each integrated to its own tolerance on shared
subintervals: a nested integral evaluates its inner integrals for a whole
batch of outer nodes in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["Integral", "QuadratureConfig", "QuadratureError", "integrate"]


class QuadratureError(ArithmeticError):
    """Raised when an adaptive integral cannot reach its requested tolerance.

    Carries the best value obtained and the achieved absolute error estimate so
    callers can decide whether to surface or retry with looser settings.
    """

    def __init__(self, message: str, value, achieved: float, requested: float):
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
    max_subdivisions -- cap on the number of subintervals of one integral
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


class Integral(NamedTuple):
    """An integral's value and its error estimate (floats, or one entry per
    column of the integrand), and the number of nodes evaluated."""

    value: float | np.ndarray
    abserr: float | np.ndarray
    evaluations: int


# The 21-point Kronrod extension of the 10-point Gauss rule on [-1, 1]
# (QUADPACK's qk21): positive abscissae, the Gauss ones at odd positions,
# then the centre.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.concatenate((np.negative(_XK[:-1]), _XK[::-1]))
# row 0 the Kronrod weights, row 1 the Gauss weights, on the 21 nodes
_WEIGHTS = np.zeros((2, 21))
_WEIGHTS[0] = np.concatenate((_WK[:-1], _WK[::-1]))
_WEIGHTS[1, 1:10:2] = _WG
_WEIGHTS[1, 11:20:2] = _WG[::-1]
# Rounds, not nodes, dominate the cost: a round is some 60 numpy calls on
# small arrays whatever its size.  So the first round cuts [a, b] into eight
# equal parts, which settles most single integrals of fdcell in one or two
# rounds, and a refinement cuts a subinterval into _PIECES: against
# bisection, four halve the rounds a small feature takes to resolve.
_FIRST = np.linspace(0.0, 1.0, 9)
_PIECES = 4
_PARTS = np.linspace(0.0, 1.0, _PIECES + 1)
# nodes per call of the integrand: in a nested integral the inner
# integrand's array of (inner nodes, outer nodes) holds at most 336^2 values
# whatever max_subdivisions allows
_CALL_NODES = 16 * 21


def integrate(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              rel_tol: float, cfg: QuadratureConfig,
              abs_tol: float = 0.0) -> Integral:
    """Integrate fn over the finite interval [a, b] to a relative tolerance.

    fn maps an array of n nodes to n values, or to an (n, m) array whose m
    columns are integrated together on shared subintervals.  Column j is
    done when abserr[j] <= max(abs_tol, rel_tol*|value[j]|), where abserr is
    the sum over subintervals of |Kronrod - Gauss|.  After a first round on
    the eighths of [a, b], each round cuts into four, for every column short
    of its tolerance, the subintervals with the largest errors until the
    others hold at most half of it.

    Integrals known to be bounded by 1 (probabilities, Laplace factors) pass
    abs_tol = rel_tol: an absolute error of that size is what propagates
    through products of bounded factors, and it keeps negligible exponential
    tails from demanding unattainable relative precision.

    Raises QuadratureError when the error estimate is not finite, or when a
    tolerance is still missed with cfg.max_subdivisions subintervals.
    """
    first = _FIRST if cfg.max_subdivisions >= len(_FIRST) - 1 else \
        np.linspace(0.0, 1.0, cfg.max_subdivisions + 1)
    lo, hi = _cut(np.array([a], dtype=float), np.array([b], dtype=float), first)
    kron, err, shape = _rule(fn, lo, hi)
    evaluations = 21 * len(lo)
    while True:
        value, abserr = kron.sum(axis=0), err.sum(axis=0)
        requested = np.maximum(abs_tol, rel_tol * abs(value))
        unmet = ~(abserr <= requested)
        if not unmet.any():
            return Integral(_shaped(value, shape), _shaped(abserr, shape),
                            evaluations)
        # subintervals that can still be cut, each cut adding _PIECES - 1
        room = (cfg.max_subdivisions - len(lo)) // (_PIECES - 1)
        if room <= 0 or not np.isfinite(abserr).all():
            worst = np.argmax(np.where(unmet, abserr / requested, 0.0))
            raise QuadratureError(
                f"quadrature did not converge on [{a:g}, {b:g}] with "
                f"{len(lo)} subintervals (achieved {abserr[worst]:g}, "
                f"requested {requested[worst]:g})", _shaped(value, shape),
                achieved=float(abserr[worst]), requested=float(requested[worst]))
        # in ascending order of error, a subinterval is split once it and
        # the ones before it hold more than half of its column's tolerance
        scaled = err[:, unmet] / requested[unmet]
        ascending = np.sort(scaled, axis=0)
        kept = np.count_nonzero(np.cumsum(ascending, axis=0) <= 0.5, axis=0)
        split = (scaled >= ascending[kept, np.arange(len(kept))]).any(axis=1)
        chosen = np.flatnonzero(split)
        if len(chosen) > room:
            chosen = chosen[np.argsort(-scaled[chosen].max(axis=1))[:room]]
            split[:] = False
            split[chosen] = True
        new_lo, new_hi = _cut(lo[split], hi[split], _PARTS)
        k, e, _ = _rule(fn, new_lo, new_hi)
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        kron = np.concatenate((kron[keep], k))
        err = np.concatenate((err[keep], e))
        evaluations += 21 * len(new_lo)


def _cut(lo: np.ndarray, hi: np.ndarray, parts: np.ndarray):
    """The subintervals [lo[i], hi[i]] cut at the fractions parts, which run
    from 0 to 1, as arrays of ends; the cuts keep the ends exactly."""
    cuts = lo[:, None] + (hi - lo)[:, None] * parts
    cuts[:, -1] = hi
    return cuts[:, :-1].ravel(), cuts[:, 1:].ravel()


def _rule(fn, lo: np.ndarray, hi: np.ndarray):
    """Kronrod estimates and |Kronrod - Gauss| errors, (subintervals,
    columns) each, of fn on the subintervals [lo[i], hi[i]], and the shape
    of one node's value."""
    half = 0.5 * (hi - lo)
    x = ((lo + half)[:, None] + half[:, None] * _NODES).ravel()
    f = _call(fn, x) if x.size <= _CALL_NODES else np.concatenate(
        [_call(fn, x[i:i + _CALL_NODES]) for i in range(0, x.size, _CALL_NODES)])
    kg = (_WEIGHTS @ f.reshape(len(lo), 21, -1)) * half[:, None, None]
    return kg[:, 0], abs(kg[:, 0] - kg[:, 1]), f.shape[1:]


def _call(fn, x: np.ndarray) -> np.ndarray:
    """fn's values on the nodes x as floats, one row per node."""
    f = np.asarray(fn(x), dtype=float)
    return f if f.shape[:1] == x.shape else np.broadcast_to(f, x.shape + f.shape)


def _shaped(columns: np.ndarray, shape: tuple):
    """A float for a scalar integrand, the array of columns otherwise."""
    return float(columns[0]) if shape == () else columns.reshape(shape)
