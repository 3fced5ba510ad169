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
batch of outer nodes in one call, as :func:`exclusion_average` does for
both two-node routes, each with its own kernel.  Calls are capped at four
whole subintervals, so the arrays of such a nested integral stay under the
allocator's threshold for serving them from the heap.  One call of that
inner integrand on n nodes for m scales allocates, beyond the kernel's own
arrays of n, a (3, n) array of its rows [w; 1; t + kappa(t)] and one (n, m)
array: the exponent, a single matrix product with the (3, m) rows
[1; ln s; -s] made once per group of scales, which exp overwrites in
place.  A round of :func:`integrate` keeps the subintervals' ends in one
(2, subintervals) array and their estimates and errors in one (2,
subintervals, columns) array, which one product with the Kronrod weights
and their differences from the Gauss weights fills.

:class:`QuadratureConfig` has one field, ``rel_tol_outer``: the inner
tolerance and ``tail_cut`` follow from it; the subdivision cap is fixed.

Inside :func:`inner_integral_memo`, which :func:`fdcell.sweep.sweep_rows`
opens for every sweep, :func:`exclusion_average` computes each inner
integral once: a call with the same kernel, kernel arguments, settings and
scales returns the stored :class:`Integral`, whose value does not depend on
the loop gain, so a sweep point's loop levels share it.  Each scope has its
own functools.lru_cache, in a ContextVar that keeps it to its own thread or
context.  Outside a scope the same function computes each call and nothing
is stored.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["Integral", "QuadratureConfig", "QuadratureError",
           "exclusion_average", "inner_integral_memo", "integrate"]


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
    """Accuracy of the radial integrals: rel_tol_outer sets it all.

    rel_tol_outer -- relative tolerance of the outermost radial integral, in
                     [100*eps, 1) for the double epsilon eps, so that
                     rel_tol_inner is at least eps
    rel_tol_inner -- read-only, 1e-2 * rel_tol_outer: the tolerance of
                     exclusion_average, nested inside a two-node outage
                     integral, so inner error never dominates the outer
    tail_cut      -- read-only, 1e-5 * rel_tol_outer: the epsilon at which
                     Gaussian-weighted integrals are truncated, at
                     x = sqrt(ln(1/eps)) in the scaled distance
                     x = r*sqrt(lam*pi) of the outage integrals;
                     exclusion_average cuts a head and a tail of at most
                     eps each
    Both budgets are products: the default 1e-7 gives exactly 1e-9, 1e-12.
    """

    rel_tol_outer: float = 1e-7
    rel_tol_inner = property(lambda self: 1e-2 * self.rel_tol_outer)
    tail_cut = property(lambda self: 1e-5 * self.rel_tol_outer)

    def __post_init__(self) -> None:
        if not _MIN_TOL <= self.rel_tol_outer < 1.0:
            raise ValueError(f"rel_tol_outer must be in [{_MIN_TOL:.6g}, 1), "
                             f"got {self.rel_tol_outer}")


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
# on the 21 nodes, row 0 the Kronrod weights and row 1 their difference from
# the Gauss weights: one product gives the estimate and its error
_WEIGHTS = np.zeros((2, 21))
_WEIGHTS[:] = np.concatenate((_WK[:-1], _WK[::-1]))
_WEIGHTS[1, 1:10:2] -= _WG
_WEIGHTS[1, 11:20:2] -= _WG[::-1]
# Rounds, not nodes, dominate the cost: a round is dozens of numpy calls on
# small arrays whatever its size.  So the first round cuts [a, b] into eight
# equal parts, which settles most single integrals of fdcell in one or two
# rounds, and a refinement cuts a subinterval into _PIECES: against
# bisection, four halve the rounds a small feature takes to resolve.
_PIECES = 4


def _pieces(n: int) -> np.ndarray:
    """The starts (row 0) and ends (row 1) of n equal parts of [0, 1], as
    fractions of a (2, 1, n) array."""
    cuts = np.linspace(0.0, 1.0, n + 1)
    return np.stack((cuts[:-1], cuts[1:]))[:, None, :]


_FIRST, _PARTS = _pieces(8), _pieces(_PIECES)
# the most subintervals of one integral; the two-node inner integrals at
# alpha1 500 or 1000 can need more at rel_tol_outer 2.3e-14, whose inner
# tolerance is about the double epsilon
_MAX_SUBDIVISIONS = 200
# the tightest rel_tol_outer: its inner tolerance is the double epsilon
_MIN_TOL = 100.0 * sys.float_info.epsilon
# nodes per call of the integrand, whole subintervals: in a nested integral
# the inner integrand's arrays of (inner nodes, outer nodes) then hold at
# most 84^2 doubles (56 kB), under glibc's 128 kB mmap threshold, so the
# allocator reuses them from round to round instead of faulting in new pages
_CALL_NODES = 4 * 21


def integrate(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              tol: float) -> Integral:
    """Integrate fn over the finite interval [a, b] to the tolerance tol.

    fn maps an array of n nodes to an array of n floats, or to an (n, m)
    array whose m columns are integrated together on shared subintervals.
    Column j is done when abserr[j] <= max(tol, tol*|value[j]|), where
    abserr is the sum over subintervals of |Kronrod - Gauss|.  After a
    first round on the eighths of [a, b], each round cuts into four, for
    every column short of its tolerance, the subintervals with the largest
    errors until the others hold at most half of it.

    tol is absolute below |value| = 1 and relative above: an absolute error
    is what propagates through products of the probabilities and Laplace
    factors fdcell integrates, all bounded by 1, and it spares negligible
    exponential tails a relative precision they cannot reach.

    Raises QuadratureError when the error estimate is not finite, or when a
    tolerance is still missed with _MAX_SUBDIVISIONS subintervals.
    """
    # the subintervals' starts (row 0) and ends (row 1), and for each the
    # Kronrod estimate (row 0) and its error (row 1) per column
    ends = _cut(np.array([[a], [b]], dtype=float), _FIRST)
    ke, shape = _rule(fn, ends[0], ends[1])
    evaluations = 21 * ends.shape[1]
    while True:
        value, abserr = ke.sum(axis=1)
        requested = np.maximum(tol, tol * abs(value))
        # a column whose error is NaN is unmet too
        unmet = ~(abserr <= requested)
        n_unmet = np.count_nonzero(unmet)
        if not n_unmet:
            return Integral(_shaped(value, shape), _shaped(abserr, shape),
                            evaluations)
        # subintervals that can still be cut, each cut adding _PIECES - 1
        room = (_MAX_SUBDIVISIONS - ends.shape[1]) // (_PIECES - 1)
        if room <= 0 or not abserr.max() < math.inf:
            worst = np.argmax(np.where(unmet, abserr / requested, 0.0))
            raise QuadratureError(
                f"quadrature did not converge on [{a:g}, {b:g}] with "
                f"{ends.shape[1]} subintervals (achieved {abserr[worst]:g}, "
                f"requested {requested[worst]:g})", _shaped(value, shape),
                achieved=float(abserr[worst]), requested=float(requested[worst]))
        # in ascending order of error, a subinterval is split once it and
        # the ones before it hold more than half of its column's tolerance
        scaled = ke[1] / requested if n_unmet == len(unmet) else \
            ke[1].compress(unmet, axis=1) / requested.compress(unmet)
        ascending = np.sort(scaled, axis=0)
        kept = np.count_nonzero(np.cumsum(ascending, axis=0) <= 0.5, axis=0)
        split = (scaled >= ascending[kept, np.arange(len(kept))]).any(axis=1)
        if np.count_nonzero(split) > room:
            chosen = np.flatnonzero(split)
            chosen = chosen[np.argsort(-scaled[chosen].max(axis=1))[:room]]
            split[:] = False
            split[chosen] = True
        new = _cut(ends.compress(split, axis=1), _PARTS)
        keep = ~split
        ends = np.concatenate((ends.compress(keep, axis=1), new), axis=1)
        ke = np.concatenate((ke.compress(keep, axis=1),
                             _rule(fn, new[0], new[1])[0]), axis=1)
        evaluations += 21 * new.shape[1]


# the most entries an inner-integral memo keeps, dropping the least recently
# used.  Rows come grid point by grid point, so a sweep reuses an entry soon:
# in every sweep of fig2-fig5, at most 3 other entries were used between two
# uses of one, so 4 would keep every reuse.  16 leaves room for sweeps whose
# rounds split further, at about 2 kB per entry of 84 scales.
_MEMO_SIZE = 16

_memo: contextvars.ContextVar[Callable | None] = contextvars.ContextVar(
    "fdcell_inner_memo", default=None)


@contextlib.contextmanager
def inner_integral_memo():
    """A scope in which exclusion_average computes each inner integral once
    per (kappa, args, cfg, s), compared by value, and hands out the stored
    Integral, its arrays read-only; yields the memo, a fresh lru_cache of
    _MEMO_SIZE entries, whose cache_info() counts computed calls as misses
    and reused ones as hits.  The memo is dropped on exit."""
    memo = functools.lru_cache(maxsize=_MEMO_SIZE)(_stored_integral)
    token = _memo.set(memo)
    try:
        yield memo
    finally:
        _memo.reset(token)


def exclusion_average(kappa: Callable[..., np.ndarray], s,
                      cfg: QuadratureConfig, *args) -> Integral:
    """g(s) = integral_0^inf s*exp(-s*(t + kappa(t))) dt for each s >= 0 (a
    float or an array): the two-node uplink factor averaged over the
    exclusion radius, E[exp(-s*kappa(V/s))] for the simulator's
    v_rho = V ~ Exp(1), for a kernel kappa(t, *args) >= 0 of an array t.

    Integrates in w = ln t, on one interval for all columns whose ln s
    spans at most _SPAN, [ln(tail_cut/s_max), ln(ln(1/tail_cut)/s_min)], so
    a round evaluates kappa once per node; columns of more widely spread
    scales are split into such groups, from the smallest s up, each on its
    own interval.  The interval cuts a head (s*t < tail_cut) and a tail
    (s*t > ln(1/tail_cut)) of at most tail_cut each, which abserr adds.
    Each column meets the tolerance cfg.rel_tol_inner.  s = inf gives 0
    and s = 0 gives 1 without quadrature, as does an s so small that the
    interval's end t = ln(1/tail_cut)/s would overflow (about 1e-307): for a
    bounded kernel 1 - g(s) <= s*max(kappa) is then far below any
    tolerance.  evaluations is 0 when no column needs quadrature.  The
    arrays returned are read-only.  Inside :func:`inner_integral_memo` an
    identical call returns the stored result; outside, nothing is stored.
    """
    s = np.asarray(s, dtype=float)
    return (_memo.get() or _stored_integral)(kappa, args, cfg, s.shape, s.tobytes())


# the e-folds of s that share one w-interval: in-range inputs stay inside
# it, and an interval this wide fits the default subdivision cap
_SPAN = 60.0


def _stored_integral(kappa, args: tuple, cfg: QuadratureConfig, shape: tuple,
                     scales: bytes) -> Integral:
    """exclusion_average computed for the scales s.tobytes(), its arrays
    read-only so that a memo may hand them out."""
    s = np.frombuffer(scales).reshape(shape)
    value = np.where(s == math.inf, 0.0, 1.0)
    abserr = np.zeros(s.shape)
    evaluations = 0
    tiny = math.log(1.0 / cfg.tail_cut) / sys.float_info.max
    rest = (s > tiny) & (s < math.inf)
    while rest.any():
        # the columns left within _SPAN e-folds of the smallest scale left
        group = rest & (s <= s[rest].min() * math.exp(_SPAN))
        # the exponent w + ln s - (t + kappa(t))*s of s*t*exp(-s*(t +
        # kappa(t))), as one exp since s*t alone may overflow: the product of
        # a call's rows [w; 1; t + kappa(t)] and these rows of the group
        sl = s[group]
        right = np.empty((3, sl.size))
        right[0] = 1.0
        log_s = np.log(sl, out=right[1])
        np.negative(sl, out=right[2])

        def integrand(w: np.ndarray) -> np.ndarray:
            left = np.empty((3, w.size))
            left[0] = w
            left[1] = 1.0
            np.exp(w, out=left[2])
            left[2] += kappa(left[2], *args)
            e = left.T @ right
            return np.exp(e, out=e)

        w_lo = math.log(cfg.tail_cut) - log_s.max()
        w_hi = math.log(math.log(1.0 / cfg.tail_cut)) - log_s.min()
        inner = integrate(integrand, w_lo, w_hi, cfg.rel_tol_inner)
        value[group] = inner.value
        abserr[group] = inner.abserr + 2.0 * cfg.tail_cut
        evaluations += inner.evaluations
        rest ^= group
    value.flags.writeable = abserr.flags.writeable = False
    return Integral(value[()], abserr[()], evaluations)


def _cut(ends: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """The subintervals from ends[0][i] to ends[1][i] cut at the fractions
    parts (see _pieces), as one (2, subintervals) array of starts and ends
    in the same layout; the cuts keep the ends exactly."""
    lo, hi = ends[0][:, None], ends[1]
    cuts = lo + (hi[:, None] - lo) * parts
    cuts[1, :, -1] = hi
    return cuts.reshape(2, -1)


def _rule(fn, lo: np.ndarray, hi: np.ndarray):
    """Kronrod estimates (row 0) and |Kronrod - Gauss| errors (row 1) of fn
    on the subintervals [lo[i], hi[i]], a (2, subintervals, columns) array,
    and the shape of one node's value."""
    half = 0.5 * (hi - lo)
    x = ((lo + half)[:, None] + half[:, None] * _NODES).ravel()
    f = fn(x) if x.size <= _CALL_NODES else np.concatenate(
        [fn(x[i:i + _CALL_NODES]) for i in range(0, x.size, _CALL_NODES)])
    ke = (_WEIGHTS @ f.reshape(len(lo), 21, -1)) * half[:, None, None]
    ke = ke.transpose(1, 0, 2)
    np.abs(ke[1], out=ke[1])
    return ke, f.shape[1:]


def _shaped(columns: np.ndarray, shape: tuple):
    """A float for a scalar integrand, the array of columns otherwise."""
    return float(columns[0]) if shape == () else columns.reshape(shape)
