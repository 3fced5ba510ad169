"""Monte Carlo estimation of outage in the radial form of the PPP model.

The SINR of the typical user at the origin depends only on its distances to
the BSs and to the uplink users.  The mapping u = lam*pi*r^2 turns a planar
PPP of density lam into a unit-rate PPP on the half-line, so each trial's
points are drawn directly in increasing order of u, as cumulative sums of
Exp(1) gaps, drawn by inversion like the fadings.  The serving BS is the
first point.  Past a trial's last drawn point u_K a process is again a
unit-rate PPP, so the interference beyond it counts by its mean (Campbell's
theorem).

A realization depends on no NetworkParams field (fadings have mean 1) and
serves every scenario: it holds one user process cumulated from 0 and the
exclusion v_rho, and matched two-node users are those points shifted by
v_rho.  Each block is reduced once to per-trial SINR parts at unit density
and unit powers, which :func:`estimate_outage` averages over the serving
fading and the loop gain (conditional Monte Carlo) at any parameters with
the same path-loss exponents.

Trials are drawn in blocks of BLOCK.  Block b comes from two SFC64 streams
seeded by SeedSequence(seed, spawn_key=(b, 0)) for the BSs and (b, 1) for
the users, and trial i is row i % BLOCK of block i // BLOCK.  A stream is
read point-major: each point's gaps, then its fadings, for all BLOCK rows,
whatever the window.  So a trial is a pure function of (seed, i): estimates
are bitwise identical for any worker count on one machine and numpy build,
and a trial's points at one window are a prefix of its points at any wider
window.  Across CPUs numpy's vectorised log may move a draw's last bit.

Past the draw itself, the two kernels are laid out for speed with the bits
of the plain formulas.  Positions are cumulated over the gaps viewed as
complex numbers, two rows to an element: a complex add is two float64 adds,
so each row gets the same adds in the same order, in half as many serial
steps.  At alpha = 4 an interference sum forms each product as (r*r)*h, the
reciprocal squared and then times its fading, inside one einsum, without
writing the squares first.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Method, NetworkParams, OutageEstimate, Scenario, threshold_from_rate

__all__ = [
    "BLOCK",
    "SimMode",
    "SimConfig",
    "NetworkRealization",
    "sample_realization",
    "sinr_of_realization",
    "simulate_sinr",
    "estimate_outage",
]

log = logging.getLogger(__name__)

BLOCK = 64    # trials per realization


class SimMode(Enum):
    """How the uplink interferer process is realized.

    MATCHED reproduces the construction behind the analytic two-node
    expression: the exclusion radius rho is drawn from the nearest-neighbor
    distance law and interfering users form a PPP restricted outside the disk
    b(o, rho).  PHYSICAL realizes plain independent PPPs for BSs and users.
    The two coincide for the three-node and half-duplex scenarios, where the
    analysis uses the unrestricted process.
    """

    MATCHED = "matched"
    PHYSICAL = "physical"


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo window, trial count, seed and realization mode.

    window_factor W sets how many nearest points of each process a trial
    draws: ceil(W^2), the mean count in the disk of radius W/sqrt(lam*pi).
    The points beyond count by their mean, which leaves out their variance
    and brings a small Jensen bias, so W trades both for time: a trial's
    cost grows about as W^2.  W is at most 128, where a block's buffer of
    4*BLOCK*ceil(W^2) doubles takes 33.5 MB.
    """

    trials: int = 100_000
    window_factor: float = 8.0
    seed: int = 1
    mode: SimMode = SimMode.MATCHED

    def __post_init__(self) -> None:
        # a float trials or seed would fail in range() or truncate silently
        if not (isinstance(self.trials, numbers.Integral) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        # NaN fails both comparisons
        if not 5 <= self.window_factor <= 128:
            raise ValueError("window_factor must be in [5, 128], got "
                             f"{self.window_factor}")
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


@dataclass
class NetworkRealization:
    """A block of network snapshots in radial form, one trial per row.

    Positions are u = lam*pi*r^2, increasing along each row, so column 0 of
    bs_u is the serving BS; column 0 of bs_fadings, its fading, is drawn but
    not read.  Gaps and fadings are Exp(1), drawn as -log(1 - U).  The
    users of three-node and physical two-node are user_u; matched two-node
    users are user_u + v_rho[:, None], a PPP outside the exclusion disk,
    with the same fadings.  Half-duplex sees no users.
    The four arrays are transposed views of one (2, n, 2, BLOCK) buffer per
    block, the BSs' stream in half 0 and the users' in half 1.
    """

    bs_u: np.ndarray             # (rows, n) BS positions
    bs_fadings: np.ndarray       # (rows, n) unit-mean fading of each BS link
    user_u: np.ndarray           # (rows, m) users cumulated from 0; m = 0 if only half-duplex
    user_fadings: np.ndarray     # (rows, m) unit-mean fading of each user link
    v_rho: np.ndarray | None     # (rows,) matched exclusion lam*pi*rho^2; None in physical mode
    scenarios: tuple[Scenario, ...]  # the scenarios the block serves
    resampled: int = 0           # zero-BS redraws: 0 by construction, a first BS always exists


def sample_realization(scenarios: tuple[Scenario, ...], sim: SimConfig,
                       block_index: int) -> NetworkRealization:
    """Draw trials BLOCK*block_index ... BLOCK*(block_index+1)-1 once for
    all of `scenarios`.

    The user stream is drawn unless only half-duplex is asked for.  It begins
    with one v_rho = lam*pi*rho^2 ~ Exp(1) per row, drawn as the gaps are,
    then the users cumulated from 0, so its points do not depend on the
    scenarios.  v_rho is kept in matched mode only.
    """
    # both streams in one allocation per block: glibc maps the first, and
    # freeing it raises its trim threshold to twice the size, so the heap
    # keeps the block's memory for the next block.  One buffer per stream
    # was trimmed and faulted back in: 20 600 minor faults per 2000-trial
    # simulation at window 30, about 130 000 a second, against none.
    buf = np.empty((2, math.ceil(sim.window_factor ** 2), 2, BLOCK))
    bs_u, bs_fadings = _points(_stream(sim.seed, block_index, 0), buf[0])
    user_u = user_fadings = np.empty((BLOCK, 0))
    v_rho = None
    if set(scenarios) - {Scenario.HALF_DUPLEX}:
        rng = _stream(sim.seed, block_index, 1)
        v_rho = _exponentials(rng, np.empty(BLOCK))
        user_u, user_fadings = _points(rng, buf[1])
        if sim.mode is SimMode.PHYSICAL:
            v_rho = None
    return NetworkRealization(bs_u, bs_fadings, user_u, user_fadings, v_rho,
                              tuple(scenarios))


def sinr_of_realization(real: NetworkRealization,
                        params: NetworkParams) -> dict[Scenario, np.ndarray]:
    """Per-trial SINR parts of a block at unit density and powers for each of
    its scenarios, shape (3, rows): S = u0^(-alpha1/2) without the serving
    fading, I_b = sum(h*u^(-alpha1/2)) and I_u = sum(k*u^(-alpha2/2)) over
    the scenario's users (0 for half-duplex), each sum with its far-field
    mean.  Only params.alpha1 and params.alpha2 are read."""
    a1, a2 = params.alpha1 / 2.0, params.alpha2 / 2.0
    signal = real.bs_u[:, 0] ** -a1
    i_bs = _interference(real.bs_u[:, 1:], real.bs_fadings[:, 1:], a1)
    no_users = np.zeros(len(signal))
    plain = None
    parts = {}
    for scenario in real.scenarios:
        if scenario is Scenario.HALF_DUPLEX:
            i_up = no_users
        elif scenario is Scenario.TWO_NODE_FD and real.v_rho is not None:
            # the shifted users are a temporary, reduced in place and freed
            # on return: one position-sized array at a time
            i_up = _interference(real.user_u + real.v_rho[:, None],
                                 real.user_fadings, a2, overwrite_u=True)
        else:
            if plain is None:
                plain = _interference(real.user_u, real.user_fadings, a2)
            i_up = plain
        parts[scenario] = np.stack((signal, i_bs, i_up))
    return parts


def simulate_sinr(params: NetworkParams, scenarios: tuple[Scenario, ...],
                  sim: SimConfig, workers: int = 1) -> dict[Scenario, np.ndarray]:
    """SINR parts (see :func:`sinr_of_realization`) of sim.trials trials of
    each scenario, in trial order.  Workers map over blocks, and each block
    is a pure function of (seed, block index), so the result is identical for
    any worker count; the pool has at most one thread per CPU and per block.
    Logs the draw, its rate and its sampling and reduction time, each summed
    over blocks, at DEBUG."""

    def run_block(block_index: int) -> tuple[dict[Scenario, np.ndarray], float, float]:
        t0 = time.perf_counter()
        real = sample_realization(scenarios, sim, block_index)
        t1 = time.perf_counter()
        parts = sinr_of_realization(real, params)
        return parts, t1 - t0, time.perf_counter() - t1

    t0 = time.perf_counter()
    blocks = range(-(-sim.trials // BLOCK))
    workers = min(workers, os.cpu_count() or 1, len(blocks))
    if workers <= 1:
        done = [run_block(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_block, blocks))
    block_parts, sampling, reduction = zip(*done)
    parts = {s: np.concatenate([p[s] for p in block_parts], axis=1)[:, :sim.trials]
             for s in scenarios}
    wall = time.perf_counter() - t0
    log.debug("%d trials of %s: %d points per process and trial, %.1f ms, "
              "%.0f trials/s; sampling %.1f ms, reduction %.1f ms",
              sim.trials, ",".join(s.value for s in scenarios),
              math.ceil(sim.window_factor ** 2), wall * 1e3, sim.trials / wall,
              sum(sampling) * 1e3, sum(reduction) * 1e3)
    return parts


def estimate_outage(params: NetworkParams, scenario: Scenario, rate_r: float,
                    sim: SimConfig, workers: int = 1,
                    parts: np.ndarray | None = None) -> OutageEstimate:
    """Mean over the trials of P(SINR < T | parts), with the sample standard
    deviation over sqrt(trials) as the standard error.  The SINR is
    h0*S/(D + loop*L), D = noise + I_b + gain_u*I_u on the scales of
    :meth:`NetworkParams.sinr_scales`, the loop term two-node only; h0 and L
    are Exp(1), so that probability is 1 - exp(-T*D/S)/(1 + T*loop/S).
    `parts`, the scenario's entry of :func:`simulate_sinr` at the same sim
    and path-loss exponents, reuse one simulation."""
    meta = {"trials": sim.trials, "seed": sim.seed, "mode": sim.mode.value}
    threshold = threshold_from_rate(rate_r, scenario)
    if threshold == 0.0 or threshold == math.inf:
        return OutageEstimate(0.0 if threshold == 0.0 else 1.0,
                              Method.MONTE_CARLO, 0.0, meta)
    if parts is None:
        parts = simulate_sinr(params, (scenario,), sim, workers)[scenario]
    signal, i_bs, i_up = parts
    gain_u, noise, loop = params.sinr_scales()
    # -(T/S)*((noise + I_b) + gain_u*I_u) in one fresh array, the same bits
    # as the plain formula: its sums, products and negation only commute.
    # At tiny densities the scales are huge and some products overflow: an
    # infinite exponent or denominator is the right limit
    with np.errstate(over="ignore"):
        minus_t_over_s = -threshold / signal
        covered = np.multiply(gain_u, i_up)
        covered += i_bs + noise if noise else i_bs
        covered *= minus_t_over_s
        np.exp(covered, out=covered)
        if loop and scenario is Scenario.TWO_NODE_FD:
            covered /= 1.0 - minus_t_over_s * loop
    # outage = 1 - covered has the std of covered
    mean = covered.mean()
    covered -= mean
    return OutageEstimate(float(1.0 - mean), Method.MONTE_CARLO,
                          math.sqrt(covered @ covered) / covered.size, meta)


def _stream(seed: int, block_index: int, which: int) -> np.random.Generator:
    """SFC64 stream `which` of a block, 0 for the BSs and 1 for the users,
    seeded by SeedSequence(seed, spawn_key=(block_index, which)).  The
    sequence hashes the seed's 32-bit words, padded to four, then the key's,
    so a seed's high word, the block and the stream all change the state."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        int(seed), spawn_key=(int(block_index), which))))


def _points(rng: np.random.Generator,
            out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest n points of a unit-rate PPP on (0, inf) per row in
    increasing order, and the unit-mean exponential fadings of its points,
    as (BLOCK, n) views of out.

    out, (n, 2, BLOCK), takes the draw in one call to random(), point-major:
    point j's gaps and fadings for every row follow point j-1's.  The draw
    becomes Exp(1) in place, and the gaps are then cumulated along the
    points in place.

    The cumulative sum is one serial chain of adds per row, each waiting on
    the one before.  It runs on the gaps viewed as complex, each element two
    adjacent rows' gaps at one point (so BLOCK must be even): a complex add
    adds its real and imaginary parts separately, so every row gets the same
    float64 adds in the same order, the same bits, in half as many steps."""
    _exponentials(rng, out)
    gaps = out[:, 0].view(np.complex128)
    np.cumsum(gaps, axis=0, out=gaps)
    return out[:, 0].T, out[:, 1].T


def _exponentials(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with Exp(1) draws by inversion, -log(1 - U) for U uniform
    on [0, 1), in place.  1 - U is exact and in (0, 1], so every draw is
    finite, at most 53*ln(2).  numpy's log is vectorised; its ziggurat
    exponential sampler is scalar."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    return np.negative(out, out=out)


def _interference(u: np.ndarray, fadings: np.ndarray, half_alpha: float,
                  overwrite_u: bool = False) -> np.ndarray:
    """Per-row sum of fading * u^(-half_alpha) over the drawn points, plus
    u_K^(1-half_alpha)/(half_alpha-1), the mean of that sum over the
    unit-rate PPP beyond the row's last point u_K.  With overwrite_u, u is
    the caller's temporary and takes the reciprocals in place."""
    far = u[:, -1] ** (1.0 - half_alpha) / (half_alpha - 1.0)
    terms = np.reciprocal(u, out=u if overwrite_u else None)
    # each einsum adds a row's products in point order and writes no
    # product array.  At alpha = 4 its first product is the square, (r*r)*h,
    # the bits of r**2.0 (a square in numpy) times h with no pass writing r^2
    if half_alpha == 2.0:
        near = np.einsum("ij,ij,ij->i", terms, terms, fadings)
    else:
        terms **= half_alpha
        near = np.einsum("ij,ij->i", terms, fadings)
    return near + far
