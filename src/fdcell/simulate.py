"""Monte Carlo estimation of outage in the radial form of the PPP model.

The SINR of the typical user at the origin depends only on its distances to
the BSs and to the uplink users.  The mapping u = lam*pi*r^2 turns a planar
PPP of density lam into a unit-rate PPP on the half-line, so each trial's
points are drawn directly in increasing order of u, as cumulative sums of
standard-exponential gaps.  The serving BS is the first point; interference
counts the points with u <= window_factor^2.

A realization depends on no NetworkParams field: fadings and the loop gain
have mean 1.  Each block is reduced once to per-trial SINR parts at unit
density and unit powers, which :func:`sinr_at` rescales to any parameters
with the same path-loss exponents.

Trials are drawn in blocks of BLOCK.  Block b comes from two Philox streams
keyed by (seed, b), one for the BSs and one for the users, and trial i is row
i % BLOCK of block i // BLOCK.  The streams are read CHUNK columns at a time
whatever the window, so a trial is a pure function of (seed, i): estimates
are bitwise identical for any worker count, and a trial's points at one
window are a prefix of its points at any wider window.
"""

from __future__ import annotations

import math
import os
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
    "sinr_at",
    "simulate_sinr",
    "estimate_outage",
]

BLOCK = 16    # trials per realization
CHUNK = 128   # points drawn per row at a time; BLOCK x CHUNK doubles are 16 kB


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

    The simulation window is the disk of radius window_factor / sqrt(lam*pi),
    i.e. u <= window_factor^2 in the mapped variable u = lam*pi*r^2.  It is
    measured in multiples of the mean nearest-neighbor distance so that
    truncation bias stays below the Monte Carlo noise (window_factor >= 5).
    Fixed in u, it leaves the trials the same at every density.
    """

    trials: int = 100_000
    window_factor: float = 12.0
    seed: int = 1
    mode: SimMode = SimMode.MATCHED

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.window_factor < 5:
            raise ValueError(f"window_factor must be >= 5, got {self.window_factor}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass
class NetworkRealization:
    """A block of network snapshots in radial form, one trial per row.

    Positions are u = lam*pi*r^2, increasing along each row, so column 0 of
    bs_u is the serving BS and column 0 of bs_fadings its fading h.  Rows
    run past the window, because the streams are drawn in whole chunks; the
    SINR ignores the points beyond it.
    """

    bs_u: np.ndarray             # (rows, n) BS positions
    bs_fadings: np.ndarray       # (rows, n) unit-mean fading of each BS link
    user_u: np.ndarray           # (rows, m) uplink user positions; m = 0 for half-duplex
    user_fadings: np.ndarray     # (rows, m) unit-mean fading of each user link
    li_gain: np.ndarray          # (rows,) unit-mean residual loop gain, 0 off two-node
    window: float                # interference counts the points with u <= window
    resampled: int = 0           # zero-BS redraws: 0 by construction, a first BS always exists


def sample_realization(scenario: Scenario, sim: SimConfig,
                       block_index: int) -> NetworkRealization:
    """Draw trials BLOCK*block_index ... BLOCK*(block_index+1)-1.

    Users are omitted for half-duplex; for the matched two-node mode they
    start at v_rho = lam*pi*rho^2 ~ Exp(1), a PPP restricted outside the
    exclusion disk.  The user stream begins with one v_rho and one unit loop
    gain per row, whatever the scenario, so its points do not depend on it.
    """
    key = (int(block_index) << 64) | int(sim.seed)
    window = sim.window_factor ** 2
    bs_u, bs_fadings = _points(_stream(key, 0), np.zeros(BLOCK), window)
    li_gain = np.zeros(BLOCK)
    if scenario is Scenario.HALF_DUPLEX:
        user_u = user_fadings = np.empty((BLOCK, 0))
    else:
        rng = _stream(key, 1)
        v_rho, loop = rng.standard_exponential((2, BLOCK))
        matched = scenario is Scenario.TWO_NODE_FD and sim.mode is SimMode.MATCHED
        user_u, user_fadings = _points(rng, v_rho if matched else np.zeros(BLOCK),
                                       window)
        if scenario is Scenario.TWO_NODE_FD:
            li_gain = loop
    return NetworkRealization(bs_u, bs_fadings, user_u, user_fadings, li_gain, window)


def sinr_of_realization(real: NetworkRealization,
                        params: NetworkParams) -> np.ndarray:
    """Per-trial SINR parts of a block at unit density and powers, shape
    (4, rows): h0*u0^(-alpha1/2), sum(h*u^(-alpha1/2)), sum(k*u^(-alpha2/2))
    and the loop gain.  Only params.alpha1 and params.alpha2 are read."""
    a1 = params.alpha1 / 2.0
    signal = real.bs_fadings[:, 0] * real.bs_u[:, 0] ** -a1
    i_bs = _window_sum(real.bs_u[:, 1:], real.bs_fadings[:, 1:], real.window, a1)
    i_up = _window_sum(real.user_u, real.user_fadings, real.window,
                       params.alpha2 / 2.0)
    return np.stack((signal, i_bs, i_up, real.li_gain))


def sinr_at(parts: np.ndarray, params: NetworkParams) -> np.ndarray:
    """SINR at the origin from per-trial parts, on the scales of
    :meth:`NetworkParams.sinr_scales`."""
    signal, i_bs, i_up, loop = parts
    gain_u, noise, loop_scale = params.sinr_scales()
    with np.errstate(divide="ignore", over="ignore"):
        return signal / (noise + loop_scale * loop + i_bs + gain_u * i_up)


def simulate_sinr(params: NetworkParams, scenario: Scenario, sim: SimConfig,
                  workers: int = 1) -> np.ndarray:
    """SINR parts (see :func:`sinr_of_realization`) of sim.trials trials in
    trial order.  Workers map over blocks, and each block is a pure function
    of (seed, block index), so the result is identical for any worker count;
    the pool has at most one thread per CPU and per block."""

    def run_block(block_index: int) -> np.ndarray:
        real = sample_realization(scenario, sim, block_index)
        return sinr_of_realization(real, params)

    blocks = range(-(-sim.trials // BLOCK))
    workers = min(workers, os.cpu_count() or 1, len(blocks))
    if workers <= 1:
        parts = [run_block(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_block, blocks))
    return np.concatenate(parts, axis=1)[:, :sim.trials]


def estimate_outage(params: NetworkParams, scenario: Scenario, rate_r: float,
                    sim: SimConfig, workers: int = 1,
                    parts: np.ndarray | None = None) -> OutageEstimate:
    """Fraction of trials whose SINR falls below the rate's threshold, with
    the binomial standard error.  `parts` from :func:`simulate_sinr` at the
    same scenario, sim and path-loss exponents reuse one simulation."""
    threshold = threshold_from_rate(rate_r, scenario)
    if parts is None:
        parts = simulate_sinr(params, scenario, sim, workers)
    p = np.count_nonzero(sinr_at(parts, params) < threshold) / sim.trials
    stderr = math.sqrt(p * (1.0 - p) / sim.trials)
    meta = {"scenario": scenario.value, "rate": rate_r, "params": params.as_dict(),
            "trials": sim.trials, "seed": sim.seed, "mode": sim.mode.value}
    return OutageEstimate(p, Method.MONTE_CARLO, stderr, meta)


def _stream(key: int, which: int) -> np.random.Generator:
    """Philox stream `which` of a block: the counter's top word tells the BS
    (0) and user (1) streams apart."""
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, which]))


def _points(rng: np.random.Generator, start: np.ndarray,
            window: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit-rate PPP on (start, inf) per row, in increasing order, with
    unit-mean exponential fadings: CHUNK columns at a time until every row is
    past the window."""
    u_parts, fading_parts = [], []
    last = start
    while True:
        gaps, fadings = rng.standard_exponential((2, len(start), CHUNK))
        gaps[:, 0] += last
        u = np.cumsum(gaps, axis=1)
        u_parts.append(u)
        fading_parts.append(fadings)
        last = u[:, -1]
        if last.min() > window:
            break
    return np.concatenate(u_parts, axis=1), np.concatenate(fading_parts, axis=1)


def _window_sum(u: np.ndarray, fadings: np.ndarray, window: float,
                half_alpha: float) -> np.ndarray:
    """Per-row sum of fading * u^(-half_alpha) over the points with u <= window."""
    return np.where(u <= window, fadings * u ** -half_alpha, 0.0).sum(axis=1)
