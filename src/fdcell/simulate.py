"""Monte Carlo estimation of outage in the radial form of the PPP model.

The SINR of the typical user at the origin depends only on its distances to
the BSs and to the uplink users.  The mapping u = lam*pi*r^2 turns a planar
PPP of density lam into a unit-rate PPP on the half-line, so each trial's
points are drawn directly in increasing order of u, as cumulative sums of
standard-exponential gaps.  The serving BS is the first point; interference
counts the points with u <= window_factor^2.

A realization depends on no NetworkParams field (fadings and the loop gain
have mean 1) and serves every scenario: it holds one user process cumulated
from 0 and the exclusion v_rho, and matched two-node users are those points
shifted by v_rho.  Each block is reduced once to per-trial SINR parts at unit
density and unit powers, which :func:`sinr_at` rescales to any parameters
with the same path-loss exponents.

Trials are drawn in blocks of BLOCK.  Block b comes from two SFC64 streams
seeded by SeedSequence(seed, spawn_key=(b, 0)) for the BSs and (b, 1) for
the users, and trial i is row i % BLOCK of block i // BLOCK.  A stream is
read chunk-major, CHUNK columns per row at a time, whatever the window and
however many chunks one call draws, so a trial is a pure function of
(seed, i): estimates are bitwise identical for any worker count, and a
trial's points at one window are a prefix of its points at any wider window.
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
CHUNK = 128   # points per row in a chunk; one call draws several chunks of 16 kB


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
    i.e. u <= window_factor^2 in the mapped variable u = lam*pi*r^2.  The
    interference it drops has mean W^(2-alpha)/(alpha/2-1) per unit power at
    window_factor W: at alpha = 4, 40 000 trials at window 12 stay within 1.5
    stderr of the analytic outage, but at alpha = 2.5 even window 30 puts
    three-node outage 13 stderr low (seed 5, R = 0.1).  Fixed in u, the
    window leaves the trials the same at every density.
    """

    trials: int = 100_000
    window_factor: float = 12.0
    seed: int = 1
    mode: SimMode = SimMode.MATCHED

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        # an infinite window never closes, and NaN fails both comparisons
        if not 5 <= self.window_factor < math.inf:
            raise ValueError("window_factor must be finite and >= 5, got "
                             f"{self.window_factor}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass
class NetworkRealization:
    """A block of network snapshots in radial form, one trial per row.

    Positions are u = lam*pi*r^2, increasing along each row, so column 0 of
    bs_u is the serving BS and column 0 of bs_fadings its fading h.  The
    users of three-node and physical two-node are user_u; matched two-node
    users are user_u + v_rho[:, None], a PPP outside the exclusion disk, with
    the same fadings.  Half-duplex sees no users.  Rows run past the window,
    because the streams are drawn in whole chunks; the SINR ignores the
    points beyond it.
    """

    bs_u: np.ndarray             # (rows, n) BS positions
    bs_fadings: np.ndarray       # (rows, n) unit-mean fading of each BS link
    user_u: np.ndarray           # (rows, m) users cumulated from 0; m = 0 if only half-duplex
    user_fadings: np.ndarray     # (rows, m) unit-mean fading of each user link
    v_rho: np.ndarray | None     # (rows,) matched exclusion lam*pi*rho^2; None in physical mode
    li_gain: np.ndarray          # (rows,) unit-mean residual loop gain, read by two-node only
    window: float                # interference counts the points with u <= window
    scenarios: tuple[Scenario, ...]  # the scenarios the block serves
    resampled: int = 0           # zero-BS redraws: 0 by construction, a first BS always exists


def sample_realization(scenarios: tuple[Scenario, ...], sim: SimConfig,
                       block_index: int) -> NetworkRealization:
    """Draw trials BLOCK*block_index ... BLOCK*(block_index+1)-1 once for
    all of `scenarios`.

    The user stream is drawn unless only half-duplex is asked for.  It begins
    with one v_rho = lam*pi*rho^2 ~ Exp(1) and one unit loop gain per row,
    then the users cumulated from 0, so its points do not depend on the
    scenarios.  v_rho is kept in matched mode only.
    """
    window = sim.window_factor ** 2
    # both streams' draws and rows in one allocation per block: glibc maps
    # the first, and freeing it raises its trim threshold to twice the size,
    # so the heap keeps the block's memory for the next block.  Draws and
    # copies allocated one by one were trimmed and faulted back in, at
    # 25 000-98 000 minor faults a second in the benchmark's worker.
    buf = np.empty((2, 4, BLOCK, math.ceil(window / CHUNK) * CHUNK))
    bs_u, bs_fadings = _points(_stream(sim.seed, block_index, 0), window, buf[0])
    user_u = user_fadings = np.empty((BLOCK, 0))
    v_rho, li_gain = None, np.zeros(BLOCK)
    if set(scenarios) - {Scenario.HALF_DUPLEX}:
        rng = _stream(sim.seed, block_index, 1)
        v_rho, li_gain = rng.standard_exponential((2, BLOCK))
        user_u, user_fadings = _points(rng, window, buf[1])
        if sim.mode is SimMode.PHYSICAL:
            v_rho = None
    return NetworkRealization(bs_u, bs_fadings, user_u, user_fadings, v_rho,
                              li_gain, window, tuple(scenarios))


def sinr_of_realization(real: NetworkRealization,
                        params: NetworkParams) -> dict[Scenario, np.ndarray]:
    """Per-trial SINR parts of a block at unit density and powers for each of
    its scenarios, shape (4, rows): h0*u0^(-alpha1/2), sum(h*u^(-alpha1/2)),
    sum(k*u^(-alpha2/2)) over the scenario's users, and the loop gain, 0 off
    two-node.  Only params.alpha1 and params.alpha2 are read."""
    a1, a2 = params.alpha1 / 2.0, params.alpha2 / 2.0
    signal = real.bs_fadings[:, 0] * real.bs_u[:, 0] ** -a1
    i_bs = _window_sum(real.bs_u[:, 1:], real.bs_fadings[:, 1:], real.window, a1)
    no_loop = np.zeros(len(signal))
    plain = None
    parts = {}
    for scenario in real.scenarios:
        two_node = scenario is Scenario.TWO_NODE_FD
        if scenario is Scenario.HALF_DUPLEX:
            i_up = no_loop
        elif two_node and real.v_rho is not None:
            i_up = _window_sum(real.user_u + real.v_rho[:, None],
                               real.user_fadings, real.window, a2)
        else:
            if plain is None:
                plain = _window_sum(real.user_u, real.user_fadings, real.window, a2)
            i_up = plain
        parts[scenario] = np.stack(
            (signal, i_bs, i_up, real.li_gain if two_node else no_loop))
    return parts


def sinr_at(parts: np.ndarray, params: NetworkParams) -> np.ndarray:
    """SINR at the origin from per-trial parts, on the scales of
    :meth:`NetworkParams.sinr_scales`."""
    signal, i_bs, i_up, loop = parts
    gain_u, noise, loop_scale = params.sinr_scales()
    with np.errstate(divide="ignore", over="ignore"):
        return signal / (noise + loop_scale * loop + i_bs + gain_u * i_up)


def simulate_sinr(params: NetworkParams, scenarios: tuple[Scenario, ...],
                  sim: SimConfig, workers: int = 1) -> dict[Scenario, np.ndarray]:
    """SINR parts (see :func:`sinr_of_realization`) of sim.trials trials of
    each scenario, in trial order.  Workers map over blocks, and each block
    is a pure function of (seed, block index), so the result is identical for
    any worker count; the pool has at most one thread per CPU and per block."""

    def run_block(block_index: int) -> dict[Scenario, np.ndarray]:
        real = sample_realization(scenarios, sim, block_index)
        return sinr_of_realization(real, params)

    blocks = range(-(-sim.trials // BLOCK))
    workers = min(workers, os.cpu_count() or 1, len(blocks))
    if workers <= 1:
        parts = [run_block(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_block, blocks))
    return {s: np.concatenate([p[s] for p in parts], axis=1)[:, :sim.trials]
            for s in scenarios}


def estimate_outage(params: NetworkParams, scenario: Scenario, rate_r: float,
                    sim: SimConfig, workers: int = 1,
                    parts: np.ndarray | None = None) -> OutageEstimate:
    """Fraction of trials whose SINR falls below the rate's threshold, with
    the binomial standard error.  `parts`, the scenario's entry of
    :func:`simulate_sinr` at the same sim and path-loss exponents, reuse one
    simulation."""
    threshold = threshold_from_rate(rate_r, scenario)
    if parts is None:
        parts = simulate_sinr(params, (scenario,), sim, workers)[scenario]
    p = np.count_nonzero(sinr_at(parts, params) < threshold) / sim.trials
    stderr = math.sqrt(p * (1.0 - p) / sim.trials)
    return OutageEstimate(p, Method.MONTE_CARLO, stderr, {
        "trials": sim.trials, "seed": sim.seed, "mode": sim.mode.value})


def _stream(seed: int, block_index: int, which: int) -> np.random.Generator:
    """SFC64 stream `which` of a block, 0 for the BSs and 1 for the users,
    seeded by SeedSequence(seed, spawn_key=(block_index, which)).  The
    sequence hashes the seed's 32-bit words, padded to four, then the key's,
    so a seed's high word, the block and the stream all change the state."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        int(seed), spawn_key=(int(block_index), which))))


def _points(rng: np.random.Generator, window: float,
            buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-rate PPP on (0, inf) per row in increasing order, and the
    unit-mean exponential fadings of its points, both of the drawn width.

    buf, (4, BLOCK, k*CHUNK), takes the draw of k = ceil(window/CHUNK)
    chunks in one call (k*CHUNK is at least the mean number of points per
    row inside the window), then the fadings and the cumulated gaps in
    rows.  One more chunk is drawn while some row is still inside the
    window, so every row ends past it: the width is that of a chunk-by-chunk
    draw of at least k chunks."""
    k = buf.shape[2] // CHUNK
    drawn = rng.standard_exponential(out=buf[:2].reshape(k, 2, BLOCK, CHUNK))
    fadings, u = buf[2], buf[3]
    fadings.reshape(BLOCK, k, CHUNK)[...] = drawn[:, 1].transpose(1, 0, 2)
    u.reshape(BLOCK, k, CHUNK)[...] = drawn[:, 0].transpose(1, 0, 2)
    np.cumsum(u, axis=1, out=u)
    while (u[:, -1] <= window).any():
        gaps, more = rng.standard_exponential((2, BLOCK, CHUNK))
        gaps[:, 0] += u[:, -1]
        u = np.concatenate((u, np.cumsum(gaps, axis=1)), axis=1)
        fadings = np.concatenate((fadings, more), axis=1)
    return u, fadings


def _window_sum(u: np.ndarray, fadings: np.ndarray, window: float,
                half_alpha: float) -> np.ndarray:
    """Per-row sum of fading * u^(-half_alpha) over the points with u <= window;
    the power is taken only there."""
    terms = np.power(u, -half_alpha, out=np.zeros(u.shape), where=u <= window)
    terms *= fadings
    return terms.sum(axis=1)
