"""Monte Carlo estimation of outage in the radial form of the PPP model.

The SINR of the typical user at the origin depends only on its distances to
the BSs and to the uplink users.  The mapping u = lam*pi*r^2 turns a planar
PPP of density lam into a unit-rate PPP on the half-line, so each trial's
points are drawn directly in increasing order of u, as cumulative sums of
standard-exponential gaps.  The serving BS is the first point.  Past a
trial's last drawn point u_K a process is again a unit-rate PPP, so the
interference beyond it counts by its mean (Campbell's theorem).

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
read chunk-major, CHUNK columns per row at a time, whatever the window, so
a trial is a pure function of (seed, i): estimates are bitwise identical for
any worker count, and a trial's points at one window are a prefix of its
points at any wider window.
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
    "simulate_sinr",
    "estimate_outage",
]

BLOCK = 16    # trials per realization
CHUNK = 128   # points per row in a chunk; one call draws all of a stream's chunks


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
    draws: k*CHUNK with k = ceil(W^2/CHUNK), at least W^2, the mean count in
    the disk of radius W/sqrt(lam*pi).  The points beyond count by their
    mean, so W trades only variance for time: every W up to 11.3 draws 128
    points, and windows 8, 12 and 30 differ by at most 0.02 stderr (seed 5,
    40 000 trials, alpha from 2.2 to 4).
    """

    trials: int = 100_000
    window_factor: float = 8.0
    seed: int = 1
    mode: SimMode = SimMode.MATCHED

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        # an infinite window has no finite draw, and NaN fails both comparisons
        if not 5 <= self.window_factor < math.inf:
            raise ValueError("window_factor must be finite and >= 5, got "
                             f"{self.window_factor}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass
class NetworkRealization:
    """A block of network snapshots in radial form, one trial per row.

    Positions are u = lam*pi*r^2, increasing along each row, so column 0 of
    bs_u is the serving BS; column 0 of bs_fadings, its fading, is drawn but
    not read.  The users of three-node and physical two-node are user_u;
    matched two-node users are user_u + v_rho[:, None], a PPP outside the
    exclusion disk, with the same fadings.  Half-duplex sees no users.
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
    with one v_rho = lam*pi*rho^2 ~ Exp(1) per row, then the users cumulated
    from 0, so its points do not depend on the scenarios.  v_rho is kept in
    matched mode only.
    """
    # both streams' draws and rows in one allocation per block: glibc maps
    # the first, and freeing it raises its trim threshold to twice the size,
    # so the heap keeps the block's memory for the next block.  Draws and
    # copies allocated one by one were trimmed and faulted back in, at
    # 25 000-98 000 minor faults a second in the benchmark's worker.
    buf = np.empty((2, 4, BLOCK, math.ceil(sim.window_factor ** 2 / CHUNK) * CHUNK))
    bs_u, bs_fadings = _points(_stream(sim.seed, block_index, 0), buf[0])
    user_u = user_fadings = np.empty((BLOCK, 0))
    v_rho = None
    if set(scenarios) - {Scenario.HALF_DUPLEX}:
        rng = _stream(sim.seed, block_index, 1)
        v_rho = rng.standard_exponential(BLOCK)
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
            i_up = _interference(real.user_u + real.v_rho[:, None],
                                 real.user_fadings, a2)
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
    # at tiny densities the scales are huge and some products overflow: an
    # infinite exponent or denominator is the right limit
    with np.errstate(over="ignore"):
        t_over_s = threshold / signal
        covered = np.exp(-t_over_s * (noise + i_bs + gain_u * i_up))
        if loop and scenario is Scenario.TWO_NODE_FD:
            covered /= 1.0 + t_over_s * loop
    outage = 1.0 - covered
    return OutageEstimate(float(outage.mean()), Method.MONTE_CARLO,
                          float(outage.std() / math.sqrt(outage.size)), meta)


def _stream(seed: int, block_index: int, which: int) -> np.random.Generator:
    """SFC64 stream `which` of a block, 0 for the BSs and 1 for the users,
    seeded by SeedSequence(seed, spawn_key=(block_index, which)).  The
    sequence hashes the seed's 32-bit words, padded to four, then the key's,
    so a seed's high word, the block and the stream all change the state."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        int(seed), spawn_key=(int(block_index), which))))


def _points(rng: np.random.Generator, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest k*CHUNK points of a unit-rate PPP on (0, inf) per row in
    increasing order, and the unit-mean exponential fadings of its points.

    buf, (4, BLOCK, k*CHUNK), takes the draw of k chunks in one call, then
    the fadings and the cumulated gaps in rows."""
    k = buf.shape[2] // CHUNK
    drawn = rng.standard_exponential(out=buf[:2].reshape(k, 2, BLOCK, CHUNK))
    fadings, u = buf[2], buf[3]
    fadings.reshape(BLOCK, k, CHUNK)[...] = drawn[:, 1].transpose(1, 0, 2)
    u.reshape(BLOCK, k, CHUNK)[...] = drawn[:, 0].transpose(1, 0, 2)
    np.cumsum(u, axis=1, out=u)
    return u, fadings


def _interference(u: np.ndarray, fadings: np.ndarray, half_alpha: float) -> np.ndarray:
    """Per-row sum of fading * u^(-half_alpha) over the drawn points, plus
    u_K^(1-half_alpha)/(half_alpha-1), the mean of that sum over the
    unit-rate PPP beyond the row's last point u_K."""
    terms = u ** -half_alpha
    terms *= fadings
    return terms.sum(axis=1) + u[:, -1] ** (1.0 - half_alpha) / (half_alpha - 1.0)
