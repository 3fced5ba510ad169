"""Monte Carlo estimation of outage by direct realization of the PPP model.

Every trial draws its randomness from a counter-based Philox stream keyed by
(seed, trial_index), so a trial's realization is a pure function of those two
integers: estimates are bitwise reproducible no matter how trials are ordered
or distributed across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import Method, NetworkParams, OutageEstimate, Scenario, threshold_from_rate

__all__ = [
    "SimMode",
    "SimConfig",
    "NetworkRealization",
    "trial_rng",
    "window_radius",
    "sample_realization",
    "sinr_of_realization",
    "simulate_sinr",
    "estimate_outage",
]


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

    The simulation disk radius is window_factor / sqrt(lam*pi), i.e. the
    window is measured in multiples of the mean nearest-neighbor distance so
    truncation bias stays below the Monte Carlo noise (window_factor >= 5).
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
    """One network snapshot: point positions, fadings and the residual loop
    gain, with the serving distance cached."""

    bs_points: np.ndarray        # (n, 2) BS coordinates
    user_points: np.ndarray      # (m, 2) uplink user coordinates
    serving_distance: float      # distance to the nearest BS
    serving_fading: float        # h on the serving link
    bs_fadings: np.ndarray       # g_i, aligned with bs_points
    user_fadings: np.ndarray     # k_j, aligned with user_points
    li_gain: float               # residual loop channel gain h_l
    resampled: int = 0           # zero-BS redraws before this realization


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial: Philox keyed directly
    by the 128-bit concatenation of trial index and seed."""
    key = (int(trial_index) << 64) | int(seed)
    return np.random.Generator(np.random.Philox(key=key))


def window_radius(params: NetworkParams, sim: SimConfig) -> float:
    return sim.window_factor / math.sqrt(params.lam * math.pi)


def sample_realization(params: NetworkParams, scenario: Scenario,
                       sim: SimConfig, trial_index: int) -> NetworkRealization:
    """Draw one network realization on the simulation disk.

    BS count is Poisson with mean lam*pi*R^2 and positions uniform on the
    disk; a zero-BS draw is repeated (negligible probability at the default
    window) and counted.  Users are omitted for half-duplex; for the matched
    two-node mode they form a PPP restricted outside the sampled exclusion
    disk.
    """
    rng = trial_rng(sim.seed, trial_index)
    radius = window_radius(params, sim)
    mean_count = params.lam * math.pi * radius * radius

    n_bs = rng.poisson(mean_count)
    resampled = 0
    while n_bs == 0:
        n_bs = rng.poisson(mean_count)
        resampled += 1
    bs_points = _uniform_disk(rng, n_bs, radius)
    serving_distance = float(np.hypot(bs_points[:, 0], bs_points[:, 1]).min())

    if scenario is Scenario.HALF_DUPLEX:
        user_points = np.empty((0, 2))
    elif scenario is Scenario.TWO_NODE_FD and sim.mode is SimMode.MATCHED:
        # exclusion radius from the nearest-neighbor law, then a PPP on the
        # annulus between it and the window edge (no point at rho itself)
        rho2 = rng.exponential(1.0 / (params.lam * math.pi))
        if rho2 >= radius * radius:
            user_points = np.empty((0, 2))
        else:
            area = math.pi * (radius * radius - rho2)
            n_users = rng.poisson(params.lam * area)
            radii = np.sqrt(rho2 + rng.random(n_users) * (radius * radius - rho2))
            user_points = _on_circles(rng, radii)
    else:
        n_users = rng.poisson(mean_count)
        user_points = _uniform_disk(rng, n_users, radius)

    fading_scale = 1.0 / params.mu
    serving_fading = float(rng.exponential(fading_scale))
    bs_fadings = rng.exponential(fading_scale, n_bs)
    user_fadings = rng.exponential(fading_scale, len(user_points))
    li_gain = 0.0
    if scenario is Scenario.TWO_NODE_FD and params.sigma_l2 > 0:
        li_gain = float(rng.exponential(params.sigma_l2))

    return NetworkRealization(bs_points, user_points, serving_distance,
                              serving_fading, bs_fadings, user_fadings,
                              li_gain, resampled)


def sinr_of_realization(real: NetworkRealization, params: NetworkParams,
                        scenario: Scenario) -> float:
    """SINR of the typical user at the origin for one realization:
    serving power over noise + loop residual + other-BS + uplink interference.
    """
    d_bs = np.hypot(real.bs_points[:, 0], real.bs_points[:, 1])
    serving = int(np.argmin(d_bs))
    signal = params.p_b * real.serving_fading * real.serving_distance ** -params.alpha1

    gains = real.bs_fadings * d_bs ** -params.alpha1
    i_bs = params.p_b * (gains.sum() - gains[serving])

    i_up = 0.0
    if len(real.user_points):
        d_u = np.hypot(real.user_points[:, 0], real.user_points[:, 1])
        i_up = params.p_u * float((real.user_fadings * d_u ** -params.alpha2).sum())

    i_loop = params.p_u * real.li_gain if scenario is Scenario.TWO_NODE_FD else 0.0

    denom = params.sigma_n2 + i_loop + i_bs + i_up
    if denom == 0.0:
        return math.inf
    return signal / denom


def simulate_sinr(params: NetworkParams, scenario: Scenario, sim: SimConfig,
                  workers: int = 1) -> np.ndarray:
    """SINR samples for sim.trials independent realizations, ordered by trial
    index.  The result is identical for any worker count because each trial is
    a pure function of (seed, trial_index)."""

    def run_block(bounds: tuple[int, int]) -> np.ndarray:
        lo, hi = bounds
        out = np.empty(hi - lo)
        for i in range(lo, hi):
            real = sample_realization(params, scenario, sim, i)
            out[i - lo] = sinr_of_realization(real, params, scenario)
        return out

    n = sim.trials
    if workers <= 1:
        return run_block((0, n))
    edges = np.linspace(0, n, workers * 4 + 1, dtype=int)
    blocks = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(run_block, blocks))
    return np.concatenate(parts)


def estimate_outage(params: NetworkParams, scenario: Scenario, rate_r: float,
                    sim: SimConfig, workers: int = 1,
                    sinr: np.ndarray | None = None) -> OutageEstimate:
    """Fraction of trials whose SINR falls below the rate's threshold, with
    the binomial standard error.

    A precomputed SINR sample array (from :func:`simulate_sinr` with the same
    params/scenario/sim) may be passed to amortize sampling across thresholds;
    realizations do not depend on the target rate.
    """
    threshold = threshold_from_rate(rate_r, scenario)
    if sinr is None:
        sinr = simulate_sinr(params, scenario, sim, workers)
    p = np.count_nonzero(sinr < threshold) / sim.trials
    stderr = math.sqrt(p * (1.0 - p) / sim.trials)
    meta = {"scenario": scenario.value, "rate": rate_r, "params": params.as_dict(),
            "trials": sim.trials, "seed": sim.seed, "mode": sim.mode.value}
    return OutageEstimate(p, Method.MONTE_CARLO, stderr, meta)


def _uniform_disk(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    radii = radius * np.sqrt(rng.random(n))
    return _on_circles(rng, radii)


def _on_circles(rng: np.random.Generator, radii: np.ndarray) -> np.ndarray:
    angles = rng.random(len(radii)) * (2.0 * math.pi)
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
