import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fdcell import analytic, closedform, simulate
from fdcell.model import NetworkParams, Scenario, threshold_from_rate
from fdcell.quadrature import QuadratureConfig
from fdcell.simulate import (
    BLOCK,
    NetworkRealization,
    SimConfig,
    SimMode,
    estimate_outage,
    sample_realization,
    simulate_sinr,
    sinr_of_realization,
)

DEFAULTS = NetworkParams()
QUAD = QuadratureConfig()
# a hand-built row ends at a point this far out in u, with fading 0: the
# mean interference beyond it, SENTINEL^(1-alpha/2)/(alpha/2-1), is 1e-15
# per unit power at alpha = 4, far below every term a test compares
SENTINEL = 1e15


def make_realization(bs, users=(), g=None, k=None, lam=DEFAULTS.lam):
    """One-trial realization from distances for all three scenarios: bs[0]
    is the serving BS, g the fadings of the other BSs, k those of the users
    that two-node and three-node both see (no v_rho, as in physical mode).
    Each process ends with a point at u = SENTINEL with fading 0."""
    bs = np.asarray(bs, dtype=float)
    users = np.asarray(users, dtype=float)
    g = np.ones(len(bs) - 1) if g is None else np.asarray(g, dtype=float)
    k = np.ones(len(users)) if k is None else np.asarray(k, dtype=float)
    return NetworkRealization(
        bs_u=np.append(lam * math.pi * bs * bs, SENTINEL)[None, :],
        bs_fadings=np.concatenate(([1.0], g, [0.0]))[None, :],
        user_u=np.append(lam * math.pi * users * users, SENTINEL)[None, :],
        user_fadings=np.append(k, 0.0)[None, :],
        v_rho=None,
        scenarios=tuple(Scenario),
    )


def sinr(real, params, scenario=Scenario.TWO_NODE_FD):
    """SINR of a one-trial realization at unit serving fading and no loop
    gain, from its parts on the scales of NetworkParams.sinr_scales."""
    signal, i_bs, i_up = sinr_of_realization(real, params)[scenario][:, 0]
    gain_u, noise, _ = params.sinr_scales()
    return float(signal / (noise + i_bs + gain_u * i_up))


def outage_of(real, params, scenario, rate):
    """estimate_outage of a one-trial realization: the outage averaged over
    the serving fading and the loop gain alone."""
    parts = sinr_of_realization(real, params)[scenario]
    return estimate_outage(params, scenario, rate, SimConfig(trials=1),
                           parts=parts).value


def trial(scenario, sim, i):
    """Trial i of a simulation, all its drawn points:
    (bs_u, bs_fadings, user_u, user_fadings), matched users shifted."""
    real = sample_realization((scenario,), sim, i // BLOCK)
    row = i % BLOCK
    user_u = real.user_u[row]
    if scenario is Scenario.TWO_NODE_FD and real.v_rho is not None:
        user_u = user_u + real.v_rho[row]
    return (real.bs_u[row], real.bs_fadings[row], user_u,
            real.user_fadings[row])


def legacy_parts(params, scenario, sim, block_index):
    """A block's SINR parts as one scenario's own draw makes them, one point
    per call from its own SFC64 streams: the bitwise oracle of the shared
    draw of every point in one call.  Each stream draws exactly ceil(W^2)
    points, each point's gaps and then its fadings for all BLOCK rows, as
    Exp(1) by inversion, -log(1 - U); matched users are those points + v_rho.
    A sum adds the points in order, counts the points beyond a row's last
    one, u_K, by their mean u_K^(1-a)/(a-1), and takes u^-a as (1/u)^a, as
    the simulator does."""

    def points(rng):
        u, drawn = np.zeros(BLOCK), []
        for _ in range(math.ceil(sim.window_factor ** 2)):
            gaps, fadings = -np.log(1.0 - rng.random((2, BLOCK)))
            u = u + gaps
            drawn.append((u, fadings))
        return drawn

    def stream(which):
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            sim.seed, spawn_key=(block_index, which))))

    def interference(drawn, a):
        return (sum(fadings * (1.0 / u) ** a for u, fadings in drawn)
                + drawn[-1][0] ** (1.0 - a) / (a - 1.0))

    bs = points(stream(0))
    if scenario is Scenario.HALF_DUPLEX:
        i_up = np.zeros(BLOCK)
    else:
        rng = stream(1)
        v_rho = -np.log(1.0 - rng.random(BLOCK))
        users = points(rng)
        if scenario is Scenario.TWO_NODE_FD and sim.mode is SimMode.MATCHED:
            users = [(u + v_rho, fadings) for u, fadings in users]
        i_up = interference(users, params.alpha2 / 2.0)
    a1 = params.alpha1 / 2.0
    return np.stack((bs[0][0] ** -a1, interference(bs[1:], a1), i_up))


class TestSimConfig:
    def test_defaults(self):
        sim = SimConfig()
        assert sim.trials == 100_000 and sim.window_factor == 8.0
        assert sim.mode is SimMode.MATCHED

    @pytest.mark.parametrize("bad", [
        {"trials": 0}, {"window_factor": 4.0}, {"seed": -1}, {"seed": 2 ** 64},
        # a window that never closes would sample without end
        {"window_factor": math.nan}, {"window_factor": math.inf},
        # a finite window whose block buffer would not fit in memory
        {"window_factor": 128.5},
        # seed 1.5 would draw the trials of seed 1, and trials 1e5 would
        # fail in range() only at a rate that needs a draw
        {"seed": 1.5}, {"trials": 1e5},
    ])
    def test_validation(self, bad):
        # the message names the field
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            SimConfig(**bad)

    def test_window_bound(self):
        # only built, never sampled: the widest window's block buffer of
        # 4*BLOCK*128^2 doubles is 33.5 MB
        assert SimConfig(window_factor=128.0).window_factor == 128.0
        with pytest.raises(ValueError, match=r"window_factor must be in "
                           r"\[5, 128\], got 1e\+200"):
            SimConfig(window_factor=1e200)


class TestSampleRealization:
    SIM = SimConfig(trials=10, seed=123)

    def test_deterministic_per_trial(self):
        a = trial(Scenario.TWO_NODE_FD, self.SIM, 7)
        b = trial(Scenario.TWO_NODE_FD, self.SIM, 7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_trials_differ(self):
        a = trial(Scenario.TWO_NODE_FD, self.SIM, 0)
        for j in (1, BLOCK):  # same block, next block
            b = trial(Scenario.TWO_NODE_FD, self.SIM, j)
            assert len(a[0]) != len(b[0]) or not np.array_equal(a[0], b[0])
            assert len(a[2]) != len(b[2]) or not np.array_equal(a[2], b[2])

    def test_half_duplex_has_no_users(self):
        real = sample_realization((Scenario.HALF_DUPLEX,), self.SIM, 0)
        assert real.user_u.shape == (BLOCK, 0)
        assert real.user_fadings.shape == (BLOCK, 0)
        assert real.v_rho is None
        # drawn with the others, half-duplex still sees no users
        real = sample_realization(tuple(Scenario), self.SIM, 0)
        assert real.user_u.shape[1] > 0
        parts = sinr_of_realization(real, DEFAULTS)[Scenario.HALF_DUPLEX]
        assert np.all(parts[2] == 0.0)

    def test_serving_distance_is_minimum(self):
        # rows increase, so the first point of a row is its nearest BS
        real = sample_realization((Scenario.THREE_NODE_FD,), self.SIM, 0)
        user_u = real.user_u
        assert np.all(np.diff(real.bs_u, axis=1) > 0)
        assert np.all(np.diff(user_u, axis=1) > 0)
        assert np.array_equal(real.bs_u[:, 0], real.bs_u.min(axis=1))
        assert np.all(real.bs_u > 0) and np.all(user_u > 0)

    def test_mean_bs_count_matches_window(self):
        # lam*pi*R^2 = window_factor^2/2 = 32 at defaults: the mean number of
        # BSs with u = lam*pi*r^2 inside half the window's area; the 64 drawn
        # points hold them all but in a fraction 2e-7 of the rows
        sim = SimConfig(trials=2000, seed=11)
        mean_expected = sim.window_factor ** 2 / 2
        counts = np.concatenate([
            np.count_nonzero(real.bs_u <= mean_expected, axis=1) for real in (
                sample_realization((Scenario.HALF_DUPLEX,), sim, b)
                for b in range(2000 // BLOCK))])
        tol = 4.0 * math.sqrt(mean_expected / len(counts))
        assert abs(np.mean(counts) - mean_expected) < tol

    def test_matched_mode_keeps_disk_empty(self):
        # all matched-mode users lie beyond the physically possible positions
        # of a plain PPP arbitrarily close to the origin; check the hole is
        # statistically visible via the minimum user distance over trials
        sim = SimConfig(trials=400, seed=21)
        first_u = []
        for i in range(400):
            user_u = trial(Scenario.TWO_NODE_FD, sim, i)[2]
            if len(user_u):
                first_u.append(user_u[0])
        nearest = np.sqrt(np.array(first_u) / (DEFAULTS.lam * math.pi))
        # matched mode: nearest interferer at >= rho with rho ~ Rayleigh; the
        # chance of a single observation under 1.0 is lam*pi*1^2 ~ 3e-3 per
        # trial for the plain process but ~0 here
        assert min(nearest) > 0.5
        # in u the nearest user is v_rho + Exp(1), mean 2 and variance 2; the
        # plain process would give mean 1
        assert abs(np.mean(first_u) - 2.0) < 4.0 * math.sqrt(2.0 / len(first_u))

    def test_no_loop_gain_for_three_node(self):
        # on one block's parts the loop gain moves two-node outage only
        sim = SimConfig(trials=BLOCK, seed=123)
        parts = sinr_of_realization(sample_realization(tuple(Scenario), sim, 0),
                                    DEFAULTS)
        loud = DEFAULTS.replace(sigma_l2=1e-3)
        for scenario in Scenario:
            quiet, noisy = (estimate_outage(p, scenario, 1.0, sim,
                                            parts=parts[scenario]).value
                            for p in (DEFAULTS, loud))
            if scenario is Scenario.TWO_NODE_FD:
                assert noisy > quiet
            else:
                assert noisy == quiet

    def test_block_rows_share_one_buffer(self):
        # at window 30 (900 points) a block's four arrays are views of one
        # allocation no larger than both streams' gaps and fadings
        real = sample_realization(tuple(Scenario), SimConfig(
            trials=10, seed=5, window_factor=30.0), 0)
        arrays = (real.bs_u, real.bs_fadings, real.user_u, real.user_fadings)
        base = real.bs_u.base
        assert base is not None and all(a.base is base for a in arrays)
        assert base.nbytes <= 4 * BLOCK * 900 * 8

    @pytest.mark.parametrize("window_factor, points", [
        (5.0, 25), (8.0, 64), (10.3, 107), (11.3, 128), (12.0, 144),
        (24.0, 576), (30.0, 900)])
    def test_draws_ceil_window_squared_points(self, window_factor, points):
        # ceil(W^2) points per row and process, the mean count in the window
        real = sample_realization(tuple(Scenario), SimConfig(
            trials=10, seed=5, window_factor=window_factor), 0)
        for array in (real.bs_u, real.bs_fadings, real.user_u, real.user_fadings):
            assert array.shape == (BLOCK, points)

    def test_positions_are_the_plain_cumulative_sum(self):
        # the in-place sum over a complex view of two rows gives the bits of
        # np.cumsum over the points of the same Exp(1) draws; W = 10.3: 107
        u, fadings = simulate._points(simulate._stream(5, 2, 0),
                                      np.empty((107, 2, BLOCK)))
        exps = -np.log(1.0 - simulate._stream(5, 2, 0).random((107, 2, BLOCK)))
        assert np.array_equal(u, np.cumsum(exps[:, 0], axis=0).T)
        assert np.array_equal(fadings, exps[:, 1].T)

    # 10.3 draws 107 points, not a multiple of 8's 64
    @pytest.mark.parametrize("narrow_w, wide_w", [(12.0, 24.0), (8.0, 10.3)])
    def test_narrow_window_is_prefix_of_wide(self, narrow_w, wide_w):
        for scenario in (Scenario.TWO_NODE_FD, Scenario.THREE_NODE_FD):
            narrow = sample_realization((scenario,), SimConfig(
                trials=10, seed=5, window_factor=narrow_w), 3)
            wide = sample_realization((scenario,), SimConfig(
                trials=10, seed=5, window_factor=wide_w), 3)
            for field in ("bs_u", "bs_fadings", "user_u", "user_fadings"):
                a, b = getattr(narrow, field), getattr(wide, field)
                assert a.shape[1] < b.shape[1]
                assert np.array_equal(a, b[:, :a.shape[1]])
            assert np.array_equal(narrow.v_rho, wide.v_rho)

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_one_draw_serves_every_scenario(self, mode):
        # sampled alone or together, a scenario sees the same arrays and
        # v_rho, and so the same parts
        sim = SimConfig(trials=100, seed=77, window_factor=10.3, mode=mode)
        together = sample_realization(tuple(Scenario), sim, 3)
        assert together.scenarios == tuple(Scenario)
        assert (together.v_rho is None) == (mode is SimMode.PHYSICAL)
        parts = sinr_of_realization(together, DEFAULTS)
        for scenario in Scenario:
            alone = sample_realization((scenario,), sim, 3)
            assert alone.scenarios == (scenario,)
            assert np.array_equal(alone.bs_u, together.bs_u)
            assert np.array_equal(alone.bs_fadings, together.bs_fadings)
            if scenario is not Scenario.HALF_DUPLEX:
                for field in ("user_u", "user_fadings", "v_rho"):
                    assert np.array_equal(getattr(alone, field),
                                          getattr(together, field))
            assert np.array_equal(sinr_of_realization(alone, DEFAULTS)[scenario],
                                  parts[scenario])
        plain = parts[Scenario.THREE_NODE_FD][2]
        two_node = parts[Scenario.TWO_NODE_FD][2]
        if mode is SimMode.PHYSICAL:
            assert np.array_equal(two_node, plain)
        else:
            # matched users are the same points, farther out
            assert np.all(two_node <= plain) and np.any(two_node < plain)


class TestExponentialDraw:
    """Gaps and fadings are Exp(1), drawn by inversion as -log(1 - U)."""

    def test_wide_block_is_exponential(self):
        # one window-30 block: 2 streams x 900 points x BLOCK rows of each
        real = sample_realization(tuple(Scenario), SimConfig(
            trials=BLOCK, seed=1, window_factor=30.0), 0)
        gaps = np.concatenate([np.diff(u, axis=1, prepend=0.0).ravel()
                               for u in (real.bs_u, real.user_u)])
        fadings = np.concatenate((real.bs_fadings.ravel(),
                                  real.user_fadings.ravel()))
        for draws in (gaps, fadings):
            assert draws.size == 2 * 900 * BLOCK
            assert stats.kstest(draws, "expon").pvalue > 0.01
            # Exp(1) has mean 1, variance 1 and fourth central moment 9
            assert abs(draws.mean() - 1.0) < 4.0 * math.sqrt(1.0 / draws.size)
            assert abs(draws.var() - 1.0) < 4.0 * math.sqrt(8.0 / draws.size)

    # the smallest and largest doubles random() returns, and their gaps 0 and
    # 53*ln(2); a RuntimeWarning from log(0) would fail the test
    @pytest.mark.parametrize("uniform, gap", [
        (0.0, 0.0), (1.0 - 2.0 ** -53, 36.7368005696771)])
    def test_extreme_uniforms_give_finite_gaps(self, monkeypatch, uniform, gap):
        class Constant:
            def random(self, size=None, out=None):
                if out is None:
                    return np.full(size, uniform)
                out.fill(uniform)
                return out

        monkeypatch.setattr(simulate, "_stream", lambda *key: Constant())
        real = sample_realization(tuple(Scenario), SimConfig(
            trials=BLOCK, window_factor=5.0), 0)
        assert np.all(real.v_rho == gap)
        for u, fadings in ((real.bs_u, real.bs_fadings),
                           (real.user_u, real.user_fadings)):
            assert np.all(np.isfinite(u))
            assert np.all(u[:, 0] == gap) and np.all(fadings == gap)
            assert np.diff(u, axis=1) == pytest.approx(
                np.full((BLOCK, 24), gap), rel=1e-13, abs=0.0)


class TestSinrOfRealization:
    def test_single_bs_no_interference(self):
        real = make_realization([5.0])
        p = NetworkParams(p_b=5.0, sigma_n2=1.0)
        expected = 5.0 * 5.0 ** -4.0
        assert sinr(real, p) == pytest.approx(expected)

    def test_two_equidistant_bs_equal_fading_is_unity(self):
        real = make_realization([10.0, 10.0], g=[1.0])
        assert sinr(real, DEFAULTS) == pytest.approx(1.0)

    def test_single_user_term(self):
        p = NetworkParams(p_u=2.0, sigma_n2=1.0)
        clean = make_realization([5.0])
        with_user = make_realization([5.0], users=[10.0], k=[0.5])
        base = sinr(clean, p)
        loaded = sinr(with_user, p)
        expected_term = 2.0 * 0.5 * 10.0 ** -4.0
        assert 1.0 / loaded - 1.0 / base == \
            pytest.approx(expected_term / (p.p_b * 1.0 * 5.0 ** -4.0))

    def test_loop_interference_only_in_two_node(self):
        # averaged over h0 and the loop gain L, both Exp(1), one trial is in
        # outage with probability 1 - exp(-T*D/S)/(1 + T*loop/S), the loop
        # term two-node only and scaled by p_u*sigma_l2
        p = NetworkParams(p_u=2.0, sigma_n2=1.0, sigma_l2=0.5)
        real = make_realization([5.0], users=[10.0])
        t = 1.0  # the threshold 2^R - 1 at R = 1
        signal = p.p_b * 5.0 ** -4.0
        covered = math.exp(-t * (1.0 + 2.0 * 10.0 ** -4.0) / signal)
        assert outage_of(real, p, Scenario.THREE_NODE_FD, 1.0) == \
            pytest.approx(1.0 - covered, rel=1e-12)
        assert outage_of(real, p, Scenario.TWO_NODE_FD, 1.0) == \
            pytest.approx(1.0 - covered / (1.0 + t * 2.0 * 0.5 / signal),
                          rel=1e-12)
        assert outage_of(real, p, Scenario.THREE_NODE_FD, 1.0) == \
            outage_of(real, p.replace(sigma_l2=0.0), Scenario.THREE_NODE_FD, 1.0)

    def test_mu_scales_noise_and_loop_terms(self):
        real = make_realization([5.0, 8.0], users=[6.0], g=[0.7], k=[0.4])
        p = NetworkParams(p_u=2.0, sigma_n2=1e-5, sigma_l2=1e-3, mu=2.0)
        doubled = p.replace(sigma_n2=2e-5, sigma_l2=2e-3, mu=1.0)
        two_node = Scenario.TWO_NODE_FD
        assert outage_of(real, p, two_node, 1.0) == \
            pytest.approx(outage_of(real, doubled, two_node, 1.0), rel=1e-14)
        assert outage_of(real, p, two_node, 1.0) > \
            outage_of(real, p.replace(mu=1.0), two_node, 1.0)

    def test_far_field_keeps_interference_positive(self):
        # with no other point drawn, the BS interference is the mean beyond
        # the last one, so zero noise never makes the SINR infinite
        real = make_realization([1.0])
        parts = sinr_of_realization(real, NetworkParams())[Scenario.HALF_DUPLEX]
        assert parts[1, 0] == pytest.approx(1.0 / SENTINEL, rel=1e-15)
        assert math.isfinite(sinr(real, NetworkParams(), Scenario.HALF_DUPLEX))

    def test_points_past_the_last_count_by_their_mean(self):
        real = NetworkRealization(
            bs_u=np.array([[0.5, 2.0, 3.0]]), bs_fadings=np.array([[9.0, 0.5, 2.0]]),
            user_u=np.array([[1.0, 4.0]]), user_fadings=np.array([[3.0, 0.25]]),
            v_rho=np.array([1.5]), scenarios=tuple(Scenario))
        for alpha in (2.5, 4.0):
            # one row: the sum over its points plus u_K^(1-a)/(a-1) at its
            # last point u_K, for BSs and users (matched users end at
            # u_K + v_rho); the serving fading is not read
            a = alpha / 2.0
            p = NetworkParams(alpha1=alpha, alpha2=alpha)
            parts = sinr_of_realization(real, p)
            signal, i_bs, i_up = parts[Scenario.TWO_NODE_FD][:, 0]
            assert signal == 0.5 ** -a
            assert i_bs == pytest.approx(
                0.5 * 2.0 ** -a + 2.0 * 3.0 ** -a + 3.0 ** (1 - a) / (a - 1), rel=1e-14)
            assert i_up == pytest.approx(
                3.0 * 2.5 ** -a + 0.25 * 5.5 ** -a + 5.5 ** (1 - a) / (a - 1), rel=1e-14)
            assert parts[Scenario.THREE_NODE_FD][2, 0] == pytest.approx(
                3.0 + 0.25 * 4.0 ** -a + 4.0 ** (1 - a) / (a - 1), rel=1e-14)
            # the mean stands in for the points a wider window draws: paired
            # on the same trials, whose narrow draw is a prefix of the wide
            # one, the parts differ by zero on average
            narrow, wide = (simulate_sinr(p, tuple(Scenario), SimConfig(
                trials=2000, seed=8, window_factor=w)) for w in (8.0, 30.0))
            for scenario in Scenario:
                diff = narrow[scenario][1:] - wide[scenario][1:]
                assert np.array_equal(narrow[scenario][0], wide[scenario][0])
                stderr = diff.std(axis=1) / math.sqrt(2000)
                assert np.all(np.abs(diff.mean(axis=1)) <= 4.0 * stderr)

    @pytest.mark.parametrize("mode", list(SimMode))
    @pytest.mark.parametrize("alpha", [3.5, 4.0])
    def test_reduction_peak_memory(self, alpha, mode):
        # reducing one window-30 block holds one array the size of a
        # stream's positions, 8*BLOCK*900 bytes, at a time: one sum's
        # reciprocals, which the matched users shifted by v_rho become in
        # place, and no array of products
        real = sample_realization(tuple(Scenario), SimConfig(
            trials=BLOCK, window_factor=30.0, mode=mode), 0)
        params = NetworkParams(alpha1=alpha, alpha2=alpha)
        tracemalloc.start()
        try:
            sinr_of_realization(real, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * BLOCK * 900

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_interference_matches_plain_power(self, alpha):
        # the sums take u^-a as (1/u)^a, a square at alpha = 4; on one block
        # they agree with fading * u^-a summed, plus the far-field mean
        a = alpha / 2.0
        real = sample_realization(tuple(Scenario), SimConfig(trials=10, seed=4), 0)
        parts = sinr_of_realization(real, NetworkParams(alpha1=alpha, alpha2=alpha))

        def plain(u, fadings):
            return (fadings * u ** -a).sum(axis=1) + u[:, -1] ** (1.0 - a) / (a - 1.0)

        i_bs = plain(real.bs_u[:, 1:], real.bs_fadings[:, 1:])
        i_up = {Scenario.TWO_NODE_FD: plain(real.user_u + real.v_rho[:, None],
                                            real.user_fadings),
                Scenario.THREE_NODE_FD: plain(real.user_u, real.user_fadings)}
        for scenario in (Scenario.TWO_NODE_FD, Scenario.THREE_NODE_FD):
            np.testing.assert_allclose(parts[scenario][1], i_bs, rtol=1e-13, atol=0)
            np.testing.assert_allclose(parts[scenario][2], i_up[scenario],
                                       rtol=1e-13, atol=0)


class TestEstimateOutage:
    def test_zero_rate_is_exactly_zero(self):
        # gain_u*I_u overflows at a tiny density with alpha1 well above
        # alpha2, and T = 0 times it would be nan
        sim = SimConfig(trials=500, seed=1)
        for params in (DEFAULTS, NetworkParams(lam=1e-300, alpha1=6.0, alpha2=3.0)):
            parts = simulate_sinr(params, tuple(Scenario), sim)
            for scenario in Scenario:
                for shared in (None, parts[scenario]):
                    est = estimate_outage(params, scenario, 0.0, sim, parts=shared)
                    assert est.value == 0.0 and est.stderr == 0.0

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("sigma_n2, sigma_l2", [
        (0.0, 0.0), (0.0, 1e-3), (1.0, 0.0), (1.0, 1e-3)])
    def test_same_bits_as_the_plain_formula(self, scenario, sigma_n2, sigma_l2):
        # 1 - exp(-(T/S)*(noise + I_b + gain_u*I_u))/(1 + (T/S)*loop) and
        # its stderr, each written out in its own temporaries, at gain_u != 1
        params = NetworkParams(p_b=2.0, p_u=0.3, alpha2=3.5, sigma_n2=sigma_n2,
                               sigma_l2=sigma_l2, mu=1.5)
        gain_u, noise, loop = params.sinr_scales()
        assert gain_u != 1.0 and bool(noise) == bool(sigma_n2)
        rng = np.random.default_rng(8)
        parts = np.stack((rng.uniform(0.05, 50.0, 777), rng.exponential(3.0, 777),
                          rng.exponential(5.0, 777)))
        signal, i_bs, i_up = parts
        for rate in (0.1, 1.0, 3.0):
            t_over_s = threshold_from_rate(rate, scenario) / signal
            covered = np.exp(-t_over_s * (noise + i_bs + gain_u * i_up))
            if scenario is Scenario.TWO_NODE_FD:
                covered = covered / (1.0 + t_over_s * loop)
            deviation = covered - covered.mean()
            est = estimate_outage(params, scenario, rate, SimConfig(trials=777),
                                  parts=parts)
            assert est.value == float(1.0 - covered.mean())
            assert est.stderr == math.sqrt(deviation @ deviation) / 777

    def test_stderr_is_sample_std_over_root_n(self):
        p = DEFAULTS.replace(sigma_l2=1e-3)
        sim = SimConfig(trials=500, seed=6)
        parts = simulate_sinr(p, (Scenario.TWO_NODE_FD,), sim)[Scenario.TWO_NODE_FD]
        signal, i_bs, i_up = parts
        gain_u, noise, loop = p.sinr_scales()
        t = threshold_from_rate(1.0, Scenario.TWO_NODE_FD)
        outage = 1.0 - np.exp(-t * (noise + i_bs + gain_u * i_up) / signal) \
            / (1.0 + t * loop / signal)
        est = estimate_outage(p, Scenario.TWO_NODE_FD, 1.0, sim, parts=parts)
        assert est.value == pytest.approx(outage.mean(), rel=1e-13)
        assert est.stderr == pytest.approx(outage.std() / math.sqrt(500), rel=1e-12)

    def test_parallel_schedules_are_bitwise_identical(self):
        sim = SimConfig(trials=4000, seed=3)
        serial = estimate_outage(DEFAULTS, Scenario.TWO_NODE_FD, 1.0, sim)
        threaded = estimate_outage(DEFAULTS, Scenario.TWO_NODE_FD, 1.0, sim,
                                   workers=4)
        assert serial.value == threaded.value
        rerun = estimate_outage(DEFAULTS, Scenario.TWO_NODE_FD, 1.0, sim,
                                workers=2)
        assert serial.value == rerun.value

    @pytest.mark.parametrize("workers, cpus, blocks, pool", [
        (1000, 4, 3, 3), (1000, 4, 10, 4), (3, 8, 10, 3), (1000, None, 10, None),
        (4, 1, 10, None), (0, 4, 10, None), (-5, 4, 10, None)])
    def test_pool_is_capped(self, monkeypatch, workers, cpus, blocks, pool):
        # min(workers, CPUs, blocks) threads, serial at 1 or fewer; a fake
        # pool maps serially, so no thread is started
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", FakePool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        sim = SimConfig(trials=blocks * BLOCK, seed=2)
        scenarios = (Scenario.THREE_NODE_FD,)
        parts = simulate_sinr(DEFAULTS, scenarios, sim, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        serial = simulate_sinr(DEFAULTS, scenarios, sim)
        assert np.array_equal(parts[Scenario.THREE_NODE_FD],
                              serial[Scenario.THREE_NODE_FD])

    def test_sinr_samples_reusable_across_rates(self):
        sim = SimConfig(trials=2000, seed=5)
        samples = simulate_sinr(DEFAULTS, tuple(Scenario), sim)[
            Scenario.THREE_NODE_FD]
        direct = estimate_outage(DEFAULTS, Scenario.THREE_NODE_FD, 1.5, sim)
        shared = estimate_outage(DEFAULTS, Scenario.THREE_NODE_FD, 1.5, sim,
                                 parts=samples)
        assert direct.value == shared.value

    def test_trial_does_not_depend_on_trial_count(self):
        # 100 is not a multiple of BLOCK: the last block is cut
        scenarios = (Scenario.TWO_NODE_FD,)
        few = simulate_sinr(DEFAULTS, scenarios, SimConfig(trials=100, seed=5))
        many = simulate_sinr(DEFAULTS, scenarios, SimConfig(trials=2000, seed=5))
        few, many = few[Scenario.TWO_NODE_FD], many[Scenario.TWO_NODE_FD]
        assert few.shape == (3, 100)
        assert np.array_equal(few, many[:, :100])

    def test_matches_closed_form_three_node(self):
        sim = SimConfig(trials=30_000, seed=17)
        est = estimate_outage(DEFAULTS, Scenario.THREE_NODE_FD, 1.0, sim)
        ref = closedform.three_node_outage(1.0).value
        assert abs(est.value - ref) < 3.0 * est.stderr

    def test_matches_quadrature_two_node_matched(self):
        sim = SimConfig(trials=30_000, seed=29)
        p = NetworkParams(sigma_l2=1e-3)
        est = estimate_outage(p, Scenario.TWO_NODE_FD, 1.0, sim)
        ref = analytic.two_node_outage(p, 1.0, QUAD).value
        assert abs(est.value - ref) < 3.0 * est.stderr

    @pytest.mark.parametrize("scenario, params", [
        (Scenario.HALF_DUPLEX, NetworkParams(sigma_n2=1.0, p_b=1e4, p_u=1e4, mu=2.0)),
        (Scenario.TWO_NODE_FD, NetworkParams(sigma_l2=1e-3, mu=2.0)),
    ], ids=["half-duplex-noise", "two-node-loop"])
    def test_matches_analytic_at_mu_2(self, scenario, params):
        sim = SimConfig(trials=20_000, seed=3, window_factor=20.0)
        est = estimate_outage(params, scenario, 0.5, sim)
        ref = analytic.outage(scenario, params, 0.5, QUAD).value
        assert abs(est.value - ref) < 3.0 * est.stderr

    @pytest.mark.parametrize("scenario, sigma_l2", [
        (Scenario.TWO_NODE_FD, 0.0), (Scenario.TWO_NODE_FD, 1e-3),
        (Scenario.THREE_NODE_FD, 0.0), (Scenario.HALF_DUPLEX, 0.0)],
        ids=["two-node", "two-node-loop", "three-node", "half-duplex"])
    @pytest.mark.parametrize("alpha", [2.5, 3.0])
    def test_matches_analytic_off_quartic(self, alpha, scenario, sigma_l2):
        # the interference beyond the last of 64 drawn points has a mean of
        # 1.4 per unit power at alpha = 2.5, so a window cut that dropped it
        # would put outage many stderr low
        p = NetworkParams(alpha1=alpha, alpha2=alpha, sigma_l2=sigma_l2)
        sim = SimConfig(trials=10_000, seed=5)
        parts = simulate_sinr(p, (scenario,), sim)[scenario]
        for rate in (0.1, 1.0):
            est = estimate_outage(p, scenario, rate, sim, parts=parts)
            ref = analytic.outage(scenario, p, rate, QUAD).value
            z = (est.value - ref) / est.stderr
            assert abs(z) < 3.0, (rate, z)

    def test_infinite_threshold_is_certain_outage(self):
        # at sigma_l2 = 0 the two-node loop term would be inf*0 at T = inf,
        # and at T = 2^1023 - 1 wherever T/S overflows
        sim = SimConfig(trials=300, seed=2)
        for p in (DEFAULTS, DEFAULTS.replace(sigma_l2=1e-3)):
            parts = simulate_sinr(p, tuple(Scenario), sim)
            for scenario, rate in itertools.product(Scenario, (1023.0, 2000.0)):
                for shared in (None, parts[scenario]):
                    est = estimate_outage(p, scenario, rate, sim, parts=shared)
                    assert est.value == 1.0 and est.stderr == 0.0

    @pytest.mark.parametrize("lam", [1e-200, 1e-300])
    def test_tiny_density(self, lam):
        # the unit gains underflow below lam ~ 1e-155, their ratios do not
        sim = SimConfig(trials=400, seed=3)
        for scenario in Scenario:
            assert estimate_outage(NetworkParams(lam=lam), scenario, 1.0,
                                   sim).value == \
                estimate_outage(DEFAULTS, scenario, 1.0, sim).value

    def test_metadata(self):
        sim = SimConfig(trials=100, seed=9)
        for rate in (0.0, 0.5, 2000.0):
            est = estimate_outage(DEFAULTS, Scenario.TWO_NODE_FD, rate, sim)
            assert est.meta["trials"] == 100 and est.meta["mode"] == "matched"
            assert est.meta == {"trials": 100, "seed": 9, "mode": "matched"}
            assert type(est.value) is float and type(est.stderr) is float

    @pytest.mark.parametrize("window_factor, points", [(8.0, 64), (10.3, 107)])
    def test_simulation_logs_one_debug_line(self, caplog, window_factor, points):
        sim = SimConfig(trials=100, seed=3, window_factor=window_factor)
        with caplog.at_level(logging.DEBUG, logger="fdcell.simulate"):
            simulate_sinr(DEFAULTS, (Scenario.TWO_NODE_FD, Scenario.HALF_DUPLEX),
                          sim)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        trials, scenarios, drawn, wall_ms, rate, sampling_ms, reduction_ms = \
            record.args
        assert (trials, scenarios, drawn) == (100, "two-node,half-duplex", points)
        assert wall_ms > 0 and rate == pytest.approx(100e3 / wall_ms, rel=1e-12)
        # one worker: the layers run one after the other inside the wall time
        assert sampling_ms > 0 and reduction_ms > 0
        assert sampling_ms + reduction_ms <= wall_ms


class TestSharedDraw:
    """One draw per block serves every scenario and reproduces, bit for bit,
    the parts each scenario's own draw gave before the draw was shared."""

    # alpha = 4 sums on the fused square; (4, 3) mixes it with a plain power
    @pytest.mark.parametrize("alphas", [(3.5, 4.5), (4.0, 4.0), (4.0, 3.0)],
                             ids=["3.5,4.5", "4,4", "4,3"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("window_factor", [5.0, 8.0, 10.3, 30.0])
    @pytest.mark.parametrize("mode", list(SimMode))
    def test_matches_per_scenario_oracle(self, mode, window_factor, workers, alphas):
        # 404 trials is not a multiple of BLOCK: the last block is cut
        sim = SimConfig(trials=404, seed=77, window_factor=window_factor,
                        mode=mode)
        params = NetworkParams(alpha1=alphas[0], alpha2=alphas[1])
        parts = simulate_sinr(params, tuple(Scenario), sim, workers=workers)
        assert list(parts) == list(Scenario)
        blocks = -(-sim.trials // BLOCK)
        for scenario in Scenario:
            oracle = np.concatenate([legacy_parts(params, scenario, sim, b)
                                     for b in range(blocks)], axis=1)
            assert parts[scenario].shape == (3, sim.trials)
            assert np.array_equal(parts[scenario], oracle[:, :sim.trials])

    def test_half_duplex_alone_draws_no_users(self, monkeypatch):
        streams = []
        stream = simulate._stream

        def counting(seed, block_index, which):
            streams.append(which)
            return stream(seed, block_index, which)

        monkeypatch.setattr(simulate, "_stream", counting)
        sim = SimConfig(trials=2 * BLOCK + 8)
        blocks = -(-sim.trials // BLOCK)
        simulate_sinr(DEFAULTS, (Scenario.HALF_DUPLEX,), sim)
        assert streams == [0] * blocks
        streams.clear()
        simulate_sinr(DEFAULTS, tuple(Scenario), sim)
        assert streams == [0, 1] * blocks


class TestStreamKeys:
    """Every (seed, block, stream) has its own stream."""

    @staticmethod
    def first_block(seed, block=0):
        sim = SimConfig(trials=BLOCK, seed=seed)
        real = sample_realization(tuple(Scenario), sim, block)
        return real.bs_u[:, :8], real.user_u[:, :8]

    def differ(self, a, b):
        return all(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_seeds_apart_only_above_bit_32(self):
        for high in (1 << 32, 1 << 40, 1 << 63):
            assert self.differ(self.first_block(5), self.first_block(5 + high))

    def test_swapped_seed_and_block(self):
        assert self.differ(self.first_block(3, 8), self.first_block(8, 3))

    def test_bs_and_user_streams(self):
        bs, users = (simulate._stream(9, 4, which).random(64)
                     for which in (0, 1))
        assert not np.array_equal(bs, users)

    def test_largest_seed(self):
        top = SimConfig(trials=40, seed=2 ** 64 - 1)
        parts = simulate_sinr(DEFAULTS, tuple(Scenario), top)
        assert all(np.isfinite(p).all() for p in parts.values())
        for other in (2 ** 64 - 2, 2 ** 32 - 1):
            assert self.differ(self.first_block(top.seed), self.first_block(other))


class TestStreamPin:
    """Seed 1's first block at window 8, to 12 significant digits.  Every
    other Monte Carlo test compares the simulator with itself or with a
    statistical gate, so this one fails loudly if numpy's SFC64,
    SeedSequence or random streams move between releases, or its log by
    more than the tolerance between CPUs."""

    SIM = SimConfig(trials=BLOCK, seed=1, window_factor=8.0)

    @staticmethod
    def close(values):
        return pytest.approx(values, rel=1e-11, abs=0.0)

    def test_points(self):
        real = sample_realization(tuple(Scenario), self.SIM, 0)
        assert real.bs_u.shape == real.user_u.shape == (BLOCK, 64)
        assert real.bs_u[0, :3] == self.close(
            [0.091355188345, 0.45641558905, 1.29529906647])
        assert real.bs_u[2, -1] == self.close(63.6194009544)
        assert real.bs_fadings[0, :3] == self.close(
            [0.6622667321, 1.41491573654, 0.631327159983])
        assert real.user_u[0, :3] == self.close(
            [0.827708832186, 1.34830983575, 2.99180868343])
        assert real.user_u[2, -1] == self.close(57.5843411841)
        assert real.v_rho[:3] == self.close(
            [0.373069738495, 0.327617933746, 0.699017679185])

    def test_parts(self):
        parts = simulate_sinr(DEFAULTS, tuple(Scenario), self.SIM)
        signal = [119.821172591, 0.663775844865, 4.63916753966]
        i_bs = [8.21954301391, 0.649665298166, 3.87359565188]
        i_up = {Scenario.TWO_NODE_FD: [1.95931790434, 25.1250253148, 2.3671765245],
                Scenario.THREE_NODE_FD: [3.31894203047, 165.532035516, 211.744149562],
                Scenario.HALF_DUPLEX: [0.0, 0.0, 0.0]}
        for scenario in Scenario:
            first = parts[scenario][:, :3]
            assert first[0] == self.close(signal)
            assert first[1] == self.close(i_bs)
            assert first[2] == self.close(i_up[scenario])


class TestPhysicalVersusMatched:
    """The exclusion-averaged analytic construction thins near-field
    interferers relative to a plain PPP; the simulator exposes the size of
    that modeling approximation rather than hiding it."""

    def test_gap_is_real_and_matches_analysis(self, capsys):
        rate = 1.0
        trials = 30_000
        matched = estimate_outage(DEFAULTS, Scenario.TWO_NODE_FD, rate,
                                  SimConfig(trials=trials, seed=41))
        physical = estimate_outage(
            DEFAULTS, Scenario.TWO_NODE_FD, rate,
            SimConfig(trials=trials, seed=41, mode=SimMode.PHYSICAL))
        # with no loop interference, a plain-PPP uplink process gives the
        # two-node downlink exactly the three-node interference statistics
        assert abs(physical.value - closedform.three_node_outage(rate).value) \
            < 3.0 * physical.stderr
        assert abs(matched.value
                   - analytic.two_node_outage(DEFAULTS, rate, QUAD).value) \
            < 3.0 * matched.stderr
        gap = physical.value - matched.value
        noise = math.hypot(physical.stderr, matched.stderr)
        print(f"physical-vs-matched two-node outage gap at R={rate}: "
              f"{gap:+.4f} ({gap / noise:.1f}x the MC noise)")
        assert gap > 3.0 * noise
