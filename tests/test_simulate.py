import itertools
import math

import numpy as np
import pytest

from fdcell import analytic, closedform, simulate
from fdcell.model import NetworkParams, Scenario
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
    """A block's SINR parts as one scenario's own draw makes them, one chunk
    of 128 columns per call from its own SFC64 streams: the bitwise oracle
    of the shared draw of several chunks per call.  Each stream draws
    exactly ceil(W^2/128) chunks; matched users are those points + v_rho.
    A sum counts the points beyond a row's last one, u_K, by their mean
    u_K^(1-a)/(a-1)."""

    def points(rng):
        u_parts, fading_parts, last = [], [], np.zeros(BLOCK)
        for _ in range(math.ceil(sim.window_factor ** 2 / 128)):
            gaps, fadings = rng.standard_exponential((2, BLOCK, 128))
            gaps[:, 0] += last
            u = np.cumsum(gaps, axis=1)
            u_parts.append(u)
            fading_parts.append(fadings)
            last = u[:, -1]
        return np.concatenate(u_parts, axis=1), np.concatenate(fading_parts, axis=1)

    def stream(which):
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            sim.seed, spawn_key=(block_index, which))))

    def interference(u, fadings, a):
        return (fadings * u ** -a).sum(axis=1) + u[:, -1] ** (1.0 - a) / (a - 1.0)

    bs_u, bs_fadings = points(stream(0))
    if scenario is Scenario.HALF_DUPLEX:
        i_up = np.zeros(BLOCK)
    else:
        rng = stream(1)
        v_rho = rng.standard_exponential(BLOCK)
        user_u, user_fadings = points(rng)
        if scenario is Scenario.TWO_NODE_FD and sim.mode is SimMode.MATCHED:
            user_u = user_u + v_rho[:, None]
        i_up = interference(user_u, user_fadings, params.alpha2 / 2.0)
    a1 = params.alpha1 / 2.0
    return np.stack((bs_u[:, 0] ** -a1,
                     interference(bs_u[:, 1:], bs_fadings[:, 1:], a1), i_up))


class TestSimConfig:
    def test_defaults(self):
        sim = SimConfig()
        assert sim.trials == 100_000 and sim.window_factor == 8.0
        assert sim.mode is SimMode.MATCHED

    @pytest.mark.parametrize("bad", [
        {"trials": 0}, {"window_factor": 4.0}, {"seed": -1}, {"seed": 2 ** 64},
        # a window that never closes would sample without end
        {"window_factor": math.nan}, {"window_factor": math.inf},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SimConfig(**bad)


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
        # lam*pi*R^2 = window_factor^2 = 64 at defaults: the mean number of
        # BSs with u = lam*pi*r^2 inside the window, all among the drawn ones
        sim = SimConfig(trials=2000, seed=11)
        mean_expected = sim.window_factor ** 2
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

    @pytest.mark.parametrize("window_factor, chunks", [
        (5.0, 1), (8.0, 1), (11.3, 1), (12.0, 2), (24.0, 5), (30.0, 8)])
    def test_draws_whole_chunks_covering_the_window(self, window_factor, chunks):
        # ceil(W^2/128) chunks of 128 points per row, at least W^2 points
        real = sample_realization(tuple(Scenario), SimConfig(
            trials=10, seed=5, window_factor=window_factor), 0)
        assert 128 * chunks >= window_factor ** 2
        for u in (real.bs_u, real.user_u):
            assert u.shape == (BLOCK, 128 * chunks)

    def test_narrow_window_is_prefix_of_wide(self):
        for scenario in (Scenario.TWO_NODE_FD, Scenario.THREE_NODE_FD):
            narrow = sample_realization((scenario,), SimConfig(
                trials=10, seed=5, window_factor=12.0), 3)
            wide = sample_realization((scenario,), SimConfig(
                trials=10, seed=5, window_factor=24.0), 3)
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
        # the interference beyond the last of 128 drawn points has a mean of
        # 1.2 per unit power at alpha = 2.5; a window cut that dropped it
        # put outage 7 to 17 stderr low at 10 000 trials
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


class TestSharedDraw:
    """One draw per block serves every scenario and reproduces, bit for bit,
    the parts each scenario's own draw gave before the draw was shared."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("window_factor", [8.0, 10.3, 30.0])
    @pytest.mark.parametrize("mode", list(SimMode))
    def test_matches_per_scenario_oracle(self, mode, window_factor, workers):
        # 404 trials is not a multiple of BLOCK: the last block is cut
        sim = SimConfig(trials=404, seed=77, window_factor=window_factor,
                        mode=mode)
        params = NetworkParams(alpha1=3.5, alpha2=4.5)
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
        simulate_sinr(DEFAULTS, (Scenario.HALF_DUPLEX,), SimConfig(trials=40))
        assert streams == [0, 0, 0]
        streams.clear()
        simulate_sinr(DEFAULTS, tuple(Scenario), SimConfig(trials=40))
        assert streams == [0, 1] * 3


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
        bs, users = (simulate._stream(9, 4, which).standard_exponential(64)
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
    SeedSequence or standard_exponential streams move between releases."""

    SIM = SimConfig(trials=BLOCK, seed=1, window_factor=8.0)

    @staticmethod
    def close(values):
        return pytest.approx(values, rel=1e-11, abs=0.0)

    def test_points(self):
        real = sample_realization(tuple(Scenario), self.SIM, 0)
        assert real.bs_u.shape == real.user_u.shape == (BLOCK, 128)
        assert real.bs_u[0, :3] == self.close(
            [0.0337542720656, 4.03961777869, 5.03833094331])
        assert real.bs_u[2, -1] == self.close(123.373773958)
        assert real.bs_fadings[0, :3] == self.close(
            [0.52614752835, 0.5295593117, 0.0502391655061])
        assert real.user_u[0, :3] == self.close(
            [0.800606893969, 1.70211838919, 2.17231562952])
        assert real.user_u[2, -1] == self.close(132.641764628)
        assert real.v_rho[:3] == self.close(
            [0.339061596484, 1.32284553965, 1.08561540218])

    def test_parts(self):
        parts = simulate_sinr(DEFAULTS, tuple(Scenario), self.SIM)
        signal = [877.692741723, 1.17171915751, 1.0022012489]
        i_bs = [0.195979094945, 1.26220366929, 0.242474525039]
        i_up = {Scenario.TWO_NODE_FD: [2.5216421878, 0.195292446594, 0.845754436288],
                Scenario.THREE_NODE_FD: [4.65055724377, 0.389968926125, 1.79969352369],
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
