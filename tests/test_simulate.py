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
    sinr_at,
    sinr_of_realization,
)

DEFAULTS = NetworkParams()
QUAD = QuadratureConfig()


def make_realization(bs, users=(), h=1.0, g=None, k=None, li=0.0,
                     lam=DEFAULTS.lam, window=math.inf):
    """One-trial realization from distances: bs[0] is the serving BS with
    fading h, g the fadings of the other BSs, k those of the users, li the
    unit-mean loop gain."""
    bs = np.asarray(bs, dtype=float)
    users = np.asarray(users, dtype=float)
    g = np.ones(len(bs) - 1) if g is None else np.asarray(g, dtype=float)
    k = np.ones(len(users)) if k is None else np.asarray(k, dtype=float)
    return NetworkRealization(
        bs_u=(lam * math.pi * bs * bs)[None, :],
        bs_fadings=np.concatenate(([h], g))[None, :],
        user_u=(lam * math.pi * users * users)[None, :],
        user_fadings=k[None, :],
        li_gain=np.array([li]),
        window=window,
    )


def sinr(real, params):
    return float(sinr_at(sinr_of_realization(real, params), params)[0])


def trial(scenario, sim, i):
    """Trial i of a simulation, cut to the points inside the window:
    (bs_u, bs_fadings, user_u, user_fadings, li_gain)."""
    real = sample_realization(scenario, sim, i // BLOCK)
    row = i % BLOCK
    bs_in = real.bs_u[row] <= real.window
    user_in = real.user_u[row] <= real.window
    return (real.bs_u[row][bs_in], real.bs_fadings[row][bs_in],
            real.user_u[row][user_in], real.user_fadings[row][user_in],
            real.li_gain[row])


class TestSimConfig:
    def test_defaults(self):
        sim = SimConfig()
        assert sim.trials == 100_000 and sim.window_factor == 12.0
        assert sim.mode is SimMode.MATCHED

    @pytest.mark.parametrize("bad", [
        {"trials": 0}, {"window_factor": 4.0}, {"seed": -1}, {"seed": 2 ** 64},
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
        real = sample_realization(Scenario.HALF_DUPLEX, self.SIM, 0)
        assert real.user_u.shape == (BLOCK, 0)
        assert real.user_fadings.shape == (BLOCK, 0)
        assert np.all(real.li_gain == 0.0)

    def test_serving_distance_is_minimum(self):
        # rows increase, so the first point of a row is its nearest BS
        real = sample_realization(Scenario.THREE_NODE_FD, self.SIM, 0)
        assert np.all(np.diff(real.bs_u, axis=1) > 0)
        assert np.all(np.diff(real.user_u, axis=1) > 0)
        assert np.array_equal(real.bs_u[:, 0], real.bs_u.min(axis=1))
        assert np.all(real.bs_u > 0) and np.all(real.user_u > 0)

    def test_mean_bs_count_matches_window(self):
        # lam*pi*R^2 = window_factor^2 = 144 at defaults: the mean number of
        # BSs with u = lam*pi*r^2 inside the window
        sim = SimConfig(trials=2000, seed=11)
        mean_expected = sim.window_factor ** 2
        counts = np.concatenate([
            np.count_nonzero(real.bs_u <= mean_expected, axis=1) for real in (
                sample_realization(Scenario.HALF_DUPLEX, sim, b)
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
        real = sample_realization(Scenario.THREE_NODE_FD, self.SIM, 0)
        assert np.all(real.li_gain == 0.0)
        real = sample_realization(Scenario.TWO_NODE_FD, self.SIM, 0)
        assert np.all(real.li_gain > 0.0)

    def test_narrow_window_is_prefix_of_wide(self):
        for scenario in (Scenario.TWO_NODE_FD, Scenario.THREE_NODE_FD):
            narrow = sample_realization(scenario, SimConfig(
                trials=10, seed=5, window_factor=12.0), 3)
            wide = sample_realization(scenario, SimConfig(
                trials=10, seed=5, window_factor=24.0), 3)
            for field in ("bs_u", "bs_fadings", "user_u", "user_fadings"):
                a, b = getattr(narrow, field), getattr(wide, field)
                assert a.shape[1] < b.shape[1]
                assert np.array_equal(a, b[:, :a.shape[1]])
            assert np.array_equal(narrow.li_gain, wide.li_gain)
            assert np.all(narrow.bs_u[:, -1] > narrow.window)
            assert np.all(narrow.user_u[:, -1] > narrow.window)


class TestSinrOfRealization:
    def test_single_bs_no_interference(self):
        real = make_realization([5.0], h=2.0)
        p = NetworkParams(p_b=5.0, sigma_n2=1.0)
        expected = 5.0 * 2.0 * 5.0 ** -4.0
        assert sinr(real, p) == pytest.approx(expected)

    def test_two_equidistant_bs_equal_fading_is_unity(self):
        real = make_realization([10.0, 10.0], h=1.0, g=[1.0])
        assert sinr(real, DEFAULTS) == pytest.approx(1.0)

    def test_single_user_term(self):
        p = NetworkParams(p_u=2.0, sigma_n2=1.0)
        clean = make_realization([5.0], h=1.0)
        with_user = make_realization([5.0], users=[10.0], h=1.0, k=[0.5])
        base = sinr(clean, p)
        loaded = sinr(with_user, p)
        expected_term = 2.0 * 0.5 * 10.0 ** -4.0
        assert 1.0 / loaded - 1.0 / base == \
            pytest.approx(expected_term / (p.p_b * 1.0 * 5.0 ** -4.0))

    def test_loop_interference_only_in_two_node(self):
        # the sampler leaves the loop gain 0 off two-node (see
        # test_no_loop_gain_for_three_node), and sigma_l2 scales it
        p = NetworkParams(p_u=2.0, sigma_n2=1.0, sigma_l2=0.5)
        two = sinr(make_realization([5.0], h=1.0, li=1.0), p)
        three = sinr(make_realization([5.0], h=1.0), p)
        assert two < three
        assert 1.0 / two - 1.0 / three == \
            pytest.approx(2.0 * 0.5 / (p.p_b * 5.0 ** -4.0))

    def test_mu_scales_noise_and_loop_terms(self):
        real = make_realization([5.0, 8.0], users=[6.0], h=1.5, g=[0.7],
                                k=[0.4], li=2.0)
        p = NetworkParams(p_u=2.0, sigma_n2=1e-5, sigma_l2=1e-3, mu=2.0)
        doubled = p.replace(sigma_n2=2e-5, sigma_l2=2e-3, mu=1.0)
        assert sinr(real, p) == pytest.approx(sinr(real, doubled), rel=1e-14)
        assert sinr(real, p) < sinr(real, p.replace(mu=1.0))

    def test_interference_free_zero_noise_is_infinite(self):
        real = make_realization([1.0])
        assert sinr(real, NetworkParams()) == math.inf

    def test_points_beyond_window_add_nothing(self):
        # window u <= lam*pi*20^2: the BS and the user at distance 30 are outside
        lam = DEFAULTS.lam
        window = lam * math.pi * 400.0
        inside = make_realization([10.0, 15.0], users=[12.0], window=window)
        outside = make_realization([10.0, 15.0, 30.0], users=[12.0, 30.0],
                                   window=window)
        assert sinr(outside, DEFAULTS) == sinr(inside, DEFAULTS)
        wide = make_realization([10.0, 15.0, 30.0], users=[12.0, 30.0])
        assert sinr(wide, DEFAULTS) < sinr(inside, DEFAULTS)


class TestEstimateOutage:
    def test_zero_rate_is_exactly_zero(self):
        sim = SimConfig(trials=500, seed=1)
        est = estimate_outage(DEFAULTS, Scenario.THREE_NODE_FD, 0.0, sim)
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
        parts = simulate_sinr(DEFAULTS, Scenario.THREE_NODE_FD, sim,
                              workers=workers)
        assert sizes == ([] if pool is None else [pool])
        serial = simulate_sinr(DEFAULTS, Scenario.THREE_NODE_FD, sim)
        assert np.array_equal(parts, serial)

    def test_sinr_samples_reusable_across_rates(self):
        sim = SimConfig(trials=2000, seed=5)
        samples = simulate_sinr(DEFAULTS, Scenario.THREE_NODE_FD, sim)
        direct = estimate_outage(DEFAULTS, Scenario.THREE_NODE_FD, 1.5, sim)
        shared = estimate_outage(DEFAULTS, Scenario.THREE_NODE_FD, 1.5, sim,
                                 parts=samples)
        assert direct.value == shared.value

    def test_trial_does_not_depend_on_trial_count(self):
        # 100 is not a multiple of BLOCK: the last block is cut
        few = simulate_sinr(DEFAULTS, Scenario.TWO_NODE_FD, SimConfig(trials=100, seed=5))
        many = simulate_sinr(DEFAULTS, Scenario.TWO_NODE_FD, SimConfig(trials=2000, seed=5))
        assert few.shape == (4, 100)
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

    def test_infinite_threshold_is_certain_outage(self):
        sim = SimConfig(trials=300, seed=2)
        for scenario in Scenario:
            est = estimate_outage(DEFAULTS, scenario, 2000.0, sim)
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
        est = estimate_outage(DEFAULTS, Scenario.TWO_NODE_FD, 0.5, sim)
        assert est.meta["scenario"] == "two-node"
        assert est.meta["trials"] == 100 and est.meta["mode"] == "matched"


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
