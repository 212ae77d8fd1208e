import concurrent.futures
import dataclasses
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from d2doff import engine, phy, rrrm
from d2doff.config import Config, ScenarioConfig
from d2doff.engine import MetricsAccumulator, sample_distance_pdf
from d2doff.scenario import DELIVERED_D2D, DELIVERED_I2D


@pytest.fixture(scope="module")
def short_cfg():
    # shorter road and busier traffic keep the short runs meaningful
    sc = ScenarioConfig()
    return dataclasses.replace(Config(), scenario=sc)


@pytest.fixture(scope="module")
def optimal_run(short_cfg):
    return engine.run(short_cfg, "optimal", duration=120.0, warmup=120.0,
                      seed=321)


class TestMetricsAccumulator:
    def test_empty_defaults(self):
        m = MetricsAccumulator()
        assert m.summary()["offloading_efficiency"] == 0.0
        assert m.summary()["energy_total_per_delivery"] == 0.0
        assert m.summary()["mean_occupancy"] == 0.0

    def test_derived_quantities(self):
        m = MetricsAccumulator(deliveries_d2d=3, deliveries_i2d=1,
                               energy_d2d=0.3, energy_i2d=0.5,
                               occupancy_samples=[0.2, 0.4])
        assert m.summary()["offloading_efficiency"] == 0.75
        assert m.summary()["energy_total_per_delivery"] == pytest.approx(0.2)
        assert m.summary()["energy_d2d_per_delivery"] == pytest.approx(0.1)
        assert m.summary()["mean_occupancy"] == pytest.approx(0.3)
        keys = set(m.summary())
        assert {"offloading_efficiency", "mean_occupancy",
                "energy_total_per_delivery"} <= keys


class TestDeterminism:
    def test_same_seed_same_summary(self, short_cfg):
        a = engine.run(short_cfg, "optimal", 60.0, 60.0, seed=9).metrics
        b = engine.run(short_cfg, "optimal", 60.0, 60.0, seed=9).metrics
        assert a.summary() == b.summary()
        assert a.d2d_distances == b.d2d_distances

    def test_different_seed_differs(self, short_cfg):
        a = engine.run(short_cfg, "optimal", 60.0, 60.0, seed=9).metrics
        b = engine.run(short_cfg, "optimal", 60.0, 60.0, seed=10).metrics
        assert a.summary() != b.summary()


class TestConservation:
    @pytest.mark.parametrize("policy", ["optimal", "benchmark", "cellular"])
    def test_requests_accounted(self, short_cfg, policy):
        # measure from t=0 so the accounting has no warm-up boundary
        eng = engine.run(short_cfg, policy, 240.0, 0.0, seed=77)
        m = eng.metrics
        still_open = sum(1 for r in eng.policy.pending.values() if not r.served)
        assert m.deliveries_d2d + m.deliveries_i2d + m.dropped + still_open \
            == m.requests_nonrepeated
        assert m.deliveries_d2d >= 0 and m.deliveries_i2d >= 0

    def test_occupancy_bounds(self, optimal_run):
        occ = np.array(optimal_run.metrics.occupancy_samples)
        assert occ.size == 120
        assert np.all((occ >= 0.0) & (occ <= 1.0))

    def test_d2d_distances_within_range(self, optimal_run):
        d = np.array(optimal_run.metrics.d2d_distances)
        assert d.size > 0
        assert np.all((d >= 0.0) & (d <= 100.0 + 1e-9))


class TestPolicyBehaviour:
    def test_cellular_never_offloads(self, short_cfg):
        m = engine.run(short_cfg, "cellular", 120.0, 120.0, seed=5).metrics
        assert m.deliveries_d2d == 0
        assert m.repeated == 0  # no caches, so no repeated hits
        assert m.summary()["offloading_efficiency"] == 0.0

    def test_caching_policies_offload(self, optimal_run):
        m = optimal_run.metrics
        assert m.deliveries_d2d > 0
        assert 0.0 < m.summary()["offloading_efficiency"] < 1.0
        assert m.repeated > 0

    def test_energy_ordering(self, short_cfg, optimal_run):
        cell = engine.run(short_cfg, "cellular", 120.0, 120.0, seed=321).metrics
        assert optimal_run.metrics.summary()["energy_total_per_delivery"] \
            < cell.summary()["energy_total_per_delivery"]

    def test_invalid_policy(self, short_cfg):
        with pytest.raises(ValueError):
            engine.Engine(short_cfg, "nope", seed=1)

    def test_invalid_duration(self, short_cfg):
        with pytest.raises(ValueError):
            engine.Engine(short_cfg, "optimal", seed=1).run(0.0, 0.0)


class TestReplicate:
    def test_cis_bracket_means(self, short_cfg):
        runs = engine.run_many([(short_cfg, "optimal", 60.0, 60.0, 100 + i)
                                for i in range(3)])
        summ = engine.summarize(runs)
        for name in summ.means:
            m, lo, hi = summ.row(name)
            assert lo <= m <= hi
            # half-width t(0.975, 2 df) * standard error of the mean
            vals = np.array([r.summary()[name] for r in runs])
            assert hi - m == pytest.approx(
                4.302652729749464 * vals.std(ddof=1) / np.sqrt(3),
                rel=1e-12, abs=1e-12 * abs(m))
        assert len(runs) == 3

    def test_single_run_degenerate_ci(self, short_cfg):
        summ = engine.summarize(engine.run_many([(short_cfg, "optimal", 60.0, 60.0, 100)]))
        m, lo, hi = summ.row("mean_occupancy")
        assert lo == m == hi

    def test_bad_run_count(self):
        with pytest.raises(ValueError):
            engine.summarize([])

    def test_t_quantile_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for df in range(1, 201):
            assert engine._t_quantile_975(df) == pytest.approx(
                stats.t.ppf(0.975, df), rel=1e-12, abs=0.0)

    def test_runs_without_scipy_or_numba(self):
        # The child must import the same checkout as this process, whether
        # d2doff is importable through PYTHONPATH or through an install.
        src_root = os.path.dirname(os.path.dirname(engine.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p)
        code = ("import sys\n"
                "sys.modules['scipy'] = sys.modules['numba'] = None\n"
                "import d2doff.cli\n"
                "from d2doff import engine\n"
                "from d2doff.config import Config\n"
                "runs = engine.run_many([(Config(), 'optimal', 5.0, 0.0, 1 + i)"
                " for i in range(2)])\n"
                "s = engine.summarize(runs)\n"
                "print(s.ci_low['mean_occupancy'] <= s.ci_high['mean_occupancy'])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]


class TestRunMany:
    def _jobs(self, cfg):
        # a policy and a seed per job, so that runs returned out of order show
        return [(cfg, policy, 30.0, 30.0, seed)
                for policy, seed in (("optimal", 5), ("cellular", 6), ("benchmark", 7))]

    def test_pooled_runs_equal_in_process_runs_in_job_order(self, short_cfg):
        jobs = self._jobs(short_cfg)
        pooled = engine.run_many(jobs, workers=2)
        assert multiprocessing.active_children() == []  # the pool is closed
        assert len(pooled) == len(jobs)
        for job, got in zip(jobs, pooled):
            want = engine.run(*job).metrics
            assert got.summary() == want.summary()
            assert got.d2d_distances == want.d2d_distances
            assert got.occupancy_samples == want.occupancy_samples

    def test_one_process_starts_no_pool(self, short_cfg, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool,
                            raising=False)
        jobs = self._jobs(short_cfg)
        assert len(engine.run_many(jobs, workers=1)) == len(jobs)
        assert len(engine.run_many(jobs[:1])) == 1
        assert engine.run_many([]) == []

    def test_default_workers_without_sched_getaffinity(self, short_cfg, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        jobs = self._jobs(short_cfg)[:2]
        for job, got in zip(jobs, engine.run_many(jobs)):
            assert got.summary() == engine.run(*job).metrics.summary()


class TestRanking:
    """The link table is the priority order (``rrrm.Links``) and
    ``allocate_prbs`` places its longest prefix that fits: checked on
    every tick of short runs, from a stationary start, that reach the
    first deadlines."""

    RUNS = [(policy, {"vehicle_arrival_rate": lam})
            for lam in (1.0, 3.0) for policy in ("optimal", "benchmark", "cellular")]
    RUNS.append(("optimal", {"content_timeout": 20.5, "control_interval": 0.7}))

    def test_table_is_ranked_and_pruned_from_its_tail(self, short_cfg, monkeypatch):
        link_table, allocate = engine.Engine._link_table, rrrm.allocate_prbs
        seen = {}

        def checked_table(eng, reqs, n_i2d):
            links = link_table(eng, reqs, n_i2d)
            # the infrastructure rows come first
            assert links.is_i2d.tolist() == [True] * n_i2d + [False] * (len(reqs) - n_i2d)
            for kind in (reqs[:n_i2d], reqs[n_i2d:]):
                ids = [r.id for r in kind]
                assert all(a < b for a, b in zip(ids, ids[1:]))
                deadlines = [r.deadline for r in kind]
                assert deadlines == sorted(deadlines)
            seen["mixed"] += 0 < n_i2d < len(reqs)
            return links

        def checked_allocate(sets, links, *args):
            placed, pruned = allocate(sets, links, *args)
            n, m = len(links), len(links) - len(pruned)
            assert pruned == list(range(n - 1, m - 1, -1))
            assert sorted(placed.link.tolist()) == list(range(m))
            seen["pruned"] += bool(pruned)
            return placed, pruned

        monkeypatch.setattr(engine.Engine, "_link_table", checked_table)
        monkeypatch.setattr(rrrm, "allocate_prbs", checked_allocate)
        pruned_runs = 0
        for policy, changes in self.RUNS:
            seen.update(mixed=0, pruned=0)
            cfg = dataclasses.replace(short_cfg, scenario=dataclasses.replace(
                short_cfg.scenario, **changes))
            engine.run(cfg, policy, 30.0, 0.0, seed=1)
            # both kinds share a tick once the first deadlines pass
            assert seen["mixed"] > 0 or policy == "cellular"
            pruned_runs += seen["pruned"] > 0
        assert pruned_runs >= 2


# Outputs of engine.run(cfg at lambda = 1 veh/s, policy, 30, 30, seed=7),
# and the PCG64 state the run leaves its generator in (its increment is
# fixed by the seed).  Recorded when a HARQ retry took one new fading block
# for its own channel alone, the last declared change of which random
# numbers go where; any refactor must draw the same random numbers in the
# same order, so the counts and the final state must match exactly and the
# energies to float round-off.  ``optimal`` re-recorded (here and below)
# when its scheduler stopped dropping holders outside a same-direction
# reach bound before the exact closest-approach test, and again when it
# began to plan on the copies that entering vehicles carry in.
GOLDEN_LAMBDA_1 = {
    "optimal": dict(
        rng_state=91118048440263023959437720390891513932,
        deliveries_d2d=270, deliveries_i2d=238, repeated=160, dropped=21,
        requests_nonrepeated=496, failed_attempts=27, pruned_links=0,
        energy_d2d=0.4277967898346385, energy_i2d=18.893269996396963,
        d2d_distance_sum=3913.498074665245, mean_occupancy=0.3333333333333333),
    "benchmark": dict(
        rng_state=35211291523015695454323311971024294856,
        deliveries_d2d=221, deliveries_i2d=213, repeated=154, dropped=26,
        requests_nonrepeated=417, failed_attempts=22, pruned_links=0,
        energy_d2d=1.7646248798648108, energy_i2d=13.471893891277276,
        d2d_distance_sum=10020.253733647582, mean_occupancy=0.3600000000000001),
    "cellular": dict(
        rng_state=71453395556125319482672131424233043739,
        deliveries_d2d=0, deliveries_i2d=546, repeated=0, dropped=1,
        requests_nonrepeated=546, failed_attempts=66, pruned_links=0,
        energy_d2d=0.0, energy_i2d=36.23272066534255,
        d2d_distance_sum=0.0, mean_occupancy=0.5400000000000001),
}
# The same runs with harq_attempts = 1: no retry, so every fading block is a
# first attempt's.  Recorded before retries took blocks of their own; the
# first attempts' blocks did not move with them.  ``cellular`` re-recorded
# when an eNB became its antenna height above every receiver, whatever the
# receiver's lane, which changed which infrastructure links share PRBs.
GOLDEN_NO_RETRY = {
    "optimal": dict(
        rng_state=31508770301249667688067088451654534209,
        deliveries_d2d=276, deliveries_i2d=203, repeated=152, dropped=30,
        requests_nonrepeated=490, failed_attempts=32, pruned_links=0,
        energy_d2d=0.26780453694748807, energy_i2d=17.41988781712337,
        d2d_distance_sum=3457.8318992907916, mean_occupancy=0.3444444444444444),
    "benchmark": dict(
        rng_state=263214304756222481507706619296290955989,
        deliveries_d2d=258, deliveries_i2d=206, repeated=136, dropped=34,
        requests_nonrepeated=445, failed_attempts=22, pruned_links=0,
        energy_d2d=2.002154665636482, energy_i2d=13.559411389827543,
        d2d_distance_sum=11309.362768169029, mean_occupancy=0.38222222222222224),
    "cellular": dict(
        rng_state=303265475306689994953202434567449508667,
        deliveries_d2d=0, deliveries_i2d=611, repeated=0, dropped=3,
        requests_nonrepeated=604, failed_attempts=70, pruned_links=44,
        energy_d2d=0.0, energy_i2d=49.303012397508176,
        d2d_distance_sum=0.0, mean_occupancy=0.551111111111111),
}
GOLDEN_COUNTS = ("deliveries_d2d", "deliveries_i2d", "repeated", "dropped",
                 "requests_nonrepeated", "failed_attempts", "pruned_links")


class TestGolden:
    @staticmethod
    def _check(cfg, policy, want):
        cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
            cfg.scenario, vehicle_arrival_rate=1.0))
        eng = engine.run(cfg, policy, 30.0, 30.0, seed=7)
        m = eng.metrics
        assert eng.rng.bit_generator.state["state"]["state"] == want["rng_state"]
        assert {k: getattr(m, k) for k in GOLDEN_COUNTS} == \
            {k: want[k] for k in GOLDEN_COUNTS}
        assert len(m.d2d_distances) == want["deliveries_d2d"]
        for key in ("energy_d2d", "energy_i2d"):
            assert getattr(m, key) == pytest.approx(want[key], rel=1e-12, abs=0.0)
        assert m.summary()["mean_occupancy"] == pytest.approx(want["mean_occupancy"],
                                                              rel=1e-12, abs=0.0)
        assert sum(m.d2d_distances) == pytest.approx(want["d2d_distance_sum"],
                                                     rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("policy", sorted(GOLDEN_LAMBDA_1))
    def test_fixed_seed_outputs(self, short_cfg, policy):
        self._check(short_cfg, policy, GOLDEN_LAMBDA_1[policy])

    @pytest.mark.parametrize("policy", sorted(GOLDEN_NO_RETRY))
    def test_fixed_seed_outputs_without_retries(self, short_cfg, policy):
        cfg = dataclasses.replace(short_cfg, phy=dataclasses.replace(
            short_cfg.phy, harq_attempts=1))
        self._check(cfg, policy, GOLDEN_NO_RETRY[policy])


# -- per-link reference of the transmission step -----------------------------
#
# The engine decides a tick's transmissions on tick-wide arrays.  This is the
# same step as a per-link loop: links transmit in order of (first PRB, link
# index).  First each, in that order, draws one fading block per other placed
# link whose PRBs overlap its own, in link order, then one for its own
# channel.  Then each makes its HARQ attempts, computing its capacity one
# attempt at a time; a retry draws one new block for its own channel and
# hears the same interferers.

def _ref_slots(start, stop, n_blocks):
    if stop <= start:
        return np.zeros(n_blocks, dtype=np.int64)
    full, rem_hi = divmod(stop, n_blocks)
    base_lo, rem_lo = divmod(start, n_blocks)
    counts = np.full(n_blocks, full - base_lo, dtype=np.int64)
    counts[:rem_hi] += 1
    counts[:rem_lo] -= 1
    return counts


def _ref_realize(model, nominal, shadow_db, rng):
    """The link's gains on one fading block: the direct sum of the taps of
    an exponential power-delay profile on delays spaced delay_spread / 2."""
    cfg = model.cfg
    delays = np.arange(cfg.n_taps) * (cfg.delay_spread / 2.0)
    powers = np.exp(-delays / cfg.delay_spread)
    amps = np.sqrt(powers / powers.sum() / 2.0)
    taps = amps * (rng.standard_normal(cfg.n_taps) + 1j * rng.standard_normal(cfg.n_taps))
    freqs = np.arange(cfg.freq_blocks * cfg.subcarriers_per_prb) * cfg.subcarrier_bandwidth
    h = np.einsum("ij,j->i", np.exp(-2j * np.pi * np.outer(freqs, delays)), taps)
    return float(nominal) * 10.0 ** (shadow_db / 10.0) * np.abs(h) ** 2


def _ref_shadow_db(field, x_tx, x_rx):
    return (float(np.interp(x_tx, field._x, field._vals))
            + float(np.interp(x_rx, field._x, field._vals))) / np.sqrt(2.0)


def _ref_information(cfg, own_power, own_gains, interferers, prb_range):
    """Each block's subcarrier rates summed, then weighted by its slots."""
    n_blocks, k_sc = cfg.freq_blocks, cfg.subcarriers_per_prb
    signal = own_power * own_gains
    interference = np.zeros_like(signal)
    for p_i, gains_i, lo, hi in interferers:
        mask = np.repeat((_ref_slots(lo, hi, n_blocks) > 0).astype(float), k_sc)
        interference += p_i * gains_i * mask
    sinr = signal / (phy.subcarrier_noise_power(cfg) + interference)
    rate = np.minimum(cfg.spectral_efficiency, np.log2(1.0 + sinr))
    block_rate = rate.reshape(n_blocks, k_sc).sum(axis=1)
    return float(cfg.prb_duration * cfg.subcarrier_bandwidth
                 * np.sum(_ref_slots(*prb_range, n_blocks) * block_rate))


class ReferenceEngine(engine.Engine):
    """Engine whose transmission step is the per-link reference loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_attempts = 0
        self.first_failures = 0

    def _transmit_tick(self, links, reqs, placed, gains, powers, t, m):
        energies = phy.content_energy(powers, self.cfg.phy)
        # (link, prb_start, prb_stop) of every placed link in link order,
        # from its slice
        rows = sorted((i, k * self.n_prbs, (k + 1) * self.n_prbs) for i, k in zip(
            placed.link.tolist(), placed.slice_id.tolist()))
        order = sorted(rows, key=lambda r: (r[1], r[0]))
        channels = [self._first_channels(links, row, rows, gains, powers)
                    for row in order]
        for row, (interferers, shadow_db, own) in zip(order, channels):
            self._transmit_one(links, reqs[row[0]], row, interferers, shadow_db, own,
                               gains, powers, float(energies[row[0]]), t, m)

    def _first_channels(self, links, row, peers, gains, powers):
        """The interferers that link row[0] hears, its shadowing and its
        own channel's gains on its first attempt."""
        i, start, stop = row
        interferers = []
        for j, peer_start, peer_stop in peers:
            lo = max(start, peer_start)
            hi = min(stop, peer_stop)
            if j == i or hi <= lo:
                continue
            s_db = _ref_shadow_db(self.shadow, links.tx_x[j], links.rx_x[i])
            interferers.append((powers[j], _ref_realize(
                self.channel, gains[j, i], s_db, self.rng), lo, hi))
        shadow_db = _ref_shadow_db(self.shadow, links.tx_x[i], links.rx_x[i])
        return interferers, shadow_db, _ref_realize(self.channel, gains[i, i], shadow_db,
                                                    self.rng)

    def _transmit_one(self, links, req, row, interferers, shadow_db, own, gains,
                      powers, energy, t, m):
        cfg = self.cfg
        i, start, stop = row
        is_i2d = links.is_i2d[i]
        success = False
        for attempt in range(cfg.phy.harq_attempts):
            if attempt:
                own = _ref_realize(self.channel, gains[i, i], shadow_db, self.rng)
            info = _ref_information(cfg.phy, powers[i], own, interferers, (start, stop))
            success = phy.transmission_success(info, cfg.phy)
            if attempt == 0:
                self.first_attempts += 1
                self.first_failures += not success
            if is_i2d:
                m.energy_i2d += energy
            else:
                m.energy_d2d += energy
            if success:
                break
            m.failed_attempts += 1
        if not success:
            return
        if is_i2d:
            req.state = DELIVERED_I2D
            m.deliveries_i2d += 1
        else:
            req.state = DELIVERED_D2D
            m.deliveries_d2d += 1
            m.d2d_distances.append(float(links.distance[i]))
        self.policy.retire(req)
        if self.policy.uses_cache:
            self.world.add_cache(req.requester_id, req.content_id, t)


def _run_recorded(eng_cls, cfg, policy, seed):
    """Run 20 s after 10 s of warm-up.  Returns the engine, every request
    it created and, per tick that transmitted anything, its channel rows
    (one per placed link and peer it hears), its retried HARQ attempts and
    the ``ChannelModel.realize`` calls (draws) and fading blocks it made."""
    eng = eng_cls(cfg, policy, seed)
    requests, ticks = [], []
    drawn = {"draws": 0, "blocks": 0}
    spawn = eng.world.spawn_requests
    realize = eng.channel.realize
    transmit = eng._transmit_tick

    def recording_spawn(t):
        out = spawn(t)
        requests.extend(out)
        return out

    def counting_realize(n_blocks, rng):
        drawn["draws"] += 1
        drawn["blocks"] += n_blocks
        return realize(n_blocks, rng)

    def counting_transmit(links, reqs, placed, gains, powers, t, m):
        served = [reqs[i] for i in placed.link.tolist()]
        failed_before = m.failed_attempts
        before = dict(drawn)
        transmit(links, reqs, placed, gains, powers, t, m)
        if not placed:
            return
        failures = m.failed_attempts - failed_before
        # every failure is followed by a retry, except an undelivered link's last
        undelivered = sum(r.state not in (DELIVERED_D2D, DELIVERED_I2D) for r in served)
        sharing = np.unique(placed.slice_id, return_counts=True)[1]
        ticks.append(dict(rows=int(np.sum(sharing ** 2)), retries=failures - undelivered,
                          **{k: drawn[k] - before[k] for k in drawn}))

    eng.world.spawn_requests = recording_spawn
    eng.channel.realize = counting_realize
    eng._transmit_tick = counting_transmit
    eng.run(20.0, 10.0)
    return eng, requests, ticks


class TestTickWideTransmission:
    """The tick-wide transmission step against the per-link reference, on a
    2 dB link margin that makes a fifth or more of first attempts fail."""

    @staticmethod
    def _compare(policy, lam, **phy):
        """Run both engines; returns the new one and its ticks."""
        base = Config()
        cfg = dataclasses.replace(
            base,
            scenario=dataclasses.replace(base.scenario, vehicle_arrival_rate=lam),
            phy=dataclasses.replace(base.phy, link_margin_i2d_db=2.0,
                                    link_margin_d2d_db=2.0, **phy))
        ref, ref_reqs, _ = _run_recorded(ReferenceEngine, cfg, policy, 11)
        new, new_reqs, ticks = _run_recorded(engine.Engine, cfg, policy, 11)
        assert ref.first_failures >= 0.2 * ref.first_attempts > 0
        assert dataclasses.asdict(ref.metrics) == dataclasses.asdict(new.metrics)
        assert [(r.id, r.state) for r in ref_reqs] == [(r.id, r.state) for r in new_reqs]
        assert ref.rng.bit_generator.state == new.rng.bit_generator.state
        assert ticks
        # one draw with a block per row, then a draw of one block per retry
        for tick in ticks:
            assert tick["blocks"] == tick["rows"] + tick["retries"]
            assert tick["draws"] == 1 + tick["retries"]
        return new, ticks

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("harq", [1, 2, 4])
    @pytest.mark.parametrize("policy", ["optimal", "benchmark", "cellular"])
    def test_matches_reference(self, lam, harq, policy):
        new, ticks = self._compare(policy, lam, harq_attempts=harq)
        retries = sum(tick["retries"] for tick in ticks)
        if harq == 1:
            assert retries == 0
        else:
            assert new.metrics.failed_attempts > 0
            assert retries > 0

    @pytest.mark.parametrize("n_prbs", [8, 200])
    @pytest.mark.parametrize("policy", ["optimal", "benchmark", "cellular"])
    def test_matches_reference_on_part_of_the_band(self, n_prbs, policy):
        # a payload of 432 n - 100 bits takes n PRBs: a slice holds 3 or 4
        # slots of each of the 60 frequency blocks (n = 200), or misses 52
        # of them (n = 8), where the reference masks the interference
        new, _ = self._compare(policy, 1.0, payload_bits=432.0 * n_prbs - 100.0)
        assert new.n_prbs == n_prbs


class TestDistancePdf:
    def test_normalized(self, rng):
        centers, dens = sample_distance_pdf(rng.uniform(0, 90, 5000))
        assert np.sum(dens) * 2.0 == pytest.approx(1.0, abs=1e-9)
        assert centers[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_distance_pdf([])
