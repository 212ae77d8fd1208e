import concurrent.futures
import dataclasses
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from d2doff import engine, phy
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
        assert m.offloading_efficiency == 0.0
        assert m.energy_total_per_delivery == 0.0
        assert m.mean_occupancy == 0.0

    def test_derived_quantities(self):
        m = MetricsAccumulator(deliveries_d2d=3, deliveries_i2d=1,
                               energy_d2d=0.3, energy_i2d=0.5,
                               occupancy_samples=[0.2, 0.4])
        assert m.offloading_efficiency == 0.75
        assert m.energy_total_per_delivery == pytest.approx(0.2)
        assert m.energy_d2d_per_delivery == pytest.approx(0.1)
        assert m.mean_occupancy == pytest.approx(0.3)
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
        assert m.offloading_efficiency == 0.0

    def test_caching_policies_offload(self, optimal_run):
        m = optimal_run.metrics
        assert m.deliveries_d2d > 0
        assert 0.0 < m.offloading_efficiency < 1.0
        assert m.repeated > 0

    def test_energy_ordering(self, short_cfg, optimal_run):
        cell = engine.run(short_cfg, "cellular", 120.0, 120.0, seed=321).metrics
        assert optimal_run.metrics.energy_total_per_delivery \
            < cell.energy_total_per_delivery

    def test_invalid_policy(self, short_cfg):
        with pytest.raises(ValueError):
            engine.Engine(short_cfg, "nope", seed=1)

    def test_invalid_duration(self, short_cfg):
        with pytest.raises(ValueError):
            engine.Engine(short_cfg, "optimal", seed=1).run(0.0, 0.0)


class TestReplicate:
    def test_cis_bracket_means(self, short_cfg):
        summ = engine.replicate(short_cfg, "optimal", 60.0, 60.0,
                                n_runs=3, base_seed=100)
        for name in summ.metric_names:
            m, lo, hi = summ.row(name)
            assert lo <= m <= hi
            # half-width t(0.975, 2 df) * standard error of the mean
            vals = np.array([r.summary()[name] for r in summ.runs])
            assert hi - m == pytest.approx(
                4.302652729749464 * vals.std(ddof=1) / np.sqrt(3),
                rel=1e-12, abs=1e-12 * abs(m))
        assert len(summ.runs) == 3

    def test_single_run_degenerate_ci(self, short_cfg):
        summ = engine.replicate(short_cfg, "optimal", 60.0, 60.0,
                                n_runs=1, base_seed=100)
        m, lo, hi = summ.row("mean_occupancy")
        assert lo == m == hi

    def test_bad_run_count(self, short_cfg):
        with pytest.raises(ValueError):
            engine.replicate(short_cfg, "optimal", 60.0, 60.0, 0, 1)

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
                "s = engine.replicate(Config(), 'optimal', 5.0, 0.0, n_runs=2,"
                " base_seed=1)\n"
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


# Outputs of engine.run(cfg at lambda = 1 veh/s, policy, 30, 30, seed=7),
# and the PCG64 state the run leaves its generator in (its increment is
# fixed by the seed).  Recorded when the scenario layer moved to batched
# request and cache-seed draws, the one declared change of the random
# stream; any refactor must draw the same random numbers in the same
# order, so the counts and the final state must match exactly and the
# energies to float round-off.
GOLDEN_LAMBDA_1 = {
    "optimal": dict(
        rng_state=118698323885486581817611954400086824587,
        deliveries_d2d=213, deliveries_i2d=221, repeated=141, dropped=23,
        requests_nonrepeated=465, failed_attempts=30, pruned_links=0,
        energy_d2d=0.25563690809976686, energy_i2d=14.663851578936551,
        d2d_distance_sum=2543.426208124625, mean_occupancy=0.3022222222222222),
    "benchmark": dict(
        rng_state=153314329701584694944718400771312999750,
        deliveries_d2d=239, deliveries_i2d=187, repeated=156, dropped=16,
        requests_nonrepeated=439, failed_attempts=24, pruned_links=0,
        energy_d2d=1.9468923146702781, energy_i2d=11.240837153365739,
        d2d_distance_sum=11038.096762093443, mean_occupancy=0.3288888888888889),
    "cellular": dict(
        rng_state=295288176577334608998036532902899638134,
        deliveries_d2d=0, deliveries_i2d=579, repeated=0, dropped=0,
        requests_nonrepeated=584, failed_attempts=46, pruned_links=32,
        energy_d2d=0.0, energy_i2d=36.44924651785451,
        d2d_distance_sum=0.0, mean_occupancy=0.4955555555555555),
}
GOLDEN_COUNTS = ("deliveries_d2d", "deliveries_i2d", "repeated", "dropped",
                 "requests_nonrepeated", "failed_attempts", "pruned_links")


class TestGolden:
    @pytest.mark.parametrize("policy", sorted(GOLDEN_LAMBDA_1))
    def test_fixed_seed_outputs(self, short_cfg, policy):
        cfg = dataclasses.replace(short_cfg, scenario=dataclasses.replace(
            short_cfg.scenario, vehicle_arrival_rate=1.0))
        eng = engine.run(cfg, policy, 30.0, 30.0, seed=7)
        m = eng.metrics
        want = GOLDEN_LAMBDA_1[policy]
        assert eng.rng.bit_generator.state["state"]["state"] == want["rng_state"]
        assert {k: getattr(m, k) for k in GOLDEN_COUNTS} == \
            {k: want[k] for k in GOLDEN_COUNTS}
        assert len(m.d2d_distances) == want["deliveries_d2d"]
        for key in ("energy_d2d", "energy_i2d", "mean_occupancy"):
            assert getattr(m, key) == pytest.approx(want[key], rel=1e-12, abs=0.0)
        assert sum(m.d2d_distances) == pytest.approx(want["d2d_distance_sum"],
                                                     rel=1e-12, abs=0.0)


# -- per-link reference of the transmission step -----------------------------
#
# The engine decides a tick's transmissions on tick-wide arrays.  This is the
# per-link loop it replaced: each link draws one fading block per
# overlapping peer of its reuse set, in allocation order, then one per HARQ
# attempt, and computes its capacity one attempt at a time.

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

    def _transmit_tick(self, links, reqs, placed, gains, nominal, powers,
                       t, measuring):
        energies = phy.content_energy(powers, self.cfg.phy)
        # (link, set, prb_start, prb_stop) of every placed link, from its slice
        rows = [(i, s, k * self.n_prbs, (k + 1) * self.n_prbs) for i, s, k in zip(
            placed.link.tolist(), placed.set_id.tolist(), placed.slice_id.tolist())]
        by_set = {}
        for row in rows:
            by_set.setdefault(row[1], []).append(row)
        for row in sorted(rows, key=lambda r: (r[1], r[2], r[0])):
            self._transmit_one(links, reqs[row[0]], row, by_set[row[1]], gains,
                               nominal, powers, float(energies[row[0]]), t, measuring)

    def _transmit_one(self, links, req, row, peers, gains, nominal, powers,
                      energy, t, measuring):
        cfg = self.cfg
        i, _, start, stop = row
        is_i2d = links.is_i2d[i]
        interferers = []
        for j, _, peer_start, peer_stop in peers:
            lo = max(start, peer_start)
            hi = min(stop, peer_stop)
            if j == i or hi <= lo:
                continue
            s_db = _ref_shadow_db(self.shadow, links.tx_x[j], links.rx_x[i])
            interferers.append((powers[j], _ref_realize(
                self.channel, gains[j, i], s_db, self.rng), lo, hi))
        shadow_db = _ref_shadow_db(self.shadow, links.tx_x[i], links.rx_x[i])
        success = False
        for attempt in range(cfg.phy.harq_attempts):
            own = _ref_realize(self.channel, nominal[i], shadow_db, self.rng)
            info = _ref_information(cfg.phy, powers[i], own, interferers, (start, stop))
            success = phy.transmission_success(info, cfg.phy)
            if attempt == 0:
                self.first_attempts += 1
                self.first_failures += not success
            if measuring:
                if is_i2d:
                    self.metrics.energy_i2d += energy
                else:
                    self.metrics.energy_d2d += energy
            if success:
                break
            req.attempts += 1
            if measuring:
                self.metrics.failed_attempts += 1
        if not success:
            return
        if is_i2d:
            req.state = DELIVERED_I2D
            if measuring:
                self.metrics.deliveries_i2d += 1
        else:
            req.state = DELIVERED_D2D
            if measuring:
                self.metrics.deliveries_d2d += 1
                self.metrics.d2d_distances.append(float(links.distance[i]))
        self.policy.retire(req)
        if self.policy.uses_cache:
            expiry = t + cfg.scenario.sharing_timeout
            self.world.add_cache(req.requester_id, req.content_id, expiry)
            self._cache_events.append((req.requester_id, req.content_id))


def _run_recorded(eng_cls, cfg, policy, seed):
    """Run 20 s after 10 s of warm-up.  Returns the engine, every request
    it created, the number of ``ChannelModel.realize`` calls (fading draws)
    and the number of ticks that transmitted anything."""
    eng = eng_cls(cfg, policy, seed)
    requests = []
    counts = {"draws": 0, "ticks": 0}
    spawn = eng.world.spawn_requests
    realize = eng.channel.realize
    transmit = eng._transmit_tick

    def recording_spawn(t):
        out = spawn(t)
        requests.extend(out)
        return out

    def counting_realize(*args, **kwargs):
        counts["draws"] += 1
        return realize(*args, **kwargs)

    def counting_transmit(links, reqs, placed, *args):
        counts["ticks"] += bool(placed)
        return transmit(links, reqs, placed, *args)

    eng.world.spawn_requests = recording_spawn
    eng.channel.realize = counting_realize
    eng._transmit_tick = counting_transmit
    eng.run(20.0, 10.0)
    return eng, requests, counts


class TestTickWideTransmission:
    """The tick-wide transmission step against the per-link reference, on a
    2 dB link margin that makes a fifth or more of first attempts fail."""

    @staticmethod
    def _compare(policy, lam, **phy):
        """Run both engines; returns the new one and its counts."""
        base = Config()
        cfg = dataclasses.replace(
            base,
            scenario=dataclasses.replace(base.scenario, vehicle_arrival_rate=lam),
            phy=dataclasses.replace(base.phy, link_margin_i2d_db=2.0,
                                    link_margin_d2d_db=2.0, **phy))
        ref, ref_reqs, _ = _run_recorded(ReferenceEngine, cfg, policy, 11)
        new, new_reqs, counts = _run_recorded(engine.Engine, cfg, policy, 11)
        assert ref.first_failures >= 0.2 * ref.first_attempts > 0
        assert dataclasses.asdict(ref.metrics) == dataclasses.asdict(new.metrics)
        assert [(r.id, r.state, r.attempts) for r in ref_reqs] == \
            [(r.id, r.state, r.attempts) for r in new_reqs]
        assert ref.rng.bit_generator.state == new.rng.bit_generator.state
        assert counts["ticks"] > 0
        return new, counts

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("harq", [1, 2, 4])
    @pytest.mark.parametrize("policy", ["optimal", "benchmark", "cellular"])
    def test_matches_reference(self, lam, harq, policy):
        new, counts = self._compare(policy, lam, harq_attempts=harq)
        if harq == 1:
            # one draw per transmitting tick
            assert counts["draws"] == counts["ticks"]
        else:
            # retries drew blocks past some tick's first draw
            assert new.metrics.failed_attempts > 0
            assert counts["draws"] > counts["ticks"]

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
        centers, dens = sample_distance_pdf(rng.uniform(0, 90, 5000),
                                            bin_width=2.0, r_max=100.0)
        assert np.sum(dens) * 2.0 == pytest.approx(1.0, abs=1e-9)
        assert centers[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_distance_pdf([])
