import dataclasses

import numpy as np
import pytest

from d2doff import engine
from d2doff.config import Config, ScenarioConfig
from d2doff.engine import MetricsAccumulator, sample_distance_pdf


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
        assert len(summ.runs) == 3

    def test_single_run_degenerate_ci(self, short_cfg):
        summ = engine.replicate(short_cfg, "optimal", 60.0, 60.0,
                                n_runs=1, base_seed=100)
        m, lo, hi = summ.row("mean_occupancy")
        assert lo == m == hi

    def test_bad_run_count(self, short_cfg):
        with pytest.raises(ValueError):
            engine.replicate(short_cfg, "optimal", 60.0, 60.0, 0, 1)


# Outputs of engine.run(cfg at lambda = 1 veh/s, policy, 30, 30, seed=7),
# recorded before the per-tick radio path was vectorized.  The vectorized
# path draws the same random numbers in the same order, so the counts must
# match exactly and the energies to float round-off.
GOLDEN_LAMBDA_1 = {
    "optimal": dict(
        deliveries_d2d=191, deliveries_i2d=235, repeated=149, dropped=27,
        requests_nonrepeated=424, failed_attempts=25, pruned_links=0,
        energy_d2d=0.14037447104265963, energy_i2d=19.40568747507099,
        d2d_distance_sum=2063.311920463907, mean_occupancy=0.30666666666666664),
    "benchmark": dict(
        deliveries_d2d=223, deliveries_i2d=182, repeated=122, dropped=29,
        requests_nonrepeated=425, failed_attempts=29, pruned_links=0,
        energy_d2d=1.7489580141899188, energy_i2d=13.51586584211401,
        d2d_distance_sum=10011.915372168849, mean_occupancy=0.308888888888889),
    "cellular": dict(
        deliveries_d2d=0, deliveries_i2d=614, repeated=0, dropped=0,
        requests_nonrepeated=616, failed_attempts=57, pruned_links=64,
        energy_d2d=0.0, energy_i2d=47.575021161635476,
        d2d_distance_sum=0.0, mean_occupancy=0.6111111111111109),
}
GOLDEN_COUNTS = ("deliveries_d2d", "deliveries_i2d", "repeated", "dropped",
                 "requests_nonrepeated", "failed_attempts", "pruned_links")


class TestGolden:
    @pytest.mark.parametrize("policy", sorted(GOLDEN_LAMBDA_1))
    def test_fixed_seed_outputs(self, short_cfg, policy):
        cfg = dataclasses.replace(short_cfg, scenario=dataclasses.replace(
            short_cfg.scenario, vehicle_arrival_rate=1.0))
        m = engine.run(cfg, policy, 30.0, 30.0, seed=7).metrics
        want = GOLDEN_LAMBDA_1[policy]
        assert {k: getattr(m, k) for k in GOLDEN_COUNTS} == \
            {k: want[k] for k in GOLDEN_COUNTS}
        assert len(m.d2d_distances) == want["deliveries_d2d"]
        for key in ("energy_d2d", "energy_i2d", "mean_occupancy"):
            assert getattr(m, key) == pytest.approx(want[key], rel=1e-12, abs=0.0)
        assert sum(m.d2d_distances) == pytest.approx(want["d2d_distance_sum"],
                                                     rel=1e-12, abs=0.0)


class TestDistancePdf:
    def test_normalized(self, rng):
        centers, dens = sample_distance_pdf(rng.uniform(0, 90, 5000),
                                            bin_width=2.0, r_max=100.0)
        assert np.sum(dens) * 2.0 == pytest.approx(1.0, abs=1e-9)
        assert centers[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_distance_pdf([])
