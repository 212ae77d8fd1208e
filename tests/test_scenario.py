import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2doff import scenario
from d2doff.config import Config, ScenarioConfig
from d2doff.popularity import zipf_pmf
from d2doff.scenario import BACKWARD, FORWARD, World, vehicle_distance


@pytest.fixture()
def world(rng):
    return World(Config().scenario, rng)


class TestGeometry:
    def test_same_lane_distance(self):
        assert vehicle_distance(100.0, FORWARD, 50.0, FORWARD, 10.0) == 50.0

    def test_cross_lane_distance(self):
        assert vehicle_distance(100.0, FORWARD, 100.0, BACKWARD, 10.0) == 10.0
        assert vehicle_distance(30.0, FORWARD, 0.0, BACKWARD, 10.0) == \
            pytest.approx(math.hypot(30.0, 10.0))

    def test_nearest_enb(self, world):
        i, d = world.nearest_enb(610.0)
        assert i == 1
        assert d == pytest.approx(math.hypot(10.0, world.cfg.enb_antenna_height))

    def test_nearest_enb_matches_scan(self, world):
        pos = world.cfg.enb_positions
        h = world.cfg.enb_antenna_height
        # 10 m steps: the midpoints 300 m, 900 m, ... tie and go to the lower index
        xs = np.linspace(0.0, world.cfg.street_length, 301)
        idx, dist = world.nearest_enb(xs)
        want = [min(range(len(pos)), key=lambda k: abs(pos[k] - x)) for x in xs.tolist()]
        assert idx.tolist() == want
        assert dist.tolist() == [math.hypot(pos[i] - x, h) for i, x in zip(want, xs.tolist())]
        assert [idx[k] for k in (30, 90, 150)] == [0, 1, 2]


class TestVehicles:
    def test_spawn_rate(self, rng):
        world = World(Config().scenario, rng)
        spawned = world.spawn_vehicles(0.0, 60_000.0)
        # lam = 1/3 per second, both ends combined
        assert len(spawned) == pytest.approx(20_000, rel=0.02)
        forward = [v for v in spawned if v.speed > 0]
        assert len(forward) == pytest.approx(10_000, rel=0.05)

    def test_entry_geometry(self, world):
        for v in world.spawn_vehicles(0.0, 100.0):
            if v.speed > 0:
                assert v.entry_point == 0.0 and v.lane == FORWARD
            else:
                assert v.entry_point == world.cfg.street_length
                assert v.lane == BACKWARD
            assert v.exit_time == pytest.approx(
                v.entry_time + 3000.0 / abs(v.speed))

    def test_position_bounds(self, world):
        (veh,) = [world._new_vehicle(0.0, 15.0)]
        assert veh.position(0.0) == 0.0
        assert veh.position(10.0) == 150.0
        with pytest.raises(ValueError, match="inactive"):
            veh.position(veh.exit_time + 1.0)

    def test_remove_exited(self, world):
        world._new_vehicle(0.0, 15.0)   # exits at t=200
        world._new_vehicle(0.0, 10.0)   # exits at t=300
        gone = world.remove_exited(250.0)
        assert gone == [0]
        assert set(world.vehicles) == {1}

    def test_stationary_count(self, rng):
        # expected steady-state population: rho * street length ~ 65.4
        world = World(Config().scenario, rng)
        world.init_stationary(0.0)
        n = len(world.vehicles)
        expected = 0.0218 * 3000.0
        assert abs(n - expected) < 4 * math.sqrt(expected)

    def test_stationary_speed_bias(self, rng):
        # time-in-road biased speeds: slower vehicles over-represented
        sc = Config().scenario
        world = World(sc, np.random.default_rng(7))
        world.init_stationary(0.0)
        mags = np.abs([v.speed for v in world.vehicles.values()])
        midpoint = 0.5 * (sc.speed_min + sc.speed_max)
        assert mags.mean() < midpoint

    def test_refresh_arrays(self, world):
        world._new_vehicle(0.0, 15.0)
        world._new_vehicle(0.0, -10.0)
        world.refresh_arrays(10.0)
        assert list(world.ids) == [0, 1]
        assert world.xs[0] == 150.0
        assert world.xs[1] == 2900.0
        assert world.lanes[1] == BACKWARD
        assert world.idx_of[1] == 1


class FullScanWorld(World):
    """World that evicts by scanning every cache entry of every vehicle."""

    def evict_expired(self, t):
        for veh in self.vehicles.values():
            for z in [z for z, exp in veh.cache.items() if exp <= t]:
                del veh.cache[z]
                self.holders[z].discard(veh.id)


class TestCaches:
    def test_add_and_evict(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        world.add_cache(veh.id, 3, expiry=50.0)
        assert world.holders[3] == {veh.id}
        world.evict_expired(49.0)
        assert 3 in veh.cache
        world.evict_expired(50.0)
        assert 3 not in veh.cache and world.holders[3] == set()

    def test_longer_expiry_wins(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        world.add_cache(veh.id, 3, expiry=50.0)
        world.add_cache(veh.id, 3, expiry=40.0)
        assert veh.cache[3] == 50.0

    def test_exit_releases_holdership(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        world.add_cache(veh.id, 3, expiry=1e9)
        world.remove_exited(veh.exit_time)
        assert world.holders[3] == set()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["vehicle", "add", "evict", "exit"]),
                              st.integers(0, 50), st.integers(0, 6),
                              st.floats(0.0, 40.0)), max_size=80))
    def test_evict_matches_full_scan(self, ops):
        # (op, vehicle pick, content, time step or expiry offset)
        worlds = [World(Config().scenario, np.random.default_rng(0)),
                  FullScanWorld(Config().scenario, np.random.default_rng(0))]
        t = 0.0
        for op, pick, z, x in ops:
            t += x / 8.0
            for w in worlds:
                if op == "vehicle":
                    w._new_vehicle(t, 15.0 + pick)
                elif op == "add" and w.vehicles:
                    vids = sorted(w.vehicles)
                    w.add_cache(vids[pick % len(vids)], z, t + x)
                elif op == "evict":
                    w.evict_expired(t)
                elif op == "exit":
                    w.remove_exited(t * 20.0)
            new, ref = worlds
            assert [(vid, list(v.cache.items())) for vid, v in new.vehicles.items()] == \
                [(vid, list(v.cache.items())) for vid, v in ref.vehicles.items()]
            assert new.holders == ref.holders

    def test_stationary_caches_popular_heavy(self):
        world = World(Config().scenario, np.random.default_rng(11))
        world.init_stationary(0.0)
        held = [z for v in world.vehicles.values() for z in v.cache]
        if held:  # popular ids dominate cached copies
            assert np.median(held) < world.cfg.library_size / 10


class TestRequests:
    def test_rate(self):
        world = World(Config().scenario, np.random.default_rng(5))
        for _ in range(30):
            world._new_vehicle(0.0, 15.0)
        total = sum(len(world.spawn_requests(t)) for t in range(100))
        # 30 vehicles * 0.1 req/s * 100 s
        assert total == pytest.approx(300, rel=0.15)

    def test_fields(self, world):
        world._new_vehicle(0.0, 15.0)
        reqs = []
        t = 0.0
        while not reqs and t < 200.0:
            reqs = world.spawn_requests(t)
            t += 1.0
        r = reqs[0]
        assert r.deadline == r.t0 + world.cfg.content_timeout
        assert 0 <= r.content_id < world.cfg.library_size
        assert r.state == scenario.PENDING and not r.served

    def test_popularity_skew(self):
        world = World(Config().scenario, np.random.default_rng(6))
        for _ in range(200):
            world._new_vehicle(0.0, 15.0)
        ids = [r.content_id for t in range(40)
               for r in world.spawn_requests(float(t))]
        # content 1 should take ~15% of all requests under the default skew
        share = np.mean(np.array(ids) == 0)
        assert share == pytest.approx(0.151, abs=0.03)

    def test_contents_match_weighted_choice(self):
        sc = Config().scenario
        world = World(sc, np.random.default_rng(8))
        for k in range(40):
            world._new_vehicle(0.0, 15.0 + 0.1 * k)
        got = [(r.requester_id, r.content_id) for t in range(30)
               for r in world.spawn_requests(float(t))]
        # replay the stream with Generator.choice over the Zipf pmf
        rng = np.random.default_rng(8)
        pmf = zipf_pmf(sc.zipf_alpha, sc.library_size)
        want = []
        for t in range(30):
            for vid in sorted(world.vehicles):
                k = rng.poisson(sc.request_rate * sc.control_interval)
                if k:
                    want += [(vid, int(z)) for z in
                             rng.choice(sc.library_size, size=k, p=pmf)]
        assert len(got) > 50
        assert got == want

    def test_worlds_share_one_read_only_cdf(self):
        a = World(Config().scenario, np.random.default_rng(1))
        b = World(Config().scenario, np.random.default_rng(2))
        assert a.content_cdf is b.content_cdf
        assert not a.content_cdf.flags.writeable

    def test_inactive_vehicles_silent(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        assert world.spawn_requests(veh.exit_time + 1.0) == []
