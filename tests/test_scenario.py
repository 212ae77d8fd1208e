import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2doff import engine, scenario
from d2doff.config import Config, ScenarioConfig
from d2doff.popularity import zipf_pmf
from d2doff.scenario import BACKWARD, FORWARD, World
from d2doff.speedlaw import UniformSpeedLaw


@pytest.fixture()
def world(rng):
    return World(Config().scenario, rng)


def kinematics(world, vid):
    """The vehicle's row of ``world.table``, its columns as attributes."""
    tab = world.table
    i = int(np.searchsorted(tab.id, vid))
    if i == tab.id.size or tab.id[i] != vid:
        raise KeyError(f"vehicle {vid} is not on the table")
    return SimpleNamespace(**{name: col[i].item() for name, col in vars(tab).items()})


def gap(world, vid_a, vid_b, t):
    """``World.d2d_distance`` of two vehicles on the arrays of tick t."""
    world.refresh_arrays(t)
    rows = [np.array([world.idx_of[v]]) for v in (vid_a, vid_b)]
    return float(world.d2d_distance(*rows)[0])


def place(world, x, lane):
    """A vehicle of the given lane at position x at t = 0 (x a multiple of 10)."""
    speed, entry_point = (10.0, 0.0) if lane == FORWARD else (-10.0, world.cfg.street_length)
    return world._new_vehicle(-(x - entry_point) / speed, speed).id


class TestGeometry:
    def test_same_lane_distance(self, world):
        assert world.cfg.lane_offset == 10.0
        assert gap(world, place(world, 100.0, FORWARD), place(world, 50.0, FORWARD),
                   0.0) == 50.0

    def test_cross_lane_distance(self, world):
        assert gap(world, place(world, 100.0, FORWARD), place(world, 100.0, BACKWARD),
                   0.0) == 10.0
        assert gap(world, place(world, 30.0, FORWARD), place(world, 0.0, BACKWARD),
                   0.0) == math.hypot(30.0, 10.0)

    def test_planned_distance_is_transmitted_distance(self):
        # 2000 forward requesters, each 0-10 m ahead of a backward vehicle
        # that alone holds the requested content: the pair is closest now,
        # so the scheduler plans on the gap the link is charged for, and
        # the two distances agree to the bit (math.hypot and numpy's hypot
        # differ in the last bit for a few cross-lane gaps in a thousand)
        eng = engine.Engine(Config(), "optimal", 0)
        world, rng = eng.world, np.random.default_rng(3)
        reqs = []
        for z, x in enumerate(rng.uniform(1000.0, 1200.0, 2000).tolist()):
            requester = world._new_vehicle(-x / 10.0, 10.0).id
            holder = world._new_vehicle((x - 3000.0) / 10.0 - rng.random(), -10.0).id
            world.add_cache(holder, z, 100.0)
            reqs.append(scenario.ContentRequest(id=z, requester_id=requester,
                                                content_id=z, t0=0.0, deadline=30.0))
        world.refresh_arrays(0.0)
        eng.policy.handle_new(reqs, [], world, 0.0)
        due = eng.policy.d2d_intents(world, 0.0)
        assert due == reqs
        links = eng._link_table(due, 0)
        assert links.distance.tolist() == [r.delta_hat for r in due]
        assert np.count_nonzero(links.distance > world.cfg.lane_offset) > 1000

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
        assert np.count_nonzero(world.table.speed > 0) == pytest.approx(10_000, rel=0.05)

    def test_entry_geometry(self, world):
        for v in (kinematics(world, veh.id) for veh in world.spawn_vehicles(0.0, 100.0)):
            if v.speed > 0:
                assert v.entry_point == 0.0 and v.lane == FORWARD
            else:
                assert v.entry_point == world.cfg.street_length
                assert v.lane == BACKWARD
            assert v.exit_time == pytest.approx(
                v.entry_time + 3000.0 / abs(v.speed))

    def test_position_bounds(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        # a same-lane vehicle entering at t marks position 0 at t
        assert gap(world, veh.id, world._new_vehicle(0.0, 15.0).id, 0.0) == 0.0
        assert gap(world, veh.id, world._new_vehicle(10.0, 15.0).id, 10.0) == 150.0
        t_out = kinematics(world, veh.id).exit_time + 1.0
        world.remove_exited(t_out)
        with pytest.raises(KeyError):
            gap(world, veh.id, world._new_vehicle(t_out, 15.0).id, t_out)

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

    @pytest.mark.parametrize("speeds", [(9.0, 24.0), (15.0, 15.0)])
    def test_stationary_density_is_one_body(self, speeds):
        sc = dataclasses.replace(Config().scenario, speed_min=speeds[0],
                                 speed_max=speeds[1])
        # the expression init_stationary used to compute itself
        old = (sc.vehicle_arrival_rate
               * math.log(sc.speed_max / sc.speed_min)
               / (sc.speed_max - sc.speed_min)
               if sc.speed_max > sc.speed_min
               else sc.vehicle_arrival_rate / sc.speed_min)
        law = UniformSpeedLaw(sc.speed_min, sc.speed_max)
        assert law.stationary_density(sc.vehicle_arrival_rate) == old

    def test_stationary_speed_bias(self, rng):
        # time-in-road biased speeds: slower vehicles over-represented
        sc = Config().scenario
        world = World(sc, np.random.default_rng(7))
        world.init_stationary(0.0)
        mags = np.abs(world.table.speed)
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


def parent_refresh_arrays(kinematics, t):
    """The dict-based ``refresh_arrays`` the vehicle table replaced, over
    {id: (entry_time, speed, entry_point, lane, exit_time)}."""
    vids = sorted(v for v in kinematics if kinematics[v][0] <= t)
    return dict(
        ids=np.array(vids, dtype=np.int64),
        xs=np.array([kinematics[v][2] + kinematics[v][1] * (t - kinematics[v][0])
                     for v in vids]),
        vs=np.array([kinematics[v][1] for v in vids]),
        lanes=np.array([kinematics[v][3] for v in vids], dtype=np.int64),
        exits=np.array([kinematics[v][4] for v in vids]),
        idx_of={v: i for i, v in enumerate(vids)})


class TestVehicleTable:
    @pytest.mark.parametrize("policy", ["optimal", "benchmark", "cellular"])
    def test_tick_arrays_match_parent_refresh(self, policy):
        # each vehicle's kinematics are recorded once, the tick it appears,
        # so a later compaction that misplaced a row would show
        cfg = Config()
        cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
            cfg.scenario, vehicle_arrival_rate=1.0))
        eng = engine.Engine(cfg, policy, seed=4)
        world = eng.world
        world.init_stationary(0.0)
        seen = {}
        for k in range(60):
            t = k * cfg.scenario.control_interval
            eng.tick(t, True)
            for vid in world.vehicles:
                if vid not in seen:
                    row = kinematics(world, vid)
                    seen[vid] = (row.entry_time, row.speed, row.entry_point,
                                 row.lane, row.exit_time)
            want = parent_refresh_arrays({v: seen[v] for v in world.vehicles}, t)
            for name in ("ids", "xs", "vs", "lanes", "exits"):
                got = getattr(world, name)
                assert got.dtype == want[name].dtype
                assert np.array_equal(got, want[name])
            assert world.idx_of == want["idx_of"]
            assert list(world.table.id) == sorted(world.vehicles)
        assert len(seen) - len(world.vehicles) > 10     # vehicles left the table

    def test_removed_vehicle_has_no_row(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        assert world.remove_exited(kinematics(world, veh.id).exit_time) == [veh.id]
        assert veh.id not in world.table.id
        with pytest.raises(KeyError):
            kinematics(world, veh.id)


class FullScanWorld(World):
    """World that evicts by scanning every cache entry of every vehicle."""

    def evict_expired(self, t):
        for veh in self.vehicles.values():
            for z in [z for z, exp in veh.cache.items() if exp <= t]:
                del veh.cache[z]
                del self.holders[z][veh.id]


def cache_index(world):
    """The holder index that the vehicles' caches imply: content ->
    {vehicle id: expiry}, one entry per cached copy."""
    index = {}
    for vid, veh in world.vehicles.items():
        for z, exp in veh.cache.items():
            index.setdefault(z, {})[vid] = exp
    return index


class TestCaches:
    def test_add_and_evict(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        world.add_cache(veh.id, 3, expiry=50.0)
        assert world.holders[3] == {veh.id: 50.0}
        world.evict_expired(49.0)
        assert 3 in veh.cache and world.holders[3] == {veh.id: 50.0}
        world.evict_expired(50.0)
        assert 3 not in veh.cache and world.holders[3] == {}

    def test_longer_expiry_wins(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        world.add_cache(veh.id, 3, expiry=50.0)
        world.add_cache(veh.id, 3, expiry=40.0)
        assert veh.cache[3] == 50.0 and world.holders[3] == {veh.id: 50.0}
        # a renewed copy lives to its new expiry
        world.add_cache(veh.id, 3, expiry=80.0)
        world.evict_expired(60.0)
        assert veh.cache[3] == 80.0 and world.holders[3] == {veh.id: 80.0}
        world.evict_expired(80.0)
        assert 3 not in veh.cache and world.holders[3] == {}

    def test_exit_releases_holdership(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        world.add_cache(veh.id, 3, expiry=1e9)
        world.remove_exited(kinematics(world, veh.id).exit_time)
        assert world.holders[3] == {}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["vehicle", "add", "evict", "exit"]),
                              st.integers(0, 50), st.integers(0, 6),
                              st.floats(0.0, 40.0)), max_size=80))
    # few drawn cases evict a copy, so these run every time: a copy added
    # (expiry 9 s) then evicted; a copy renewed (9 s -> 28 s), which outlives
    # the heap entry of its first expiry; a copy whose vehicle (65 m/s,
    # gone at 30.8 s) leaves the road
    @example([("vehicle", 0, 0, 0.0), ("add", 0, 3, 8.0),
              ("evict", 0, 0, 40.0), ("evict", 0, 0, 40.0)])
    @example([("vehicle", 0, 0, 0.0), ("add", 0, 3, 8.0), ("add", 0, 3, 24.0)]
             + [("evict", 0, 0, 40.0)] * 5)
    @example([("vehicle", 50, 0, 0.0), ("add", 0, 3, 40.0), ("exit", 0, 0, 0.0)])
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
            assert {z: hs for z, hs in new.holders.items() if hs} == cache_index(new)

    def test_seeded_hits_and_receipt_ages(self):
        # each content is held with probability 1 - exp(-lambda_z w), and a
        # held copy was received at a uniform time within the window
        sc = Config().scenario
        world = World(sc, np.random.default_rng(12))
        n, w, now = 4000, 100.0, 500.0
        vehs = world._add_vehicles(np.zeros(n), np.full(n, 15.0))
        world._seed_caches(vehs, np.full(n, now), np.full(n, w))
        lam_z = zipf_pmf(sc.zipf_alpha, sc.library_size) * sc.request_rate
        for z in [*range(10), 100, 1000]:
            p = -math.expm1(-lam_z[z] * w)
            hits = sum(z in veh.cache for veh in vehs)
            assert abs(hits - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
            assert world.holders.get(z, {}) == {v.id: v.cache[z] for v in vehs if z in v.cache}
        ages = np.sort([now - (exp - sc.sharing_timeout)
                        for veh in vehs for exp in veh.cache.values()])
        assert 0.0 <= ages[0] and ages[-1] <= w
        m = ages.size
        ks = np.max(np.maximum(np.arange(1, m + 1) / m - ages / w, ages / w - np.arange(m) / m))
        assert ks <= 2.15 / math.sqrt(m)    # Kolmogorov-Smirnov, 1e-4 level
        assert all(veh.next_expiry == min(veh.cache.values(), default=math.inf)
                   for veh in vehs)

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
        # replay the stream with Generator.choice over the Zipf pmf: one
        # count per vehicle, then all of the tick's contents at once
        rng = np.random.default_rng(8)
        pmf = zipf_pmf(sc.zipf_alpha, sc.library_size)
        want = []
        for t in range(30):
            vids = sorted(world.vehicles)
            k = rng.poisson(sc.request_rate * sc.control_interval, size=len(vids))
            if k.sum():
                want += zip(np.repeat(vids, k).tolist(),
                            rng.choice(sc.library_size, size=k.sum(), p=pmf).tolist())
        assert len(got) > 50
        assert got == want

    def test_worlds_share_one_read_only_cdf(self):
        a = World(Config().scenario, np.random.default_rng(1))
        b = World(Config().scenario, np.random.default_rng(2))
        assert a.content_cdf is b.content_cdf
        assert not a.content_cdf.flags.writeable

    def test_inactive_vehicles_silent(self, world):
        veh = world._new_vehicle(0.0, 15.0)
        assert world.spawn_requests(kinematics(world, veh.id).exit_time + 1.0) == []
