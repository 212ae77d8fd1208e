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


def new_vehicle(world, entry_time, speed):
    """One vehicle entering at ``entry_time`` with signed ``speed``; its id."""
    return world._add_vehicles(np.array([entry_time]), np.array([speed]))[0]


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
    return new_vehicle(world, -(x - entry_point) / speed, speed)


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
            requester = new_vehicle(world, -x / 10.0, 10.0)
            holder = new_vehicle(world, (x - 3000.0) / 10.0 - rng.random(), -10.0)
            world.add_cache(holder, z, 0.0)
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
        for v in (kinematics(world, vid) for vid in world.spawn_vehicles(0.0, 100.0)):
            if v.speed > 0:
                assert v.entry_point == 0.0 and v.lane == FORWARD
            else:
                assert v.entry_point == world.cfg.street_length
                assert v.lane == BACKWARD
            assert v.exit_time == pytest.approx(
                v.entry_time + 3000.0 / abs(v.speed))

    def test_position_bounds(self, world):
        vid = new_vehicle(world, 0.0, 15.0)
        # a same-lane vehicle entering at t marks position 0 at t
        assert gap(world, vid, new_vehicle(world, 0.0, 15.0), 0.0) == 0.0
        assert gap(world, vid, new_vehicle(world, 10.0, 15.0), 10.0) == 150.0
        t_out = kinematics(world, vid).exit_time + 1.0
        world.remove_exited(t_out)
        with pytest.raises(KeyError):
            gap(world, vid, new_vehicle(world, t_out, 15.0), t_out)

    def test_remove_exited(self, world):
        new_vehicle(world, 0.0, 15.0)   # exits at t=200
        new_vehicle(world, 0.0, 10.0)   # exits at t=300
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
        new_vehicle(world, 0.0, 15.0)
        new_vehicle(world, 0.0, -10.0)
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
        vid = new_vehicle(world, 0.0, 15.0)
        assert world.remove_exited(kinematics(world, vid).exit_time) == [vid]
        assert vid not in world.table.id
        with pytest.raises(KeyError):
            kinematics(world, vid)


class FullScanWorld(World):
    """World that evicts by scanning every cache entry of every vehicle."""

    def evict_expired(self, t):
        for vid, cache in self.vehicles.items():
            for z in [z for z, exp in cache.items() if exp <= t]:
                del cache[z]
                del self.holders[z][vid]


def cache_index(world):
    """The holder index that the vehicles' caches imply: content ->
    {vehicle id: expiry}, one entry per cached copy."""
    index = {}
    for vid, cache in world.vehicles.items():
        for z, exp in cache.items():
            index.setdefault(z, {})[vid] = exp
    return index


class TestCaches:
    def test_add_and_evict(self, world):
        vid = new_vehicle(world, 0.0, 15.0)
        cache = world.vehicles[vid]
        world.add_cache(vid, 3, 10.0)       # expires sharing_timeout (600 s) later
        assert cache == {3: 610.0} and world.holders[3] == {vid: 610.0}
        world.evict_expired(609.0)
        assert cache == {3: 610.0} and world.holders[3] == {vid: 610.0}
        world.evict_expired(610.0)
        assert cache == {} and world.holders[3] == {}

    def test_longer_expiry_wins(self, world):
        # a copy received again lives to its new expiry, at the end of the cache
        vid = new_vehicle(world, 0.0, 15.0)
        cache = world.vehicles[vid]
        world.add_cache(vid, 3, 10.0)
        world.add_cache(vid, 4, 15.0)
        world.add_cache(vid, 3, 30.0)
        assert list(cache.items()) == [(4, 615.0), (3, 630.0)]
        assert world.holders[3] == {vid: 630.0}
        world.evict_expired(612.0)      # past the first copy's old expiry
        assert list(cache.items()) == [(4, 615.0), (3, 630.0)]
        world.evict_expired(615.0)
        assert cache == {3: 630.0} and world.holders[4] == {}
        world.evict_expired(629.0)
        assert cache == {3: 630.0} and world.holders[3] == {vid: 630.0}
        world.evict_expired(630.0)
        assert cache == {} and world.holders[3] == {}

    def test_new_copies_record_deliveries_and_entering_caches(self, world):
        # the caches seeded at the start predate every request
        world.init_stationary(0.0)
        assert world.vehicles and world.new_copies == []
        out = world.spawn_vehicles(0.0, 30.0)
        carried = [(vid, z) for vid in out for z in world.vehicles[vid]]
        assert carried and world.new_copies == carried
        world.add_cache(out[0], 3, 30.0)
        assert world.new_copies == carried + [(out[0], 3)]

    def test_exit_releases_holdership(self, world):
        vid = new_vehicle(world, 0.0, 15.0)
        world.add_cache(vid, 3, 0.0)
        world.remove_exited(kinematics(world, vid).exit_time)
        assert vid not in world.vehicles and world.holders[3] == {}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["vehicle", "add", "evict", "exit"]),
                              st.integers(0, 50), st.integers(0, 6),
                              st.floats(0.0, 40.0)), max_size=80))
    # few drawn cases evict a copy, so these run every time (copies live
    # 25 s): a copy received at 1 s, evicted at 26 s; a copy renewed (1 s ->
    # 6 s), which outlives the heap entry of its first expiry, ahead of a
    # later one; a copy whose vehicle (65 m/s, gone at 46.2 s) leaves the road
    # before its expiry falls due
    @example([("vehicle", 0, 0, 0.0), ("add", 0, 3, 8.0)]
             + [("evict", 0, 0, 40.0)] * 6)
    @example([("vehicle", 0, 0, 0.0), ("add", 0, 3, 8.0), ("add", 0, 3, 40.0),
              ("add", 0, 5, 24.0)] + [("evict", 0, 0, 16.0)] * 13)
    @example([("vehicle", 50, 0, 0.0), ("add", 0, 3, 40.0), ("exit", 0, 0, 0.0)]
             + [("evict", 0, 0, 40.0)] * 6)
    def test_evict_matches_full_scan(self, ops):
        # (op, vehicle pick, content, time step); a copy is received at the
        # op's time, so receipts never go back
        sc = dataclasses.replace(Config().scenario, sharing_timeout=25.0)
        worlds = [World(sc, np.random.default_rng(0)),
                  FullScanWorld(sc, np.random.default_rng(0))]
        t = 0.0
        for op, pick, z, x in ops:
            t += x / 8.0
            for w in worlds:
                if op == "vehicle":
                    new_vehicle(w, t, 15.0 + pick)
                elif op == "add" and w.vehicles:
                    vids = sorted(w.vehicles)
                    w.add_cache(vids[pick % len(vids)], z, t)
                elif op == "evict":
                    w.evict_expired(t)
                elif op == "exit":
                    w.remove_exited(t * 20.0)
            new, ref = worlds
            assert [(vid, list(c.items())) for vid, c in new.vehicles.items()] == \
                [(vid, list(c.items())) for vid, c in ref.vehicles.items()]
            assert new.holders == ref.holders
            assert {z: hs for z, hs in new.holders.items() if hs} == cache_index(new)

    def test_caches_stay_in_expiry_order(self):
        # a steady-state road with seeded copies, deliveries (renewals among
        # them), evictions and exits: each cache iterates in expiry order,
        # each copy expires sharing_timeout after its receipt (a seeded one
        # was received in the window before its vehicle was seeded, at its
        # entry or at 0 s), and holders is the caches' transpose
        sc = Config().scenario
        world = World(sc, np.random.default_rng(4))
        pick = np.random.default_rng(5)
        received, renewals, evicted, exited = {}, 0, 0, 0

        def check():
            entry = dict(zip(world.table.id.tolist(), world.table.entry_time.tolist()))
            for vid, cache in world.vehicles.items():
                assert list(cache.values()) == sorted(cache.values())
                seeded = max(entry[vid], 0.0)
                for z, exp in cache.items():
                    if (vid, z) in received:
                        assert exp == received[vid, z] + sc.sharing_timeout
                    else:
                        assert seeded - 1e-9 <= exp <= seeded + sc.sharing_timeout + 1e-9
            assert {z: hs for z, hs in world.holders.items() if hs} == cache_index(world)

        world.init_stationary(0.0)
        check()
        for t in map(float, range(1, 200)):
            exited += len(world.remove_exited(t))
            world.spawn_vehicles(t, t + 1.0)
            before = sum(map(len, world.vehicles.values()))
            world.evict_expired(t)
            evicted += before - sum(map(len, world.vehicles.values()))
            world.refresh_arrays(t)
            for vid in pick.choice(world.ids, size=3, replace=False).tolist():
                cache = world.vehicles[vid]
                # renew the first copy now and then, else a popular content
                z = next(iter(cache)) if cache and pick.random() < 0.3 else int(pick.integers(20))
                renewals += z in cache
                world.add_cache(vid, z, t)
                received[vid, z] = t
            check()
        assert renewals > 10 and evicted > 100 and exited > 10

    def test_seeded_hits_and_receipt_ages(self):
        # each content is held with probability 1 - exp(-lambda_z w), and a
        # held copy was received at a uniform time within the window
        sc = Config().scenario
        world = World(sc, np.random.default_rng(12))
        n, w, now = 4000, 100.0, 500.0
        vids = world._add_vehicles(np.zeros(n), np.full(n, 15.0))
        world._seed_caches(vids, np.full(n, now), np.full(n, w))
        caches = [world.vehicles[vid] for vid in vids]
        lam_z = zipf_pmf(sc.zipf_alpha, sc.library_size) * sc.request_rate
        for z in [*range(10), 100, 1000]:
            p = -math.expm1(-lam_z[z] * w)
            hits = sum(z in cache for cache in caches)
            assert abs(hits - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
            assert world.holders.get(z, {}) == {vid: c[z] for vid, c in zip(vids, caches)
                                                if z in c}
        ages = np.sort([now - (exp - sc.sharing_timeout)
                        for cache in caches for exp in cache.values()])
        assert 0.0 <= ages[0] and ages[-1] <= w
        m = ages.size
        ks = np.max(np.maximum(np.arange(1, m + 1) / m - ages / w, ages / w - np.arange(m) / m))
        assert ks <= 2.15 / math.sqrt(m)    # Kolmogorov-Smirnov, 1e-4 level
        assert all(list(c.values()) == sorted(c.values()) for c in caches)

    def test_stationary_caches_popular_heavy(self):
        world = World(Config().scenario, np.random.default_rng(11))
        world.init_stationary(0.0)
        held = [z for cache in world.vehicles.values() for z in cache]
        if held:  # popular ids dominate cached copies
            assert np.median(held) < world.cfg.library_size / 10


class TestRequests:
    def test_rate(self):
        world = World(Config().scenario, np.random.default_rng(5))
        for _ in range(30):
            new_vehicle(world, 0.0, 15.0)
        total = sum(len(world.spawn_requests(t)) for t in range(100))
        # 30 vehicles * 0.1 req/s * 100 s
        assert total == pytest.approx(300, rel=0.15)

    @pytest.mark.parametrize("interval", [1.0, 3.0, 0.7])
    def test_fields(self, rng, interval):
        sc = dataclasses.replace(Config().scenario, control_interval=interval)
        world = World(sc, rng)
        new_vehicle(world, 0.0, 15.0)
        reqs, k = [], 0
        while not reqs and k * interval < 200.0:
            reqs = world.spawn_requests(k * interval)  # tick k, as the engine forms it
            k += 1
        r = reqs[0]
        # the deadline is the last tick within the delay tolerance, to the bit
        ticks = [j * interval for j in range(k + int(sc.content_timeout / interval) + 2)]
        assert r.deadline == max(u for u in ticks if u <= r.t0 + sc.content_timeout)
        assert 0 <= r.content_id < world.cfg.library_size
        assert r.state == scenario.PENDING and not r.served

    def test_popularity_skew(self):
        world = World(Config().scenario, np.random.default_rng(6))
        for _ in range(200):
            new_vehicle(world, 0.0, 15.0)
        ids = [r.content_id for t in range(40)
               for r in world.spawn_requests(float(t))]
        # content 1 should take ~15% of all requests under the default skew
        share = np.mean(np.array(ids) == 0)
        assert share == pytest.approx(0.151, abs=0.03)

    def test_contents_match_weighted_choice(self):
        sc = Config().scenario
        world = World(sc, np.random.default_rng(8))
        for k in range(40):
            new_vehicle(world, 0.0, 15.0 + 0.1 * k)
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
        vid = new_vehicle(world, 0.0, 15.0)
        assert world.spawn_requests(kinematics(world, vid).exit_time + 1.0) == []
