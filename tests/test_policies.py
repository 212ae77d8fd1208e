import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2doff import engine
from d2doff.config import Config
from d2doff.policies import (BenchmarkPolicy, CellularPolicy, OptimalPolicy,
                             closest_approach, make_policy)
from d2doff.scenario import PENDING, SCHEDULED, ContentRequest, World


@pytest.fixture()
def world(rng):
    return World(Config().scenario, rng)


def add_vehicle(world, x, speed, t=0.0):
    veh = world._new_vehicle(t, speed)
    # place at the requested position by shifting the entry time
    veh.entry_time = t - (x - veh.entry_point) / speed
    veh.exit_time = veh.entry_time + world.cfg.street_length / abs(speed)
    return veh


def request(world, requester, z=0, t=0.0):
    req = ContentRequest(id=world._next_rid, requester_id=requester.id,
                         content_id=z, t0=t,
                         deadline=t + world.cfg.content_timeout)
    world._next_rid += 1
    return req


def optimal_encounter(x0, v, phi):
    """Scalar reference of ``closest_approach``: the earliest minimizer of
    |x0 + v t| over t in [0, phi] and the minimum value."""
    if phi < 0.0:
        raise ValueError("phi must be >= 0")
    if v != 0.0:
        t_cross = -x0 / v
        if 0.0 <= t_cross <= phi:
            return t_cross, 0.0
    d0 = abs(x0)
    d_end = abs(x0 + v * phi)
    if d_end < d0:
        return phi, d_end
    return 0.0, d0


def approach(x0, v, phi):
    t_star, d = closest_approach(x0, v, phi)
    return float(t_star), float(d)


class TestClosestApproach:
    def test_crossing_inside_window(self):
        t_star, d = approach(-100.0, 10.0, 20.0)
        assert (t_star, d) == (10.0, 0.0)

    def test_receding_stays_at_start(self):
        t_star, d = approach(50.0, 10.0, 20.0)
        assert (t_star, d) == (0.0, 50.0)

    def test_approaching_without_crossing(self):
        t_star, d = approach(-100.0, 2.0, 20.0)
        assert (t_star, d) == (20.0, 60.0)

    def test_zero_relative_speed(self):
        assert approach(30.0, 0.0, 20.0) == (0.0, 30.0)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            closest_approach(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            closest_approach([0.0, 0.0], [1.0, 1.0], [5.0, -1.0])

    # finite inputs plus the edges: v == 0, phi == 0 and, from integer
    # (exactly representable) x0 = -v * phi, a crossing exactly at phi
    _coord = st.one_of(st.floats(-1e4, 1e4), st.integers(-200, 200).map(float))
    _speed = st.one_of(st.just(0.0), st.floats(-50.0, 50.0),
                       st.integers(-30, 30).map(float))
    _window = st.one_of(st.just(0.0), st.floats(0.0, 60.0),
                        st.integers(0, 30).map(float))
    _triple = st.one_of(
        st.tuples(_coord, _speed, _window),
        st.tuples(st.integers(-30, 30), st.integers(0, 30)).map(
            lambda vp: (float(-vp[0] * vp[1]), float(vp[0]), float(vp[1]))))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_triple, min_size=1, max_size=20))
    def test_matches_scalar_reference(self, triples):
        x0, v, phi = (np.array(c) for c in zip(*triples))
        t_star, d = closest_approach(x0, v, phi)
        assert t_star.shape == d.shape == x0.shape
        want = [optimal_encounter(*tr) for tr in triples]
        assert t_star.tolist() == [w[0] for w in want]
        assert d.tolist() == [w[1] for w in want]


class TestOptimalPolicy:
    def test_schedules_closest_approach(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 900.0, 20.0)  # closes at 5 m/s
        world.add_cache(provider.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert req.state == SCHEDULED
        assert req.provider_id == provider.id
        # crossing at t=20 falls exactly on the deadline tick, still usable
        assert req.planned_tick == req.deadline
        assert req.delta_hat == pytest.approx(0.0, abs=1e-9)

    def test_prefers_closer_copy(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        far = add_vehicle(world, 1090.0, 15.0)
        near = add_vehicle(world, 1040.0, 15.0)
        for v in (far, near):
            world.add_cache(v.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert req.provider_id == near.id

    def test_out_of_range_stays_pending(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1200.0, 15.0)  # parallel, 200 m away
        world.add_cache(provider.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert req.state == PENDING and req.provider_id is None
        # falls back to the infrastructure at the deadline
        assert pol.i2d_due(req.deadline) == [req]
        assert pol.i2d_due(req.deadline - 1.0) == []

    def test_cache_event_beats_scheduled_provider(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        mediocre = add_vehicle(world, 1080.0, 15.0)
        world.add_cache(mediocre.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert req.delta_hat == pytest.approx(80.0)
        newcomer = add_vehicle(world, 1020.0, 15.0)
        world.add_cache(newcomer.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol.cache_event(newcomer.id, 0, world, 0.0)
        assert req.provider_id == newcomer.id
        assert req.delta_hat == pytest.approx(20.0)

    def test_intent_due_at_planned_tick(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1050.0, 10.0)  # closes, crosses at t=10
        world.add_cache(provider.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert req.planned_tick == 10.0
        world.refresh_arrays(5.0)
        assert pol.d2d_intents(world, 5.0) == []
        world.refresh_arrays(10.0)
        intents = pol.d2d_intents(world, 10.0)
        assert len(intents) == 1 and intents[0].provider_id == provider.id

    def test_reschedules_when_provider_evicted(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        primary = add_vehicle(world, 1010.0, 15.0)
        backup = add_vehicle(world, 1060.0, 15.0)
        world.add_cache(primary.id, 0, expiry=5.0)
        world.add_cache(backup.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert req.provider_id == primary.id
        world.evict_expired(6.0)
        world.refresh_arrays(6.0)
        intents = pol.d2d_intents(world, 6.0)
        assert len(intents) == 1 and intents[0].provider_id == backup.id

    def test_deadline_tick_still_usable(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1010.0, 15.0)
        world.add_cache(provider.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        world.refresh_arrays(req.deadline)
        # both paths offer the request at the deadline tick; the engine
        # lets the scheduled D2D transmission pre-empt the fallback
        intents = pol.d2d_intents(world, req.deadline)
        assert intents == [req]
        assert pol.i2d_due(req.deadline) == [req]
        # one tick later only the infrastructure path remains
        world.refresh_arrays(req.deadline + world.cfg.control_interval)
        assert pol.d2d_intents(world,
                               req.deadline + world.cfg.control_interval) == []


class TestBenchmarkPolicy:
    def test_transmits_immediately_when_in_range(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1095.0, 15.0)  # near the range cap
        world.add_cache(provider.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = BenchmarkPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        intents = pol.d2d_intents(world, 0.0)
        assert len(intents) == 1
        assert intents[0].provider_id == provider.id
        assert req.delta_hat == pytest.approx(95.0)

    def test_waits_until_range(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1150.0, 10.0)  # closes at 5 m/s
        world.add_cache(provider.id, 0, expiry=1e9)
        pol = BenchmarkPolicy(world.cfg)
        world.refresh_arrays(0.0)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert pol.d2d_intents(world, 0.0) == []
        world.refresh_arrays(10.0)  # gap now 100 m
        assert len(pol.d2d_intents(world, 10.0)) == 1

    def test_picks_closest(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        a = add_vehicle(world, 1080.0, 15.0)
        b = add_vehicle(world, 1030.0, 15.0)
        for v in (a, b):
            world.add_cache(v.id, 0, expiry=1e9)
        world.refresh_arrays(0.0)
        pol = BenchmarkPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert pol.d2d_intents(world, 0.0)[0].provider_id == b.id


@pytest.mark.parametrize("cls", [OptimalPolicy, BenchmarkPolicy])
@pytest.mark.parametrize("first_x", [970.0, 1030.0])
def test_equal_copies_tie_to_lower_id(world, cls, first_x):
    # two copies 30 m ahead and behind, driving along with the requester;
    # at 16 m/s every position is exact, so the distances tie exactly
    requester = add_vehicle(world, 1000.0, 16.0)
    low = add_vehicle(world, first_x, 16.0)
    high = add_vehicle(world, 2000.0 - first_x, 16.0)
    for v in (high, low):
        world.add_cache(v.id, 0, expiry=1e9)
    world.refresh_arrays(0.0)
    pol = cls(world.cfg)
    req = request(world, requester)
    pol.handle_new([req], world, 0.0)
    pol.d2d_intents(world, 0.0)
    assert low.id < high.id
    assert req.provider_id == low.id
    assert req.delta_hat == 30.0


class TestCellularPolicy:
    def test_immediate_infrastructure_service(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        pol = CellularPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], world, 0.0)
        assert pol.i2d_due(0.0) == [req]
        assert pol.d2d_intents(world, 0.0) == []

    def test_no_caching(self):
        assert CellularPolicy.uses_cache is False
        assert OptimalPolicy.uses_cache and BenchmarkPolicy.uses_cache


class TestFactory:
    def test_known_names(self):
        cfg = Config().scenario
        for name, cls in (("optimal", OptimalPolicy),
                          ("benchmark", BenchmarkPolicy),
                          ("cellular", CellularPolicy)):
            assert isinstance(make_policy(name, cfg), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("greedy", Config().scenario)


# -- per-request reference of the D2D scheduling -----------------------------
#
# The policies schedule a tick's requests on flat (request, holder) pair
# arrays.  These are the per-request loops they replaced: each request sorts
# its own holders and evaluates them with small numpy calls, and the pending
# requests are visited in sorted id order.

def _ref_holders_of(world, req):
    hs = world.holders.get(req.content_id)
    if not hs:
        return []
    return sorted(v for v in hs if v != req.requester_id and v in world.idx_of)


def _ref_candidate_eval(cfg, req, world, t, cand_ids):
    z = req.content_id
    k = world.idx_of[req.requester_id]
    xk, vk, lane_k = world.xs[k], world.vs[k], world.lanes[k]
    idx = np.array([world.idx_of[c] for c in cand_ids], dtype=np.int64)
    ids = np.array(cand_ids, dtype=np.int64)
    expiry = np.array([world.vehicles[c].cache.get(z, -math.inf) for c in cand_ids])
    phi = np.minimum.reduce([np.full(ids.shape, req.deadline), expiry,
                             world.exits[idx], np.full(ids.shape, world.exits[k])]) - t
    ok = phi >= 0.0
    phi = np.clip(phi, 0.0, None)
    encounters = [optimal_encounter(x0, v, p) for x0, v, p in
                  zip(world.xs[idx] - xk, world.vs[idx] - vk, phi)]
    t_star = np.array([e[0] for e in encounters])
    long_dist = np.array([e[1] for e in encounters])
    delta = np.where(world.lanes[idx] == lane_k, long_dist,
                     np.hypot(long_dist, cfg.lane_offset))
    return ids, t_star, np.where(ok, delta, np.inf)


class ReferenceOptimalPolicy(OptimalPolicy):
    def i2d_due(self, t):
        return [r for rid, r in sorted(self.pending.items())
                if not r.served and t >= r.deadline - 1e-9]

    def _schedule_best(self, req, world, t):
        cand = _ref_holders_of(world, req)
        req.provider_id = None
        req.planned_tick = None
        req.delta_hat = math.inf
        req.state = PENDING
        if not cand:
            return
        k = world.idx_of[req.requester_id]
        xk, vk = world.xs[k], world.vs[k]
        xlim = self._region_halfwidth(vk)
        cand = [c for c in cand if abs(world.xs[world.idx_of[c]] - xk) <= xlim]
        if not cand:
            return
        ids, t_star, delta = _ref_candidate_eval(self.cfg, req, world, t, cand)
        feasible = delta <= self.cfg.d2d_max_range
        if not np.any(feasible):
            return
        ids, t_star, delta = ids[feasible], t_star[feasible], delta[feasible]
        best = np.lexsort((ids, t_star, delta))[0]
        req.provider_id = int(ids[best])
        req.delta_hat = float(delta[best])
        req.planned_tick = self._planned_tick(req, t, float(t_star[best]))
        req.state = SCHEDULED

    def handle_new(self, requests, world, t):
        for req in requests:
            self.admit(req)
            self._schedule_best(req, world, t)

    def cache_event(self, vid, z, world, t):
        for rid in sorted(self.by_content.get(z, ())):
            req = self.pending.get(rid)
            if req is None or req.served or t > req.deadline + 1e-9:
                continue
            if vid == req.requester_id or vid not in world.idx_of:
                continue
            k = world.idx_of[req.requester_id]
            if abs(world.xs[world.idx_of[vid]] - world.xs[k]) > \
                    self._region_halfwidth(world.vs[k]):
                continue
            _, t_star, delta = _ref_candidate_eval(self.cfg, req, world, t, [vid])
            if delta[0] < req.delta_hat and delta[0] <= self.cfg.d2d_max_range:
                req.provider_id = vid
                req.delta_hat = float(delta[0])
                req.planned_tick = self._planned_tick(req, t, float(t_star[0]))
                req.state = SCHEDULED

    def d2d_intents(self, world, t):
        out = []
        for rid, req in sorted(self.pending.items()):
            if req.served or req.state != SCHEDULED:
                continue
            if req.planned_tick is None or req.planned_tick > t + 1e-9:
                continue
            if t > req.deadline + 1e-9:
                continue
            q = req.provider_id
            valid = (q in world.idx_of
                     and world.vehicles[q].cache.get(req.content_id, -math.inf) > t)
            if not valid:
                self._schedule_best(req, world, t)
                q = req.provider_id
                if q is None or req.planned_tick > t + 1e-9:
                    continue
            if req.requester_id not in world.idx_of:
                continue
            if world.distance(req.requester_id, q, t) <= self.cfg.d2d_max_range:
                out.append(req)
        return out


class ReferenceBenchmarkPolicy(BenchmarkPolicy):
    def i2d_due(self, t):
        return [r for rid, r in sorted(self.pending.items())
                if not r.served and t >= r.deadline - 1e-9]

    def d2d_intents(self, world, t):
        out = []
        for rid, req in sorted(self.pending.items()):
            if req.served or t > req.deadline + 1e-9:
                continue
            if req.requester_id not in world.idx_of:
                continue
            cand = _ref_holders_of(world, req)
            if not cand:
                continue
            k = world.idx_of[req.requester_id]
            idx = np.array([world.idx_of[c] for c in cand], dtype=np.int64)
            same = world.lanes[idx] == world.lanes[k]
            dx = np.abs(world.xs[idx] - world.xs[k])
            dist = np.where(same, dx, np.hypot(dx, self.cfg.lane_offset))
            in_range = dist <= self.cfg.d2d_max_range
            if not np.any(in_range):
                continue
            ids = np.array(cand, dtype=np.int64)
            best = np.lexsort((ids[in_range], dist[in_range]))[0]
            req.provider_id = int(ids[in_range][best])
            req.delta_hat = float(dist[in_range][best])
            out.append(req)
        return out


REFERENCE_POLICIES = {"optimal": ReferenceOptimalPolicy,
                      "benchmark": ReferenceBenchmarkPolicy}


def _lam_config(lam):
    base = Config()
    return dataclasses.replace(base, scenario=dataclasses.replace(
        base.scenario, vehicle_arrival_rate=lam))


def _run_with_intents(cfg, policy, seed):
    """Run 30 s after 10 s of warm-up; returns the engine and, per tick,
    (request id, provider id, delta_hat, planned_tick) of every request
    it delivers over D2D."""
    eng = engine.Engine(cfg, policy.name, seed)
    eng.policy = policy
    ticks = []
    intents = policy.d2d_intents

    def recording_intents(world, t):
        out = intents(world, t)
        ticks.append([(r.id, r.provider_id, r.delta_hat, r.planned_tick)
                      for r in out])
        return out

    policy.d2d_intents = recording_intents
    eng.run(30.0, 10.0)
    return eng, ticks


class TestTickWideScheduling:
    """The pair-array scheduling against the per-request reference."""

    @pytest.mark.parametrize("lam", [1.0 / 3.0, 1.0, 2.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(REFERENCE_POLICIES))
    def test_matches_reference(self, name, seed, lam):
        cfg = _lam_config(lam)
        ref, ref_ticks = _run_with_intents(
            cfg, REFERENCE_POLICIES[name](cfg.scenario), seed)
        new, new_ticks = _run_with_intents(cfg, make_policy(name, cfg.scenario), seed)
        assert sum(map(len, new_ticks)) > 0
        assert new_ticks == ref_ticks
        assert dataclasses.asdict(new.metrics) == dataclasses.asdict(ref.metrics)
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state
        assert [(r.id, r.state, r.attempts, r.provider_id, r.delta_hat, r.planned_tick)
                for r in new.policy.pending.values()] == \
            [(r.id, r.state, r.attempts, r.provider_id, r.delta_hat, r.planned_tick)
             for r in ref.policy.pending.values()]


class TestPendingOrder:
    @pytest.mark.parametrize("name", ["optimal", "benchmark", "cellular"])
    def test_insertion_order_is_id_order_under_overload(self, name):
        # at lambda = 2 links are pruned and their requests offered again
        eng = engine.run(_lam_config(2.0), name, 30.0, 10.0, seed=5)
        assert eng.metrics.pruned_links > 0
        assert len(eng.policy.pending) > 0
        assert list(eng.policy.pending) == sorted(eng.policy.pending)
