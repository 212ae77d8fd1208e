import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2doff import engine
from d2doff.config import Config
from d2doff.kernels import closest_approach
from d2doff.policies import (BenchmarkPolicy, CellularPolicy, OptimalPolicy,
                             make_policy)
from d2doff.scenario import PENDING, SCHEDULED, ContentRequest, World

from test_scenario import kinematics, new_vehicle


@pytest.fixture()
def world(rng):
    return World(Config().scenario, rng)


def add_vehicle(world, x, speed, t=0.0):
    # place at the requested position by shifting the entry time
    entry_point = 0.0 if speed > 0 else world.cfg.street_length
    return new_vehicle(world, t - (x - entry_point) / speed, speed)


def request(world, requester, z=0, t=0.0):
    req = ContentRequest(id=world._next_rid, requester_id=requester,
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
        world.add_cache(provider, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert req.state == SCHEDULED
        assert req.provider_id == provider
        # crossing at t=20 falls exactly on the deadline tick, still usable
        assert req.planned_tick == req.deadline
        assert req.delta_hat == pytest.approx(0.0, abs=1e-9)

    def test_prefers_closer_copy(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        far = add_vehicle(world, 1090.0, 15.0)
        near = add_vehicle(world, 1040.0, 15.0)
        for v in (far, near):
            world.add_cache(v, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert req.provider_id == near

    def test_out_of_range_stays_pending(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1200.0, 15.0)  # parallel, 200 m away
        world.add_cache(provider, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert req.state == PENDING and req.provider_id is None
        # falls back to the infrastructure at the deadline
        assert pol.i2d_due(req.deadline) == [req]
        assert pol.i2d_due(req.deadline - 1.0) == []

    def test_plans_opposite_lane_holder_from_afar(self, world):
        # at the top speed (24 m/s) no copy on the requester's own lane
        # closes in, so copies from that direction reach only from within
        # d2d_max_range (100 m); a backward-lane copy 200 m ahead closes at
        # 33 m/s and crosses the requester after 6.1 s, inside the timeout
        requester = add_vehicle(world, 500.0, 24.0)
        holder = add_vehicle(world, 700.0, -9.0)
        world.add_cache(holder, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert req.state == SCHEDULED
        assert req.provider_id == holder
        assert req.planned_tick == 6.0
        assert req.delta_hat == world.cfg.lane_offset

    # (x, speed) of the requester, of the copy it is first planned on and
    # of a copy delivered later
    @pytest.mark.parametrize("requester, mediocre, newcomer, delta", [
        ((1000.0, 15.0), (1080.0, 15.0), (1020.0, 15.0), 20.0),
        # the later copy drives on the other lane, 200 m ahead of a
        # requester at the top speed, and crosses it after 6.1 s
        ((500.0, 24.0), (580.0, 24.0), (700.0, -9.0), 10.0),
    ], ids=["same-lane", "opposite-lane"])
    def test_cache_event_beats_scheduled_provider(self, world, requester, mediocre,
                                                  newcomer, delta):
        requester = add_vehicle(world, *requester)
        mediocre = add_vehicle(world, *mediocre)
        world.add_cache(mediocre, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert req.provider_id == mediocre
        assert req.delta_hat == pytest.approx(80.0)
        newcomer = add_vehicle(world, *newcomer)
        world.add_cache(newcomer, 0, 0.0)
        world.refresh_arrays(0.0)
        pol.handle_new([], [(newcomer, 0)], world, 0.0)
        assert req.provider_id == newcomer
        assert req.delta_hat == pytest.approx(delta)

    def test_same_tick_copies_tie_to_earlier_encounter(self, world):
        # two copies delivered in one tick both cross the requester at the
        # lane offset; the earlier crossing wins, not the first delivery
        requester = add_vehicle(world, 1000.0, 15.0)
        mediocre = add_vehicle(world, 1080.0, 15.0)
        world.add_cache(mediocre, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert req.provider_id == mediocre
        late = add_vehicle(world, 1300.0, -10.0)   # crosses at 12 s
        early = add_vehicle(world, 1100.0, -10.0)  # crosses at 4 s
        for v in (late, early):
            world.add_cache(v, 0, 0.0)
        world.refresh_arrays(0.0)
        pol.handle_new([], [(late, 0), (early, 0)], world, 0.0)
        assert req.provider_id == early
        assert req.planned_tick == 4.0
        assert req.delta_hat == world.cfg.lane_offset

    def test_intent_due_at_planned_tick(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1050.0, 10.0)  # closes, crosses at t=10
        world.add_cache(provider, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert req.planned_tick == 10.0
        world.refresh_arrays(5.0)
        assert pol.d2d_intents(world, 5.0) == []
        world.refresh_arrays(10.0)
        intents = pol.d2d_intents(world, 10.0)
        assert len(intents) == 1 and intents[0].provider_id == provider

    def test_reschedules_when_provider_evicted(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        primary = add_vehicle(world, 1010.0, 15.0)
        backup = add_vehicle(world, 1060.0, 15.0)
        # a copy received sharing_timeout before 5 s expires at 5 s
        world.add_cache(primary, 0, 5.0 - world.cfg.sharing_timeout)
        world.add_cache(backup, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert req.provider_id == primary
        world.evict_expired(6.0)
        world.refresh_arrays(6.0)
        pol.handle_new([], [], world, 6.0)
        intents = pol.d2d_intents(world, 6.0)
        assert len(intents) == 1 and intents[0].provider_id == backup

    def test_stale_plan_sees_every_holder(self, world):
        # the plan on ``primary`` (tick 6, 94 m) goes stale when its copy
        # expires at 6 s, in the tick a copy reaches ``fresh``; the request
        # then ranks every holder, ``entering`` too, which came on the road
        # at 3 s after the request was planned and crosses it at 8.7 s
        requester = add_vehicle(world, 50.0, 10.0)
        primary = add_vehicle(world, 150.0, 9.0)
        entering = new_vehicle(world, 3.0, 24.0)
        world.add_cache(primary, 0, 6.0 - world.cfg.sharing_timeout)
        world.add_cache(entering, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert (req.provider_id, req.planned_tick) == (primary, 6.0)
        assert req.delta_hat == pytest.approx(94.0)
        # on the other lane, crossing the requester after 7 s
        fresh = add_vehicle(world, 250.0, -10.0, t=6.0)
        world.add_cache(fresh, 0, 6.0)
        world.evict_expired(6.0)
        world.refresh_arrays(6.0)
        pol.handle_new([], [(fresh, 0)], world, 6.0)
        assert (req.provider_id, req.planned_tick) == (entering, 9.0)
        assert req.delta_hat == pytest.approx(0.0, abs=1e-9)
        assert pol.d2d_intents(world, 6.0) == []

    def test_deadline_tick_still_usable(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1010.0, 15.0)
        world.add_cache(provider, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = OptimalPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
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
        world.add_cache(provider, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = BenchmarkPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        intents = pol.d2d_intents(world, 0.0)
        assert len(intents) == 1
        assert intents[0].provider_id == provider
        assert req.delta_hat == pytest.approx(95.0)

    def test_waits_until_range(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        provider = add_vehicle(world, 1150.0, 10.0)  # closes at 5 m/s
        world.add_cache(provider, 0, 0.0)
        pol = BenchmarkPolicy(world.cfg)
        world.refresh_arrays(0.0)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert pol.d2d_intents(world, 0.0) == []
        world.refresh_arrays(10.0)  # gap now 100 m
        assert len(pol.d2d_intents(world, 10.0)) == 1

    def test_picks_closest(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        a = add_vehicle(world, 1080.0, 15.0)
        b = add_vehicle(world, 1030.0, 15.0)
        for v in (a, b):
            world.add_cache(v, 0, 0.0)
        world.refresh_arrays(0.0)
        pol = BenchmarkPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
        assert pol.d2d_intents(world, 0.0)[0].provider_id == b


@pytest.mark.parametrize("cls", [OptimalPolicy, BenchmarkPolicy])
@pytest.mark.parametrize("first_x", [970.0, 1030.0])
def test_equal_copies_tie_to_lower_id(world, cls, first_x):
    # two copies 30 m ahead and behind, driving along with the requester;
    # at 16 m/s every position is exact, so the distances tie exactly
    requester = add_vehicle(world, 1000.0, 16.0)
    low = add_vehicle(world, first_x, 16.0)
    high = add_vehicle(world, 2000.0 - first_x, 16.0)
    for v in (high, low):
        world.add_cache(v, 0, 0.0)
    world.refresh_arrays(0.0)
    pol = cls(world.cfg)
    req = request(world, requester)
    pol.handle_new([req], [], world, 0.0)
    pol.d2d_intents(world, 0.0)
    assert low < high
    assert req.provider_id == low
    assert req.delta_hat == 30.0


class TestCellularPolicy:
    def test_immediate_infrastructure_service(self, world):
        requester = add_vehicle(world, 1000.0, 15.0)
        pol = CellularPolicy(world.cfg)
        req = request(world, requester)
        pol.handle_new([req], [], world, 0.0)
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


def _ref_distance(world, vid_a, vid_b, t):
    """Distance between two vehicles' lane axes, from their entry points."""
    va, vb = kinematics(world, vid_a), kinematics(world, vid_b)
    dx = ((va.entry_point + va.speed * (t - va.entry_time))
          - (vb.entry_point + vb.speed * (t - vb.entry_time)))
    return abs(dx) if va.lane == vb.lane else math.hypot(dx, world.cfg.lane_offset)


def _ref_candidate_eval(cfg, req, world, t, cand_ids):
    z = req.content_id
    k = world.idx_of[req.requester_id]
    xk, vk, lane_k = world.xs[k], world.vs[k], world.lanes[k]
    idx = np.array([world.idx_of[c] for c in cand_ids], dtype=np.int64)
    ids = np.array(cand_ids, dtype=np.int64)
    expiry = np.array([world.vehicles[c].get(z, -math.inf) for c in cand_ids])
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


def _ref_planned_tick(cfg, t, t_star):
    # the tick nearest the closest approach; the deadline is a tick, so
    # this never passes it
    return t + round(t_star / cfg.control_interval) * cfg.control_interval


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
        ids, t_star, delta = _ref_candidate_eval(self.cfg, req, world, t, cand)
        feasible = delta <= self.cfg.d2d_max_range
        if not np.any(feasible):
            return
        ids, t_star, delta = ids[feasible], t_star[feasible], delta[feasible]
        best = np.lexsort((ids, t_star, delta))[0]
        req.provider_id = int(ids[best])
        req.delta_hat = float(delta[best])
        req.planned_tick = _ref_planned_tick(self.cfg, t, float(t_star[best]))
        req.state = SCHEDULED

    def _due_ref(self, req, t):
        return (not req.served and req.state == SCHEDULED
                and req.planned_tick <= t + 1e-9 and t <= req.deadline + 1e-9)

    def handle_new(self, requests, copies, world, t):
        # a due plan whose provider left the road or lost its copy is made
        # again on every holder
        replanned = set()
        for rid, req in sorted(self.pending.items()):
            q = req.provider_id
            if self._due_ref(req, t) and not (
                    q in world.idx_of
                    and world.vehicles[q].get(req.content_id, -math.inf) > t):
                self._schedule_best(req, world, t)
                replanned.add(rid)
        # every other open request ranks the tick's new holders of its
        # content as _schedule_best ranks all of them, and moves only to a
        # strictly closer copy
        for rid, req in sorted(self.pending.items()):
            if rid in replanned or req.served or t > req.deadline + 1e-9:
                continue
            cand = sorted({q for q, z in copies if z == req.content_id
                           and q != req.requester_id and q in world.idx_of})
            if not cand:
                continue
            ids, t_star, delta = _ref_candidate_eval(self.cfg, req, world, t, cand)
            feasible = delta <= self.cfg.d2d_max_range
            if not np.any(feasible):
                continue
            ids, t_star, delta = ids[feasible], t_star[feasible], delta[feasible]
            best = np.lexsort((ids, t_star, delta))[0]
            if delta[best] < req.delta_hat:
                req.provider_id = int(ids[best])
                req.delta_hat = float(delta[best])
                req.planned_tick = _ref_planned_tick(self.cfg, t, float(t_star[best]))
                req.state = SCHEDULED
        for req in requests:
            self.admit(req)
            self._schedule_best(req, world, t)

    def d2d_intents(self, world, t):
        return [req for rid, req in sorted(self.pending.items())
                if self._due_ref(req, t) and req.requester_id in world.idx_of
                and _ref_distance(world, req.requester_id, req.provider_id, t)
                <= self.cfg.d2d_max_range]


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
        assert [(r.id, r.state, r.provider_id, r.delta_hat, r.planned_tick)
                for r in new.policy.pending.values()] == \
            [(r.id, r.state, r.provider_id, r.delta_hat, r.planned_tick)
             for r in ref.policy.pending.values()]


class TestPendingOrder:
    @pytest.mark.parametrize("name", ["optimal", "benchmark", "cellular"])
    def test_insertion_order_is_id_order_under_overload(self, name):
        # at lambda = 2 on a 10-PRB band the grid holds about two contents
        # per reuse set, so links are pruned at any seed and their requests
        # offered again
        cfg = _lam_config(2.0)
        cfg = dataclasses.replace(cfg, phy=dataclasses.replace(cfg.phy, system_bandwidth=1.8e6))
        eng = engine.run(cfg, name, 30.0, 10.0, seed=5)
        assert eng.metrics.pruned_links > 0
        assert len(eng.policy.pending) > 0
        assert list(eng.policy.pending) == sorted(eng.policy.pending)


class TestPendingStates:
    @pytest.mark.parametrize("name", ["optimal", "benchmark", "cellular"])
    def test_pending_holds_only_open_requests(self, name):
        # delivery and drop both retire, so nothing served or dropped stays;
        # a content takes more than half the PRB grid, so a tick that
        # offers two links of one eNB leaves one of them pending
        base = _lam_config(1.0)
        cfg = dataclasses.replace(base, phy=dataclasses.replace(base.phy, payload_bits=40e6))
        assert 2 * cfg.phy.prbs_required > cfg.prbs_per_interval
        eng = engine.Engine(cfg, name, seed=3)
        tick, ticks = eng.tick, []

        def checked_tick(t, measuring):
            tick(t, measuring)
            pol = eng.policy
            assert all(r.state in (PENDING, SCHEDULED) for r in pol.pending.values())
            ticks.append(len(pol.pending))

        eng.tick = checked_tick
        eng.run(20.0, 5.0)
        assert len(ticks) == 25 and max(ticks) > 0

    def test_plans_fall_on_a_tick_by_the_deadline(self):
        # at a 3 s interval the 20 s timeout ends between two ticks; the
        # deadline is the last tick before its end, and no plan passes it
        base = _lam_config(1.0)
        cfg = dataclasses.replace(base, scenario=dataclasses.replace(
            base.scenario, control_interval=3.0))
        eng = engine.Engine(cfg, "optimal", seed=1)
        tick, plans = eng.tick, set()

        def checked_tick(t, measuring):
            tick(t, measuring)
            for r in eng.policy.pending.values():
                if r.state == SCHEDULED:
                    assert r.planned_tick == round(r.planned_tick / 3.0) * 3.0
                    assert r.planned_tick <= r.deadline
                    plans.add((r.id, r.planned_tick))

        eng.tick = checked_tick
        eng.run(120.0, 60.0)
        assert plans

    @pytest.mark.parametrize("interval", [3.0, 0.3])
    @pytest.mark.parametrize("name", ["optimal", "benchmark"])
    def test_fallback_within_the_delay_tolerance(self, name, interval):
        # neither interval divides the 20 s timeout; an I2D delivery on the
        # first tick that offered its request to the infrastructure is on time
        base = _lam_config(1.0)
        cfg = dataclasses.replace(base, scenario=dataclasses.replace(
            base.scenario, control_interval=interval))
        eng = engine.Engine(cfg, name, seed=1)
        tick, link_table, deliver = eng.tick, eng._link_table, eng._deliver
        now, offered, on_first = [0.0], {}, []

        def recording_tick(t, measuring):
            now[0] = t
            tick(t, measuring)

        def recording_table(reqs, n_i2d):
            for r in reqs[:n_i2d]:
                offered.setdefault(r.id, now[0])
            return link_table(reqs, n_i2d)

        def checked_deliver(req, is_i2d, distance, t, m):
            if is_i2d and offered[req.id] == t:
                on_first.append(t <= req.t0 + cfg.scenario.content_timeout)
            deliver(req, is_i2d, distance, t, m)

        eng.tick, eng._link_table, eng._deliver = recording_tick, recording_table, checked_deliver
        eng.run(30.0, 10.0)
        assert len(on_first) > 50 and all(on_first)

    def test_optimal_intents_select_only_live_plans(self):
        # handle_new re-plans every due plan whose provider lost its copy or
        # left the road, so d2d_intents sees only live providers and writes
        # nothing
        eng = engine.Engine(_lam_config(1.0), "optimal", seed=1)
        world, pol = eng.world, eng.policy
        intents, seen = pol.d2d_intents, []

        def checked_intents(w, t):
            fields = [(r.state, r.provider_id, r.planned_tick, r.delta_hat)
                      for r in pol.pending.values()]
            due = [r for r in pol.pending.values()
                   if r.state == SCHEDULED and r.planned_tick <= t + 1e-9
                   and t <= r.deadline + 1e-9]
            assert all(r.provider_id in world.holders.get(r.content_id, ()) for r in due)
            out = intents(w, t)
            assert [(r.state, r.provider_id, r.planned_tick, r.delta_hat)
                    for r in pol.pending.values()] == fields
            seen.append(len(due))
            return out

        pol.d2d_intents = checked_intents
        eng.run(300.0, 100.0)
        assert sum(seen) > 0


class TestNewCopies:
    """``optimal`` plans on every copy made since the last tick: delivered,
    or carried in by a vehicle that entered."""

    def test_entering_holder_is_planned_on_at_its_first_tick(self):
        # a requester near the forward entry asks, at tick 0, for a content
        # that a vehicle entering over [0, 1) carries from before the street
        eng = engine.Engine(_lam_config(4.0), "optimal", seed=1)
        world = eng.world
        requester = add_vehicle(world, 10.0, world.cfg.speed_min)
        spawn, entered, opened = world.spawn_vehicles, [], []

        def recording_spawn(t0, t1):
            entered.append(spawn(t0, t1))
            return entered[-1]

        def one_request(t):
            if t > 0.0:
                return []
            carrier = next(v for v in entered[0]
                           if kinematics(world, v).speed > 0 and world.vehicles[v])
            opened.append(request(world, requester, next(iter(world.vehicles[carrier])), t))
            return list(opened)

        world.spawn_vehicles, world.spawn_requests = recording_spawn, one_request
        eng.tick(0.0, True)
        (req,) = opened
        # no holder of its content is on the road yet
        assert req.state == PENDING and req.provider_id is None
        eng.tick(1.0, True)
        assert req.state != PENDING
        assert req.provider_id in entered[0]
        assert req.content_id in world.vehicles[req.provider_id]
        assert 0.0 < kinematics(world, req.provider_id).entry_time <= 1.0

    def test_no_open_request_misses_a_holder_in_range(self):
        # after every tick, no unscheduled request inside its deadline has a
        # holder on the road within D2D range, but for a copy delivered in
        # that tick; the 60 s timeout leaves many requests open at lambda = 1
        base = _lam_config(1.0)
        cfg = dataclasses.replace(base, scenario=dataclasses.replace(
            base.scenario, content_timeout=60.0))
        eng = engine.Engine(cfg, "optimal", seed=1)
        world, pol = eng.world, eng.policy
        tick, deliver = eng.tick, eng._deliver
        delivered, missed, open_ticks = set(), [], []

        def recording_deliver(req, is_i2d, distance, t, m):
            deliver(req, is_i2d, distance, t, m)
            delivered.add((req.requester_id, req.content_id))

        def checked_tick(t, measuring):
            delivered.clear()
            tick(t, measuring)
            unscheduled = [r for r in pol.pending.values()
                           if r.state == PENDING and t <= r.deadline + 1e-9]
            open_ticks.append(len(unscheduled))
            for r in unscheduled:
                holders = [q for q in world.holders.get(r.content_id, {})
                           if q in world.idx_of and q != r.requester_id
                           and (q, r.content_id) not in delivered]
                dist = world.d2d_distance(
                    np.array([world.idx_of[q] for q in holders], dtype=np.int64),
                    np.full(len(holders), world.idx_of[r.requester_id]))
                missed.extend((t, r.id, q) for q, d in zip(holders, dist)
                              if d <= cfg.scenario.d2d_max_range)

        eng._deliver, eng.tick = recording_deliver, checked_tick
        eng.run(100.0, 50.0)
        assert len(open_ticks) == 150 and sum(open_ticks) > 0
        assert missed == []
