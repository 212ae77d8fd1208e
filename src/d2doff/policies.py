"""Content-delivery policies.

* ``optimal``: schedules each delivery at the instant the best cached
  copy comes closest to the requester, re-evaluating whenever a new
  potential provider appears, and falls back to the infrastructure at
  the deadline.
* ``benchmark``: transmits from the closest in-range cached copy as
  soon as one exists (so typically near the maximum D2D range).
* ``cellular``: every non-repeated request is served by the nearest
  base station immediately.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .config import ScenarioConfig
from .scenario import (ContentRequest, World, PENDING, SCHEDULED)


def closest_approach(x0, v, phi):
    """Element by element, the earliest minimizer t* of |x0 + v t| over
    t in [0, phi] and the minimum value (longitudinal distance)."""
    x0, v, phi = np.asarray(x0, float), np.asarray(v, float), np.asarray(phi, float)
    if np.any(phi < 0.0):
        raise ValueError("phi must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_cross = np.where(v != 0.0, -x0 / v, np.inf)
    crossing = (t_cross >= 0.0) & (t_cross <= phi)
    d0 = np.abs(x0)
    d_end = np.abs(x0 + v * phi)
    distance = np.where(crossing, 0.0, np.minimum(d0, d_end))
    t_star = np.where(crossing, t_cross, np.where(d_end < d0, phi, 0.0))
    return t_star, distance


def _world_index(world: World, vids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vehicle's index in the tick's arrays, and whether it is on the
    road (in the arrays) at all."""
    pos = np.searchsorted(world.ids, vids)
    on_road = pos < world.ids.size
    on_road[on_road] = world.ids[pos[on_road]] == vids[on_road]
    return pos, on_road


def _pairs(world: World, reqs: list[ContentRequest], holder_sets):
    """Flat (request index, holder id, holder index, requester index) arrays
    with one entry per vehicle of holder_sets[i] that could serve reqs[i]:
    both vehicles on the road, and the holder not the requester itself."""
    counts = np.array([len(hs) for hs in holder_sets], dtype=np.int64)
    req_i = np.repeat(np.arange(len(reqs)), counts)
    holder = np.fromiter(chain.from_iterable(holder_sets), np.int64, req_i.size)
    requester = np.array([r.requester_id for r in reqs], dtype=np.int64)
    h, h_on = _world_index(world, holder)
    k, k_on = _world_index(world, requester)
    keep = h_on & k_on[req_i] & (holder != requester[req_i])
    req_i = req_i[keep]
    return req_i, holder[keep], h[keep], k[req_i]


def _first_per_request(req_i: np.ndarray, keys: tuple) -> np.ndarray:
    """Position of each request's best pair, requests in ascending order;
    pairs rank by ``keys`` as in ``np.lexsort`` (last key first)."""
    order = np.lexsort(keys + (req_i,))
    ranked = req_i[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return order[first]


class BasePolicy:
    name = "base"
    uses_cache = True

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        # in insertion order, which is id order: requests are admitted once,
        # in ascending id
        self.pending: dict[int, ContentRequest] = {}
        self.by_content: dict[int, set[int]] = {}

    # -- request lifecycle ------------------------------------------------

    def admit(self, req: ContentRequest) -> None:
        self.pending[req.id] = req
        self.by_content.setdefault(req.content_id, set()).add(req.id)

    def retire(self, req: ContentRequest) -> None:
        self.pending.pop(req.id, None)
        reqs = self.by_content.get(req.content_id)
        if reqs is not None:
            reqs.discard(req.id)

    def handle_new(self, requests: list[ContentRequest], world: World, t: float) -> None:
        for req in requests:
            self.admit(req)

    def cache_event(self, vid: int, z: int, world: World, t: float) -> None:
        pass

    def d2d_intents(self, world: World, t: float) -> list[ContentRequest]:
        """Requests to deliver from their ``provider_id`` at this tick."""
        return []

    def i2d_due(self, t: float) -> list[ContentRequest]:
        """Unserved requests whose infrastructure fallback is due."""
        return [r for r in self.pending.values()
                if not r.served and t >= r.deadline - 1e-9]


class OptimalPolicy(BasePolicy):
    name = "optimal"

    def _region_halfwidth(self, speed):
        """Half-width of the road section around a requester of this speed
        (scalar or array) from which a copy can come within D2D range
        before the content timeout."""
        cfg = self.cfg
        return cfg.d2d_max_range + (cfg.speed_max - abs(speed)) * cfg.content_timeout

    def _planned_tick(self, req: ContentRequest, t: float, t_star: float) -> float:
        T = self.cfg.control_interval
        planned = t + round(t_star / T) * T
        # the deadline tick itself is still usable (the infrastructure
        # fallback yields to a transmission scheduled for that tick)
        return min(max(planned, t), req.deadline)

    def _reachable(self, world, t, reqs, req_i, holder, h, k):
        """Closest approach of every (request, holder) pair from ``_pairs``.
        Returns (request index, holder id, t*, lane-adjusted distance) of the
        pairs that come within D2D range while the request, the copy and
        both vehicles last."""
        cfg = self.cfg
        near = np.abs(world.xs[h] - world.xs[k]) <= self._region_halfwidth(world.vs[k])
        req_i, holder, h, k = req_i[near], holder[near], h[near], k[near]
        expiry = np.array([world.vehicles[q].cache.get(reqs[i].content_id, -math.inf)
                           for q, i in zip(holder.tolist(), req_i.tolist())])
        deadline = np.array([r.deadline for r in reqs])[req_i]
        phi = np.minimum.reduce([deadline, expiry, world.exits[h], world.exits[k]]) - t
        ok = phi >= 0.0
        req_i, holder, h, k, phi = req_i[ok], holder[ok], h[ok], k[ok], phi[ok]
        t_star, long_dist = closest_approach(world.xs[h] - world.xs[k],
                                             world.vs[h] - world.vs[k], phi)
        delta = np.where(world.lanes[h] == world.lanes[k], long_dist,
                         np.hypot(long_dist, cfg.lane_offset))
        feasible = delta <= cfg.d2d_max_range
        return req_i[feasible], holder[feasible], t_star[feasible], delta[feasible]

    def _assign(self, req: ContentRequest, q, t_star, delta, t: float) -> None:
        req.provider_id = int(q)
        req.delta_hat = float(delta)
        req.planned_tick = self._planned_tick(req, t, float(t_star))
        req.state = SCHEDULED

    def _schedule(self, reqs: list[ContentRequest], world: World, t: float) -> None:
        """Schedule each request on its closest approach to a cached copy:
        the smallest distance, ties by earlier encounter, then lower id."""
        for req in reqs:
            req.provider_id = None
            req.planned_tick = None
            req.delta_hat = math.inf
            req.state = PENDING
        if not reqs:
            return
        pairs = _pairs(world, reqs, [world.holders.get(r.content_id, ()) for r in reqs])
        req_i, holder, t_star, delta = self._reachable(world, t, reqs, *pairs)
        for j in _first_per_request(req_i, (holder, t_star, delta)):
            self._assign(reqs[req_i[j]], holder[j], t_star[j], delta[j], t)

    def handle_new(self, requests, world, t):
        for req in requests:
            self.admit(req)
        self._schedule(requests, world, t)

    def cache_event(self, vid, z, world, t):
        """A vehicle just received content z: it may now beat the
        currently scheduled provider of any pending request for z."""
        req_ids = self.by_content.get(z)
        if not req_ids or vid not in world.idx_of:
            return
        # most events have no open request near the new copy: find that out
        # on scalars before building any array
        x = world.xs[world.idx_of[vid]]
        reqs = []
        for req in map(self.pending.get, req_ids):
            if req is None or req.served or t > req.deadline + 1e-9:
                continue
            k = world.idx_of.get(req.requester_id)
            if k is not None and req.requester_id != vid and \
                    abs(x - world.xs[k]) <= self._region_halfwidth(world.vs[k]):
                reqs.append(req)
        if not reqs:
            return
        pairs = _pairs(world, reqs, [(vid,)] * len(reqs))
        for i, q, t_star, delta in zip(*self._reachable(world, t, reqs, *pairs)):
            req = reqs[i]
            if delta < req.delta_hat:
                self._assign(req, q, t_star, delta, t)

    def d2d_intents(self, world, t):
        # past the deadline the infrastructure takes over
        due = [r for r in self.pending.values()
               if r.state == SCHEDULED and r.planned_tick <= t + 1e-9
               and t <= r.deadline + 1e-9]
        # a provider that left the road or lost its copy is replaced
        stale = [r for r in due
                 if not (r.provider_id in world.idx_of
                         and world.vehicles[r.provider_id].cache.get(
                             r.content_id, -math.inf) > t)]
        self._schedule(stale, world, t)
        out = []
        for req in due:
            if req.state != SCHEDULED or req.planned_tick > t + 1e-9:
                continue
            if req.requester_id not in world.idx_of:
                continue
            dist = world.distance(req.requester_id, req.provider_id, t)
            if dist <= self.cfg.d2d_max_range:
                out.append(req)
        return out


class BenchmarkPolicy(BasePolicy):
    """Transmit from the closest cached copy as soon as one is in range."""

    name = "benchmark"

    def d2d_intents(self, world, t):
        reqs = [r for r in self.pending.values()
                if not r.served and t <= r.deadline + 1e-9]
        if not reqs:
            return []
        req_i, holder, h, k = _pairs(
            world, reqs, [world.holders.get(r.content_id, ()) for r in reqs])
        dx = np.abs(world.xs[h] - world.xs[k])
        dist = np.where(world.lanes[h] == world.lanes[k], dx,
                        np.hypot(dx, self.cfg.lane_offset))
        in_range = dist <= self.cfg.d2d_max_range
        req_i, holder, dist = req_i[in_range], holder[in_range], dist[in_range]
        out = []
        for j in _first_per_request(req_i, (holder, dist)):
            req = reqs[req_i[j]]
            req.provider_id = int(holder[j])
            req.delta_hat = float(dist[j])
            out.append(req)
        return out


class CellularPolicy(BasePolicy):
    """No D2D and no device caching: the infrastructure serves every
    request (repeats included) right away."""

    name = "cellular"
    uses_cache = False

    def i2d_due(self, t):
        return [r for r in self.pending.values()
                if not r.served and t >= r.t0 - 1e-9]


POLICIES = {
    OptimalPolicy.name: OptimalPolicy,
    BenchmarkPolicy.name: BenchmarkPolicy,
    CellularPolicy.name: CellularPolicy,
}


def make_policy(name: str, cfg: ScenarioConfig) -> BasePolicy:
    try:
        return POLICIES[name](cfg)
    except KeyError:
        raise ValueError(f"unknown policy '{name}'")
