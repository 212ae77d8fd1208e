"""Content-delivery policies.

* ``optimal``: schedules each delivery at the tick nearest the instant
  the best cached copy comes closest to the requester, and falls back to
  the infrastructure at the deadline.  A deadline is the last tick within
  the delay tolerance (``World.spawn_requests``), so a plan never passes
  it, and every policy reads it as is.  It plans only in ``handle_new``, in
  one pass per tick over (request, holder) pairs, each with its copy's
  expiry from ``World.holders``: new requests, and due requests whose
  provider left ``World.holders`` (the road or its copy went), on every
  holder of their content; other open requests on the copies made since
  the last tick, delivered or carried in by vehicles that entered, which
  ``World`` records.  One ranking serves all: the smallest distance, then
  the earlier encounter, then the lower vehicle id; a plan moves only to a
  strictly closer copy.  ``d2d_intents`` only selects.
* ``benchmark``: transmits from the closest in-range cached copy as
  soon as one exists, most often at the request's own tick.
* ``cellular``: every non-repeated request is served by the nearest
  base station immediately.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from . import kernels
from .config import ScenarioConfig
from .scenario import (ContentRequest, World, PENDING, SCHEDULED)


def _pairs(world: World, reqs: list[ContentRequest], holder_sets):
    """Flat (request index, holder id, holder index, requester index) arrays
    with one entry per vehicle of holder_sets[i] that could serve reqs[i]:
    on the road, as a pending request's requester is, and not the requester;
    and ``keep``, the mask of those entries over all entries of holder_sets."""
    counts = np.array([len(hs) for hs in holder_sets], dtype=np.int64)
    req_i = np.repeat(np.arange(len(reqs)), counts)
    holder = np.fromiter(chain.from_iterable(holder_sets), np.int64, req_i.size)
    requester = np.array([r.requester_id for r in reqs], dtype=np.int64)
    # rows of the tick's arrays; a holder that left the road has none
    h, k = np.searchsorted(world.ids, holder), np.searchsorted(world.ids, requester)
    h_on = h < world.ids.size
    h_on[h_on] = world.ids[h[h_on]] == holder[h_on]
    keep = h_on & (holder != requester[req_i])
    req_i = req_i[keep]
    return req_i, holder[keep], h[keep], k[req_i], keep


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

    # -- request lifecycle ------------------------------------------------

    def admit(self, req: ContentRequest) -> None:
        self.pending[req.id] = req

    def retire(self, req: ContentRequest) -> None:
        del self.pending[req.id]

    def handle_new(self, requests: list[ContentRequest], copies: list[tuple[int, int]],
                   world: World, t: float) -> None:
        """Admit the tick's new requests; a planning policy plans here.  ``copies``:
        ``World.new_copies``, the copies delivered or carried in by entering vehicles
        since the last tick.  Runs once per tick, once the world is at t."""
        for req in requests:
            self.admit(req)

    def d2d_intents(self, world: World, t: float) -> list[ContentRequest]:
        """Requests to deliver from their ``provider_id`` now; after ``handle_new``."""
        return []

    def i2d_due(self, t: float) -> list[ContentRequest]:
        """Unserved requests whose infrastructure fallback is due."""
        return [r for r in self.pending.values() if t >= r.deadline - 1e-9]


class OptimalPolicy(BasePolicy):
    name = "optimal"

    def _reachable(self, world, t, reqs, req_i, holder, h, k, expiry):
        """Closest approach of every (request, holder) pair from ``_pairs``,
        each with its copy's expiry.  Returns (request index, holder id, t*,
        lane-adjusted distance) of the pairs that come within D2D range while
        the request, the copy and both vehicles last."""
        deadline = np.array([r.deadline for r in reqs])[req_i]
        phi = np.minimum.reduce([deadline, expiry, world.exits[h], world.exits[k]]) - t
        ok = phi >= 0.0
        req_i, holder, h, k, phi = req_i[ok], holder[ok], h[ok], k[ok], phi[ok]
        t_star, long_dist = kernels.closest_approach(world.xs[h] - world.xs[k],
                                                     world.vs[h] - world.vs[k], phi)
        delta = world.d2d_distance(h, k, long_dist)
        feasible = delta <= self.cfg.d2d_max_range
        return req_i[feasible], holder[feasible], t_star[feasible], delta[feasible]

    def _plan(self, reqs, holder_sets, world, t):
        """Move each request to its best reachable holder in holder_sets[i],
        a {vehicle id: copy expiry} dict (the smallest distance, ties by
        earlier encounter, then lower id), when that copy comes strictly
        closer than the request's plan."""
        if not reqs:
            return
        *pairs, keep = _pairs(world, reqs, holder_sets)
        expiry = np.fromiter(chain.from_iterable(hs.values() for hs in holder_sets),
                             float, keep.size)[keep]
        req_i, holder, t_star, delta = self._reachable(world, t, reqs, *pairs, expiry)
        T = self.cfg.control_interval
        for j in _first_per_request(req_i, (holder, t_star, delta)):
            req = reqs[req_i[j]]
            if delta[j] < req.delta_hat:
                req.provider_id = int(holder[j])
                req.delta_hat = float(delta[j])
                # t* <= deadline - t, whole ticks: the plan runs by the deadline
                req.planned_tick = t + round(float(t_star[j]) / T) * T
                req.state = SCHEDULED

    def _due(self, t):
        # past the deadline the infrastructure takes over
        return [r for r in self.pending.values()
                if r.state == SCHEDULED and r.planned_tick <= t + 1e-9
                and t <= r.deadline + 1e-9]

    def handle_new(self, requests, copies, world, t):
        # a due plan whose provider has no live copy sees every holder again
        stale = [r for r in self._due(t)
                 if r.provider_id not in world.holders.get(r.content_id, ())]
        for req in stale:
            req.provider_id = None
            req.planned_tick = None
            req.delta_hat = math.inf
            req.state = PENDING
        # a delivered copy may beat the plan of any other open request of its
        # content; a copy whose vehicle left the road has no expiry (_pairs drops it)
        fresh: dict[int, dict[int, float]] = {}
        for q, z in copies:
            fresh.setdefault(z, {})[q] = world.holders[z].get(q, -math.inf)
        dropped = {r.id for r in stale}
        open_reqs = [r for r in self.pending.values()
                     if r.content_id in fresh and r.id not in dropped]
        for req in requests:
            self.admit(req)
        self._plan(stale + requests + open_reqs,
                   [world.holders.get(r.content_id, {}) for r in stale + requests]
                   + [fresh[r.content_id] for r in open_reqs], world, t)

    def d2d_intents(self, world, t):
        due = self._due(t)
        dist = world.d2d_distance(
            np.array([world.idx_of[r.requester_id] for r in due], dtype=np.int64),
            np.array([world.idx_of[r.provider_id] for r in due], dtype=np.int64))
        return [r for r, d in zip(due, dist) if d <= self.cfg.d2d_max_range]


class BenchmarkPolicy(BasePolicy):
    """Transmit from the closest cached copy as soon as one is in range."""

    name = "benchmark"

    def d2d_intents(self, world, t):
        reqs = [r for r in self.pending.values() if t <= r.deadline + 1e-9]
        if not reqs:
            return []
        req_i, holder, h, k, _ = _pairs(
            world, reqs, [world.holders.get(r.content_id, {}) for r in reqs])
        dist = world.d2d_distance(h, k)
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
        return list(self.pending.values())


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
