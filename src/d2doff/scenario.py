"""Corridor ground truth: vehicles, caches, requests.

Vehicles enter at either street end with a constant signed speed, drive
straight through and leave; each keeps received contents cached for a
sharing timeout.  Forward traffic uses lane y=0, backward traffic lane
y=lane_offset.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .config import ScenarioConfig
from .popularity import zipf_cdf
from .speedlaw import UniformSpeedLaw

FORWARD = 0
BACKWARD = 1


@dataclass
class VehicleTable:
    """Every vehicle of the scenario, one row each in ascending id: the
    only copy of the kinematics.  A vehicle is at entry_point + speed
    (t - entry_time) on its lane from entry_time until exit_time."""

    id: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    entry_time: np.ndarray = field(default_factory=lambda: np.zeros(0))
    speed: np.ndarray = field(default_factory=lambda: np.zeros(0))  # signed; > 0 forward
    entry_point: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lane: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    exit_time: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def append(self, rows: "VehicleTable") -> None:
        for name, col in list(vars(self).items()):
            setattr(self, name, np.concatenate([col, getattr(rows, name)]))

    def keep(self, mask: np.ndarray) -> None:
        for name, col in list(vars(self).items()):
            setattr(self, name, col[mask])


PENDING = "pending"
SCHEDULED = "scheduled"
DELIVERED_D2D = "delivered_d2d"
DELIVERED_I2D = "delivered_i2d"
DROPPED = "dropped"


@dataclass
class ContentRequest:
    id: int
    requester_id: int
    content_id: int
    t0: float
    deadline: float
    state: str = PENDING
    provider_id: int | None = None
    planned_tick: float | None = None  # the tick's time (s)
    delta_hat: float = math.inf

    @property
    def served(self) -> bool:
        return self.state in (DELIVERED_D2D, DELIVERED_I2D)


class World:
    """Mutable scenario state: the vehicle table, caches, and the arrays of
    the vehicles on the road at the current tick.

    World sets every copy's expiry, ``sharing_timeout`` after its receipt,
    and keeps each vehicle's copies in expiry order, so eviction pops each
    cache's expired prefix.  ``new_copies`` holds (vehicle id, content) of each
    copy delivered, or brought in by an entering vehicle, since the engine took it."""

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.rng = rng
        self.table = VehicleTable()
        # vehicle id -> its cache {content: expiry}, in expiry order
        self.vehicles: dict[int, dict[int, float]] = {}
        # content -> {vehicle id: expiry} of every live copy, kept equal to
        # vehicles[vid][content]: the copy index the engine and policies read
        self.holders: dict[int, dict[int, float]] = defaultdict(dict)
        # heap of (first expiry, vehicle id), one entry per vehicle holding a
        # copy; renewing the first copy leaves its entry early, never late
        self._expiry: list[tuple[float, int]] = []
        self.new_copies: list[tuple[int, int]] = []
        self.content_cdf = zipf_cdf(cfg.zipf_alpha, cfg.library_size)
        self.enb_x = np.asarray(cfg.enb_positions)
        self._next_vid = 0
        self._next_rid = 0
        # per-tick arrays
        self.ids = np.zeros(0, dtype=np.int64)
        self.xs = np.zeros(0)
        self.vs = np.zeros(0)
        self.lanes = np.zeros(0, dtype=np.int64)
        self.exits = np.zeros(0)
        self.idx_of: dict[int, int] = {}

    # -- construction ---------------------------------------------------

    def _add_vehicles(self, entry_times: np.ndarray, speeds: np.ndarray) -> list[int]:
        """Append vehicles entering at the given times with signed speeds,
        at the street end and lane their direction sets; return their ids."""
        cfg = self.cfg
        speeds = np.asarray(speeds, dtype=float)
        entry_times = np.asarray(entry_times, dtype=float)
        forward = speeds > 0
        vid0 = self._next_vid
        self._next_vid += speeds.size
        rows = VehicleTable(
            id=np.arange(vid0, self._next_vid, dtype=np.int64),
            entry_time=entry_times, speed=speeds,
            entry_point=np.where(forward, 0.0, cfg.street_length),
            lane=np.where(forward, FORWARD, BACKWARD).astype(np.int64),
            exit_time=entry_times + cfg.street_length / np.abs(speeds))
        self.table.append(rows)
        out = list(range(vid0, self._next_vid))
        self.vehicles.update((vid, {}) for vid in out)
        return out

    def spawn_vehicles(self, t0: float, t1: float) -> list[int]:
        """Poisson arrivals over [t0, t1), half rate per street end.

        The street is a window of a longer road, so entering vehicles
        carry the cache history they would have accumulated before
        reaching the window."""
        if t1 <= t0:
            raise ValueError("need a non-degenerate interval")
        cfg = self.cfg
        times, speeds = [], []
        for sign in (1.0, -1.0):
            n = self.rng.poisson(0.5 * cfg.vehicle_arrival_rate * (t1 - t0))
            if n == 0:
                continue
            times.append(np.sort(self.rng.uniform(t0, t1, size=n)))
            speeds.append(sign * self.rng.uniform(cfg.speed_min, cfg.speed_max, size=n))
        if not times:
            return []
        entry = np.concatenate(times)
        out = self._add_vehicles(entry, np.concatenate(speeds))
        self._seed_caches(out, entry, cfg.sharing_timeout)
        self.new_copies.extend((vid, z) for vid in out for z in self.vehicles[vid])
        return out

    def init_stationary(self, t: float) -> None:
        """Populate a steady-state snapshot: Poisson vehicle count at
        uniform positions, time-in-road biased speeds, caches seeded
        from each vehicle's own request history."""
        cfg = self.cfg
        law = UniformSpeedLaw(cfg.speed_min, cfg.speed_max)
        rho = law.stationary_density(cfg.vehicle_arrival_rate)
        n = self.rng.poisson(rho * cfg.street_length)
        if n == 0:
            return
        xs = self.rng.uniform(0.0, cfg.street_length, size=n)
        mags = law.sample_length_biased_magnitude(self.rng, n)
        speeds = np.where(self.rng.random(n) < 0.5, 1.0, -1.0) * mags
        age = np.where(speeds > 0, xs, cfg.street_length - xs) / mags
        out = self._add_vehicles(t - age, speeds)
        self._seed_caches(out, t, np.minimum(cfg.sharing_timeout, age))

    def _seed_caches(self, vids: list[int], now, window) -> None:
        """Fill each new vehicle's cache from its own requests over the
        ``window`` seconds before ``now`` (one value each, or one for all):
        a Poisson number of requests, contents by popularity, so each
        content is requested a Poisson number of times and held with
        probability 1 - exp(-lambda_z window).  A held content was received
        at a uniform time within the window, which ends before any delivery
        to the vehicle; receipts are drawn contents ascending, stored in
        expiry order."""
        cfg = self.cfg
        counts = self.rng.poisson(cfg.request_rate * window, size=len(vids)).tolist()
        total = sum(counts)
        if total == 0:
            return
        z = self.content_cdf.searchsorted(self.rng.random(total), side="right").tolist()
        # each vehicle's hits, contents ascending; a few dozen per vehicle,
        # so Python sets beat numpy calls here
        ends = list(itertools.accumulate(counts))
        hits = [sorted(set(z[end - k:end])) for k, end in zip(counts, ends)]
        u = iter(self.rng.random(sum(map(len, hits))).tolist())
        now = np.broadcast_to(now, len(vids)).tolist()
        window = np.broadcast_to(window, len(vids)).tolist()
        for vid, zs, t, w in zip(vids, hits, now, window):
            if zs:
                copies = [(zi, t - next(u) * w + cfg.sharing_timeout) for zi in zs]
                for zi, exp in copies:
                    self.holders[zi][vid] = exp
                copies.sort(key=itemgetter(1))
                self.vehicles[vid] = dict(copies)
                heapq.heappush(self._expiry, (copies[0][1], vid))

    # -- cache bookkeeping ------------------------------------------------

    def add_cache(self, vid: int, z: int, t: float) -> None:
        """Vehicle ``vid`` received content ``z`` at tick ``t``, no earlier
        than any copy it holds, so the copy, new or renewed, goes at the end
        of its cache; it expires ``sharing_timeout`` later."""
        cache = self.vehicles[vid]
        expiry = t + self.cfg.sharing_timeout
        if not cache:
            heapq.heappush(self._expiry, (expiry, vid))
        cache.pop(z, None)
        cache[z] = self.holders[z][vid] = expiry
        self.new_copies.append((vid, z))

    def evict_expired(self, t: float) -> None:
        """Drop every copy expired by ``t``, the expired prefix of each cache."""
        while self._expiry and self._expiry[0][0] <= t:
            vid = heapq.heappop(self._expiry)[1]
            cache = self.vehicles.get(vid)
            if cache is None:      # the vehicle left the road
                continue
            for z in list(itertools.takewhile(lambda z: cache[z] <= t, cache)):
                del cache[z]
                del self.holders[z][vid]
            if cache:
                heapq.heappush(self._expiry, (next(iter(cache.values())), vid))

    # -- per-tick state ----------------------------------------------------

    def remove_exited(self, t: float) -> list[int]:
        gone = self.table.exit_time <= t
        if not gone.any():
            return []
        vids = self.table.id[gone].tolist()
        self.table.keep(~gone)
        for vid in vids:
            for z in self.vehicles.pop(vid):
                del self.holders[z][vid]
        return vids

    def refresh_arrays(self, t: float) -> None:
        tab = self.table
        on = tab.entry_time <= t
        self.ids = tab.id[on]
        self.vs = tab.speed[on]
        self.xs = tab.entry_point[on] + self.vs * (t - tab.entry_time[on])
        self.lanes = tab.lane[on]
        self.exits = tab.exit_time[on]
        self.idx_of = dict(zip(self.ids.tolist(), range(self.ids.size)))

    def lane_y(self, lanes: np.ndarray) -> np.ndarray:
        """Lateral offset of each lane axis."""
        return np.where(lanes == FORWARD, 0.0, self.cfg.lane_offset)

    def d2d_distance(self, a: np.ndarray, b: np.ndarray, dx=None) -> np.ndarray:
        """Distance between the lane axes of the vehicles at rows a and b of
        the tick's arrays, pair by pair, at longitudinal gap ``dx`` >= 0
        (default: their gap now)."""
        if dx is None:
            dx = np.abs(self.xs[a] - self.xs[b])
        return np.where(self.lanes[a] == self.lanes[b], dx,
                        np.hypot(dx, self.cfg.lane_offset))

    def nearest_enb(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(eNB index, 3-D distance) of the closest base station to each
        position in ``x``; a tie goes to the lower index."""
        x = np.asarray(x, dtype=float)
        i = np.argmin(np.abs(self.enb_x - x[..., None]), axis=-1)
        return i, np.hypot(self.enb_x[i] - x, self.cfg.enb_antenna_height)

    # -- requests -----------------------------------------------------------

    def spawn_requests(self, t: float) -> list[ContentRequest]:
        """Per-device Poisson requests for one control interval at tick t,
        devices in id order; a deadline is the last tick at or before
        t + content_timeout, the one place a delay tolerance becomes a tick."""
        cfg = self.cfg
        tab = self.table
        vids = tab.id[(tab.entry_time <= t) & (t < tab.exit_time)]
        counts = self.rng.poisson(cfg.request_rate * cfg.control_interval, size=vids.size)
        total = int(counts.sum())
        if total == 0:
            return []
        contents = self.content_cdf.searchsorted(self.rng.random(total), side="right")
        rid0 = self._next_rid
        self._next_rid += total
        T = cfg.control_interval
        deadline = math.floor((t + cfg.content_timeout) / T + 1e-9) * T
        return [ContentRequest(id=rid, requester_id=vid, content_id=z, t0=t, deadline=deadline)
                for rid, vid, z in zip(range(rid0, self._next_rid),
                                       np.repeat(vids, counts).tolist(), contents.tolist())]
