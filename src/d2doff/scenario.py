"""Corridor ground truth: vehicles, caches, requests.

Vehicles enter at either street end with a constant signed speed, drive
straight through and leave; each keeps received contents cached for a
sharing timeout.  Forward traffic uses lane y=0, backward traffic lane
y=lane_offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig
from .popularity import zipf_cdf, zipf_pmf

FORWARD = 0
BACKWARD = 1


@dataclass
class Vehicle:
    id: int
    entry_time: float
    speed: float               # signed; > 0 forward
    entry_point: float
    lane: int
    exit_time: float
    cache: dict[int, float] = field(default_factory=dict)  # content -> expiry
    next_expiry: float = math.inf  # no cache entry expires before this

    def position(self, t: float) -> float:
        if not (self.entry_time <= t <= self.exit_time):
            raise ValueError(f"vehicle {self.id} inactive at t={t}")
        return self.entry_point + self.speed * (t - self.entry_time)


PENDING = "pending"
SCHEDULED = "scheduled"
DELIVERED_D2D = "delivered_d2d"
DELIVERED_I2D = "delivered_i2d"
DROPPED = "dropped"
REPEATED = "repeated"


@dataclass
class ContentRequest:
    id: int
    requester_id: int
    content_id: int
    t0: float
    deadline: float
    state: str = PENDING
    provider_id: int | None = None
    planned_tick: int | None = None
    delta_hat: float = math.inf
    attempts: int = 0

    @property
    def served(self) -> bool:
        return self.state in (DELIVERED_D2D, DELIVERED_I2D, REPEATED)


def vehicle_distance(xa: float, lane_a: int, xb: float, lane_b: int,
                     lane_offset: float) -> float:
    """Distance between two vehicles' lane axes."""
    if lane_a == lane_b:
        return abs(xa - xb)
    return math.hypot(xa - xb, lane_offset)


class World:
    """Mutable scenario state plus per-tick position arrays."""

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.rng = rng
        self.vehicles: dict[int, Vehicle] = {}
        self.holders: dict[int, set[int]] = {}   # content -> vehicle ids
        self.lam_z = zipf_pmf(cfg.zipf_alpha, cfg.library_size) * cfg.request_rate
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

    def _new_vehicle(self, entry_time: float, speed: float) -> Vehicle:
        cfg = self.cfg
        if speed > 0:
            entry_point, lane = 0.0, FORWARD
        else:
            entry_point, lane = cfg.street_length, BACKWARD
        vid = self._next_vid
        self._next_vid += 1
        veh = Vehicle(id=vid, entry_time=entry_time, speed=speed,
                      entry_point=entry_point, lane=lane,
                      exit_time=entry_time + cfg.street_length / abs(speed))
        self.vehicles[vid] = veh
        return veh

    def spawn_vehicles(self, t0: float, t1: float) -> list[Vehicle]:
        """Poisson arrivals over [t0, t1), half rate per street end.

        The street is a window of a longer road, so entering vehicles
        carry the cache history they would have accumulated before
        reaching the window."""
        if t1 <= t0:
            raise ValueError("need a non-degenerate interval")
        cfg = self.cfg
        out = []
        for sign in (1.0, -1.0):
            n = self.rng.poisson(0.5 * cfg.vehicle_arrival_rate * (t1 - t0))
            if n == 0:
                continue
            times = np.sort(self.rng.uniform(t0, t1, size=n))
            speeds = sign * self.rng.uniform(cfg.speed_min, cfg.speed_max, size=n)
            for et, sp in zip(times, speeds):
                veh = self._new_vehicle(float(et), float(sp))
                self._seed_cache(veh, veh.entry_time, cfg.sharing_timeout)
                out.append(veh)
        return out

    def init_stationary(self, t: float) -> None:
        """Populate a steady-state snapshot: Poisson vehicle count at
        uniform positions, time-in-road biased speeds, caches seeded
        from each vehicle's own request history."""
        cfg = self.cfg
        if cfg.speed_min <= 0:
            raise ValueError("stationary init needs speed_min > 0")
        rho = (cfg.vehicle_arrival_rate
               * math.log(cfg.speed_max / cfg.speed_min)
               / (cfg.speed_max - cfg.speed_min)
               if cfg.speed_max > cfg.speed_min
               else cfg.vehicle_arrival_rate / cfg.speed_min)
        n = self.rng.poisson(rho * cfg.street_length)
        if n == 0:
            return
        xs = self.rng.uniform(0.0, cfg.street_length, size=n)
        mags = cfg.speed_min * (cfg.speed_max / cfg.speed_min) ** self.rng.random(n)
        signs = np.where(self.rng.random(n) < 0.5, 1.0, -1.0)
        for x, mag, sign in zip(xs, mags, signs):
            speed = float(sign * mag)
            if speed > 0:
                travelled = x
            else:
                travelled = cfg.street_length - x
            age = travelled / mag
            veh = self._new_vehicle(t - age, speed)
            self._seed_cache(veh, t, age)

    def _seed_cache(self, veh: Vehicle, now: float, age: float) -> None:
        cfg = self.cfg
        window = min(cfg.sharing_timeout, age)
        if window <= 0:
            return
        p = -np.expm1(-self.lam_z * window)
        hit = np.nonzero(self.rng.random(p.size) < p)[0]
        if hit.size == 0:
            return
        receipt = now - self.rng.uniform(0.0, window, size=hit.size)
        for z, rt in zip(hit, receipt):
            self.add_cache(veh.id, int(z), float(rt) + cfg.sharing_timeout)

    # -- cache bookkeeping ------------------------------------------------

    def add_cache(self, vid: int, z: int, expiry: float) -> None:
        veh = self.vehicles[vid]
        old = veh.cache.get(z)
        if old is None or expiry > old:
            veh.cache[z] = expiry
            if expiry < veh.next_expiry:
                veh.next_expiry = expiry
        self.holders.setdefault(z, set()).add(vid)

    def evict_expired(self, t: float) -> None:
        for veh in self.vehicles.values():
            if veh.next_expiry > t:
                continue
            dead = [z for z, exp in veh.cache.items() if exp <= t]
            for z in dead:
                del veh.cache[z]
                hs = self.holders.get(z)
                if hs is not None:
                    hs.discard(veh.id)
            veh.next_expiry = min(veh.cache.values(), default=math.inf)

    def _forget_vehicle(self, vid: int) -> None:
        veh = self.vehicles.pop(vid)
        for z in veh.cache:
            hs = self.holders.get(z)
            if hs is not None:
                hs.discard(vid)

    # -- per-tick state ----------------------------------------------------

    def remove_exited(self, t: float) -> list[int]:
        gone = [vid for vid, v in self.vehicles.items() if v.exit_time <= t]
        for vid in gone:
            self._forget_vehicle(vid)
        return gone

    def refresh_arrays(self, t: float) -> None:
        vids = sorted(v for v in self.vehicles
                      if self.vehicles[v].entry_time <= t)
        self.ids = np.array(vids, dtype=np.int64)
        self.xs = np.array([self.vehicles[v].entry_point
                            + self.vehicles[v].speed * (t - self.vehicles[v].entry_time)
                            for v in vids])
        self.vs = np.array([self.vehicles[v].speed for v in vids])
        self.lanes = np.array([self.vehicles[v].lane for v in vids], dtype=np.int64)
        self.exits = np.array([self.vehicles[v].exit_time for v in vids])
        self.idx_of = {v: i for i, v in enumerate(vids)}

    def lane_y(self, lanes: np.ndarray) -> np.ndarray:
        """Lateral offset of each lane axis."""
        return np.where(lanes == FORWARD, 0.0, self.cfg.lane_offset)

    def position(self, vid: int, t: float) -> float:
        return self.vehicles[vid].position(t)

    def distance(self, vid_a: int, vid_b: int, t: float) -> float:
        va, vb = self.vehicles[vid_a], self.vehicles[vid_b]
        return vehicle_distance(va.position(t), va.lane,
                                vb.position(t), vb.lane, self.cfg.lane_offset)

    def nearest_enb(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(eNB index, 3-D distance) of the closest base station to each
        position in ``x``; a tie goes to the lower index.  The distance is
        math.hypot's: numpy's hypot differs from it in the last bit."""
        x = np.asarray(x, dtype=float)
        i = np.argmin(np.abs(self.enb_x - x[..., None]), axis=-1)
        h = self.cfg.enb_antenna_height
        d = [math.hypot(dx, h) for dx in np.ravel(self.enb_x[i] - x).tolist()]
        return i, np.reshape(d, x.shape)

    # -- requests -----------------------------------------------------------

    def spawn_requests(self, t: float) -> list[ContentRequest]:
        """Per-device Poisson requests for one control interval at tick t."""
        cfg = self.cfg
        out = []
        for vid in sorted(self.vehicles):
            veh = self.vehicles[vid]
            if not (veh.entry_time <= t < veh.exit_time):
                continue
            k = self.rng.poisson(cfg.request_rate * cfg.control_interval)
            if k == 0:
                continue
            contents = self.content_cdf.searchsorted(self.rng.random(k), side="right")
            for z in contents:
                rid = self._next_rid
                self._next_rid += 1
                out.append(ContentRequest(
                    id=rid, requester_id=vid, content_id=int(z),
                    t0=t, deadline=t + cfg.content_timeout))
        return out
