"""Per-control-interval simulation loop and metric accumulation."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import phy, rrrm
from .config import Config
from .policies import make_policy
from .scenario import (World, DELIVERED_D2D, DELIVERED_I2D, DROPPED, REPEATED)


@dataclass
class MetricsAccumulator:
    deliveries_d2d: int = 0
    deliveries_i2d: int = 0
    repeated: int = 0
    dropped: int = 0
    requests_nonrepeated: int = 0
    energy_d2d: float = 0.0
    energy_i2d: float = 0.0
    failed_attempts: int = 0
    pruned_links: int = 0
    occupancy_samples: list = field(default_factory=list)
    d2d_distances: list = field(default_factory=list)

    @property
    def deliveries(self) -> int:
        return self.deliveries_d2d + self.deliveries_i2d

    @property
    def offloading_efficiency(self) -> float:
        return self.deliveries_d2d / self.deliveries if self.deliveries else 0.0

    @property
    def energy_total_per_delivery(self) -> float:
        return (self.energy_d2d + self.energy_i2d) / self.deliveries \
            if self.deliveries else 0.0

    @property
    def energy_d2d_per_delivery(self) -> float:
        return self.energy_d2d / self.deliveries_d2d if self.deliveries_d2d else 0.0

    @property
    def mean_occupancy(self) -> float:
        return float(np.mean(self.occupancy_samples)) if self.occupancy_samples else 0.0

    def summary(self) -> dict:
        return {
            "offloading_efficiency": self.offloading_efficiency,
            "energy_total_per_delivery": self.energy_total_per_delivery,
            "energy_d2d_per_delivery": self.energy_d2d_per_delivery,
            "mean_occupancy": self.mean_occupancy,
            "deliveries_d2d": float(self.deliveries_d2d),
            "deliveries_i2d": float(self.deliveries_i2d),
            "repeated": float(self.repeated),
            "dropped": float(self.dropped),
            "failed_attempts": float(self.failed_attempts),
            "pruned_links": float(self.pruned_links),
        }


class Engine:
    """One simulation run: deterministic given (config, policy, seed)."""

    def __init__(self, cfg: Config, policy_name: str, seed: int):
        cfg.validate()
        self.cfg = cfg
        sc = cfg.scenario
        self.rng = np.random.default_rng(seed)
        self.world = World(sc, self.rng)
        self.policy = make_policy(policy_name, sc)
        self.channel = phy.ChannelModel(cfg.phy)
        self.shadow = phy.ShadowingField(sc.street_length, cfg.phy, self.rng)
        self.n_prbs = phy.prbs_required(cfg.phy)
        blocks = cfg.phy.freq_blocks
        self.capacity = blocks * int(round(sc.control_interval / cfg.phy.prb_duration))
        # slots of PRB slice k in each frequency block: row k mod len(), as
        # the row depends only on k * n_prbs mod blocks
        first = np.arange(blocks // math.gcd(self.n_prbs, blocks)) * self.n_prbs
        self._slice_slots = phy.slots_per_block(first, first + self.n_prbs, blocks)
        self.metrics = MetricsAccumulator()
        # exclusive-spectrum-use region: the first three cells
        self.n_region = min(3, len(sc.enb_positions))
        if len(sc.enb_positions) > self.n_region:
            self.region_x_max = 0.5 * (sc.enb_positions[self.n_region - 1]
                                       + sc.enb_positions[self.n_region])
        else:
            self.region_x_max = sc.street_length
        self._cache_events: list[tuple[int, int]] = []

    def _link_table(self, reqs: list, n_i2d: int, t: float) -> rrrm.Links:
        """The links that serve ``reqs`` at tick t, row i for reqs[i]: the
        first ``n_i2d`` from the requester's nearest eNB, the rest from the
        request's provider."""
        sc = self.cfg.scenario
        world = self.world
        rx = np.array([world.idx_of[r.requester_id] for r in reqs], dtype=np.int64)
        tx = np.array([world.idx_of[r.provider_id] for r in reqs[n_i2d:]], dtype=np.int64)
        rx_x = world.xs[rx]
        enb, enb_dist = world.nearest_enb(rx_x[:n_i2d])
        T = sc.control_interval
        return rrrm.Links(
            is_i2d=np.arange(len(reqs)) < n_i2d,
            enb=np.concatenate([enb, np.full(tx.size, -1)]),
            tx_x=np.concatenate([world.enb_x[enb], world.xs[tx]]),
            tx_y=np.concatenate([np.full(n_i2d, sc.enb_antenna_height),
                                 world.lane_y(world.lanes[tx])]),
            rx_x=rx_x, rx_y=world.lane_y(world.lanes[rx]),
            distance=np.concatenate([enb_dist, world.d2d_distance(rx[n_i2d:], tx)]),
            deadline=np.array([int(round(r.deadline / T)) for r in reqs], dtype=np.int64),
            age=np.array([int(round((t - r.t0) / T)) for r in reqs], dtype=np.int64))

    # -- one interval ---------------------------------------------------------

    def tick(self, t: float, measuring: bool) -> None:
        sc = self.cfg.scenario
        world = self.world

        removed = set(world.remove_exited(t))
        if removed:
            for req in list(self.policy.pending.values()):
                if req.requester_id in removed:
                    req.state = DROPPED
                    self.policy.retire(req)
                    if measuring:
                        self.metrics.dropped += 1
        world.spawn_vehicles(t, t + sc.control_interval)
        world.evict_expired(t)
        world.refresh_arrays(t)

        new_requests = []
        for req in world.spawn_requests(t):
            if self.policy.uses_cache:
                holder = world.vehicles[req.requester_id]
                if req.content_id in holder.cache:
                    req.state = REPEATED
                    if measuring:
                        self.metrics.repeated += 1
                    continue
            if measuring:
                self.metrics.requests_nonrepeated += 1
            new_requests.append(req)
        self.policy.handle_new(new_requests, world, t)

        events, self._cache_events = self._cache_events, []
        for vid, z in events:
            self.policy.cache_event(vid, z, world, t)

        # D2D deliveries first: a transmission scheduled for the deadline
        # tick pre-empts the infrastructure fallback for that request
        d2d = self.policy.d2d_intents(world, t)
        d2d_ids = {req.id for req in d2d}
        i2d = [req for req in self.policy.i2d_due(t)
               if req.id not in d2d_ids and req.requester_id in world.idx_of]
        reqs = i2d + d2d
        if not reqs:
            if measuring:
                self.metrics.occupancy_samples.append(0.0)
            return

        # per-link radio quantities of this tick, indexed like ``links``
        links = self._link_table(reqs, len(i2d), t)
        gains, nominal = rrrm.interference_matrix(links, self.cfg.phy)
        powers = rrrm.link_powers(links, nominal, self.cfg.phy)
        order = rrrm.priority_order(links)
        sets = rrrm.partition_rrr_sets(links, gains, powers, order, self.cfg.phy,
                                       self.cfg.rrrm)
        placed, pruned = rrrm.allocate_prbs(sets, links, order, self.capacity, self.n_prbs)
        if measuring:
            self.metrics.pruned_links += len(pruned)
            in_region = np.where(links.is_i2d, links.enb < self.n_region,
                                 links.tx_x <= self.region_x_max)
            self.metrics.occupancy_samples.append(
                rrrm.spectrum_occupancy(placed, self.capacity, self.n_prbs, in_region))

        self._transmit_tick(links, reqs, placed, gains, nominal, powers, t, measuring)

    def _transmit_tick(self, links: rrrm.Links, reqs: list, placed: rrrm.Placement,
                       gains: np.ndarray, nominal: np.ndarray, powers: np.ndarray,
                       t: float, measuring: bool) -> None:
        """Every placed link's HARQ attempts, in order of (PRB slice, link
        index); reqs[i] is link i's request.  gains, nominal, powers:
        the tick's ``rrrm.interference_matrix`` and ``rrrm.link_powers``.

        A link's receiver hears one channel from each peer that shares its
        slice, in placement order, then its own.  These rows take fading
        blocks in draw order, all links' rows in link order.  A retry takes
        the block after its link's last one, so every later row moves one
        block on; blocks are drawn only once a row needs them."""
        if not placed:
            return
        cfg = self.cfg
        n = len(placed)
        lid, slice_id = placed.link, placed.slice_id
        energies = phy.content_energy(powers, cfg.phy)
        order = np.lexsort((lid, slice_id))
        # hears[f, j]: placed link j shares PRBs with the f-th link to transmit
        hears = slice_id[order, None] == slice_id
        hears[np.arange(n), order] = False
        # rows in draw order; column n is the link's own channel
        row_link, col = np.nonzero(np.column_stack([hears, np.ones(n, dtype=bool)]))
        own = np.flatnonzero(col == n)
        rx = order[row_link]
        tx = np.where(col == n, rx, col)
        slots = self._slice_slots[slice_id[order] % len(self._slice_slots)]
        row_power = powers[lid[tx]]
        shadow_db = self.shadow.link_shadow_db(links.tx_x[lid[tx]], links.rx_x[lid[rx]])
        gain = phy.mean_gain(np.where(col == n, nominal[lid[rx]], gains[lid[tx], lid[rx]]),
                             shadow_db)
        blocks = np.arange(row_link.size)       # fading block of each row
        fading = self.channel.realize(row_link.size, self.rng)

        def information(first: int, stop_link: int) -> np.ndarray:
            """Achievable bits of links first..stop_link-1 on their blocks."""
            nonlocal fading
            r0 = own[first - 1] + 1 if first else 0
            r1 = own[stop_link - 1] + 1
            b = blocks[r0:r1]
            if b[-1] >= len(fading):
                fading = np.concatenate(
                    [fading, self.channel.realize(int(b[-1]) + 1 - len(fading), self.rng)])
            # the blocks are consecutive unless a retried link's own row is in range
            rows = slice(b[0], b[-1] + 1) if b[-1] - b[0] == r1 - r0 - 1 else b
            return phy.achievable_information(
                row_power[r0:r1], gain[r0:r1], fading[rows], row_link[r0:r1] - first,
                slots[first:stop_link], cfg.phy)

        info = information(0, n)
        current = n                           # info[f] holds for f < current
        for f in range(n):
            if f >= current:
                info[f:] = information(f, n)
                current = n
            i = int(lid[order[f]])
            req, is_i2d = reqs[i], bool(links.is_i2d[i])
            energy = float(energies[i])
            # HARQ: retransmissions happen within the control interval (their
            # round-trip is milliseconds), so a fading dip costs energy but
            # does not move the transmission to a later, farther tick
            for attempt in range(cfg.phy.harq_attempts):
                success = phy.transmission_success(float(info[f]), cfg.phy)
                if measuring:
                    if is_i2d:
                        self.metrics.energy_i2d += energy
                    else:
                        self.metrics.energy_d2d += energy
                if success:
                    break
                req.attempts += 1
                if measuring:
                    self.metrics.failed_attempts += 1
                if attempt + 1 < cfg.phy.harq_attempts:
                    blocks[own[f]:] += 1
                    info[f] = information(f, f + 1)[0]
                    current = f + 1
            if success:
                self._deliver(req, is_i2d, float(links.distance[i]), t, measuring)

    def _deliver(self, req, is_i2d: bool, distance: float, t: float,
                 measuring: bool) -> None:
        if is_i2d:
            req.state = DELIVERED_I2D
            if measuring:
                self.metrics.deliveries_i2d += 1
        else:
            req.state = DELIVERED_D2D
            if measuring:
                self.metrics.deliveries_d2d += 1
                self.metrics.d2d_distances.append(distance)
        self.policy.retire(req)
        if self.policy.uses_cache:
            # receiver caches what it received; new copies can serve others
            expiry = t + self.cfg.scenario.sharing_timeout
            self.world.add_cache(req.requester_id, req.content_id, expiry)
            self._cache_events.append((req.requester_id, req.content_id))

    # -- full run ----------------------------------------------------------------

    def run(self, duration: float, warmup: float) -> MetricsAccumulator:
        if duration <= 0:
            raise ValueError("duration must be > 0")
        sc = self.cfg.scenario
        T = sc.control_interval
        self.world.init_stationary(0.0)
        n_ticks = int(round((warmup + duration) / T))
        warm_ticks = int(round(warmup / T))
        for k in range(n_ticks):
            self.tick(k * T, k >= warm_ticks)
        return self.metrics


def run(cfg: Config, policy_name: str, duration: float, warmup: float,
        seed: int) -> Engine:
    eng = Engine(cfg, policy_name, seed)
    eng.run(duration, warmup)
    return eng


def _run_job(job: tuple) -> MetricsAccumulator:
    return run(*job).metrics


def run_many(jobs, workers: int | None = None) -> list[MetricsAccumulator]:
    """Each (cfg, policy, duration, warmup, seed) job's metrics, in job order,
    from ``workers`` processes (default: the usable cores; with one, no pool
    starts).  A run depends only on its job, so ``workers`` changes no bit."""
    jobs = list(jobs)
    n = min(workers or len(os.sched_getaffinity(0)), len(jobs))
    if n <= 1:
        return [_run_job(job) for job in jobs]
    # imported here: a caller that never pools does not pay for the import
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(_run_job, jobs))


@dataclass
class ReplicationSummary:
    metric_names: list[str]
    means: dict
    ci_low: dict
    ci_high: dict
    runs: list[MetricsAccumulator]

    def row(self, name: str) -> tuple[float, float, float]:
        return self.means[name], self.ci_low[name], self.ci_high[name]


def _t_quantile_975(df: int) -> float:
    """Two-sided 95 % quantile of Student's t with integer df >= 1.

    Bisection in theta = atan(t / sqrt(df)) on the closed form of
    P(|T| <= t) (Abramowitz & Stegun 26.7.3-4), down to adjacent floats.
    """
    def coverage(theta: float) -> float:
        c2 = math.cos(theta) ** 2
        term = total = 1.0
        for k in range(1 + df % 2, df - 1, 2):
            term *= k / (k + 1.0) * c2
            total += term
        if df % 2 == 0:
            return math.sin(theta) * total
        tail = math.sin(theta) * math.cos(theta) * total if df > 1 else 0.0
        return 2.0 / math.pi * (theta + tail)

    lo, hi = 0.0, 0.5 * math.pi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if coverage(mid) < 0.95:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(df) * math.tan(mid)


def summarize(runs: list[MetricsAccumulator]) -> ReplicationSummary:
    """Means and Student-t 95% CIs of the runs' summaries."""
    n_runs = len(runs)
    names = list(runs[0].summary().keys())
    q = _t_quantile_975(n_runs - 1) if n_runs > 1 else 0.0
    means, lo, hi = {}, {}, {}
    for name in names:
        vals = np.array([r.summary()[name] for r in runs])
        m = float(vals.mean())
        means[name] = m
        if n_runs > 1:
            sem = vals.std(ddof=1) / math.sqrt(n_runs)
            lo[name], hi[name] = m - q * sem, m + q * sem
        else:
            lo[name] = hi[name] = m
    return ReplicationSummary(metric_names=names, means=means,
                              ci_low=lo, ci_high=hi, runs=runs)


def replicate(cfg: Config, policy_name: str, duration: float, warmup: float,
              n_runs: int, base_seed: int) -> ReplicationSummary:
    """Independent runs with seeds base_seed + i and Student-t 95% CIs."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    return summarize(run_many((cfg, policy_name, duration, warmup, base_seed + i)
                              for i in range(n_runs)))


def sample_distance_pdf(distances, bin_width: float = 2.0,
                        r_max: float | None = None):
    """Normalized histogram of delivery distances (bin centers, density)."""
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise ValueError("no distances recorded")
    top = r_max if r_max is not None else float(d.max()) + bin_width
    edges = np.arange(0.0, top + bin_width, bin_width)
    hist, edges = np.histogram(d, bins=edges, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    return centers, hist
