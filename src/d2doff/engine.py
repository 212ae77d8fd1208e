"""Per-control-interval simulation loop and metric accumulation."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import phy, rrrm
from .config import Config, ConfigError
from .policies import make_policy
from .scenario import World, DELIVERED_D2D, DELIVERED_I2D, DROPPED


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
        self.n_prbs = cfg.phy.prbs_required
        blocks = cfg.phy.freq_blocks
        self.capacity = cfg.prbs_per_interval
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

    def _link_table(self, reqs: list, n_i2d: int) -> rrrm.Links:
        """The links that serve ``reqs``, row i for reqs[i]: the first
        ``n_i2d`` from the requester's nearest eNB, the rest from the
        request's provider; each kind in id order (``rrrm.Links``)."""
        sc = self.cfg.scenario
        world = self.world
        rx = np.array([world.idx_of[r.requester_id] for r in reqs], dtype=np.int64)
        tx = np.array([world.idx_of[r.provider_id] for r in reqs[n_i2d:]], dtype=np.int64)
        rx_x = world.xs[rx]
        enb, enb_dist = world.nearest_enb(rx_x[:n_i2d])
        return rrrm.Links(
            is_i2d=np.arange(len(reqs)) < n_i2d,
            enb=np.concatenate([enb, np.full(tx.size, -1)]),
            tx_x=np.concatenate([world.enb_x[enb], world.xs[tx]]),
            tx_y=np.concatenate([np.full(n_i2d, sc.enb_antenna_height),
                                 world.lane_y(world.lanes[tx])]),
            rx_x=rx_x, rx_y=world.lane_y(world.lanes[rx]),
            distance=np.concatenate([enb_dist, world.d2d_distance(rx[n_i2d:], tx)]))

    # -- one interval ---------------------------------------------------------

    def tick(self, t: float, measuring: bool) -> None:
        sc = self.cfg.scenario
        world = self.world
        # warm-up ticks count into a record that is thrown away
        m = self.metrics if measuring else MetricsAccumulator()

        removed = set(world.remove_exited(t))
        if removed:
            for req in list(self.policy.pending.values()):
                if req.requester_id in removed:
                    req.state = DROPPED
                    self.policy.retire(req)
                    m.dropped += 1
        # taken before the spawn: vehicles entering over [t, t + T) are announced next tick
        copies, world.new_copies = world.new_copies, []
        world.spawn_vehicles(t, t + sc.control_interval)
        world.evict_expired(t)
        world.refresh_arrays(t)

        new_requests = []
        for req in world.spawn_requests(t):
            if self.policy.uses_cache:
                if req.requester_id in world.holders.get(req.content_id, ()):
                    m.repeated += 1
                    continue
            m.requests_nonrepeated += 1
            new_requests.append(req)
        self.policy.handle_new(new_requests, copies, world, t)

        # D2D deliveries first: a transmission scheduled for the deadline
        # tick pre-empts the infrastructure fallback for that request; both
        # lists keep pending (id) order, as ``rrrm.Links`` requires
        d2d = self.policy.d2d_intents(world, t)
        d2d_ids = {req.id for req in d2d}
        i2d = [req for req in self.policy.i2d_due(t) if req.id not in d2d_ids]
        reqs = i2d + d2d
        if not reqs:
            m.occupancy_samples.append(0.0)
            return

        # per-link radio quantities of this tick, indexed like ``links``
        links = self._link_table(reqs, len(i2d))
        gains = rrrm.interference_matrix(links, self.cfg.phy)
        powers = rrrm.link_powers(links, gains, self.cfg.phy)
        sets = rrrm.partition_rrr_sets(links, gains, powers, self.cfg.phy, self.cfg.rrrm)
        placed, pruned = rrrm.allocate_prbs(sets, links, self.capacity, self.n_prbs)
        m.pruned_links += len(pruned)
        in_region = np.where(links.is_i2d, links.enb < self.n_region,
                             links.tx_x <= self.region_x_max)
        m.occupancy_samples.append(
            rrrm.spectrum_occupancy(placed, self.capacity, self.n_prbs, in_region))

        self._transmit_tick(links, reqs, placed, gains, powers, t, m)

    def _transmit_tick(self, links: rrrm.Links, reqs: list, placed: rrrm.Placement,
                       gains: np.ndarray, powers: np.ndarray, t: float,
                       m: MetricsAccumulator) -> None:
        """Every placed link's HARQ attempts, in the placement's transmission
        order; reqs[i] is link i's request.  gains, powers: the tick's
        ``rrrm.interference_matrix`` and ``rrrm.link_powers``.

        A link's receiver hears one channel from each peer that shares its
        slice, in transmission order, then its own.  These rows take the
        tick's first fading blocks in draw order, all links' rows in
        transmission order.  The drawn |H|^2 block becomes the rows'
        received power in place, scaled by each row's transmit power times
        its mean gain.  A retry draws one new block for its own channel
        alone; its peers' blocks do not move, so it is scored against the
        interference summed for its first attempt."""
        if not placed:
            return
        cfg = self.cfg
        n = len(placed)
        lid, slice_id = placed.link, placed.slice_id
        energies = phy.content_energy(powers, cfg.phy)
        # hears[f, j]: placed links f and j share PRBs
        hears = slice_id[:, None] == slice_id
        np.fill_diagonal(hears, False)
        # rows in draw order: link rx hears col, column n being its own channel
        rx, col = np.nonzero(np.column_stack([hears, np.ones(n, dtype=bool)]))
        own = np.flatnonzero(col == n)
        tx = np.where(col == n, rx, col)
        slots = self._slice_slots[slice_id % len(self._slice_slots)]
        shadow_db = self.shadow.link_shadow_db(links.tx_x[lid[tx]], links.rx_x[lid[rx]])
        # an own row has tx = rx, so it reads the link's own gain
        row_gain = powers[lid[tx]] * phy.mean_gain(gains[lid[tx], lid[rx]], shadow_db)
        received = self.channel.realize(rx.size, self.rng)
        received *= row_gain[:, None]
        info, interference = phy.achievable_information(received, rx, slots, cfg.phy)
        for f in range(n):
            i = int(lid[f])
            req, is_i2d = reqs[i], bool(links.is_i2d[i])
            energy = float(energies[i])
            # HARQ: retransmissions happen within the control interval (their
            # round-trip is milliseconds), so a fading dip costs energy but
            # does not move the transmission to a later, farther tick
            for attempt in range(cfg.phy.harq_attempts):
                success = phy.transmission_success(float(info[f]), cfg.phy)
                if is_i2d:
                    m.energy_i2d += energy
                else:
                    m.energy_d2d += energy
                if success:
                    break
                m.failed_attempts += 1
                if attempt + 1 < cfg.phy.harq_attempts:
                    signal = self.channel.realize(1, self.rng) * row_gain[own[f]]
                    info[f] = phy.link_information(signal, interference[f:f + 1],
                                                   slots[f:f + 1], cfg.phy)[0]
            if success:
                self._deliver(req, is_i2d, float(links.distance[i]), t, m)

    def _deliver(self, req, is_i2d: bool, distance: float, t: float,
                 m: MetricsAccumulator) -> None:
        if is_i2d:
            req.state = DELIVERED_I2D
            m.deliveries_i2d += 1
        else:
            req.state = DELIVERED_D2D
            m.deliveries_d2d += 1
            m.d2d_distances.append(distance)
        self.policy.retire(req)
        if self.policy.uses_cache:
            # receiver caches what it received; World records the new copy
            self.world.add_cache(req.requester_id, req.content_id, t)

    # -- full run ----------------------------------------------------------------

    def run(self, duration: float, warmup: float) -> MetricsAccumulator:
        warm_ticks, n_ticks = tick_counts(self.cfg, duration, warmup)
        self.world.init_stationary(0.0)
        for k in range(n_ticks):
            self.tick(k * self.cfg.scenario.control_interval, k >= warm_ticks)
        return self.metrics


def tick_counts(cfg: Config, duration: float, warmup: float) -> tuple[int, int]:
    """(warm-up ticks, all ticks) of a run measuring ``duration`` seconds
    after ``warmup``; a run that would measure no tick is a config error."""
    T = cfg.scenario.control_interval
    warm_ticks, n_ticks = int(round(warmup / T)), int(round((warmup + duration) / T))
    if n_ticks <= warm_ticks:
        raise ConfigError(f"a duration of {duration:g} s after {warmup:g} s of warm-up "
                          f"measures no control interval of {T:g} s")
    return warm_ticks, n_ticks


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
    # macOS and Windows have no sched_getaffinity
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    n = min(workers or cores, len(jobs))
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


def sample_distance_pdf(distances):
    """Normalized histogram of delivery distances in 2 m bins (bin centers,
    density)."""
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise ValueError("no distances recorded")
    top = float(d.max()) + 2.0
    edges = np.arange(0.0, top + 2.0, 2.0)
    hist, edges = np.histogram(d, bins=edges, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    return centers, hist
