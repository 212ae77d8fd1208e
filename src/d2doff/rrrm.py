"""Interference-aware radio-resource reuse management.

Each control interval the due transmissions are partitioned into reuse
sets: a link may join a set only if, pairwise with every member, the
estimated interference-to-noise ratio at the victim receiver stays
below a threshold.  Links of one set share a contiguous PRB pool;
infrastructure links from the same base station get exclusive slices of
it, while far-apart base stations and device links reuse the same PRBs.
Overflow beyond the per-interval grid is pruned, infrastructure first
priority, then device links closest to their deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import PhyConfig, RrrmConfig
from . import phy


@dataclass
class LinkIntent:
    link_id: int
    kind: str                  # phy.I2D or phy.D2D
    tx_id: int                 # eNB index for I2D, vehicle id for D2D
    rx_id: int                 # vehicle id
    tx_x: float
    tx_y: float                # lane offset for vehicles, antenna height for eNBs
    rx_x: float
    rx_y: float
    distance: float            # link distance used for power control
    deadline_interval: int
    age: int = 0               # intervals since the request arrived
    enb_id: int | None = None
    request_ref: object = None

    @property
    def is_i2d(self) -> bool:
        return self.kind == phy.I2D


@dataclass
class Allocation:
    link: LinkIntent
    set_id: int
    prb_start: int
    prb_stop: int


def priority_key(link: LinkIntent):
    """Ascending = served first: infrastructure, then deadline
    proximity, then request age, then id for determinism."""
    return (0 if link.is_i2d else 1, link.deadline_interval, -link.age, link.link_id)


def _gain_by_kind(is_i2d: np.ndarray, r: np.ndarray, cfg: PhyConfig) -> np.ndarray:
    """Nominal gain over distances ``r`` whose rows belong to
    infrastructure (``is_i2d``) or device transmitters: one
    ``nominal_gain`` call per kind present."""
    out = np.empty_like(r)
    for kind, rows in ((phy.I2D, is_i2d), (phy.D2D, ~is_i2d)):
        if rows.any():
            out[rows] = phy.nominal_gain(kind, r[rows], cfg)
    return out


def interference_matrix(links: list[LinkIntent], cfg: PhyConfig) -> np.ndarray:
    """Entry (i, j) = nominal gain from tx of link i to rx of link j;
    the transmitter's gain model applies; diagonal set to 0."""
    tx = np.array([(l.tx_x, l.tx_y) for l in links], dtype=float).reshape(-1, 2)
    rx = np.array([(l.rx_x, l.rx_y) for l in links], dtype=float).reshape(-1, 2)
    d = np.hypot(tx[:, None, 0] - rx[None, :, 0], tx[:, None, 1] - rx[None, :, 1])
    out = _gain_by_kind(np.array([l.is_i2d for l in links], dtype=bool), d, cfg)
    np.fill_diagonal(out, 0.0)
    return out


def link_budget(links: list[LinkIntent], cfg: PhyConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    """(nominal gain, per-subcarrier transmit power) of each link over its
    own distance, as ``phy.tx_power_for_link`` sets them."""
    is_i2d = np.array([l.is_i2d for l in links], dtype=bool)
    gain = _gain_by_kind(is_i2d, np.array([l.distance for l in links], dtype=float), cfg)
    power = np.empty_like(gain)
    for kind, rows in ((phy.I2D, is_i2d), (phy.D2D, ~is_i2d)):
        power[rows] = phy.tx_power_per_subcarrier(
            gain[rows], phy.link_margin_db(kind, cfg), cfg)
    return gain, power


def partition_rrr_sets(links: list[LinkIntent], gains: np.ndarray,
                       powers: np.ndarray, cfg: PhyConfig,
                       rrrm: RrrmConfig) -> list[list[int]]:
    """Greedy first-fit partition in priority order; returns lists of
    indices into ``links``.  ``gains`` is the interference matrix and
    ``powers`` the per-subcarrier powers of ``link_budget``.

    A pair conflicts when either member's interference-to-noise ratio at
    the other's receiver exceeds the threshold, unless both are
    infrastructure links of one eNB: those get exclusive slices, so
    their mutual interference is irrelevant to set membership."""
    if not links:
        return []
    gamma = 10.0 ** (rrrm.gamma_inr_db / 10.0)
    sigma2 = phy.subcarrier_noise_power(cfg)
    loud = powers[:, None] * gains > gamma * sigma2
    enb = np.array([l.enb_id if l.is_i2d else -1 for l in links])
    conflict = (loud | loud.T) & ~((enb[:, None] == enb[None, :]) & (enb[:, None] >= 0))
    order = sorted(range(len(links)), key=lambda i: priority_key(links[i]))
    sets: list[list[int]] = []
    blocked: list[np.ndarray] = []     # per set: links that conflict with a member
    for i in order:
        for members, mask in zip(sets, blocked):
            if not mask[i]:
                members.append(i)
                mask |= conflict[i]
                break
        else:
            sets.append([i])
            blocked.append(conflict[i].copy())
    return sets


def _layout(sets: list[list[int]], links: list[LinkIntent],
            n_prbs: int) -> tuple[list[tuple[int, int, int]], int]:
    """Slice assignment: per set, infrastructure links of one eNB stack
    on consecutive slices (exclusive), different eNBs restart at slice 0
    (reuse), device links all share slice 0.  Returns
    (link index, set id, slice index) triples and the total PRB demand."""
    placed = []
    total = 0
    for set_id, members in enumerate(sets):
        if not members:
            continue
        per_enb: dict[int, int] = {}
        n_slices = 0
        for i in members:
            link = links[i]
            if link.is_i2d:
                s = per_enb.get(link.enb_id, 0)
                per_enb[link.enb_id] = s + 1
            else:
                s = 0
            placed.append((i, set_id, s))
            n_slices = max(n_slices, s + 1)
        total += n_slices * n_prbs
    return placed, total


def allocate_prbs(sets: list[list[int]], links: list[LinkIntent],
                  grid_capacity: int, n_prbs: int
                  ) -> tuple[list[Allocation], list[LinkIntent]]:
    """Lay set pools contiguously on the PRB grid; prune the lowest
    priority links until the demand fits."""
    sets = [list(m) for m in sets]
    victim_order = sorted(
        (i for members in sets for i in members),
        key=lambda i: priority_key(links[i]), reverse=True)
    pruned: list[LinkIntent] = []
    while True:
        placed, total = _layout(sets, links, n_prbs)
        if total <= grid_capacity or not victim_order:
            break
        victim = victim_order.pop(0)
        pruned.append(links[victim])
        for members in sets:
            if victim in members:
                members.remove(victim)
                break
    # assign contiguous pools in set order
    pool_base: dict[int, int] = {}
    offset = 0
    for set_id, members in enumerate(sets):
        if not members:
            continue
        n_slices = max(s for i, sid, s in placed if sid == set_id) + 1
        pool_base[set_id] = offset
        offset += n_slices * n_prbs
    allocations = [
        Allocation(link=links[i], set_id=sid,
                   prb_start=pool_base[sid] + s * n_prbs,
                   prb_stop=pool_base[sid] + (s + 1) * n_prbs)
        for i, sid, s in placed
    ]
    return allocations, pruned


def spectrum_occupancy(allocations: list[Allocation], grid_capacity: int,
                       in_region: Callable[[LinkIntent], bool]) -> float:
    """Fraction of the PRB grid used by at least one transmitter inside
    the exclusive-spectrum-use region."""
    ranges = sorted((a.prb_start, a.prb_stop) for a in allocations
                    if in_region(a.link))
    used = 0
    cur_lo = cur_hi = None
    for lo, hi in ranges:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                used += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        used += cur_hi - cur_lo
    return used / grid_capacity
