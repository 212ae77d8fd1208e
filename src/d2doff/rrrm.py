"""Interference-aware radio-resource reuse management.

Each control interval the due transmissions are partitioned into reuse
sets: a link may join a set only if, pairwise with every member, the
estimated interference-to-noise ratio at the victim receiver stays
below a threshold.  Links of one set share a contiguous PRB pool;
infrastructure links from the same base station get exclusive slices of
it, while far-apart base stations and device links reuse the same PRBs.
When the pools overflow the per-interval grid, only the longest prefix
of the priority order (infrastructure first, then device links closest
to their deadline) that fits is placed; the rest is pruned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import PhyConfig, RrrmConfig
from . import phy


@dataclass
class Links:
    """A tick's links, one entry per link in each array.  The requester
    receives; an eNB (``enb`` >= 0) or a vehicle (``enb`` = -1) transmits.
    y is the lane offset of a vehicle and the antenna height of an eNB;
    ``distance`` sets the transmit power; ``deadline`` and ``age`` count
    control intervals."""

    is_i2d: np.ndarray
    enb: np.ndarray
    tx_x: np.ndarray
    tx_y: np.ndarray
    rx_x: np.ndarray
    rx_y: np.ndarray
    distance: np.ndarray
    deadline: np.ndarray
    age: np.ndarray

    def __len__(self) -> int:
        return self.is_i2d.size


@dataclass
class Placement:
    """The placed links of a tick, by reuse set and then priority: the
    link's index into ``Links``, its set and its PRBs [prb_start, prb_stop)."""

    link: np.ndarray
    set_id: np.ndarray
    prb_start: np.ndarray
    prb_stop: np.ndarray

    def __len__(self) -> int:
        return self.link.size


def priority_order(links: Links) -> np.ndarray:
    """Link indices, served first to last: infrastructure, then deadline
    proximity, then request age (oldest first), then index."""
    return np.lexsort((np.arange(len(links)), -links.age, links.deadline, ~links.is_i2d))


def _gain_by_kind(is_i2d: np.ndarray, r: np.ndarray, cfg: PhyConfig) -> np.ndarray:
    """Nominal gain over distances ``r`` whose rows belong to
    infrastructure (``is_i2d``) or device transmitters: one
    ``nominal_gain`` call per kind present."""
    out = np.empty_like(r)
    for kind, rows in ((phy.I2D, is_i2d), (phy.D2D, ~is_i2d)):
        if rows.any():
            out[rows] = phy.nominal_gain(kind, r[rows], cfg)
    return out


def interference_matrix(links: Links, cfg: PhyConfig) -> np.ndarray:
    """Entry (i, j) = nominal gain from tx of link i to rx of link j;
    the transmitter's gain model applies; diagonal set to 0."""
    d = np.hypot(links.tx_x[:, None] - links.rx_x, links.tx_y[:, None] - links.rx_y)
    out = _gain_by_kind(links.is_i2d, d, cfg)
    np.fill_diagonal(out, 0.0)
    return out


def link_budget(links: Links, cfg: PhyConfig) -> tuple[np.ndarray, np.ndarray]:
    """(nominal gain, per-subcarrier transmit power) of each link over its
    own distance, as ``phy.tx_power_for_link`` sets them."""
    gain = _gain_by_kind(links.is_i2d, links.distance, cfg)
    power = np.empty_like(gain)
    for kind, rows in ((phy.I2D, links.is_i2d), (phy.D2D, ~links.is_i2d)):
        power[rows] = phy.tx_power_per_subcarrier(
            gain[rows], phy.link_margin_db(kind, cfg), cfg)
    return gain, power


def partition_rrr_sets(links: Links, gains: np.ndarray, powers: np.ndarray,
                       order: np.ndarray, cfg: PhyConfig,
                       rrrm: RrrmConfig) -> list[list[int]]:
    """Greedy first-fit partition in priority ``order``; returns lists of
    link indices, members in priority order.  ``gains`` is the
    interference matrix and ``powers`` the per-subcarrier powers of
    ``link_budget``.

    A pair conflicts when either member's interference-to-noise ratio at
    the other's receiver exceeds the threshold, unless both are
    infrastructure links of one eNB: those get exclusive slices, so
    their mutual interference is irrelevant to set membership."""
    if not len(links):
        return []
    gamma = 10.0 ** (rrrm.gamma_inr_db / 10.0)
    sigma2 = phy.subcarrier_noise_power(cfg)
    loud = powers[:, None] * gains > gamma * sigma2
    enb = links.enb
    conflict = (loud | loud.T) & ~((enb[:, None] == enb) & (enb[:, None] >= 0))
    sets: list[list[int]] = []
    blocked: list[np.ndarray] = []     # per set: links that conflict with a member
    for i in order.tolist():
        for members, mask in zip(sets, blocked):
            if not mask[i]:
                members.append(i)
                mask |= conflict[i]
                break
        else:
            sets.append([i])
            blocked.append(conflict[i].copy())
    return sets


def allocate_prbs(sets: list[list[int]], links: Links, order: np.ndarray,
                  grid_capacity: int, n_prbs: int) -> tuple[Placement, list[int]]:
    """Lay the set pools of ``partition_rrr_sets`` contiguously on the PRB
    grid, in set order.  Within a set, infrastructure links of one eNB
    stack on consecutive ``n_prbs`` slices (exclusive), different eNBs
    restart at slice 0 (reuse), and device links all share slice 0.

    A link's slice depends only on the links before it in priority
    ``order``, so demand never falls as links are added: the longest
    prefix of ``order`` whose pools fit the grid is placed.  Returns the
    placement and the pruned link indices, lowest priority first."""
    order = order.tolist()
    is_i2d, enb = links.is_i2d.tolist(), links.enb.tolist()
    set_of = {i: s for s, members in enumerate(sets) for i in members}
    slice_of: dict[int, int] = {}              # placed link -> slice
    stacked: dict[tuple[int, int], int] = {}   # (set, eNB) -> slices taken
    n_slices = [0] * len(sets)
    demand = 0
    for i in order:
        s = set_of[i]
        k = 0
        if is_i2d[i]:
            k = stacked.get((s, enb[i]), 0)
            stacked[(s, enb[i])] = k + 1
        if k == n_slices[s]:                   # the set's pool grows a slice
            demand += n_prbs
            if demand > grid_capacity:
                break
            n_slices[s] += 1
        slice_of[i] = k
    pool_base = [0, *itertools.accumulate(n_slices)]
    link = [i for members in sets for i in members if i in slice_of]
    start = np.array([(pool_base[set_of[i]] + slice_of[i]) * n_prbs for i in link],
                     dtype=np.int64)
    return (Placement(link=np.array(link, dtype=np.int64),
                      set_id=np.array([set_of[i] for i in link], dtype=np.int64),
                      prb_start=start, prb_stop=start + n_prbs),
            order[len(slice_of):][::-1])


def spectrum_occupancy(placement: Placement, grid_capacity: int,
                       in_region: np.ndarray) -> float:
    """Fraction of the PRB grid used by at least one transmitter inside
    the exclusive-spectrum-use region; ``in_region`` flags each link.
    ``allocate_prbs`` places whole slices of one grid, so two placed PRB
    ranges either coincide or are disjoint."""
    sel = in_region[placement.link]
    used = dict(zip(placement.prb_start[sel].tolist(), placement.prb_stop[sel].tolist()))
    return sum(stop - start for start, stop in used.items()) / grid_capacity
