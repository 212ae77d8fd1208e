"""Interference-aware radio-resource reuse management.

Each control interval the due transmissions are partitioned into reuse
sets: a link may join a set only if, pairwise with every member, the
estimated interference-to-noise ratio at the victim receiver stays
below a threshold.  Links of one set share a contiguous PRB pool;
infrastructure links from the same base station get exclusive slices of
it, while far-apart base stations and device links reuse the same PRBs.
When the pools overflow the per-interval grid, only the longest prefix
of the link table that fits is placed; the rest is pruned.  The table is
in priority order (see ``Links``), so the prefix is the most urgent links.

Every placed link gets exactly one slice of the grid: slice k is PRBs
[k n_prbs, (k + 1) n_prbs), n_prbs being one content's worth.  So two
placed links share PRBs exactly when they share a slice, and else none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import PhyConfig, RrrmConfig
from . import phy


@dataclass
class Links:
    """A tick's links, one entry per link in each array, in priority
    order: infrastructure first, then device links, each kind by request
    id, which is deadline order as every request has the same delay
    tolerance.  The requester receives; an eNB (``enb`` >= 0) or a
    vehicle (``enb`` = -1) transmits.  y is the lane offset of a vehicle
    and the antenna height of an eNB, which is that high above every
    receiver whatever its lane; ``distance`` is the link's own."""

    is_i2d: np.ndarray
    enb: np.ndarray
    tx_x: np.ndarray
    tx_y: np.ndarray
    rx_x: np.ndarray
    rx_y: np.ndarray
    distance: np.ndarray

    def __len__(self) -> int:
        return self.is_i2d.size


@dataclass
class Placement:
    """The placed links of a tick in transmission order, by PRB slice and
    then link index: each link's index into ``Links`` and its slice."""

    link: np.ndarray
    slice_id: np.ndarray

    def __len__(self) -> int:
        return self.link.size


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
    """G[i, j], the nominal gain from the transmitter of link i to the
    receiver of link j, by the transmitter's gain model; the diagonal
    G[i, i] is link i's own gain."""
    rx_y = np.where(links.is_i2d[:, None], 0.0, links.rx_y)
    d = np.hypot(links.tx_x[:, None] - links.rx_x, links.tx_y[:, None] - rx_y)
    return _gain_by_kind(links.is_i2d, d, cfg)


def link_powers(links: Links, gains: np.ndarray, cfg: PhyConfig) -> np.ndarray:
    """Per-subcarrier transmit power of each link from its own gain on the
    diagonal of ``gains``, as ``phy.tx_power_for_link`` sets it."""
    nominal = gains.diagonal()
    power = np.empty_like(nominal)
    for kind, rows in ((phy.I2D, links.is_i2d), (phy.D2D, ~links.is_i2d)):
        power[rows] = phy.tx_power_per_subcarrier(
            nominal[rows], phy.link_margin_db(kind, cfg), cfg)
    return power


def partition_rrr_sets(links: Links, gains: np.ndarray, powers: np.ndarray,
                       cfg: PhyConfig, rrrm: RrrmConfig) -> list[list[int]]:
    """Greedy first-fit partition in table order; returns lists of link
    indices, members in ascending order.  ``gains`` is the interference
    matrix, whose diagonal is never read here, and ``powers`` the
    per-subcarrier powers of ``link_powers``.

    A pair conflicts when either member's interference-to-noise ratio at
    the other's receiver exceeds the threshold, unless both are
    infrastructure links of one eNB: those get exclusive slices, so
    their mutual interference is irrelevant to set membership."""
    gamma = 10.0 ** (rrrm.gamma_inr_db / 10.0)
    sigma2 = phy.subcarrier_noise_power(cfg)
    loud = powers[:, None] * gains > gamma * sigma2
    enb = links.enb
    conflict = (loud | loud.T) & ~((enb[:, None] == enb) & (enb[:, None] >= 0))
    sets: list[list[int]] = []
    blocked: list[np.ndarray] = []     # per set: links that conflict with a member
    for i in range(len(links)):
        for members, mask in zip(sets, blocked):
            if not mask[i]:
                members.append(i)
                mask |= conflict[i]
                break
        else:
            sets.append([i])
            blocked.append(conflict[i].copy())
    return sets


def allocate_prbs(sets: list[list[int]], links: Links, grid_capacity: int,
                  n_prbs: int) -> tuple[Placement, list[int]]:
    """Lay the set pools of ``partition_rrr_sets`` contiguously on the
    grid's slices, in set order.  Within a set, infrastructure links of
    one eNB stack on consecutive slices (exclusive), different eNBs
    restart at the pool's first slice (reuse), and device links all
    share that slice.

    A link's slice depends only on the links before it in the table, so
    demand never falls as links are added: the longest prefix of the
    table whose pools fit the grid is placed.  Returns the placement and
    the pruned links, the table's tail from its last link."""
    is_i2d, enb = links.is_i2d.tolist(), links.enb.tolist()
    set_of = {i: s for s, members in enumerate(sets) for i in members}
    slice_of: list[int] = []                   # per placed link: slice in its pool
    stacked: dict[tuple[int, int], int] = {}   # (set, eNB) -> slices taken
    n_slices = [0] * len(sets)
    demand = 0
    for i in range(len(links)):
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
        slice_of.append(k)
    pool_base = [0, *itertools.accumulate(n_slices)]
    slice_id = np.array([pool_base[set_of[i]] + k for i, k in enumerate(slice_of)],
                        dtype=np.int64)
    link = np.argsort(slice_id, kind="stable")
    return (Placement(link=link, slice_id=slice_id[link]),
            list(range(len(links) - 1, len(slice_of) - 1, -1)))


def spectrum_occupancy(placement: Placement, grid_capacity: int, n_prbs: int,
                       in_region: np.ndarray) -> float:
    """Fraction of the PRB grid used by at least one transmitter inside
    the exclusive-spectrum-use region; ``in_region`` flags each link."""
    used = np.unique(placement.slice_id[in_region[placement.link]])
    return used.size * n_prbs / grid_capacity
