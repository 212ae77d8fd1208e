import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2doff import phy, rrrm
from d2doff.config import Config


@pytest.fixture(scope="module")
def cfg():
    return Config()


# rows of ``table``: (is_i2d, eNB, tx x, tx y, rx x, rx y, distance)
def d2d(tx_x, rx_x, lane=0.0):
    return (False, -1, tx_x, lane, rx_x, lane, abs(rx_x - tx_x))


def i2d(enb_x, rx_x, enb):
    return (True, enb, enb_x, 0.0, rx_x, 0.0, abs(rx_x - enb_x))


def table(rows):
    """``rrrm.Links`` with one link per row, in row order."""
    cols = list(zip(*rows)) or [()] * 7
    dtypes = (bool, np.int64, float, float, float, float, float)
    return rrrm.Links(*(np.array(c, dtype=d) for c, d in zip(cols, dtypes)))


def kind(links, i):
    return phy.I2D if links.is_i2d[i] else phy.D2D


def partition(links, cfg):
    gains = rrrm.interference_matrix(links, cfg.phy)
    powers = rrrm.link_powers(links, gains, cfg.phy)
    return rrrm.partition_rrr_sets(links, gains, powers, cfg.phy, cfg.rrrm)


def spans(placed, n_prbs):
    """PRB range [start, stop) of each placed link, from its slice."""
    return [(k * n_prbs, (k + 1) * n_prbs) for k in placed.slice_id.tolist()]


def _overlap(placed, a, b, n_prbs):
    """PRB range two placed links share, (0, 0) if none."""
    (lo_a, hi_a), (lo_b, hi_b) = (spans(placed, n_prbs)[k] for k in (a, b))
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    return (lo, hi) if hi > lo else (0, 0)


# (is_i2d, transmitter x / eNB index, receiver x, receiver lane)
link_specs = st.lists(
    st.tuples(st.booleans(), st.floats(0.0, 1500.0), st.floats(0.0, 1500.0),
              st.sampled_from([0.0, 10.0])),
    min_size=1, max_size=12)


def mixed_links(specs, cfg):
    """Device and infrastructure links from ``link_specs`` draws, each
    distance numpy's hypot, as the engine's are."""
    sc = cfg.scenario
    rows = []
    for k, (is_i2d, a, rx_x, rx_y) in enumerate(specs):
        if is_i2d:
            enb = int(a) % len(sc.enb_positions)
            tx_x, tx_y = sc.enb_positions[enb], sc.enb_antenna_height
            rows.append((True, enb, tx_x, tx_y, rx_x, rx_y, np.hypot(tx_x - rx_x, tx_y)))
        else:
            tx_y = sc.lane_offset - rx_y if k % 2 else rx_y
            rows.append((False, -1, a, tx_y, rx_x, rx_y, np.hypot(a - rx_x, tx_y - rx_y)))
    return table(rows)


# -- references ----------------------------------------------------------------
#
# The prune loop that re-lays every set out after each victim and the
# range-merging occupancy, which the one-pass ``allocate_prbs`` and
# ``spectrum_occupancy`` replaced.  The link table is the priority order:
# row 0 is served first.

def reference_layout(sets, links, n_prbs):
    """(link, set, slice) of every member, in set and member order, and the
    total PRB demand."""
    placed = []
    total = 0
    for set_id, members in enumerate(sets):
        if not members:
            continue
        per_enb = {}
        n_slices = 0
        for i in members:
            if links.is_i2d[i]:
                s = per_enb.get(links.enb[i], 0)
                per_enb[links.enb[i]] = s + 1
            else:
                s = 0
            placed.append((i, set_id, s))
            n_slices = max(n_slices, s + 1)
        total += n_slices * n_prbs
    return placed, total


def reference_allocate(sets, links, grid_capacity, n_prbs):
    """(link, set, prb_start, prb_stop) in allocation order, and the pruned
    links in pruning order."""
    sets = [list(m) for m in sets]
    victim_order = list(range(len(links)))[::-1]
    pruned = []
    while True:
        placed, total = reference_layout(sets, links, n_prbs)
        if total <= grid_capacity or not victim_order:
            break
        victim = victim_order.pop(0)
        pruned.append(victim)
        for members in sets:
            if victim in members:
                members.remove(victim)
                break
    pool_base = {}
    offset = 0
    for set_id, members in enumerate(sets):
        if not members:
            continue
        n_slices = max(s for i, sid, s in placed if sid == set_id) + 1
        pool_base[set_id] = offset
        offset += n_slices * n_prbs
    return ([(i, sid, pool_base[sid] + s * n_prbs, pool_base[sid] + (s + 1) * n_prbs)
             for i, sid, s in placed], pruned)


def reference_occupancy(placed, grid_capacity, in_region):
    """Union length of the in-region PRB ranges of ``reference_allocate``'s
    placement over the grid, merging ranges in start order."""
    ranges = sorted((lo, hi) for i, _, lo, hi in placed if in_region[i])
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


def reference_partition(links, gains, cfg):
    """Pairwise first-fit partition, one link pair at a time, with each
    power from ``phy.tx_power_for_link``."""
    gamma = 10.0 ** (cfg.rrrm.gamma_inr_db / 10.0)
    sigma2 = phy.subcarrier_noise_power(cfg.phy)
    powers = [phy.tx_power_for_link(kind(links, i), links.distance[i], cfg.phy)
              for i in range(len(links))]
    sets = []
    for i in range(len(links)):
        for members in sets:
            if all(links.is_i2d[i] and links.is_i2d[j]
                   and links.enb[i] == links.enb[j]
                   or (powers[i] * gains[i, j] <= gamma * sigma2
                       and powers[j] * gains[j, i] <= gamma * sigma2)
                   for j in members):
                members.append(i)
                break
        else:
            sets.append([i])
    return sets


class TestPartition:
    def test_close_d2d_links_split(self, cfg):
        links = table([d2d(0.0, 30.0), d2d(5.0, 35.0)])
        sets = partition(links, cfg)
        assert len(sets) == 2

    def test_far_d2d_links_share(self, cfg):
        links = table([d2d(0.0, 30.0), d2d(2500.0, 2530.0)])
        sets = partition(links, cfg)
        assert sets == [[0, 1]]

    def test_distant_enbs_reuse(self, cfg):
        # eNB 1 at x=0 and eNB 4 at x=1800 can serve nearby vehicles on
        # the same PRBs; adjacent eNBs serving cell-edge vehicles cannot
        far = table([i2d(0.0, 50.0, enb=0), i2d(1800.0, 1850.0, enb=3)])
        assert len(partition(far, cfg)) == 1
        near = table([i2d(0.0, 250.0, enb=0), i2d(600.0, 350.0, enb=1)])
        assert len(partition(near, cfg)) == 2

    def test_same_enb_links_exempt(self, cfg):
        links = table([i2d(0.0, 50.0, enb=0), i2d(0.0, -80.0, enb=0)])
        sets = partition(links, cfg)
        assert sets == [[0, 1]]  # they share the set but get exclusive slices

    def test_empty(self, cfg):
        assert rrrm.partition_rrr_sets(table([]), np.zeros((0, 0)), np.zeros(0),
                                       cfg.phy, cfg.rrrm) == []

    @given(specs=link_specs)
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_reference(self, cfg, specs):
        links = mixed_links(specs, cfg)
        gains = rrrm.interference_matrix(links, cfg.phy)
        assert partition(links, cfg) == reference_partition(links, gains, cfg)


class TestInterferenceMatrix:
    def test_symmetric_geometry(self, cfg):
        links = table([d2d(0.0, 30.0), d2d(500.0, 530.0)])
        gains = rrrm.interference_matrix(links, cfg.phy)
        # each link's own gain, 30 m on both
        assert gains[0, 0] == gains[1, 1] == phy.nominal_gain(
            phy.D2D, np.array([30.0]), cfg.phy)[0]
        # tx0 -> rx1 spans 530 m; tx1 -> rx0 spans 500 m
        assert gains[1, 0] > gains[0, 1] > 0.0

    @given(specs=link_specs)
    @settings(max_examples=100, deadline=None)
    def test_matches_per_pair_gains(self, cfg, specs):
        links = mixed_links(specs, cfg)
        gains = rrrm.interference_matrix(links, cfg.phy)
        n = len(links)
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                # an eNB is its antenna height above every receiver
                rx_y = 0.0 if links.is_i2d[i] else links.rx_y[j]
                d = math.hypot(links.tx_x[i] - links.rx_x[j], links.tx_y[i] - rx_y)
                want[i, j] = phy.nominal_gain(kind(links, i), np.array([d]), cfg.phy)[0]
        # the diagonal is each link's own gain, at its own distance
        own = [phy.nominal_gain(kind(links, i), np.array([links.distance[i]]), cfg.phy)[0]
               for i in range(n)]
        assert np.diag(gains).tolist() == own
        # numpy's hypot and math.hypot may differ in the last bit
        np.testing.assert_allclose(gains, want, rtol=1e-13, atol=0.0)

    def test_enb_cross_gain_ignores_receiver_lane(self, cfg):
        # an eNB 10 m up is as far from a receiver under it on the far lane
        # as from one on the near lane: 10 m, as on its own link
        sc = cfg.scenario
        h, enb_x = sc.enb_antenna_height, sc.enb_positions[1]
        own = (True, 1, enb_x, h, enb_x + 50.0, 0.0, math.hypot(50.0, h))
        for lane in (0.0, sc.lane_offset):
            rx = (False, -1, enb_x + 200.0, lane, enb_x, lane, 200.0)
            gains = rrrm.interference_matrix(table([own, rx]), cfg.phy)
            assert gains[0, 1] == phy.nominal_gain(phy.I2D, np.array([h]), cfg.phy)[0]
        assert gains[0, 0] == phy.nominal_gain(phy.I2D, np.array([own[-1]]), cfg.phy)[0]

    @given(specs=link_specs)
    @settings(max_examples=50, deadline=None)
    def test_link_budget_matches_scalar_path(self, cfg, specs):
        links = mixed_links(specs, cfg)
        gains = rrrm.interference_matrix(links, cfg.phy)
        powers = rrrm.link_powers(links, gains, cfg.phy)
        for i, (g, p) in enumerate(zip(np.diag(gains), powers)):
            r = links.distance[i]
            assert g == phy.nominal_gain(kind(links, i), np.array([r]), cfg.phy)[0]
            assert p == phy.tx_power_for_link(kind(links, i), r, cfg.phy)


class TestAllocation:
    def test_single_link_occupancy(self, cfg):
        links = table([d2d(0.0, 30.0)])
        sets = [[0]]
        n_prbs = cfg.phy.prbs_required
        capacity = cfg.prbs_per_interval
        placed, pruned = rrrm.allocate_prbs(sets, links, capacity, n_prbs)
        assert not pruned
        occ = rrrm.spectrum_occupancy(placed, capacity, n_prbs, np.ones(1, dtype=bool))
        assert occ == pytest.approx(8000 / 120_000)

    def test_same_enb_gets_exclusive_slices(self, cfg):
        links = table([i2d(0.0, 50.0, enb=0), i2d(0.0, -80.0, enb=0)])
        placed, pruned = rrrm.allocate_prbs([[0, 1]], links, 120_000, 8000)
        assert not pruned
        assert sorted(spans(placed, 8000)) == [(0, 8000), (8000, 16_000)]

    def test_reuse_overlaps(self, cfg):
        links = table([i2d(0.0, 50.0, enb=0), i2d(1800.0, 1850.0, enb=3)])
        placed, _ = rrrm.allocate_prbs([[0, 1]], links, 120_000, 8000)
        assert placed.slice_id.tolist() == [0, 0]
        assert _overlap(placed, 0, 1, 8000) == (0, 8000)

    def test_disjoint_pools_do_not_overlap(self, cfg):
        links = table([d2d(0.0, 30.0), d2d(5.0, 35.0)])
        placed, _ = rrrm.allocate_prbs([[0], [1]], links, 120_000, 8000)
        assert _overlap(placed, 0, 1, 8000) == (0, 0)

    def test_pruning_drops_device_links_first(self, cfg):
        # 16 mutually interfering links need 128k PRBs > 120k capacity
        links = table([i2d(0.0, 20.0 + k, enb=0) for k in range(8)]
                      + [d2d(40.0 * k, 40.0 * k + 30.0) for k in range(8)])
        sets = partition(links, cfg)
        placed, pruned = rrrm.allocate_prbs(sets, links, 120_000, 8000)
        assert len(pruned) == 1
        assert not links.is_i2d[pruned[0]]
        # every placed link stays inside the grid
        assert max(stop for _, stop in spans(placed, 8000)) <= 120_000

    def test_prunes_the_tables_tail(self, cfg):
        links = table([d2d(0.0, 30.0), d2d(5.0, 35.0), d2d(10.0, 40.0)])
        placed, pruned = rrrm.allocate_prbs([[0], [1], [2]], links, 8000, 8000)
        assert pruned == [2, 1]
        assert placed.link.tolist() == [0]

    def test_no_pruning_when_fits(self, cfg):
        links = table([d2d(400.0 * k, 400.0 * k + 30.0) for k in range(5)])
        sets = partition(links, cfg)
        placed, pruned = rrrm.allocate_prbs(sets, links, 120_000, 8000)
        assert not pruned and len(placed) == 5

    @given(specs=link_specs, slots=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_matches_prune_loop_reference(self, cfg, specs, slots):
        # tight grids of 1-16 PRB slices prune from most draws of up to 12 links
        links = mixed_links(specs, cfg)
        sets = partition(links, cfg)
        placed, pruned = rrrm.allocate_prbs(sets, links, slots * 8000, 8000)
        want_placed, want_pruned = reference_allocate(sets, links, slots * 8000, 8000)
        assert pruned == want_pruned
        # the placement is in transmission order: by slice, then link
        want_placed.sort(key=lambda row: (row[2], row[0]))
        set_of = {i: s for s, members in enumerate(sets) for i in members}
        ranges = spans(placed, 8000)
        assert [(i, set_of[i], lo, hi) for i, (lo, hi) in zip(
            placed.link.tolist(), ranges)] == want_placed
        slice_id = placed.slice_id.tolist()
        # every slice lies inside the grid, and no two sets share one
        assert all(0 <= k < slots for k in slice_id)
        assert len({(k, set_of[i]) for i, k in zip(placed.link.tolist(), slice_id)}) \
            == len(set(slice_id))
        # two links share a slice exactly when their reference ranges overlap
        for (_, _, lo_a, hi_a), k_a in zip(want_placed, slice_id):
            for (_, _, lo_b, hi_b), k_b in zip(want_placed, slice_id):
                assert (k_a == k_b) == (min(hi_a, hi_b) > max(lo_a, lo_b))
        for region in (np.ones(len(links), dtype=bool), links.is_i2d):
            assert rrrm.spectrum_occupancy(placed, slots * 8000, 8000, region) == \
                reference_occupancy(want_placed, slots * 8000, region)


class TestOccupancy:
    def test_region_filter(self, cfg):
        links = table([d2d(0.0, 30.0), d2d(5.0, 35.0)])
        placed, _ = rrrm.allocate_prbs([[0], [1]], links, 120_000, 8000)
        occ_all = rrrm.spectrum_occupancy(placed, 120_000, 8000, np.array([True, True]))
        occ_one = rrrm.spectrum_occupancy(placed, 120_000, 8000, np.array([True, False]))
        assert occ_all == pytest.approx(16_000 / 120_000)
        assert occ_one == pytest.approx(8000 / 120_000)

    def test_overlapping_pools_counted_once(self, cfg):
        links = table([i2d(0.0, 50.0, enb=0), i2d(1800.0, 1850.0, enb=3)])
        placed, _ = rrrm.allocate_prbs([[0, 1]], links, 120_000, 8000)
        occ = rrrm.spectrum_occupancy(placed, 120_000, 8000, np.array([True, True]))
        assert occ == pytest.approx(8000 / 120_000)

    def test_bounds(self, cfg):
        none = np.zeros(0, dtype=np.int64)
        empty = rrrm.Placement(link=none, slice_id=none)
        assert rrrm.spectrum_occupancy(empty, 120_000, 8000, np.zeros(0, dtype=bool)) == 0.0



class TestPriority:
    """The table is the priority order (``rrrm.Links``): infrastructure
    rows first, each kind by request id, so an older request outranks a
    younger one of its kind.  Sets are led in table order and pruning
    takes the table's tail."""

    def test_infrastructure_first(self, cfg):
        # the device link's transmitter sits beside the requester of the
        # infrastructure link, so the two need separate slices
        links = table([i2d(0.0, 50.0, enb=0), d2d(45.0, 60.0)])
        sets = partition(links, cfg)
        assert sets == [[0], [1]]
        placed, pruned = rrrm.allocate_prbs(sets, links, 8000, 8000)
        assert placed.link.tolist() == [0] and pruned == [1]

    def test_age_breaks_ties(self, cfg):
        # two device links alike but for their request ids: the older
        # request, the lower row, keeps the one slice
        links = table([d2d(0.0, 30.0), d2d(5.0, 35.0)])
        sets = partition(links, cfg)
        assert sets == [[0], [1]]
        placed, pruned = rrrm.allocate_prbs(sets, links, 8000, 8000)
        assert placed.link.tolist() == [0] and pruned == [1]
