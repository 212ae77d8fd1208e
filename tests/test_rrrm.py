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


def d2d(link_id, tx_x, rx_x, deadline=10, lane=0.0):
    return rrrm.LinkIntent(
        link_id=link_id, kind=phy.D2D, tx_id=100 + link_id,
        rx_id=200 + link_id, tx_x=tx_x, tx_y=lane, rx_x=rx_x, rx_y=lane,
        distance=abs(rx_x - tx_x), deadline_interval=deadline)


def i2d(link_id, enb_x, rx_x, enb_id, deadline=10):
    return rrrm.LinkIntent(
        link_id=link_id, kind=phy.I2D, tx_id=enb_id, rx_id=300 + link_id,
        tx_x=enb_x, tx_y=0.0, rx_x=rx_x, rx_y=0.0,
        distance=abs(rx_x - enb_x), deadline_interval=deadline, enb_id=enb_id)


def partition(links, cfg):
    gains = rrrm.interference_matrix(links, cfg.phy)
    _, powers = rrrm.link_budget(links, cfg.phy)
    return rrrm.partition_rrr_sets(links, gains, powers, cfg.phy, cfg.rrrm)


def _overlap(a, b):
    """PRB range two allocations share, (0, 0) if none."""
    lo = max(a.prb_start, b.prb_start)
    hi = min(a.prb_stop, b.prb_stop)
    return (lo, hi) if hi > lo else (0, 0)


# (is_i2d, transmitter x / eNB index, receiver x, receiver lane, deadline)
link_specs = st.lists(
    st.tuples(st.booleans(), st.floats(0.0, 1500.0), st.floats(0.0, 1500.0),
              st.sampled_from([0.0, 10.0]), st.integers(0, 4)),
    min_size=1, max_size=12)


def mixed_links(specs, cfg):
    """Device and infrastructure links from ``link_specs`` draws."""
    sc = cfg.scenario
    links = []
    for k, (is_i2d, a, rx_x, rx_y, deadline) in enumerate(specs):
        if is_i2d:
            enb = int(a) % len(sc.enb_positions)
            tx_x, tx_y = sc.enb_positions[enb], sc.enb_antenna_height
            links.append(rrrm.LinkIntent(
                link_id=k, kind=phy.I2D, tx_id=enb, rx_id=k, tx_x=tx_x, tx_y=tx_y,
                rx_x=rx_x, rx_y=rx_y, distance=math.hypot(tx_x - rx_x, tx_y),
                deadline_interval=deadline, enb_id=enb))
        else:
            tx_y = sc.lane_offset - rx_y if k % 2 else rx_y
            links.append(rrrm.LinkIntent(
                link_id=k, kind=phy.D2D, tx_id=k, rx_id=k, tx_x=a, tx_y=tx_y,
                rx_x=rx_x, rx_y=rx_y, distance=math.hypot(a - rx_x, tx_y - rx_y),
                deadline_interval=deadline, age=k % 3))
    return links


def reference_partition(links, gains, cfg):
    """Pairwise first-fit partition, one link pair at a time, with each
    power from ``phy.tx_power_for_link``."""
    gamma = 10.0 ** (cfg.rrrm.gamma_inr_db / 10.0)
    sigma2 = phy.subcarrier_noise_power(cfg.phy)
    powers = [phy.tx_power_for_link(l.kind, l.distance, cfg.phy) for l in links]
    sets = []
    for i in sorted(range(len(links)), key=lambda i: rrrm.priority_key(links[i])):
        for members in sets:
            if all(links[i].is_i2d and links[j].is_i2d
                   and links[i].enb_id == links[j].enb_id
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
        links = [d2d(0, 0.0, 30.0), d2d(1, 5.0, 35.0)]
        sets = partition(links, cfg)
        assert len(sets) == 2

    def test_far_d2d_links_share(self, cfg):
        links = [d2d(0, 0.0, 30.0), d2d(1, 2500.0, 2530.0)]
        sets = partition(links, cfg)
        assert sets == [[0, 1]]

    def test_distant_enbs_reuse(self, cfg):
        # eNB 1 at x=0 and eNB 4 at x=1800 can serve nearby vehicles on
        # the same PRBs; adjacent eNBs serving cell-edge vehicles cannot
        far = [i2d(0, 0.0, 50.0, enb_id=0), i2d(1, 1800.0, 1850.0, enb_id=3)]
        assert len(partition(far, cfg)) == 1
        near = [i2d(0, 0.0, 250.0, enb_id=0), i2d(1, 600.0, 350.0, enb_id=1)]
        assert len(partition(near, cfg)) == 2

    def test_same_enb_links_exempt(self, cfg):
        links = [i2d(0, 0.0, 50.0, enb_id=0), i2d(1, 0.0, -80.0, enb_id=0)]
        sets = partition(links, cfg)
        assert sets == [[0, 1]]  # they share the set but get exclusive slices

    def test_empty(self, cfg):
        assert rrrm.partition_rrr_sets([], np.zeros((0, 0)), np.zeros(0),
                                       cfg.phy, cfg.rrrm) == []

    @given(specs=link_specs)
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_reference(self, cfg, specs):
        links = mixed_links(specs, cfg)
        gains = rrrm.interference_matrix(links, cfg.phy)
        assert partition(links, cfg) == reference_partition(links, gains, cfg)


class TestInterferenceMatrix:
    def test_symmetric_geometry(self, cfg):
        links = [d2d(0, 0.0, 30.0), d2d(1, 500.0, 530.0)]
        gains = rrrm.interference_matrix(links, cfg.phy)
        assert gains[0, 0] == gains[1, 1] == 0.0
        # tx0 -> rx1 spans 530 m; tx1 -> rx0 spans 500 m
        assert gains[1, 0] > gains[0, 1] > 0.0

    @given(specs=link_specs)
    @settings(max_examples=100, deadline=None)
    def test_matches_per_pair_gains(self, cfg, specs):
        links = mixed_links(specs, cfg)
        gains = rrrm.interference_matrix(links, cfg.phy)
        n = len(links)
        want = np.zeros((n, n))
        for i, li in enumerate(links):
            for j, lj in enumerate(links):
                if i != j:
                    d = math.hypot(li.tx_x - lj.rx_x, li.tx_y - lj.rx_y)
                    want[i, j] = phy.nominal_gain(li.kind, np.array([d]), cfg.phy)[0]
        assert np.all(np.diag(gains) == 0.0)
        # numpy's hypot and math.hypot may differ in the last bit
        np.testing.assert_allclose(gains, want, rtol=1e-13, atol=0.0)

    @given(specs=link_specs)
    @settings(max_examples=50, deadline=None)
    def test_link_budget_matches_scalar_path(self, cfg, specs):
        links = mixed_links(specs, cfg)
        nominal, powers = rrrm.link_budget(links, cfg.phy)
        for link, g, p in zip(links, nominal, powers):
            assert g == phy.nominal_gain(link.kind, np.array([link.distance]), cfg.phy)[0]
            assert p == phy.tx_power_for_link(link.kind, link.distance, cfg.phy)


class TestAllocation:
    def test_single_link_occupancy(self, cfg):
        links = [d2d(0, 0.0, 30.0)]
        sets = [[0]]
        n_prbs = phy.prbs_required(cfg.phy)
        capacity = cfg.phy.freq_blocks * round(
            cfg.scenario.control_interval / cfg.phy.prb_duration)
        allocs, pruned = rrrm.allocate_prbs(sets, links, capacity, n_prbs)
        assert not pruned
        occ = rrrm.spectrum_occupancy(allocs, capacity, lambda l: True)
        assert occ == pytest.approx(8000 / 120_000)

    def test_same_enb_gets_exclusive_slices(self, cfg):
        links = [i2d(0, 0.0, 50.0, enb_id=0), i2d(1, 0.0, -80.0, enb_id=0)]
        allocs, pruned = rrrm.allocate_prbs([[0, 1]], links, 120_000, 8000)
        assert not pruned
        spans = sorted((a.prb_start, a.prb_stop) for a in allocs)
        assert spans == [(0, 8000), (8000, 16_000)]

    def test_reuse_overlaps(self, cfg):
        links = [i2d(0, 0.0, 50.0, enb_id=0), i2d(1, 1800.0, 1850.0, enb_id=3)]
        allocs, _ = rrrm.allocate_prbs([[0, 1]], links, 120_000, 8000)
        assert allocs[0].prb_start == allocs[1].prb_start == 0
        lo, hi = _overlap(allocs[0], allocs[1])
        assert (lo, hi) == (0, 8000)

    def test_disjoint_pools_do_not_overlap(self, cfg):
        links = [d2d(0, 0.0, 30.0), d2d(1, 5.0, 35.0)]
        allocs, _ = rrrm.allocate_prbs([[0], [1]], links, 120_000, 8000)
        assert _overlap(allocs[0], allocs[1]) == (0, 0)

    def test_pruning_drops_device_links_first(self, cfg):
        # 16 mutually interfering links need 128k PRBs > 120k capacity
        links = ([i2d(k, 0.0, 20.0 + k, enb_id=0) for k in range(8)]
                 + [d2d(8 + k, 40.0 * k, 40.0 * k + 30.0) for k in range(8)])
        sets = partition(links, cfg)
        allocs, pruned = rrrm.allocate_prbs(sets, links, 120_000, 8000)
        assert len(pruned) == 1
        assert not pruned[0].is_i2d
        # every allocation stays inside the grid
        assert max(a.prb_stop for a in allocs) <= 120_000

    def test_prune_order_respects_deadline(self, cfg):
        links = [d2d(0, 0.0, 30.0, deadline=5), d2d(1, 5.0, 35.0, deadline=9)]
        allocs, pruned = rrrm.allocate_prbs([[0], [1]], links, 8000, 8000)
        assert [p.link_id for p in pruned] == [1]
        assert allocs[0].link.link_id == 0

    def test_no_pruning_when_fits(self, cfg):
        links = [d2d(k, 400.0 * k, 400.0 * k + 30.0) for k in range(5)]
        sets = partition(links, cfg)
        allocs, pruned = rrrm.allocate_prbs(sets, links, 120_000, 8000)
        assert not pruned and len(allocs) == 5


class TestOccupancy:
    def test_region_filter(self, cfg):
        links = [d2d(0, 0.0, 30.0), d2d(1, 5.0, 35.0)]
        allocs, _ = rrrm.allocate_prbs([[0], [1]], links, 120_000, 8000)
        occ_all = rrrm.spectrum_occupancy(allocs, 120_000, lambda l: True)
        occ_one = rrrm.spectrum_occupancy(
            allocs, 120_000, lambda l: l.link_id == 0)
        assert occ_all == pytest.approx(16_000 / 120_000)
        assert occ_one == pytest.approx(8000 / 120_000)

    def test_overlapping_pools_counted_once(self, cfg):
        links = [i2d(0, 0.0, 50.0, enb_id=0), i2d(1, 1800.0, 1850.0, enb_id=3)]
        allocs, _ = rrrm.allocate_prbs([[0, 1]], links, 120_000, 8000)
        occ = rrrm.spectrum_occupancy(allocs, 120_000, lambda l: True)
        assert occ == pytest.approx(8000 / 120_000)

    def test_bounds(self, cfg):
        assert rrrm.spectrum_occupancy([], 120_000, lambda l: True) == 0.0


class TestPriority:
    def test_infrastructure_first(self, cfg):
        a = i2d(5, 0.0, 50.0, enb_id=0, deadline=99)
        b = d2d(1, 0.0, 30.0, deadline=0)
        assert rrrm.priority_key(a) < rrrm.priority_key(b)

    def test_age_breaks_ties(self, cfg):
        young = d2d(0, 0.0, 30.0, deadline=5)
        old = d2d(1, 0.0, 30.0, deadline=5)
        old.age = 3
        assert rrrm.priority_key(old) < rrrm.priority_key(young)
