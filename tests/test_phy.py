import dataclasses
import math

import numpy as np
import pytest

from d2doff import phy
from d2doff.config import Config, GainModel, PhyConfig


@pytest.fixture(scope="module")
def cfg() -> PhyConfig:
    return Config().phy


class TestNominalGain:
    def test_monotone_decreasing(self, cfg):
        r = np.linspace(1.0, 500.0, 500)
        g = phy.nominal_gain(phy.I2D, r, cfg)
        assert np.all(np.diff(g) < 0)

    def test_dual_slope_continuity(self, cfg):
        below, above = phy.nominal_gain(phy.I2D, np.array([99.999, 100.001]), cfg)
        assert below == pytest.approx(above, rel=1e-3)

    def test_clamped_below_reference_distance(self, cfg):
        g = phy.nominal_gain(phy.I2D, np.array([0.0, 0.5, 1.0]), cfg)
        assert g[0] == g[1] == g[2]

    def test_negative_distance_rejected(self, cfg):
        with pytest.raises(ValueError):
            phy.nominal_gain(phy.I2D, np.array([-1.0]), cfg)

    def test_d2d_extra_loss(self, cfg):
        gi = phy.nominal_gain(phy.I2D, np.array([50.0]), cfg)[0]
        gd = phy.nominal_gain(phy.D2D, np.array([50.0]), cfg)[0]
        assert 10 * math.log10(gi / gd) == pytest.approx(5.0, abs=1e-9)

    def test_far_slope(self, cfg):
        g1, g2 = phy.nominal_gain(phy.I2D, np.array([200.0, 400.0]), cfg)
        assert 10 * math.log10(g1 / g2) == pytest.approx(
            10 * cfg.gain_i2d.exp_far * math.log10(2.0), abs=1e-9)


class TestPowerControl:
    def test_noise_power_value(self, cfg):
        # -174 dBm/Hz + 10 dB NF over 15 kHz
        expected = 10 ** ((-174.0 + 10.0 + 10 * math.log10(15e3) - 30) / 10)
        assert phy.subcarrier_noise_power(cfg) == pytest.approx(expected, rel=1e-12)
        assert phy.subcarrier_noise_power(cfg) == pytest.approx(5.97e-16, rel=1e-3)

    def test_power_control_identity(self, cfg):
        sigma2 = phy.subcarrier_noise_power(cfg)
        for kind in (phy.I2D, phy.D2D):
            margin_db = phy.link_margin_db(kind, cfg)
            margin = 10.0 ** (margin_db / 10.0)
            for r in (1.0, 37.0, 100.0, 250.0):
                g = float(phy.nominal_gain(kind, np.array([r]), cfg)[0])
                p_c = phy.tx_power_per_subcarrier(g, margin_db, cfg)
                # defining identity, bit-exact
                assert p_c == margin * (sigma2 / g) * (2.0 ** 6 - 1.0)
                # rearranged form within float round-off
                assert p_c * g / sigma2 == pytest.approx(63.0 * margin,
                                                         rel=1e-12)

    def test_prbs_required_default(self, cfg):
        # ceil((432 kB * 8 / 0.8) / (6 * 180 kHz * 0.5 ms)) = 8000
        assert cfg.prbs_required == 8000

    def test_energy_scales_with_prbs(self, cfg):
        e = float(phy.transmission_energy(phy.D2D, np.array([50.0]), cfg)[0])
        p_c = phy.tx_power_for_link(phy.D2D, 50.0, cfg)
        assert e == pytest.approx(8000 * 12 * p_c * cfg.prb_duration, rel=1e-12)

    def test_energy_monotone_in_distance(self, cfg):
        r = np.linspace(1.0, 300.0, 300)
        e = phy.transmission_energy(phy.I2D, r, cfg)
        assert np.all(np.diff(e) > 0)


class TestShadowing:
    def test_field_statistics(self, cfg, rng):
        field = phy.ShadowingField(30_000.0, cfg, rng)
        vals = field._vals
        assert np.std(vals) == pytest.approx(cfg.shadowing_sigma_db, rel=0.05)
        # autocorrelation at the decorrelation distance ~ 1/e
        lag = int(cfg.shadowing_decorrelation)
        ac = np.corrcoef(vals[:-lag], vals[lag:])[0, 1]
        assert ac == pytest.approx(math.exp(-1.0), abs=0.05)

    def test_link_shadow_combines_endpoints(self, cfg, rng):
        field = phy.ShadowingField(3000.0, cfg, rng)
        s = field.link_shadow_db(100.0, 200.0)
        expected = (np.interp(100.0, field._x, field._vals)
                    + np.interp(200.0, field._x, field._vals)) / math.sqrt(2)
        assert s == pytest.approx(expected, rel=1e-12)

    def test_link_shadow_on_arrays(self, cfg, rng):
        field = phy.ShadowingField(3000.0, cfg, rng)
        x_tx, x_rx = rng.uniform(0.0, 3000.0, (2, 50))
        s = field.link_shadow_db(x_tx, x_rx)
        expected = [float(np.interp(a, field._x, field._vals)
                          + np.interp(b, field._x, field._vals)) / math.sqrt(2)
                    for a, b in zip(x_tx, x_rx)]
        assert s.tolist() == expected

    def test_mean_gain_is_scalar_pow(self, rng):
        nominal = rng.uniform(1e-12, 1e-6, 2000)
        shadow_db = rng.normal(0.0, 8.0, 2000)
        want = [float(g) * 10.0 ** (s / 10.0) for g, s in zip(nominal, shadow_db)]
        assert phy.mean_gain(nominal, shadow_db).tolist() == want


def _direct_fading(cfg, z):
    """|H|^2 over the band as the direct sum of the taps: tap m at delay
    m * delay_spread / 2 with power exp(-delay / delay_spread) (all power
    on tap 0 for a zero spread), normalized, times z[:, 0, m] + i z[:, 1, m]."""
    delays = np.arange(cfg.n_taps) * (cfg.delay_spread / 2.0)
    if cfg.delay_spread > 0.0:
        powers = np.exp(-delays / cfg.delay_spread)
    else:
        powers = np.eye(1, cfg.n_taps)[0]
    taps = np.sqrt(powers / powers.sum() / 2.0) * (z[:, 0] + 1j * z[:, 1])
    freqs = np.arange(cfg.freq_blocks * cfg.subcarriers_per_prb) * cfg.subcarrier_bandwidth
    phases = np.exp(-2j * math.pi * np.outer(freqs, delays))
    return np.abs(np.einsum("ij,bj->bi", phases, taps)) ** 2


class TestChannelModel:
    @pytest.fixture(scope="class")
    def g50(self, cfg):
        return float(phy.nominal_gain(phy.D2D, np.array([50.0]), cfg)[0])

    @staticmethod
    def gains(model, g, shadow_db, n, rng):
        """Per-subcarrier gains of n fading blocks on links of nominal gain
        g and shadowing shadow_db."""
        mean = phy.mean_gain(np.full(n, g), np.full(n, shadow_db))
        return mean[:, None] * model.realize(n, rng)

    def test_mean_tap_power_normalized(self, cfg, rng, g50):
        model = phy.ChannelModel(cfg)
        n = 2000
        acc = (self.gains(model, g50, 0.0, n, rng) / g50).sum(axis=0)
        assert np.mean(acc / n) == pytest.approx(1.0, abs=0.05)

    def test_frequency_selectivity(self, cfg, rng, g50):
        model = phy.ChannelModel(cfg)
        rel = self.gains(model, g50, 0.0, 1, rng)[0] / g50
        assert rel.std() > 0.1  # Rayleigh fading across the band

    def test_shadow_scales_gains(self, cfg, rng, g50):
        model = phy.ChannelModel(cfg)
        state = rng.bit_generator.state
        a = self.gains(model, g50, 0.0, 1, rng)
        rng.bit_generator.state = state
        b = self.gains(model, g50, 10.0, 1, rng)
        assert np.allclose(b, 10.0 * a)

    def test_matches_matrix_product(self, cfg, rng, g50):
        model = phy.ChannelModel(cfg)
        state = rng.bit_generator.state
        c = self.gains(model, g50, 3.0, 3, rng)
        rng.bit_generator.state = state
        want = g50 * 10.0 ** 0.3 * _direct_fading(cfg, rng.standard_normal((3, 2, cfg.n_taps)))
        # another sum of the same products: equal up to rounding on the
        # scale of the row's power, not elementwise at deep nulls
        assert np.all(c >= 0.0)
        assert np.all(np.abs(c - want) <= 1e-13 * want.mean(axis=1, keepdims=True))
        assert phy.mean_gain(np.array([g50]), np.array([3.0]))[0] == g50 * 10.0 ** 0.3

    @pytest.mark.parametrize("changes", [{"n_taps": 1}, {"delay_spread": 0.0},
                                         {"n_taps": 12}])
    def test_matches_direct_tap_sum(self, cfg, changes):
        cfg = dataclasses.replace(cfg, **changes)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        fading = phy.ChannelModel(cfg).realize(2000, rng)
        rng.bit_generator.state = state
        want = _direct_fading(cfg, rng.standard_normal((2000, 2, cfg.n_taps)))
        assert fading.shape == want.shape and np.all(fading >= 0.0)
        assert np.all(np.abs(fading - want) <= 1e-13 * want.mean(axis=1, keepdims=True))

    def test_draws_split_like_one_draw(self, cfg):
        # HARQ draws a tick's extra blocks after its first draw
        model = phy.ChannelModel(cfg)
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        whole = model.realize(7, a)
        parts = np.concatenate([model.realize(k, b) for k in (3, 1, 3)])
        assert np.array_equal(whole, parts)
        assert a.bit_generator.state == b.bit_generator.state


def _reference_information(cfg, rows):
    """Per-link capacity as one link's loop: rows of (power, gain, fading,
    prb start, prb stop), interferers first, the own channel last.  Each
    block's subcarrier rates are summed, then weighted by its slots."""
    n_blocks, k_sc = cfg.freq_blocks, cfg.subcarriers_per_prb
    *peers, (p, g, fad, lo, hi) = rows
    signal = (p * g) * fad
    interference = np.zeros_like(signal)
    for p_i, g_i, fad_i, lo_i, hi_i in peers:
        mask = np.repeat((phy.slots_per_block(lo_i, hi_i, n_blocks) > 0).astype(float), k_sc)
        interference += (p_i * g_i) * fad_i * mask
    sinr = signal / (phy.subcarrier_noise_power(cfg) + interference)
    rate = np.minimum(cfg.spectral_efficiency, np.log2(1.0 + sinr))
    block_rate = rate.reshape(n_blocks, k_sc).sum(axis=1)
    slots = phy.slots_per_block(lo, hi, n_blocks)
    return float(cfg.prb_duration * cfg.subcarrier_bandwidth * np.sum(slots * block_rate))


def _information(cfg, rows, start=0, stop=8000):
    """achievable_information of one link on PRBs [start, stop) from
    (power, gain, fading) rows, interferers first."""
    power, gain, fading = (np.array(c) for c in zip(*rows))
    slots = phy.slots_per_block(start, stop, cfg.freq_blocks)[None]
    info, _ = phy.achievable_information((power * gain)[:, None] * fading,
                                         np.zeros(len(rows), dtype=int), slots, cfg)
    assert info.shape == (1,)
    return info[0]


class TestCapacity:
    def test_slots_per_block_counts(self):
        counts = phy.slots_per_block(0, 120, 60)
        assert counts.sum() == 120 and np.all(counts == 2)
        counts = phy.slots_per_block(30, 90, 60)
        assert counts.sum() == 60
        assert np.all(phy.slots_per_block(5, 5, 60) == 0)

    def test_slots_per_block_on_arrays(self, rng):
        start = rng.integers(0, 500, 40)
        stop = start + rng.integers(-5, 300, 40)
        counts = phy.slots_per_block(start, stop, 60)
        assert counts.shape == (40, 60)
        for row, lo, hi in zip(counts, start, stop):
            assert np.array_equal(row, phy.slots_per_block(lo, hi, 60))
            assert row.sum() == max(hi - lo, 0)

    def test_success_at_nominal_gain(self, cfg, rng):
        # margin headroom means a shadow-free, fading-free channel succeeds
        model = phy.ChannelModel(cfg)
        r = 80.0
        own_p = phy.tx_power_for_link(phy.D2D, r, cfg)
        g = float(phy.nominal_gain(phy.D2D, np.array([r]), cfg)[0])
        flat = np.ones(model.n_subcarriers)
        info = _information(cfg, [(own_p, g, flat)])
        assert phy.transmission_success(info, cfg)
        # at the capacity cap: 8000 PRBs * 12 subcarriers * cap * wc * tau
        assert info == pytest.approx(8000 * 12 * 6.0 * 15e3 * 5e-4, rel=1e-12)

    def test_strong_interference_fails(self, cfg, rng):
        model = phy.ChannelModel(cfg)
        r = 80.0
        own_p = phy.tx_power_for_link(phy.D2D, r, cfg)
        g = float(phy.nominal_gain(phy.D2D, np.array([r]), cfg)[0])
        flat = np.ones(model.n_subcarriers)
        info = _information(cfg, [(own_p, g * 1e3, flat), (own_p, g, flat)])
        assert not phy.transmission_success(info, cfg)

    def test_links_of_a_tick_match_one_at_a_time(self, cfg, rng):
        # links with 0-4 interferers as strong as their own signal, so that
        # rates stay below the cap, each link's rows on one random PRB
        # range, some of them narrower than the band
        n_sc = cfg.freq_blocks * cfg.subcarriers_per_prb
        links, slots = [], []
        for n_peers in (2, 0, 4, 1, 0, 3):
            lo = int(rng.integers(0, 8000))
            hi = lo + int(rng.integers(1, 100 if n_peers % 2 else 9000))
            links.append([(rng.uniform(1e-4, 1e-3), rng.uniform(1e-11, 1e-10),
                           rng.exponential(1.0, n_sc), lo, hi)
                          for _ in range(n_peers + 1)])
            slots.append(phy.slots_per_block(lo, hi, cfg.freq_blocks))
        power, gain, fading, _, _ = (np.array(c) for c in zip(*sum(links, [])))
        link = np.repeat(np.arange(len(links)), [len(rows) for rows in links])
        received = (power * gain)[:, None] * fading
        info, interference = phy.achievable_information(received, link, np.array(slots), cfg)
        assert info.tolist() == [_reference_information(cfg, rows) for rows in links]
        # a retry: a new block on one link's own channel, scored against the
        # interference of its first attempt, gives the bits of its rows alone
        for f, rows in enumerate(links):
            retried = received[link == f]
            retried[-1] *= rng.exponential(1.0, n_sc)
            alone, _ = phy.achievable_information(retried, np.zeros(len(rows), dtype=int),
                                                  np.array(slots[f:f + 1]), cfg)
            got = phy.link_information(retried[-1:], interference[f:f + 1],
                                       np.array(slots[f:f + 1]), cfg)
            assert got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("link", [[0, 0, 1, 2, 2, 2], [0, 1, 2, 3, 4, 5]],
                             ids=["with-peers", "no-peers"])
    def test_received_is_only_read(self, cfg, rng, link):
        # the tick's buffer is passed in, not a copy: with no peer, the
        # very array goes on to kernels.capacity_bits
        link = np.array(link)
        n_sc = cfg.freq_blocks * cfg.subcarriers_per_prb
        received = rng.exponential(1e-12, (link.size, n_sc))
        start = rng.integers(0, 8000, link[-1] + 1)
        slots = phy.slots_per_block(start, start + 300, cfg.freq_blocks)
        before = received.tobytes()
        phy.achievable_information(received, link, slots, cfg)
        assert received.tobytes() == before
