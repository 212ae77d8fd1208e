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
        assert phy.prbs_required(cfg) == 8000

    def test_energy_scales_with_prbs(self, cfg):
        e = float(phy.transmission_energy(phy.D2D, np.array([50.0]), cfg)[0])
        p_c = phy.tx_power_for_link(phy.D2D, 50.0, cfg)
        assert e == pytest.approx(8000 * 12 * p_c * cfg.prb_duration, rel=1e-12)

    def test_energy_monotone_in_distance(self, cfg):
        r = np.linspace(1.0, 300.0, 300)
        e = phy.transmission_energy(phy.I2D, r, cfg)
        assert np.all(np.diff(e) > 0)

    def test_energy_functions_match(self, cfg):
        fi, fd = phy.energy_functions(cfg)
        r = np.array([10.0, 80.0])
        assert np.allclose(fi(r), phy.transmission_energy(phy.I2D, r, cfg))
        assert np.allclose(fd(r), phy.transmission_energy(phy.D2D, r, cfg))


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
        expected = (field.sample_db(100.0) + field.sample_db(200.0)) / math.sqrt(2)
        assert s == pytest.approx(expected, rel=1e-12)


class TestChannelModel:
    @pytest.fixture(scope="class")
    def g50(self, cfg):
        return float(phy.nominal_gain(phy.D2D, np.array([50.0]), cfg)[0])

    def test_mean_tap_power_normalized(self, cfg, rng, g50):
        model = phy.ChannelModel(cfg)
        n = 2000
        acc = np.zeros(model.n_subcarriers)
        for _ in range(n):
            c = model.realize(g50, 0.0, rng)
            acc += c.gains / c.nominal
        assert np.mean(acc / n) == pytest.approx(1.0, abs=0.05)

    def test_frequency_selectivity(self, cfg, rng, g50):
        model = phy.ChannelModel(cfg)
        c = model.realize(g50, 0.0, rng)
        rel = c.gains / c.nominal
        assert rel.std() > 0.1  # Rayleigh fading across the band

    def test_shadow_scales_gains(self, cfg, rng, g50):
        model = phy.ChannelModel(cfg)
        state = rng.bit_generator.state
        a = model.realize(g50, 0.0, rng)
        rng.bit_generator.state = state
        b = model.realize(g50, 10.0, rng)
        assert np.allclose(b.gains, 10.0 * a.gains)

    def test_matches_matrix_product(self, cfg, rng, g50):
        model = phy.ChannelModel(cfg)
        state = rng.bit_generator.state
        c = model.realize(g50, 3.0, rng)
        rng.bit_generator.state = state
        taps = model._amps * (rng.standard_normal(cfg.n_taps)
                              + 1j * rng.standard_normal(cfg.n_taps))
        want = g50 * 10.0 ** 0.3 * np.abs(model._phases @ taps) ** 2
        # same sums, possibly in another order
        np.testing.assert_allclose(c.gains, want, rtol=1e-12, atol=0.0)
        assert c.nominal == g50


class TestCapacity:
    def test_slots_per_block_counts(self):
        counts = phy.slots_per_block(0, 120, 60)
        assert counts.sum() == 120 and np.all(counts == 2)
        counts = phy.slots_per_block(30, 90, 60)
        assert counts.sum() == 60
        assert np.all(phy.slots_per_block(5, 5, 60) == 0)

    def test_success_at_nominal_gain(self, cfg, rng):
        # margin headroom means a shadow-free, fading-free channel succeeds
        model = phy.ChannelModel(cfg)
        r = 80.0
        own_p = phy.tx_power_for_link(phy.D2D, r, cfg)
        g = float(phy.nominal_gain(phy.D2D, np.array([r]), cfg)[0])
        own = phy.ChannelRealization(
            gains=np.full(model.n_subcarriers, g), shadow_linear=1.0, nominal=g)
        info = phy.achievable_information(own_p, own, [], (0, 8000), cfg)
        assert phy.transmission_success(info, cfg)
        # at the capacity cap: 8000 PRBs * 12 subcarriers * cap * wc * tau
        assert info == pytest.approx(8000 * 12 * 6.0 * 15e3 * 5e-4, rel=1e-12)

    def test_strong_interference_fails(self, cfg, rng):
        model = phy.ChannelModel(cfg)
        r = 80.0
        own_p = phy.tx_power_for_link(phy.D2D, r, cfg)
        g = float(phy.nominal_gain(phy.D2D, np.array([r]), cfg)[0])
        own = phy.ChannelRealization(
            gains=np.full(model.n_subcarriers, g), shadow_linear=1.0, nominal=g)
        strong = phy.ChannelRealization(
            gains=np.full(model.n_subcarriers, g * 1e3), shadow_linear=1.0,
            nominal=g)
        info = phy.achievable_information(own_p, own, [(own_p, strong, 0, 8000)],
                                          (0, 8000), cfg)
        assert not phy.transmission_success(info, cfg)

    def test_disjoint_interferer_is_harmless(self, cfg):
        r = 80.0
        own_p = phy.tx_power_for_link(phy.D2D, r, cfg)
        g = float(phy.nominal_gain(phy.D2D, np.array([r]), cfg)[0])
        n_sc = Config().phy.freq_blocks * 12
        own = phy.ChannelRealization(gains=np.full(n_sc, g),
                                     shadow_linear=1.0, nominal=g)
        strong = phy.ChannelRealization(gains=np.full(n_sc, g * 1e3),
                                        shadow_linear=1.0, nominal=g)
        # overlap [8000*k, ...) in a disjoint block range only when the
        # two pools never share a frequency block
        clean = phy.achievable_information(own_p, own, [], (0, 60), cfg)
        hit = phy.achievable_information(own_p, own, [(own_p, strong, 60, 120)],
                                         (0, 60), cfg)
        assert hit < clean  # same blocks are reused within one 120-PRB frame
