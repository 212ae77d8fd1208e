"""Physical layer: nominal gains, power control, fading/shadowing and
the capacity-outage error model.

Transmit power is set per subcarrier from the *nominal* (deterministic)
channel gain so that the received SNR would hit the spectral-efficiency
target exactly, then boosted by a fixed link margin.  The realized
channel adds correlated lognormal shadowing and frequency-selective
Rayleigh fading; a transmission fails when the achievable information
across its PRBs falls short of the payload size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import GainModel, PhyConfig

I2D = "I2D"
D2D = "D2D"


# ---------------------------------------------------------------------------
# deterministic quantities
# ---------------------------------------------------------------------------

def path_loss_ref_db(cfg: PhyConfig, model: GainModel) -> float:
    """Reference path loss at 1 m (dual-slope log-distance model)."""
    return 46.4 + 20.0 * math.log10(cfg.center_frequency / 5e9) + model.extra_loss_db


def nominal_gain(kind: str, r, cfg: PhyConfig):
    """Distance-to-linear-gain map used for power control."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("distance must be >= 0")
    model = cfg.gain_i2d if kind == I2D else cfg.gain_d2d
    rr = np.maximum(r, model.ref_distance)
    pl0 = path_loss_ref_db(cfg, model)
    bp = model.breakpoint
    near = pl0 + 10.0 * model.exp_near * np.log10(rr / model.ref_distance)
    far = (pl0 + 10.0 * model.exp_near * math.log10(bp / model.ref_distance)
           + 10.0 * model.exp_far * np.log10(rr / bp))
    pl = np.where(rr <= bp, near, far)
    return 10.0 ** (-pl / 10.0)


def subcarrier_noise_power(cfg: PhyConfig) -> float:
    """Thermal noise power per subcarrier including the receiver noise figure (W)."""
    dbm = cfg.noise_psd_dbm_hz + cfg.noise_figure_db
    if cfg.subcarrier_bandwidth == 0.0:
        return 0.0
    dbm += 10.0 * math.log10(cfg.subcarrier_bandwidth)
    return 10.0 ** ((dbm - 30.0) / 10.0)


def link_margin_db(kind: str, cfg: PhyConfig) -> float:
    return cfg.link_margin_i2d_db if kind == I2D else cfg.link_margin_d2d_db


def tx_power_per_subcarrier(gain: float, margin_db: float, cfg: PhyConfig) -> float:
    """P_c = M * (noise/gain) * (2^e - 1): nominal SNR hits the
    efficiency target, with margin headroom."""
    margin = 10.0 ** (margin_db / 10.0)
    sigma2 = subcarrier_noise_power(cfg)
    return margin * (sigma2 / gain) * (2.0 ** cfg.spectral_efficiency - 1.0)


def tx_power_for_link(kind: str, r: float, cfg: PhyConfig) -> float:
    g = float(nominal_gain(kind, np.array([r]), cfg)[0])
    return tx_power_per_subcarrier(g, link_margin_db(kind, cfg), cfg)


def prbs_required(cfg: PhyConfig) -> int:
    """PRBs needed to carry one coded content at the efficiency target."""
    bits_per_prb = cfg.spectral_efficiency * cfg.prb_duration * cfg.prb_bandwidth
    return int(math.ceil((cfg.payload_bits / cfg.fec_rate) / bits_per_prb))


def content_energy(p_c, cfg: PhyConfig):
    """Radiated energy of one full content transmission at per-subcarrier
    power p_c (J)."""
    return prbs_required(cfg) * cfg.subcarriers_per_prb * p_c * cfg.prb_duration


def transmission_energy(kind: str, r, cfg: PhyConfig):
    """Radiated energy of one full content transmission at distance r (J)."""
    g = nominal_gain(kind, r, cfg)
    return content_energy(tx_power_per_subcarrier(g, link_margin_db(kind, cfg), cfg), cfg)


def energy_functions(cfg: PhyConfig):
    """(energy_i2d, energy_d2d) callables over distance arrays."""
    return (lambda r: transmission_energy(I2D, r, cfg),
            lambda r: transmission_energy(D2D, r, cfg))


# ---------------------------------------------------------------------------
# shadowing field
# ---------------------------------------------------------------------------

class ShadowingField:
    """1-D Gaussian field along the street with exponential
    autocorrelation; a link's shadowing combines its endpoint samples."""

    def __init__(self, length: float, cfg: PhyConfig, rng: np.random.Generator,
                 step: float = 1.0):
        n = int(math.ceil(length / step)) + 2
        a = math.exp(-step / cfg.shadowing_decorrelation)
        innov = rng.standard_normal(n) * cfg.shadowing_sigma_db
        vals = np.empty(n)
        vals[0] = innov[0]
        scale = math.sqrt(1.0 - a * a)
        for i in range(1, n):
            vals[i] = a * vals[i - 1] + scale * innov[i]
        self._x = np.arange(n) * step
        self._vals = vals

    def sample_db(self, x: float) -> float:
        return float(np.interp(x, self._x, self._vals))

    def link_shadow_db(self, x_tx: float, x_rx: float) -> float:
        return (self.sample_db(x_tx) + self.sample_db(x_rx)) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# fading and capacity
# ---------------------------------------------------------------------------

@dataclass
class ChannelRealization:
    """Per-subcarrier power gains of one link for one control interval."""
    gains: np.ndarray        # len = freq_blocks * subcarriers_per_prb
    shadow_linear: float
    nominal: float


class ChannelModel:
    """Realizes frequency-selective channels over the system band."""

    def __init__(self, cfg: PhyConfig):
        self.cfg = cfg
        n_sc = cfg.freq_blocks * cfg.subcarriers_per_prb
        # tapped delay line, exponential power-delay profile
        spacing = cfg.delay_spread / 2.0 if cfg.delay_spread > 0.0 else 0.0
        delays = np.arange(cfg.n_taps) * spacing
        if cfg.delay_spread > 0.0:
            powers = np.exp(-delays / cfg.delay_spread)
        else:
            powers = np.zeros(cfg.n_taps)
            powers[0] = 1.0
        powers /= powers.sum()
        freqs = np.arange(n_sc) * cfg.subcarrier_bandwidth
        self._phases = np.exp(-2j * math.pi * np.outer(freqs, delays))
        self._amps = np.sqrt(powers / 2.0)
        self.n_subcarriers = n_sc

    def realize(self, nominal: float, shadow_db: float,
                rng: np.random.Generator) -> ChannelRealization:
        """One fading draw on a link of nominal gain ``nominal``."""
        taps = self._amps * (rng.standard_normal(self.cfg.n_taps)
                             + 1j * rng.standard_normal(self.cfg.n_taps))
        # einsum's own loop, not BLAS: OpenBLAS splits even this small
        # matvec over its threads, which then wait on busy cores
        h = np.einsum("ij,j->i", self._phases, taps)
        shadow = 10.0 ** (shadow_db / 10.0)
        g = float(nominal)
        return ChannelRealization(gains=g * shadow * np.abs(h) ** 2,
                                  shadow_linear=shadow, nominal=g)


def slots_per_block(start: int, stop: int, n_blocks: int) -> np.ndarray:
    """How many slots of each frequency block a contiguous PRB index
    range [start, stop) covers, with slot-major index = slot*n_blocks + block."""
    if stop <= start:
        return np.zeros(n_blocks, dtype=np.int64)
    full, rem_hi = divmod(stop, n_blocks)
    base_lo, rem_lo = divmod(start, n_blocks)
    counts = np.full(n_blocks, full - base_lo, dtype=np.int64)
    counts[:rem_hi] += 1
    counts[:rem_lo] -= 1
    return counts


def achievable_information(own_power: float, own: ChannelRealization,
                           interferers: list[tuple[float, ChannelRealization, int, int]],
                           prb_range: tuple[int, int], cfg: PhyConfig) -> float:
    """Achievable bits of one transmission over its PRB range.

    interferers: (tx power per subcarrier, cross-channel realization,
    overlap PRB range) tuples.  Interference is applied on every slot of
    the frequency blocks its overlap touches; in practice overlapping
    allocations are either identical or disjoint, making this exact.
    """
    n_blocks = cfg.freq_blocks
    k_sc = cfg.subcarriers_per_prb
    own_slots = slots_per_block(prb_range[0], prb_range[1], n_blocks)
    weights = np.repeat(own_slots.astype(float), k_sc)
    signal = own_power * own.gains
    interference = np.zeros_like(signal)
    for p_i, chan_i, ov_start, ov_stop in interferers:
        ov_slots = slots_per_block(ov_start, ov_stop, n_blocks)
        mask = np.repeat((ov_slots > 0).astype(float), k_sc)
        interference += p_i * chan_i.gains * mask
    sigma2 = subcarrier_noise_power(cfg)
    return kernels.capacity_bits(signal, interference, sigma2, weights,
                                 cfg.spectral_efficiency, cfg.subcarrier_bandwidth,
                                 cfg.prb_duration)


def transmission_success(info_bits: float, cfg: PhyConfig) -> bool:
    return info_bits >= cfg.payload_bits
