"""Physical layer: nominal gains, power control, fading/shadowing and
the capacity-outage error model.

Transmit power is set per subcarrier from the *nominal* (deterministic)
channel gain so that the received SNR would hit the spectral-efficiency
target exactly, then boosted by a fixed link margin.  The realized
channel adds correlated lognormal shadowing and frequency-selective
Rayleigh fading; a transmission fails when the achievable information
across its PRBs falls short of the payload size.

The fading taps h_m sit on delays m s, so |H(f)|^2 = sum_k [Re r_k cos(2 pi f k s)
+ Im r_k sin(2 pi f k s)] (times 2 for k > 0), r_k = sum_m h_(m+k) conj(h_m):
one einsum product with a fixed basis.  Not BLAS: a BLAS product's last bits
depend on how many blocks are drawn together, einsum's do not
(``test_draws_split_like_one_draw`` pins this).  Capacity sums each frequency
block's subcarrier rates, then weights the block by the link's slots in it.
"""

from __future__ import annotations

import math

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
    rr = np.maximum(r, 1.0)   # PL0 is the path loss at 1 m
    pl0 = path_loss_ref_db(cfg, model)
    bp = model.breakpoint
    near = pl0 + 10.0 * model.exp_near * np.log10(rr)
    far = (pl0 + 10.0 * model.exp_near * math.log10(bp)
           + 10.0 * model.exp_far * np.log10(rr / bp))
    pl = np.where(rr <= bp, near, far)
    return 10.0 ** (-pl / 10.0)


def subcarrier_noise_power(cfg: PhyConfig) -> float:
    """Thermal noise power per subcarrier including the receiver noise figure (W)."""
    dbm = (cfg.noise_psd_dbm_hz + cfg.noise_figure_db
           + 10.0 * math.log10(cfg.subcarrier_bandwidth))
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


def content_energy(p_c, cfg: PhyConfig):
    """Radiated energy of one full content transmission at per-subcarrier
    power p_c (J)."""
    return cfg.prbs_required * cfg.subcarriers_per_prb * p_c * cfg.prb_duration


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
    autocorrelation, sampled every meter; a link's shadowing combines its
    endpoint samples."""

    def __init__(self, length: float, cfg: PhyConfig, rng: np.random.Generator):
        n = int(math.ceil(length)) + 2
        a = math.exp(-1.0 / cfg.shadowing_decorrelation)
        innov = (rng.standard_normal(n) * cfg.shadowing_sigma_db).tolist()
        scale = math.sqrt(1.0 - a * a)
        vals = innov[:1]
        for v in innov[1:]:
            vals.append(a * vals[-1] + scale * v)
        self._x = np.arange(n, dtype=float)
        self._vals = np.array(vals)

    def link_shadow_db(self, x_tx, x_rx):
        """Shadowing of links from ``x_tx`` to ``x_rx`` (arrays of one
        shape), looked up with one interpolation over both endpoints."""
        x_tx = np.asarray(x_tx, dtype=float)
        n = x_tx.size
        s = np.interp(np.concatenate([x_tx.ravel(), np.ravel(x_rx)]), self._x, self._vals)
        return ((s[:n] + s[n:]) / math.sqrt(2.0)).reshape(x_tx.shape)


def mean_gain(nominal: np.ndarray, shadow_db: np.ndarray) -> np.ndarray:
    """Nominal gain times lognormal shadowing, per link.

    The dB-to-linear power is taken per element with the C library's
    ``pow``: numpy's vectorized ``power`` differs from it in the last bit
    for some inputs on some CPUs, and the gains must not depend on that."""
    return nominal * np.array([10.0 ** (s / 10.0) for s in shadow_db.tolist()])


# ---------------------------------------------------------------------------
# fading and capacity
# ---------------------------------------------------------------------------

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
        self._amps = np.sqrt(powers / 2.0)
        # the tap pairs (j + k, j), by lag k
        k, j = np.array([(k, j) for k in range(cfg.n_taps) for j in range(cfg.n_taps - k)]).T
        self._pairs, self._lag_start = (j + k, j), np.flatnonzero(j == 0)
        # what Re r_k and Im r_k multiply, interleaved as in a complex array
        angle = 2.0 * math.pi * np.outer(delays, np.arange(n_sc) * cfg.subcarrier_bandwidth)
        self._basis = 2.0 * np.stack([np.cos(angle), np.sin(angle)], axis=1).reshape(-1, n_sc)
        self._basis[:2] = [[1.0], [0.0]]
        self.n_subcarriers = n_sc

    def realize(self, n_blocks: int, rng: np.random.Generator) -> np.ndarray:
        """|H|^2 over the band of ``n_blocks`` fading blocks of unit mean
        power, shape (n_blocks, n_subcarriers).

        Each block takes 2 * n_taps normals, the real parts of its taps
        first, so drawing k blocks and then m more gives the blocks of one
        draw of k + m."""
        z = rng.standard_normal((n_blocks, 2, self.cfg.n_taps))
        taps = self._amps * (z[:, 0] + 1j * z[:, 1])
        later, earlier = self._pairs
        r = np.add.reduceat(taps[:, later] * taps[:, earlier].conj(), self._lag_start, axis=1)
        return np.einsum("bk,kf->bf", r.view(float), self._basis)  # not BLAS (module docstring)


def slots_per_block(start, stop, n_blocks: int) -> np.ndarray:
    """How many slots of each frequency block contiguous PRB index ranges
    [start, stop) cover, with slot-major index = slot*n_blocks + block;
    shape ``np.shape(start) + (n_blocks,)``."""
    start = np.asarray(start, dtype=np.int64)[..., None]
    stop = np.asarray(stop, dtype=np.int64)[..., None]
    full, rem_hi = np.divmod(stop, n_blocks)
    base_lo, rem_lo = np.divmod(start, n_blocks)
    block = np.arange(n_blocks)
    counts = full - base_lo + (block < rem_hi) - (block < rem_lo)
    return np.where(stop > start, counts, 0)


def achievable_information(received: np.ndarray, link: np.ndarray, slots: np.ndarray,
                           cfg: PhyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Achievable bits of each of a tick's links over its PRB slice, and
    the interference that its receiver hears.

    One row per channel that a receiver hears.  ``link`` numbers the
    links from 0 and groups their rows in ascending order; the last row
    of a group is the link's own channel, the others share its slice and
    interfere with it, summed in row order.  received: each row's
    received power per subcarrier, (transmit power x ``mean_gain``) x
    |H|^2, which is only read; slots: per link, the slots of its slice in
    each frequency block (``slots_per_block``).  A block the slice misses
    weighs 0, whatever the interference there.

    Returns (bits, interference), one row per link; interference is the
    per-subcarrier sum of the link's peer rows, so a new block on the
    link's own channel alone is scored by ``link_information``.
    """
    last = np.append(link[1:] != link[:-1], True)
    own = np.flatnonzero(last)
    peer = np.flatnonzero(~last)
    # the q-th interferers of all links at once, so each link sums its own
    # in row order
    rank = peer - np.append(0, own[:-1] + 1)[link[peer]]
    interference = np.zeros((own.size, received.shape[1]))
    for q in range(rank.max() + 1 if rank.size else 0):
        sel = peer[rank == q]
        interference[link[sel]] += received[sel]
    # with no peer, every row is a link's own channel: no copy
    signal = received[own] if peer.size else received
    return link_information(signal, interference, slots, cfg), interference


def link_information(signal: np.ndarray, interference: np.ndarray, slots: np.ndarray,
                     cfg: PhyConfig) -> np.ndarray:
    """Achievable bits of links, row by row, from the received power of
    their own channel and the interference they hear, per subcarrier;
    slots as in ``achievable_information``."""
    return kernels.capacity_bits(signal, interference, subcarrier_noise_power(cfg),
                                 slots, cfg.spectral_efficiency,
                                 cfg.subcarrier_bandwidth, cfg.prb_duration)


def transmission_success(info_bits: float, cfg: PhyConfig) -> bool:
    return info_bits >= cfg.payload_bits
