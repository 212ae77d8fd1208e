"""Hot numeric kernels in numpy, each working on whole arrays at once."""

from __future__ import annotations

import math

import numpy as np

# perfbench/run.py records this flag in its run manifest; no kernel uses numba.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# minimum distance reached by a linear relative trajectory within a window
# ---------------------------------------------------------------------------

def _approach(x0, v, phi):
    """The body of closest_approach and min_distance_samples, element by
    element: the window, whether x0 + v t crosses 0 within it, the
    crossing time, |x0|, |x0 + v phi| and the minimum of |x0 + v t|."""
    x0, v, phi = np.asarray(x0, float), np.asarray(v, float), np.asarray(phi, float)
    if np.any(phi < 0.0):
        raise ValueError("phi must be >= 0")
    # v = 0 never crosses (nan compares false); a subnormal v overflows
    # -x0 / v to inf, past any finite phi; 0 * inf is nan, dropped by fmin
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_cross = np.where(v != 0.0, -x0 / v, np.nan)
        d_end = np.abs(x0 + v * phi)
    crossing = (t_cross >= 0.0) & (t_cross <= phi)
    d0 = np.abs(x0)
    return phi, crossing, t_cross, d0, d_end, np.where(crossing, 0.0, np.fmin(d0, d_end))


def closest_approach(x0, v, phi):
    """Element by element, the earliest minimizer t* of |x0 + v t| over
    t in [0, phi] and the minimum value (longitudinal distance)."""
    phi, crossing, t_cross, d0, d_end, distance = _approach(x0, v, phi)
    return np.where(crossing, t_cross, np.where(d_end < d0, phi, 0.0)), distance


def min_distance_samples(x0: np.ndarray, v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """min over t in [0, phi] of |x0 + v t|, elementwise."""
    return _approach(x0, v, phi)[-1]


# ---------------------------------------------------------------------------
# capped per-subcarrier capacity sum
# ---------------------------------------------------------------------------

def capacity_bits(signal: np.ndarray, interference: np.ndarray, noise: float,
                  slots: np.ndarray, cap: float, wc: float, tau_slot: float):
    """Total achievable bits over frequency blocks, per row.

    signal, interference: per-subcarrier received powers (W) along the
    last axis, block by block; slots: per-block number of occupied slots;
    cap: spectral efficiency ceiling (bits/s/Hz); wc: subcarrier width;
    tau_slot: slot duration.  Sums each block's rates, then weights it by its slots.
    """
    sinr = signal / (noise + interference)
    rate = np.minimum(cap, np.log2(1.0 + sinr))
    block_rate = rate.reshape(*slots.shape, -1).sum(axis=-1)
    return tau_slot * wc * np.sum(slots * block_rate, axis=-1)


# ---------------------------------------------------------------------------
# truncated-Poisson mixture of minimum-of-n laws
# ---------------------------------------------------------------------------

def poisson_min_terms(atom0: float, cdf_at_rmax: float, nbar, n_max):
    """Terms of the min-of-n mixtures (n >= 1, Poisson weights) truncated
    to the range cap, one row per mean provider count in ``nbar``, all
    over one single-provider law (atom0 and cdf_at_rmax as in
    poisson_min_mixture).  Row b counts up to its own truncation point
    n_max[b]; its weights past it are 0.  Returns (mixture atoms at 0,
    counts n, weights): each count's Poisson weight given n >= 1, divided
    by the min-of-n mass within the cap."""
    nbar, n_max = np.asarray(nbar, dtype=float)[:, None], np.asarray(n_max)[:, None]
    n = np.arange(1, int(n_max.max()) + 1, dtype=float)
    # math.log, as a one-row call has always taken it: numpy's log can
    # differ from it in the last bit
    log_nbar = np.array([[math.log(x)] for x in nbar[:, 0]])
    log_w = n * log_nbar - nbar - np.cumsum(np.log(n))  # log n! = sum of log k
    w = np.where(n <= n_max, np.exp(log_w), 0.0)
    w /= w.sum(axis=1, keepdims=True)  # conditioning on at least one provider
    w /= 1.0 - (1.0 - cdf_at_rmax) ** n  # per-n truncation mass
    atom = np.sum(w * (1.0 - (1.0 - atom0) ** n), axis=1)
    return atom, n, w


def poisson_min_mixture(cdf: np.ndarray, density: np.ndarray, atom0: float,
                        cdf_at_rmax: float, nbar: float, n_max: int):
    """Mix min-of-n laws (n >= 1, Poisson weights) truncated to the range cap.

    cdf/density describe the single-provider law on the output grid;
    atom0 its zero-distance atom; cdf_at_rmax its CDF at the range cap.
    Returns (mixture atom at 0, mixture density on the grid).
    """
    atom, n, w = poisson_min_terms(atom0, cdf_at_rmax, [nbar], [n_max])
    atom, w = float(atom[0]), w[0]
    # density of min-of-n: n (1-F)^(n-1) p, truncated and renormalized
    pow_s = (1.0 - cdf)[None, :] ** (n[:, None] - 1.0)
    dens = np.sum((w * n)[:, None] * pow_s, axis=0) * density
    return atom, dens
