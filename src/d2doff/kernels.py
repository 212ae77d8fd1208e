"""Hot numeric kernels in numpy, each working on whole arrays at once."""

from __future__ import annotations

import math

import numpy as np

# perfbench/run.py records this flag in its run manifest; no kernel uses numba.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# minimum distance reached by a linear relative trajectory within a window
# ---------------------------------------------------------------------------

def min_distance_samples(x0: np.ndarray, v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """min over t in [0, phi] of |x0 + v t|, elementwise."""
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    # a subnormal v overflows -x0 / v to inf, which the clip below handles
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_cross = np.where(v != 0.0, -x0 / v, 0.0)
    t_star = np.clip(t_cross, 0.0, phi)
    crossing = (v != 0.0) & (t_cross >= 0.0) & (t_cross <= phi)
    r = np.abs(x0 + v * t_star)
    # exact zero at the crossing instant avoids spurious tiny residues
    return np.where(crossing, 0.0, r)


# ---------------------------------------------------------------------------
# capped per-subcarrier capacity sum
# ---------------------------------------------------------------------------

def capacity_bits(signal: np.ndarray, interference: np.ndarray, noise: float,
                  weights: np.ndarray, cap: float, wc: float, tau_slot: float):
    """Total achievable bits over weighted subcarriers, per row.

    signal, interference: per-subcarrier received powers (W) along the
    last axis; weights: per-subcarrier number of occupied slots; cap:
    spectral efficiency ceiling (bits/s/Hz); wc: subcarrier width;
    tau_slot: slot duration.  Returns one total per row.
    """
    sinr = signal / (noise + interference)
    rate = np.minimum(cap, np.log2(1.0 + sinr))
    return tau_slot * wc * np.sum(weights * rate, axis=-1)


# ---------------------------------------------------------------------------
# truncated-Poisson mixture of minimum-of-n laws
# ---------------------------------------------------------------------------

def poisson_min_mixture(cdf: np.ndarray, density: np.ndarray, atom0: float,
                        cdf_at_rmax: float, nbar: float, n_max: int):
    """Mix min-of-n laws (n >= 1, Poisson weights) truncated to the range cap.

    cdf/density describe the single-provider law on the output grid;
    atom0 its zero-distance atom; cdf_at_rmax its CDF at the range cap.
    Returns (mixture atom at 0, mixture density on the grid).
    """
    n = np.arange(1, n_max + 1, dtype=float)
    log_w = n * math.log(nbar) - nbar - np.array([math.lgamma(k + 1) for k in n])
    w = np.exp(log_w)
    w /= w.sum()  # conditioning on at least one provider

    s = 1.0 - cdf          # survival on grid
    s_rmax = 1.0 - cdf_at_rmax
    denom = 1.0 - s_rmax ** n                      # per-n truncation mass
    atom = np.sum(w * (1.0 - (1.0 - atom0) ** n) / denom)
    # density of min-of-n: n (1-F)^(n-1) p, truncated and renormalized
    pow_s = s[None, :] ** (n[:, None] - 1.0)
    dens = np.sum((w * n / denom)[:, None] * pow_s, axis=0) * density
    return float(atom), dens
