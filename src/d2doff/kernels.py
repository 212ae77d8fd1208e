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
    last axis, block by block, both of one shape; slots: per-block number
    of occupied slots; cap: spectral efficiency ceiling (bits/s/Hz); wc:
    subcarrier width; tau_slot: slot duration.  Sums each block's rates,
    then weights it by its slots.  The rates, min(cap, log2(1 + signal /
    (noise + interference))), are formed step by step in one new array;
    neither argument is written, so one array may be passed as both.
    """
    rate = noise + interference
    np.divide(signal, rate, out=rate)
    np.add(1.0, rate, out=rate)
    np.log2(rate, out=rate)
    np.minimum(cap, rate, out=rate)
    block_rate = rate.reshape(*slots.shape, -1).sum(axis=-1)
    return tau_slot * wc * np.sum(slots * block_rate, axis=-1)


# ---------------------------------------------------------------------------
# truncated-Poisson mixture of minimum-of-n laws
# ---------------------------------------------------------------------------

def poisson_min_mixture(cdf: np.ndarray, density: np.ndarray, atom0: float, nbars):
    """Mix min-of-n laws (n >= 1, Poisson weights) truncated to the range
    cap, one mixture per mean provider count in ``nbars``.

    cdf/density describe the single-provider law on the output grid,
    which ends at the range cap; atom0 is its zero-distance atom.  The
    Poisson terms of all mixtures form one (mixtures x providers) table;
    each mixture sums only its own leading n_max entries for its
    normalisation and its zero atom, so each sum associates as it would
    for that mixture alone.  The powers
    (1-F)^(n-1) are formed once, and each mixture adds its own leading
    rows in order, in einsum's own loop (no ``optimize``, no BLAS; see
    the phy module docstring), with no (n x nodes) product.

    A mixture's rows end after the last one whose coefficient
    c_n = w_n n is at least 2^-60 of its peak coefficient c_p; the power
    table ends with the longest such run.  The rows dropped change no
    bit: each has n > p, so where 0 <= 1-F <= 1 its term c_n (1-F)^(n-1)
    is at most 2^-60 of the peak row's term c_p (1-F)^(p-1), which the
    running sum already holds, and so below half an ulp of that sum.
    Where the CDF rounds above 1, 1-F is a few ulps below 0 and, as
    c_n <= c_1 nbar^(n-1) / (n-1)!, every dropped row's term is below
    half an ulp of the first row's, which leads the sum.
    Returns (mixture atoms at 0, mixture densities), one per nbar.
    """
    # provider counts past the truncation point have tail mass < 1e-9
    n_maxs = np.array([math.ceil(nbar + 10.0 * math.sqrt(nbar) + 20.0) for nbar in nbars])
    n_all = np.arange(1, n_maxs.max() + 1, dtype=float)
    log_nbar = np.array([math.log(nbar) for nbar in nbars])
    w = np.exp(n_all * log_nbar[:, None] - np.asarray(nbars, dtype=float)[:, None]
               - np.cumsum(np.log(n_all)))  # log n! = sum of log k
    w[n_all > n_maxs[:, None]] = 0.0  # each mixture's own truncation
    # conditioning on at least one provider, then the per-n truncation mass
    w /= np.array([row[:n_max].sum() for row, n_max in zip(w, n_maxs)])[:, None]
    w /= 1.0 - (1.0 - cdf[-1]) ** n_all
    zero = w * (1.0 - (1.0 - atom0) ** n_all)
    atoms = np.array([row[:n_max].sum() for row, n_max in zip(zero, n_maxs)])
    # density of min-of-n: n (1-F)^(n-1) p, truncated and renormalized
    coeff = w * n_all
    kept = coeff >= 2.0 ** -60 * coeff.max(axis=1)[:, None]
    cuts = n_all.size - np.argmax(kept[:, ::-1], axis=1)
    pow_s = (1.0 - cdf)[None, :] ** (n_all[:cuts.max(), None] - 1.0)
    dens = np.empty((len(cuts), cdf.size))
    for row, cut, out in zip(coeff, cuts.tolist(), dens):
        np.einsum("n,nk->k", row[:cut], pow_s[:cut], out=out)
    dens *= density
    return atoms, dens
