"""Hot numeric kernels, some with numba-JIT and pure-numpy twins.

The JIT path of a twin is used by default; set the environment variable
``D2DOFF_DISABLE_NUMBA=1`` (or run without numba installed) to force
the pure-numpy implementations.  Both paths are exercised by the test
suite and compared by ``benchmarks/bench_kernels.py``.  ``capacity_bits``
works on whole arrays of links and has only its numpy form.
"""

from __future__ import annotations

import math
import os

import numpy as np

_DISABLED = os.environ.get("D2DOFF_DISABLE_NUMBA", "") not in ("", "0")

try:
    if _DISABLED:
        raise ImportError
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # no-op decorator fallback
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


# ---------------------------------------------------------------------------
# minimum distance reached by a linear relative trajectory within a window
# ---------------------------------------------------------------------------

def min_distance_samples_np(x0: np.ndarray, v: np.ndarray, phi: np.ndarray) -> np.ndarray:
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


@njit(cache=True)
def _min_distance_samples_nb(x0, v, phi):
    n = x0.shape[0]
    out = np.empty(n)
    for i in range(n):
        if v[i] != 0.0:
            tc = -x0[i] / v[i]
            if 0.0 <= tc <= phi[i]:
                out[i] = 0.0
                continue
            t = min(max(tc, 0.0), phi[i])
        else:
            t = 0.0
        out[i] = abs(x0[i] + v[i] * t)
    return out


def min_distance_samples_nb(x0, v, phi):
    return _min_distance_samples_nb(
        np.ascontiguousarray(x0, dtype=np.float64),
        np.ascontiguousarray(v, dtype=np.float64),
        np.ascontiguousarray(phi, dtype=np.float64),
    )


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

def poisson_min_mixture_np(cdf: np.ndarray, density: np.ndarray, atom0: float,
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


@njit(cache=True)
def _poisson_min_mixture_nb(cdf, density, atom0, cdf_at_rmax, nbar, n_max):
    m = cdf.shape[0]
    w = np.empty(n_max)
    for i in range(n_max):
        k = i + 1.0
        w[i] = math.exp(k * math.log(nbar) - nbar - math.lgamma(k + 1.0))
    w /= w.sum()

    s_rmax = 1.0 - cdf_at_rmax
    atom = 0.0
    coeff = np.empty(n_max)
    for i in range(n_max):
        k = i + 1.0
        denom = 1.0 - s_rmax ** k
        atom += w[i] * (1.0 - (1.0 - atom0) ** k) / denom
        coeff[i] = w[i] * k / denom
    dens = np.zeros(m)
    for j in range(m):
        s = 1.0 - cdf[j]
        acc = 0.0
        for i in range(n_max):
            acc += coeff[i] * s ** i
        dens[j] = acc * density[j]
    return atom, dens


def poisson_min_mixture_nb(cdf, density, atom0, cdf_at_rmax, nbar, n_max):
    atom, dens = _poisson_min_mixture_nb(
        np.ascontiguousarray(cdf, dtype=np.float64),
        np.ascontiguousarray(density, dtype=np.float64),
        float(atom0), float(cdf_at_rmax), float(nbar), int(n_max),
    )
    return float(atom), dens


# dispatchers --------------------------------------------------------------

if HAVE_NUMBA:
    min_distance_samples = min_distance_samples_nb
    poisson_min_mixture = poisson_min_mixture_nb
else:
    min_distance_samples = min_distance_samples_np
    poisson_min_mixture = poisson_min_mixture_np
