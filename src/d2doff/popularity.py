"""Content popularity and cache-presence models."""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=8)
def zipf_pmf(alpha: float, library_size: int) -> np.ndarray:
    """Truncated Zipf popularity over ranks 1..library_size (index 0 = rank
    1), cached and read-only as ``zipf_cdf`` is."""
    if library_size < 1:
        raise ValueError("library_size must be >= 1")
    ranks = np.arange(1, library_size + 1, dtype=float)
    weights = ranks ** (-alpha)
    pmf = weights / weights.sum()
    pmf.flags.writeable = False
    return pmf


@functools.lru_cache(maxsize=8)
def zipf_cdf(alpha: float, library_size: int) -> np.ndarray:
    """Read-only CDF of ``zipf_pmf``, built as ``Generator.choice(p=pmf)``
    builds it, so ``cdf.searchsorted(rng.random(k), side="right")`` draws
    the same contents as ``rng.choice(library_size, size=k, p=pmf)``.
    Cached: every World of one configuration shares one array."""
    cdf = zipf_pmf(alpha, library_size).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def cache_presence_probs(pmf: np.ndarray, request_rate: float, window: float) -> np.ndarray:
    """P(a device holds content z), from its own request process over a
    retention window: 1 - exp(-lambda_z * window)."""
    return 1.0 - np.exp(-pmf * request_rate * window)


def renewal_presence_probs(pmf: np.ndarray, request_rate: float,
                           sharing_timeout: float) -> np.ndarray:
    """Stationary P(a device holds content z) when repeated requests do
    not refresh the copy.

    Each miss request pins the content in cache for the sharing timeout;
    requests made while it is cached are served locally and leave the
    expiry unchanged.  The cache state is then an alternating renewal
    process (exponential idle time 1/lambda_z, fixed hold time t_s), so
    the holding fraction is lambda_z t_s / (1 + lambda_z t_s)."""
    lam = pmf * request_rate
    return lam * sharing_timeout / (1.0 + lam * sharing_timeout)


def non_repeated_pmf(pmf: np.ndarray, miss_probs: np.ndarray) -> np.ndarray:
    """Popularity conditioned on the request not being served from the
    requester's own cache; miss_probs[z] = P(cache does not hold z)."""
    pmf = np.asarray(pmf, dtype=float)
    miss_probs = np.asarray(miss_probs, dtype=float)
    weights = pmf * miss_probs
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("every content is cached with probability 1; conditional law undefined")
    return weights / total
