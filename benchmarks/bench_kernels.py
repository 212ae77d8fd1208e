"""Benchmark the numba-JIT kernels against their pure-numpy twins.

Run with ``python benchmarks/bench_kernels.py``.  The same module-level
functions are also selected at import time by the environment variable
``D2DOFF_DISABLE_NUMBA``; here both variants are timed side by side and
their outputs compared for agreement.
"""

from __future__ import annotations

import time

import numpy as np

from d2doff import kernels


def timeit(fn, *args, repeat: int = 5) -> tuple[float, object]:
    fn(*args)  # warm-up (JIT compilation for the numba path)
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_min_distance(rng):
    n = 2_000_000
    x0 = rng.uniform(-300.0, 300.0, n)
    v = rng.uniform(-48.0, 48.0, n)
    phi = rng.uniform(0.0, 20.0, n)
    t_np, out_np = timeit(kernels.min_distance_samples_np, x0, v, phi)
    t_nb, out_nb = timeit(kernels.min_distance_samples_nb, x0, v, phi)
    assert np.allclose(out_np, out_nb)
    return "min_distance_samples (2e6)", t_np, t_nb


def bench_mixture(rng):
    m = 20_000
    grid_cdf = np.sort(rng.random(m)) * 0.8
    density = rng.random(m)
    args = (grid_cdf, density, 0.3, 0.8, 12.0, 60)
    t_np, (a_np, d_np) = timeit(kernels.poisson_min_mixture_np, *args)
    t_nb, (a_nb, d_nb) = timeit(kernels.poisson_min_mixture_nb, *args)
    assert np.isclose(a_np, a_nb) and np.allclose(d_np, d_nb)
    return "poisson_min_mixture (2e4 x 60)", t_np, t_nb


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"numba available: {kernels.HAVE_NUMBA}")
    print(f"{'kernel':35s} {'numpy [ms]':>12s} {'numba [ms]':>12s} {'speedup':>8s}")
    for bench in (bench_min_distance, bench_mixture):
        name, t_np, t_nb = bench(rng)
        print(f"{name:35s} {t_np * 1e3:12.2f} {t_nb * 1e3:12.2f} "
              f"{t_np / t_nb:7.2f}x")


if __name__ == "__main__":
    main()
