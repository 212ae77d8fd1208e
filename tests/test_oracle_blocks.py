"""The Monte-Carlo oracle of ``d2doff validate``, which draws and scores
its samples block by block, against the full-array body it replaced:
the same reports, to the bit."""

import numpy as np
import pytest

from d2doff import analytic, cli, kernels


def reference_ks(law, samples):
    """``MixedDistribution.ks_distance`` over the whole sorted array."""
    samples = np.sort(np.asarray(samples, dtype=float))
    right = law.cdf(samples)
    left = right.copy()
    for loc, mass in law.atoms:
        left -= np.where(np.abs(samples - loc) <= 1e-9, mass, 0.0)
    n = samples.size
    d_plus = np.max(np.arange(1, n + 1) / n - right)
    d_minus = np.max(left - np.arange(0, n) / n)
    return float(max(d_plus, d_minus, 0.0))


def reference_oracle_check(x0, v_a, params, n, rng):
    """``cli.oracle_check`` on whole arrays: the speeds from
    ``Generator.choice`` over the intervals, then the time limits, then one
    kernel call."""
    law = analytic.single_provider_distance_law(x0, v_a, params)
    rel = params.speed_law.relative(v_a)
    (lo,), (hi,), (level,) = rel.lo, rel.hi, rel.level
    probs = (hi - lo) * level
    which = rng.choice(lo.size, size=n, p=probs / probs.sum())
    u = rng.random(n)
    a, b = lo[which], hi[which]
    v = a + u * (b - a)
    phi = np.minimum(rng.random(n) * params.sharing_timeout, params.content_timeout)
    samples = kernels.min_distance_samples(np.full(n, float(x0)), v, phi)
    x = abs(x0)
    return {
        "x0": x0, "v_a": v_a, "ks": reference_ks(law, samples),
        "atom0_analytic": law.atom_mass(0.0),
        "atom0_mc": float(np.mean(samples <= 1e-12)),
        "atomx_analytic": law.atom_mass(x),
        "atomx_mc": float(np.mean(samples >= x - 1e-12)),
    }


@pytest.mark.parametrize("seed", [1, 20261020])
@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 20_000, 200_000])
def test_blocked_oracle_keeps_the_full_array_bits(default_config, default_params, n, seed):
    # the 15 pairs of ``d2doff validate``, in its order, from one generator
    sc = default_config.scenario
    speeds = (sc.speed_min + 0.5, 0.5 * (sc.speed_min + sc.speed_max), sc.speed_max)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for x0 in cli.DEFAULT_TUPLES_X0:
        for v_a in speeds:
            got = cli.oracle_check(x0, v_a, default_params, n, rng)
            want = reference_oracle_check(x0, v_a, default_params, n, ref_rng)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key] == want[key], (x0, v_a, key)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_oracle_report_holds_python_floats(default_params):
    # the fixed-seed fingerprints of tools/same_seed.py hash the report's repr
    rep = cli.oracle_check(100.0, 17.0, default_params, 20_000, np.random.default_rng(1))
    assert all(type(value) is float for value in rep.values())
