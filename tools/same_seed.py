"""Fingerprint fixed-seed simulation runs, one line per run.

    python3 tools/same_seed.py [--quick] > runs.txt

Run it from the root of a checkout (the package is imported from its
``src/``) at two revisions and diff the two outputs: a change that must
not move any number prints the same lines.  Each line holds the run's
key, its counters and a sha256 over its summary, delivered D2D
distances, occupancy samples, both energies, the pending requests and
the final state of its random generator.

The full set is 18 runs (arrival rate 1/3, 1 and 2 veh/s, the three
policies, seeds 1 and 2; 60 s after 20 s of warm-up) and 6 runs whose
payload fits 8 or 200 PRBs, so that a link's PRB slice covers only part
of the band.  ``--quick`` runs one short run per policy.

The full set then prints one line per analytic configuration of the
benchmark (arrival rate 1/3 and 1 veh/s at the default distance step,
2/3 veh/s at 0.05 m): a sha256 over the lane-aware delivery law (atoms,
grid, density), the four average energies and the unconditional
effective-distance law, followed by the 12 values of the zero-distance
surface of ``d2doff analytic``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from d2doff import analytic, cli, engine  # noqa: E402
from d2doff.analytic import AnalyticParams  # noqa: E402
from d2doff.config import Config  # noqa: E402

POLICIES = ("optimal", "benchmark", "cellular")
COUNTERS = ("deliveries_d2d", "deliveries_i2d", "repeated", "dropped",
            "requests_nonrepeated", "failed_attempts", "pruned_links")
# a PRB carries 540 coded bits at the defaults (fec rate 0.8), so a
# payload of 432 n - 100 bits needs n PRBs
SMALL_PAYLOAD_PRBS = (8, 200)


def _config(lam: float, n_prbs: int | None = None) -> Config:
    base = Config()
    phy = base.phy if n_prbs is None else dataclasses.replace(
        base.phy, payload_bits=432.0 * n_prbs - 100.0)
    return dataclasses.replace(
        base, phy=phy,
        scenario=dataclasses.replace(base.scenario, vehicle_arrival_rate=lam))


def runs(quick: bool):
    """(key, config, policy, seed, duration, warm-up) of every run."""
    if quick:
        return [(f"lam=1 {p} seed=1 quick", _config(1.0), p, 1, 20.0, 10.0)
                for p in POLICIES]
    out = [(f"lam={name} {p} seed={seed}", _config(lam), p, seed, 60.0, 20.0)
           for name, lam in (("1/3", 1.0 / 3.0), ("1", 1.0), ("2", 2.0))
           for p in POLICIES for seed in (1, 2)]
    out += [(f"n_prbs={n} {p} seed=1", _config(1.0, n), p, 1, 60.0, 20.0)
            for n in SMALL_PAYLOAD_PRBS for p in POLICIES]
    return out


def analytic_configs():
    """(key, config) of every analytic line."""
    out = []
    for name, lam, dr in (("1/3", 1.0 / 3.0, 0.1), ("1", 1.0, 0.1), ("2/3", 2.0 / 3.0, 0.05)):
        cfg = _config(lam)
        out.append((f"analytic lam={name} dr={dr}",
                    dataclasses.replace(cfg, analytic=dataclasses.replace(cfg.analytic, dr=dr))))
    return out


def analytic_fingerprint(cfg: Config) -> str:
    params = AnalyticParams.from_config(cfg)
    law = analytic.lane_aware_delivery_law(params)
    energies = analytic.average_energies(params, law)
    unconditional = analytic.unconditional_effective_distance_law(params)
    sc = cfg.scenario
    surface = analytic.short_range_probability_surface(
        params, cli.SURFACE_TIMEOUTS, [(sc.speed_min, sc.speed_max)], cli.SURFACE_CAPS,
        dr=0.5)
    digest = hashlib.sha256()
    for part in (law.atoms, law.grid.tolist(), law.density.tolist(),
                 sorted(energies.items()), unconditional.atoms,
                 unconditional.grid.tolist(), unconditional.density.tolist()):
        digest.update(repr(part).encode())
    values = " ".join(repr(float(p)) for p in surface.ravel())
    return f"sha256={digest.hexdigest()} surface={values}"


def _plain(x):
    """numpy scalars as Python ones, so the digest sees values, not types."""
    return x.item() if hasattr(x, "item") else x


def fingerprint(eng: engine.Engine) -> str:
    m = eng.metrics
    pending = sorted(tuple(_plain(v) for v in dataclasses.astuple(r))
                     for r in eng.policy.pending.values())
    digest = hashlib.sha256()
    for part in (sorted(m.summary().items()), m.d2d_distances, m.occupancy_samples,
                 (m.energy_d2d, m.energy_i2d), pending, eng.rng.bit_generator.state):
        digest.update(repr(part).encode())
    counts = " ".join(f"{k}={getattr(m, k)}" for k in COUNTERS)
    return f"{counts} sha256={digest.hexdigest()}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true",
                   help="one 30 s run per policy instead of the full set")
    args = p.parse_args(argv)
    for key, cfg, policy, seed, duration, warmup in runs(args.quick):
        eng = engine.run(cfg, policy, duration, warmup, seed)
        print(f"{key}: {fingerprint(eng)}", flush=True)
    if not args.quick:
        for key, cfg in analytic_configs():
            print(f"{key}: {analytic_fingerprint(cfg)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
