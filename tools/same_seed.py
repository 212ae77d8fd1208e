"""Fingerprint fixed-seed simulation runs, one line per run.

    python3 tools/same_seed.py [--quick] > runs.txt
    python3 tools/same_seed.py --against REV [--quick]

Run it from the root of a checkout (the package is imported from its
``src/``) at two revisions and diff the two outputs: a change that must
not move any number prints the same lines.  When the tool itself
changes, copy the newer version into both checkouts' ``tools/`` first,
so that both sides fingerprint the same quantities.  ``--against REV``
does all of this in one command: it runs this tool in a ``git archive``
copy of REV and in this checkout, prints each pair of lines that differ
(REV's line after ``-``, this checkout's after ``+``), and exits 1 if
any does, 0 if none does.  Each line holds the run's
key, its counters and a sha256 over its summary, delivered D2D
distances, occupancy samples, both energies, the pending requests (the
fields of ``REQUEST_FIELDS``), the final copy index ``World.holders``
(contents ascending, each with its (vehicle id, expiry) pairs ascending)
and the final state of its random generator.

The full set is 36 runs: 18 at arrival rate 1/3, 1 and 2 veh/s (the
three policies, seeds 1 and 2; 60 s after 20 s of warm-up), 6 whose
payload fits 8 or 200 PRBs, so that a link's PRB slice covers only part
of the band, 3 (one per policy) at a 2 dB link margin on both link
kinds, where a third or more of first attempts fail, so HARQ retries
run often (at the default margins, 2 % or fewer fail at 1 veh/s), 6
(one per policy and grid) on tick grids that do not divide the content
timeout: a 3 s control interval with the 20 s timeout, and a 0.7 s one,
whose ticks are no whole seconds, with a 20.5 s timeout (there a
request's deadline is its last tick before the timeout ends), and 3
(one per policy, seed 1) at the paper's second delay tolerance, a 60 s
content timeout at 1 veh/s, where requests stay open longest.
``--quick`` runs one short run per policy.

The full set then prints one line per analytic configuration of the
benchmark (arrival rate 1/3 and 1 veh/s at the default distance step,
2/3 veh/s at 0.05 m): a sha256 over the lane-aware delivery law (atoms,
grid, density), the four average energies, the unconditional
effective-distance law, the single-provider law at the 15 (x0, v_a)
pairs of ``d2doff validate``, and that command's oracle reports at
those pairs (seed 1, 20 000 samples each, about 3 of the oracle's
8192-sample blocks) and, from the same generator, at x0 = 100 m,
v_a = 17 m/s with the command's default 200 000 samples,
followed by the 12 values of the zero-distance surface of
``d2doff analytic``: the crossing mass of the lane-aware law (its atoms
at 0 and at the lane offset) at each range cap and content timeout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import itertools
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

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
# link margin (dB, both kinds) of the runs that exercise HARQ retries
RETRY_MARGIN_DB = 2.0
# scenario fields of the runs whose tick grid does not divide the content
# timeout, by key
OFF_GRID = {"T=3s": {"control_interval": 3.0},
            "T=0.7s timeout=20.5s": {"control_interval": 0.7, "content_timeout": 20.5}}
# content timeout (s) of the runs at the paper's second delay tolerance
LONG_TIMEOUT = 60.0
# (x0, v_a) of the oracle report at the full 200 000 samples
FULL_SIZE_PAIR = (100.0, 17.0)
# a pending request's identity, state and plan
REQUEST_FIELDS = ("id", "requester_id", "content_id", "t0", "deadline", "state",
                  "provider_id", "planned_tick", "delta_hat")


def _config(lam: float, n_prbs: int | None = None,
            margin_db: float | None = None, **scenario) -> Config:
    """The default config at arrival rate ``lam``, with the given payload in
    PRBs, link margin and other scenario fields."""
    base = Config()
    phy = base.phy if n_prbs is None else dataclasses.replace(
        base.phy, payload_bits=432.0 * n_prbs - 100.0)
    if margin_db is not None:
        phy = dataclasses.replace(phy, link_margin_i2d_db=margin_db,
                                  link_margin_d2d_db=margin_db)
    return dataclasses.replace(base, phy=phy, scenario=dataclasses.replace(
        base.scenario, vehicle_arrival_rate=lam, **scenario))


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
    out += [(f"margin={RETRY_MARGIN_DB:g}dB {p} seed=1",
             _config(1.0, margin_db=RETRY_MARGIN_DB), p, 1, 60.0, 20.0) for p in POLICIES]
    out += [(f"{name} {p} seed=1", _config(1.0, **fields), p, 1, 60.0, 20.0)
            for name, fields in OFF_GRID.items() for p in POLICIES]
    out += [(f"timeout={LONG_TIMEOUT:g}s {p} seed=1",
             _config(1.0, content_timeout=LONG_TIMEOUT), p, 1, 60.0, 20.0) for p in POLICIES]
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
        params, cli.SURFACE_TIMEOUTS, [(sc.speed_min, sc.speed_max)], cli.SURFACE_CAPS)
    parts = [law.atoms, law.grid.tolist(), law.density.tolist(), sorted(energies.items()),
             unconditional.atoms, unconditional.grid.tolist(), unconditional.density.tolist()]
    # the pairs and speeds of ``d2doff validate``
    speeds = (sc.speed_min + 0.5, 0.5 * (sc.speed_min + sc.speed_max), sc.speed_max)
    rng = np.random.default_rng(1)
    for x0 in cli.DEFAULT_TUPLES_X0:
        for v_a in speeds:
            single = analytic.single_provider_distance_law(x0, v_a, params)
            parts += [single.atoms, single.grid.tolist(), single.density.tolist()]
            parts.append(sorted(cli.oracle_check(x0, v_a, params, 20_000, rng).items()))
    # one full-size report: the default of ``d2doff validate --samples``
    parts.append(sorted(cli.oracle_check(*FULL_SIZE_PAIR, params, 200_000, rng).items()))
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    values = " ".join(repr(float(p)) for p in surface.ravel())
    return f"sha256={digest.hexdigest()} surface={values}"


def _plain(x):
    """numpy scalars as Python ones, so the digest sees values, not types."""
    return x.item() if hasattr(x, "item") else x


def fingerprint(eng: engine.Engine) -> str:
    m = eng.metrics
    pending = sorted(tuple(_plain(getattr(r, f)) for f in REQUEST_FIELDS)
                     for r in eng.policy.pending.values())
    holders = sorted((z, sorted(h.items())) for z, h in eng.world.holders.items() if h)
    digest = hashlib.sha256()
    for part in (sorted(m.summary().items()), m.d2d_distances, m.occupancy_samples,
                 (m.energy_d2d, m.energy_i2d), pending, holders, eng.rng.bit_generator.state):
        digest.update(repr(part).encode())
    counts = " ".join(f"{k}={getattr(m, k)}" for k in COUNTERS)
    return f"{counts} sha256={digest.hexdigest()}"


def differing_pairs(parent: list[str], change: list[str]) -> list[tuple]:
    """The (parent, change) pairs of two outputs, paired line by line, that
    differ; a line that one output lacks is paired with None."""
    return [(a, b) for a, b in itertools.zip_longest(parent, change) if a != b]


def _lines(root: str, quick: bool) -> list[str]:
    """What this tool prints when run from the checkout at ``root``."""
    cmd = [sys.executable, os.path.join(root, "tools", "same_seed.py")]
    return subprocess.run(cmd + (["--quick"] if quick else []), cwd=root, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def against(rev: str, quick: bool) -> int:
    """Run this tool in a ``git archive`` copy of ``rev`` and in this
    checkout, print the lines that differ in pairs and return 1 if any
    does, else 0."""
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        os.makedirs(os.path.join(tree, "tools"), exist_ok=True)
        shutil.copy(os.path.abspath(__file__), os.path.join(tree, "tools", "same_seed.py"))
        parent = _lines(tree, quick)
    change = _lines(ROOT, quick)
    pairs = differing_pairs(parent, change)
    for a, b in pairs:
        print(f"- {a}\n+ {b}")
    total = max(len(parent), len(change))
    print(f"{total - len(pairs)} of {total} lines identical", file=sys.stderr)
    return 1 if pairs else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true",
                   help="one 30 s run per policy instead of the full set")
    p.add_argument("--against", metavar="REV",
                   help="compare with a git revision's output: print the pairs of "
                        "lines that differ and exit 1 if any does")
    args = p.parse_args(argv)
    if args.against is not None:
        try:
            return against(args.against, args.quick)
        except subprocess.CalledProcessError as err:
            out = err.stderr
            sys.stderr.write(out.decode() if isinstance(out, bytes) else out)
            return 2
    for key, cfg, policy, seed, duration, warmup in runs(args.quick):
        eng = engine.run(cfg, policy, duration, warmup, seed)
        print(f"{key}: {fingerprint(eng)}", flush=True)
    if not args.quick:
        for key, cfg in analytic_configs():
            print(f"{key}: {analytic_fingerprint(cfg)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
