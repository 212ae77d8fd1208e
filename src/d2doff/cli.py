"""Command-line front end.

Subcommands:

* ``simulate`` — replicated simulation runs, metrics + distance histogram CSVs.
* ``sweep``    — one-parameter sweeps over policies, per-metric CSV datasets
                 plus pairwise reduction datasets against the baselines.
* ``analytic`` — tabulates the effective-distance law, average energies and
                 the zero-distance probability surface.
* ``validate`` — analytic law vs Monte-Carlo oracle (and a short simulation
                 cross-check); nonzero exit when the oracle disagrees.

Exit codes: 0 success, 1 runtime failure, 2 config error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import zlib

import numpy as np

from . import analytic, engine
from .config import (Config, ConfigError, PhyConfig, ScenarioConfig, build_dataclass,
                     config_from_dict, load_config, read_json)
from .policies import POLICIES
from .analytic import AnalyticParams

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


class ValidationFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# CSV plumbing (atomic writes)
# ---------------------------------------------------------------------------

def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _load(path: str | None) -> Config:
    if path is None:
        return Config()
    return load_config(path)


def _outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


SWEEPABLE = {f.name: "scenario" for f in dataclasses.fields(ScenarioConfig)}
SWEEPABLE.update({f.name: "phy" for f in dataclasses.fields(PhyConfig)
                  if f.name not in SWEEPABLE})


def _with_param(cfg: Config, values: dict) -> Config:
    """cfg with scenario or PHY fields set, each read over cfg's value as a
    config file reads it, then validated."""
    data = {}
    for name, value in values.items():
        if name not in SWEEPABLE:
            raise ConfigError(f"'{name}' is not a scenario or PHY parameter")
        data.setdefault(SWEEPABLE[name], {})[name] = value
    return config_from_dict(data, cfg)


def point_seed(parameter: str, value) -> int:
    """Per-point seed derived from the parameter value, so sweep output
    does not depend on the order of the value list."""
    return zlib.crc32(f"{parameter}={value!r}".encode()) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load(args.config)
    engine.tick_counts(cfg, args.duration, args.warmup)
    out = _outdir(args.out)
    summary = engine.replicate(cfg, args.policy, args.duration, args.warmup,
                               args.replications, args.seed)
    rows = [[name, summary.means[name], summary.ci_low[name], summary.ci_high[name]]
            for name in summary.metric_names]
    write_csv(os.path.join(out, "metrics.csv"),
              ["metric", "mean", "ci_low", "ci_high"], rows)

    dists = [r for m in summary.runs for r in m.d2d_distances]
    hist_rows = []
    if dists:
        centers, dens = engine.sample_distance_pdf(dists)
        hist_rows = [[c, v] for c, v in zip(centers, dens)]
    write_csv(os.path.join(out, "distance_histogram.csv"),
              ["distance_m", "density"], hist_rows)
    for name in summary.metric_names:
        print(f"{name}: {summary.means[name]:.6g} "
              f"[{summary.ci_low[name]:.6g}, {summary.ci_high[name]:.6g}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A sweep spec file, read like a config file; each value and the
    overrides are typed per point, by ``_with_param``."""

    parameter: str = ""
    values: list = dataclasses.field(default_factory=list)
    overrides: dict = dataclasses.field(default_factory=dict)
    policies: tuple[str, ...] = ("optimal",)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        spec = build_dataclass(cls, read_json(path, "sweep spec"), "sweep spec")
        if spec.parameter not in SWEEPABLE:
            raise ConfigError(f"'{spec.parameter}' is not a sweepable parameter")
        if not spec.values:
            raise ConfigError("sweep value list must be non-empty")
        if not spec.policies:
            raise ConfigError("need a list of at least one policy")
        unknown = [p for p in spec.policies if p not in POLICIES]
        if unknown:
            raise ConfigError(f"unknown policies {unknown}; "
                              f"choose from {sorted(POLICIES)}")
        return spec


REDUCTION_PAIRS = [
    # (metric, baseline policy): reduction of every other policy vs baseline
    ("energy_total_per_delivery", "cellular"),
    ("mean_occupancy", "cellular"),
    ("energy_d2d_per_delivery", "benchmark"),
    ("energy_total_per_delivery", "benchmark"),
]


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_file(args.spec)
    cfg = _load(args.config)
    points = [(v, _with_param(cfg, {**spec.overrides, spec.parameter: v}))
              for v in spec.values]
    for _, point_cfg in points:  # each point's own control interval, before any run
        engine.tick_counts(point_cfg, args.duration, args.warmup)
    reps = args.replications
    jobs = [(point_cfg, policy, args.duration, args.warmup,
             point_seed(spec.parameter, v) + i)
            for v, point_cfg in points for policy in spec.policies for i in range(reps)]
    out = _outdir(args.out)
    runs = engine.run_many(jobs, args.workers)
    # one summary per (value, policy): a slice of reps runs, in job order
    slices = iter([engine.summarize(runs[k:k + reps]) for k in range(0, len(runs), reps)])
    results = [(v, {p: next(slices) for p in spec.policies}) for v in spec.values]

    for metric in runs[0].summary():
        for policy in spec.policies:
            rows = [[v, *res[policy].row(metric)] for v, res in results]
            write_csv(os.path.join(out, f"{spec.parameter}__{metric}__{policy}.csv"),
                      [spec.parameter, "mean", "ci_low", "ci_high"], rows)

    for metric, baseline in REDUCTION_PAIRS:
        if baseline not in spec.policies:
            continue
        for policy in spec.policies:
            if policy == baseline:
                continue
            rows = []
            for v, res in results:
                base = res[baseline].means[metric]
                val = res[policy].means[metric]
                red = 100.0 * (1.0 - val / base) if base else float("nan")
                rows.append([v, red])
            write_csv(os.path.join(
                out, f"{spec.parameter}__{metric}__{policy}_vs_{baseline}.csv"),
                [spec.parameter, "reduction_percent"], rows)
    print(f"sweep over {spec.parameter}: {len(results)} points, "
          f"policies {list(spec.policies)}, output in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

# the zero-distance surface's points: range caps x content timeouts
SURFACE_CAPS = (80.0, 100.0, 120.0, 140.0)
SURFACE_TIMEOUTS = (20.0, 60.0, 120.0)


def cmd_analytic(args) -> int:
    cfg = _load(args.config)
    out = _outdir(args.out)
    params = AnalyticParams.from_config(cfg)

    law = analytic.lane_aware_delivery_law(params)
    rows = [["atom", loc, mass] for loc, mass in law.atoms]
    rows += [["density", r, d] for r, d in zip(law.grid, law.density)]
    write_csv(os.path.join(out, "distance_law.csv"),
              ["kind", "r_m", "value"], rows)

    energies = analytic.average_energies(params, law)
    write_csv(os.path.join(out, "energy.csv"), ["quantity", "value"],
              [[k, v] for k, v in energies.items()])

    caps, timeouts = SURFACE_CAPS, SURFACE_TIMEOUTS
    ranges = [(cfg.scenario.speed_min, cfg.scenario.speed_max)]
    surf = analytic.short_range_probability_surface(params, timeouts, ranges, caps)
    rows = [[caps[i], timeouts[j], ranges[k][0], ranges[k][1], float(surf[i, j, k])]
            for i in range(len(caps)) for j in range(len(timeouts))
            for k in range(len(ranges))]
    write_csv(os.path.join(out, "zero_distance_surface.csv"),
              ["r_max", "content_timeout", "speed_min", "speed_max", "probability"], rows)
    for k, v in energies.items():
        print(f"{k}: {v:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def oracle_check(x0: float, v_a: float, params: AnalyticParams,
                 n_samples: int, rng: np.random.Generator) -> dict:
    """Monte-Carlo check of the single-provider minimum-distance law."""
    if n_samples <= 0:
        raise ConfigError("n_samples must be > 0")
    law = analytic.single_provider_distance_law(x0, v_a, params)
    samples = analytic.sample_min_distances(x0, v_a, params, n_samples, rng)
    x = abs(x0)
    return {
        "x0": x0, "v_a": v_a, "ks": law.ks_distance(samples),
        "atom0_analytic": law.atom_mass(0.0),
        "atom0_mc": float(np.count_nonzero(samples <= 1e-12) / samples.size),
        "atomx_analytic": law.atom_mass(x),
        "atomx_mc": float(np.count_nonzero(samples >= x - 1e-12) / samples.size),
    }


DEFAULT_TUPLES_X0 = (30.0, 100.0, 250.0, -80.0, -200.0)


def cmd_validate(args) -> int:
    cfg = _load(args.config)
    if args.duration > 0:  # 0 skips the simulation
        engine.tick_counts(cfg, args.duration, args.warmup)
    out = _outdir(args.out)
    params = AnalyticParams.from_config(cfg, with_energy=False)
    rng = np.random.default_rng(args.seed)
    sc = cfg.scenario
    speeds = (sc.speed_min + 0.5, 0.5 * (sc.speed_min + sc.speed_max), sc.speed_max)

    rows, worst = [], 0.0
    for x0 in DEFAULT_TUPLES_X0:
        for v_a in speeds:
            rep = oracle_check(x0, v_a, params, args.samples, rng)
            worst = max(worst, rep["ks"],
                        abs(rep["atom0_analytic"] - rep["atom0_mc"]),
                        abs(rep["atomx_analytic"] - rep["atomx_mc"]))
            rows.append([rep["x0"], rep["v_a"], rep["ks"],
                         rep["atom0_analytic"], rep["atom0_mc"],
                         rep["atomx_analytic"], rep["atomx_mc"]])
            print(f"x0={x0:+7.1f} v_a={v_a:5.2f}  KS={rep['ks']:.5f}  "
                  f"atom0 {rep['atom0_analytic']:.4f}/{rep['atom0_mc']:.4f}  "
                  f"atom_x {rep['atomx_analytic']:.4f}/{rep['atomx_mc']:.4f}")
    write_csv(os.path.join(out, "oracle_report.csv"),
              ["x0", "v_a", "ks", "atom0_analytic", "atom0_mc",
               "atomx_analytic", "atomx_mc"], rows)

    law = analytic.lane_aware_delivery_law(params)
    print("lane-aware law atoms:",
          ", ".join(f"r={loc:g}: {mass:.4f}" for loc, mass in law.atoms))

    if args.duration > 0:
        m = engine.run(cfg, "optimal", args.duration, args.warmup, args.seed).metrics
        d = np.asarray(m.d2d_distances)
        short = f"{np.mean(d <= 20.0):.3f}" if d.size else "n/a"
        print(f"simulation: {d.size} D2D deliveries, short-range mass (r <= 20) {short} "
              f"(lane-aware law atoms {law.total_atom_mass:.3f})")

    if worst > args.threshold:
        raise ValidationFailure(
            f"oracle disagreement {worst:.5f} exceeds threshold {args.threshold}")
    print(f"validation passed (worst deviation {worst:.5f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _checked(kind, ok, what: str):
    """argparse type: parse with kind, then require a finite value with
    ok(value), so a bad flag is a usage error (exit 2)."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


_POSITIVE_INT = _checked(int, lambda x: x > 0, "> 0")
_NONNEGATIVE_INT = _checked(int, lambda x: x >= 0, ">= 0")
_POSITIVE = _checked(float, lambda x: x > 0, "> 0")
_NONNEGATIVE = _checked(float, lambda x: x >= 0, ">= 0")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="d2doff",
                                description="D2D offloading simulator and "
                                            "analytic toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, duration=600.0, duration_type=_POSITIVE, seeded=True):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", default="out", help="output directory")
        if seeded:  # a sweep derives each point's seeds from its value
            sp.add_argument("--seed", type=_NONNEGATIVE_INT, default=12345)
        sp.add_argument("--duration", type=duration_type, default=duration,
                        help="measured seconds per run")
        sp.add_argument("--warmup", type=_NONNEGATIVE, default=600.0)

    sp = sub.add_parser("simulate", help="run replicated simulations")
    common(sp)
    sp.add_argument("--policy", default="optimal", choices=list(POLICIES))
    sp.add_argument("--replications", type=_POSITIVE_INT, default=3)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="one-parameter sweep over policies")
    common(sp, seeded=False)
    sp.add_argument("--spec", required=True, help="sweep spec JSON")
    sp.add_argument("--replications", type=_POSITIVE_INT, default=3)
    sp.add_argument("--workers", type=_POSITIVE_INT, help="default: the usable cores")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("analytic", help="tabulate analytic laws and energies")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_analytic)

    sp = sub.add_parser("validate", help="analytic vs Monte-Carlo oracle")
    # --duration 0 skips the short simulation
    common(sp, duration=120.0, duration_type=_NONNEGATIVE)
    sp.add_argument("--samples", type=_POSITIVE_INT, default=200_000)
    sp.add_argument("--threshold", type=_NONNEGATIVE, default=0.01)
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 on --help
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
