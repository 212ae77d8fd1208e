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
import json
import math
import os
import sys
import typing
import zlib

import numpy as np

from . import analytic, engine, kernels
from .config import (Config, ConfigError, PhyConfig, ScenarioConfig, _typed,
                     load_config)
from .policies import POLICIES
from .analytic import AnalyticParams

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


class ValidationFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# CSV plumbing (atomic writes, round-trip reader)
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


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _load(path: str | None) -> Config:
    if path is None:
        return Config()
    if not os.path.exists(path):
        raise ConfigError(f"config not found: {path}")
    return load_config(path)


def _outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


SWEEPABLE = {f.name: "scenario" for f in dataclasses.fields(ScenarioConfig)}
SWEEPABLE.update({f.name: "phy" for f in dataclasses.fields(PhyConfig)
                  if f.name not in SWEEPABLE})


def _with_param(cfg: Config, values: dict) -> Config:
    """cfg with scenario or PHY fields set, each value type-checked as in
    a config file; the result is validated."""
    sections = {}
    for name, value in values.items():
        section = SWEEPABLE.get(name)
        if section is None:
            raise ConfigError(f"'{name}' is not a scenario or PHY parameter")
        sub = sections.get(section, getattr(cfg, section))
        value = _typed(value, typing.get_type_hints(type(sub))[name],
                       f"{section}.{name}")
        sections[section] = dataclasses.replace(sub, **{name: value})
    cfg = dataclasses.replace(cfg, **sections)
    cfg.validate()
    return cfg


def point_seed(parameter: str, value) -> int:
    """Per-point seed derived from the parameter value, so sweep output
    does not depend on the order of the value list."""
    return zlib.crc32(f"{parameter}={value!r}".encode()) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load(args.config)
    out = _outdir(args.out)
    seed = args.seed if args.seed is not None else cfg.scenario.rng_seed
    summary = engine.replicate(cfg, args.policy, args.duration, args.warmup,
                               args.replications, seed)
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

@dataclasses.dataclass
class SweepSpec:
    parameter: str
    values: list
    overrides: dict
    policies: list[str]

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        if not os.path.exists(path):
            raise ConfigError(f"sweep spec not found: {path}")
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
        if not isinstance(raw, dict):
            raise ConfigError("sweep spec must be an object")
        unknown = set(raw) - {"parameter", "values", "overrides", "policies"}
        if unknown:
            raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
        spec = cls(parameter=raw.get("parameter", ""),
                   values=raw.get("values", []),
                   overrides=raw.get("overrides", {}),
                   policies=raw.get("policies", ["optimal"]))
        if not isinstance(spec.parameter, str) or spec.parameter not in SWEEPABLE:
            raise ConfigError(f"'{spec.parameter}' is not a sweepable parameter")
        if not isinstance(spec.values, list) or not spec.values:
            raise ConfigError("sweep value list must be non-empty")
        if not isinstance(spec.overrides, dict):
            raise ConfigError("sweep overrides must be an object")
        if not isinstance(spec.policies, list) or not spec.policies:
            raise ConfigError("need a list of at least one policy")
        unknown = [p for p in spec.policies
                   if not isinstance(p, str) or p not in POLICIES]
        if unknown:
            raise ConfigError(f"unknown policies {unknown}; "
                              f"choose from {sorted(POLICIES)}")
        return spec


REDUCTION_PAIRS = [
    # (metric, baseline policy): reduction of every other policy vs baseline
    ("energy_total_per_delivery", "cellular"),
    ("mean_occupancy", "cellular"),
    ("energy_d2d_per_delivery", "benchmark"),
]


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_file(args.spec)
    cfg = _load(args.config)
    points = [(v, _with_param(cfg, {**spec.overrides, spec.parameter: v}))
              for v in spec.values]
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
          f"policies {spec.policies}, output in {out}")
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

    if not args.skip_surface:
        caps, timeouts = SURFACE_CAPS, SURFACE_TIMEOUTS
        ranges = [(cfg.scenario.speed_min, cfg.scenario.speed_max)]
        surf = analytic.short_range_probability_surface(
            params, timeouts, ranges, caps, dr=0.5)
        rows = [[caps[i], timeouts[j], ranges[k][0], ranges[k][1],
                 float(surf[i, j, k])]
                for i in range(len(caps)) for j in range(len(timeouts))
                for k in range(len(ranges))]
        write_csv(os.path.join(out, "zero_distance_surface.csv"),
                  ["r_max", "content_timeout", "speed_min", "speed_max",
                   "probability"], rows)
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
    rel = params.speed_law.relative(v_a)
    v = rel.sample(rng, n_samples)
    phi = analytic.sample_time_limit(rng, n_samples, params.content_timeout,
                                     params.sharing_timeout)
    samples = kernels.min_distance_samples(
        np.full(n_samples, float(x0)), v, phi)
    x = abs(x0)
    at_zero = samples <= 1e-12
    at_x = samples >= x - 1e-12
    return {
        "x0": x0, "v_a": v_a, "ks": law.ks_distance(samples),
        "atom0_analytic": law.atom_mass(0.0),
        "atom0_mc": float(np.mean(at_zero)),
        "atomx_analytic": law.atom_mass(x),
        "atomx_mc": float(np.mean(at_x)),
    }


DEFAULT_TUPLES_X0 = (30.0, 100.0, 250.0, -80.0, -200.0)


def cmd_validate(args) -> int:
    cfg = _load(args.config)
    out = _outdir(args.out)
    params = AnalyticParams.from_config(cfg, with_energy=False)
    seed = args.seed if args.seed is not None else cfg.scenario.rng_seed
    rng = np.random.default_rng(seed)
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
        m = engine.run(cfg, "optimal", args.duration, args.warmup, seed).metrics
        d = np.asarray(m.d2d_distances)
        if d.size:
            print(f"simulation: {d.size} D2D deliveries, "
                  f"short-range mass (r <= 20) {np.mean(d <= 20.0):.3f} "
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

    def common(sp, duration=600.0, duration_type=_POSITIVE):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=_NONNEGATIVE_INT, default=None)
        sp.add_argument("--duration", type=duration_type, default=duration,
                        help="measured seconds per run")
        sp.add_argument("--warmup", type=_NONNEGATIVE, default=600.0)

    sp = sub.add_parser("simulate", help="run replicated simulations")
    common(sp)
    sp.add_argument("--policy", default="optimal",
                    choices=["optimal", "benchmark", "cellular"])
    sp.add_argument("--replications", type=_POSITIVE_INT, default=3)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="one-parameter sweep over policies")
    common(sp)
    sp.add_argument("--spec", required=True, help="sweep spec JSON")
    sp.add_argument("--replications", type=_POSITIVE_INT, default=3)
    sp.add_argument("--workers", type=_POSITIVE_INT, help="default: the usable cores")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("analytic", help="tabulate analytic laws and energies")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", default="out")
    sp.add_argument("--skip-surface", action="store_true")
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
