"""Run one d2doff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corridor --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  ``--trace 0`` prints the end-to-end metrics of an untraced
session.  ``--trace 1`` runs the session untraced and then traced, and
prints the per-layer metrics of the traced one with the tracing
overhead.  ``--holdout-seed N`` replaces ``--seed N`` with inputs from a
separate seed stream, for confirming a claim on seeds never used while
writing it.

Every line but the last is for people: the run manifest, one line per
metric and any failed check.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
manifest, metrics and failures are also written to ``perfbench/out/``,
and a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3
EXIT_NO_PACKAGE = 2


class PackageMissing(RuntimeError):
    pass


def use_checkout_package() -> None:
    """Import d2doff from this checkout's src/ and nowhere else."""
    pkg = os.path.join(SRC, "d2doff")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise PackageMissing(f"no d2doff package under {SRC}")
    sys.path.insert(0, SRC)
    import d2doff
    if os.path.dirname(os.path.abspath(d2doff.__file__)) != pkg:
        raise PackageMissing(f"d2doff was imported from {d2doff.__file__}, not {pkg}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["corridor", "dense", "analytic"])
    seeds = p.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--holdout-seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up and report readiness "
                        "(used to time setup_s in a fresh interpreter)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    args.holdout = args.holdout_seed is not None
    if args.holdout:
        args.seed = args.holdout_seed
    return args


# ---------------------------------------------------------------------------
# set-up time and manifest
# ---------------------------------------------------------------------------

def measure_setup(args) -> float:
    """Median over fresh interpreters of the time from start to the end
    of set-up (imports, engines with init_stationary, AnalyticParams),
    scaled to the nominal pace.  The probe reports its CLOCK_MONOTONIC
    reading, which all processes of the machine share, and then times
    the pace loop."""
    import workloads
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.holdout:
        cmd[-2] = "--holdout-seed"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        word, stamp, pace = (out.split() + ["", "", ""])[:3]
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        times.append((float(stamp) - t0) * workloads.PACE_NOMINAL_S / float(pace))
    return statistics.median(times)


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, wl, plan) -> dict:
    import numpy
    import scipy
    from d2doff import kernels
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_stream": "holdout" if args.holdout else "development",
        "seconds": args.seconds,
        "trace": args.trace,
        "engines_per_policy": wl.engines,
        "ticks_per_engine": plan.ticks,
        "chunk_ticks": plan.chunk,
        "settle_tick": plan.settle_tick,
        "analytic_dr": wl.distance_step,
        "analytic_reps": plan.analytic_reps,
        "oracle_reps": plan.oracle_reps,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        # recorded as found; the benchmark does not set them
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_kernels_in_use": kernels.HAVE_NUMBA,
    }


def unit(name: str) -> str:
    head, _, last = name.rpartition(".")
    if last in ("optimal", "benchmark", "cellular"):
        name = head
    if name.startswith("sim_rate"):
        return "s/s"
    if name == "peak_rss_mb":
        return "MB"
    if ".tick_ms." in name:
        return "ms"
    if name.endswith("_s") or name.startswith("self_s."):
        return "s"
    if "_ratio" in name or name.endswith("_share") or name.startswith("trace.overhead"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# untraced and traced runs
# ---------------------------------------------------------------------------

def run_untraced(args, wl) -> tuple[dict, dict, int]:
    import workloads
    setup_s = measure_setup(args)
    session = workloads.setup(wl, args.seed, args.holdout)
    res = workloads.run(session, args.seconds)
    metrics = res.end_to_end(wl.engines, session.cfg.scenario.control_interval)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, res.failures, res.attempted


def run_traced(args, wl) -> tuple[dict, dict, int]:
    import checks
    import tracer as tr
    import workloads

    session = workloads.setup(wl, args.seed, args.holdout)
    plain = workloads.run(session, args.seconds)
    del session
    trace = tr.Tracer()
    with tr.Instrumentation(trace):
        session = workloads.setup(wl, args.seed, args.holdout, tracer=trace)
        traced = workloads.run(session, args.seconds, tracer=trace)
    table = tr.SpanTable(trace)
    plan = traced.plan
    metrics = tr.layer_metrics(trace, table, workloads.POLICIES,
                               plan.analytic_reps, plan.oracle_reps)
    T = session.cfg.scenario.control_interval
    plain_e2e = plain.end_to_end(wl.engines, T)
    traced_e2e = traced.end_to_end(wl.engines, T)
    for policy in workloads.POLICIES:
        key = f"sim_rate.{policy}"
        metrics[f"trace.overhead.{policy}"] = plain_e2e[key] / traced_e2e[key] - 1.0
    for step in ("analytic", "oracle"):
        metrics[f"trace.overhead.{step}"] = (traced_e2e[f"{step}_s"]
                                             / plain_e2e[f"{step}_s"] - 1.0)

    failures = {f"untraced {k}": v for k, v in plain.failures.items()}
    failures.update({f"traced {k}": v for k, v in traced.failures.items()})
    failures["determinism"] = checks.check_determinism(plain.records, traced.records)
    for policy in workloads.POLICIES:
        recs = [rec for name, rec in traced.records.items() if name.startswith(policy + "#")]
        failures["determinism"] += checks.check_counts(
            policy, recs, tr.policy_counters(trace, table, policy))
    failures["layer sums"] = tr.layer_sum_failures(table, workloads.POLICIES)
    os.makedirs(OUT, exist_ok=True)
    trace.save(os.path.join(OUT, f"{args.workload}-spans.npz"))
    return metrics, failures, len(failures)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_package()
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workloads.setup(wl, args.seed, args.holdout)
        ready = time.monotonic()
        pace = statistics.median(workloads.pace() for _ in range(3))
        print(f"ready {ready!r} {pace!r}", flush=True)
        return 0

    info = manifest(args, wl, workloads.make_plan(wl, workloads.make_config(wl), args.seconds))
    print("manifest " + json.dumps(info, sort_keys=True), flush=True)
    run_mode = run_traced if args.trace else run_untraced
    metrics, failures, attempted = run_mode(args, wl)
    failed = [name for name, msgs in failures.items() if msgs]
    for name in failed:
        for msg in failures[name]:
            print(f"FAILED {name}: {msg}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {unit(name)}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"manifest": info, "failures": failures, **result}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
