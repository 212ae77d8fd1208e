"""Benchmark two revisions against each other, one run at a time.

    python3 tools/ab.py PARENT CHANGE --workload W [--seeds 1-10]
                        [--holdout 1-3] [--trace]
    python3 tools/ab.py PARENT --aa --workload W [--seeds 1-10]

Run it from a checkout.  It extracts ``git archive`` copies of both
revisions into a temporary directory and runs ``perfbench/run.py
--workload W --seed s --seconds S --trace 0`` (``--trace 1`` with
``--trace``; S is ``run_seconds`` of this checkout's ``BENCHMARK.json``)
in each copy, one run at a time: on odd seeds PARENT first, on even
seeds CHANGE first, so that a drift of the machine's speed during the
campaign falls on both sides alike.  ``--holdout`` then runs
the same pairs on perfbench's held-out seed stream (``--holdout-seed``).
``--aa`` runs PARENT against a second copy of itself (side ``copy``), to
read how far two copies of one tree spread.

Each run's result, the last line ``perfbench/run.py`` prints, is
appended to this checkout's ``BENCH_<W>.json`` as soon as it ends, in
the files' line shape: rev, side, workload, seed, seed stream, trace and
result.  At the end it prints, per seed stream and metric, the parent's
median and quartiles, the other side's median, the relative change and
the pairs that side won, by the metric's direction in ``BENCHMARK.json``
(``?`` for a metric it does not list).  It exits 1 when a run fails or
reports ``correct: false``, after appending the runs that ended.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list of numbers and ranges: ``1-3,7`` is 1, 2, 3, 7."""
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def pair_order(seed: int, sides: tuple) -> tuple:
    """The two sides in run order: the parent first on odd seeds."""
    return sides if seed % 2 else sides[::-1]


def summary(lines: list[dict], better: dict) -> list[str]:
    """One row per metric of the runs ``lines`` of one seed stream: the
    parent's median [quartiles], the other side's median, the change and
    the pairs that side won."""
    runs = {}
    for line in lines:
        runs.setdefault(line["side"] == "parent", {})[line["seed"]] = line["result"]["metrics"]
    parent, other = runs.get(True, {}), runs.get(False, {})
    seeds = sorted(set(parent) & set(other))
    rows = []
    for name in sorted(set().union(*(parent[s].keys() & other[s].keys() for s in seeds))):
        pairs = [(parent[s][name]["value"], other[s][name]["value"]) for s in seeds
                 if name in parent[s] and name in other[s]]
        a, b = np.array(pairs).T
        q1, med, q3 = np.percentile(a, [25, 50, 75])
        change = np.median(b)
        direction = better.get(name)
        won = "?" if direction is None else str(int(np.sum(b > a if direction == "higher"
                                                           else b < a)))
        rel = f"{100.0 * (change / med - 1.0):+.1f} %" if med else "n/a"
        rows.append(f"{name}: {med:.6g} [{q1:.6g}, {q3:.6g}] -> {change:.6g} ({rel}), "
                    f"won {won} of {len(pairs)}, gap {abs(change - med):.3g} "
                    f"against IQR {q3 - q1:.3g}")
    return rows


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def extract(rev: str, into: str) -> None:
    """A ``git archive`` copy of ``rev`` at ``into``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def run_one(tree: str, args, seconds, seed: int, holdout: bool) -> dict:
    """The result of one benchmark run in ``tree``: its last stdout line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--holdout-seed" if holdout else "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if args.trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    out = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not out:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(out[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", metavar="PARENT")
    p.add_argument("change", metavar="CHANGE", nargs="?")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--holdout", type=parse_seeds, default=[])
    p.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    p.add_argument("--aa", action="store_true",
                   help="run PARENT against a second copy of itself; takes no CHANGE")
    args = p.parse_args(argv)
    if args.aa == (args.change is not None):
        p.error("give CHANGE, or --aa and no CHANGE")
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}
    try:
        revs = [_git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
                for rev in (args.parent, args.change or args.parent)]
    except subprocess.CalledProcessError as err:
        sys.stderr.write(err.stderr.decode())
        return 2
    sides = (("parent", revs[0]), ("copy" if args.aa else "change", revs[1]))
    out_path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    lines, code = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, rev in sides:
            trees[side] = os.path.join(tmp, side)
            extract(rev, trees[side])
        try:
            for holdout, seeds in ((False, args.seeds), (True, args.holdout)):
                for seed in seeds:
                    for side, rev in pair_order(seed, sides):
                        result = run_one(trees[side], args, bench["run_seconds"], seed, holdout)
                        line = {"rev": rev, "side": side, "workload": args.workload,
                                "seed": seed, "seed_stream": "holdout" if holdout
                                else "development", "trace": int(args.trace),
                                "result": result}
                        with open(out_path, "a") as fh:
                            fh.write(json.dumps(line) + "\n")
                        lines.append(line)
                        if not result.get("correct") or result.get("failed"):
                            print(f"seed {seed} {side}: correct {result.get('correct')}, "
                                  f"failed {result.get('failed')}", file=sys.stderr)
                            code = 1
        except RuntimeError as err:
            print(err, file=sys.stderr)
            code = 1
    for stream in ("development", "holdout"):
        rows = summary([x for x in lines if x["seed_stream"] == stream], better)
        if rows:
            print(f"{args.workload} {stream}, {sides[0][0]} -> {sides[1][0]}:")
            print("\n".join("  " + row for row in rows))
    return code


if __name__ == "__main__":
    sys.exit(main())
