"""``tools/ab.py``, the parent-against-change benchmark campaign, run
against a stub ``perfbench/run.py`` in a temporary git repository: no
real benchmark starts."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab.py")

# a stand-in for perfbench/run.py: it logs its tree's VALUE and its
# arguments, then prints a human line and the result JSON, as run.py does
STUB = '''import json, sys
VALUE = {value}
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args.get("--seed", args.get("--holdout-seed")))
with open({log!r}, "a") as fh:
    fh.write(json.dumps([VALUE, sys.argv[1:]]) + "\\n")
print("metric analytic_s", VALUE + seed / 100.0)
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
    "analytic_s": {{"value": VALUE + seed / 100.0, "unit": "s"}},
    "sim_rate.optimal": {{"value": 10.0 / VALUE, "unit": "s/s"}}}}}}))
'''
BENCHMARK = {"workloads": [{"name": "analytic"}], "run_seconds": 3,
             "end_to_end": [{"name": "analytic_s", "better": "lower"},
                            {"name": "sim_rate.optimal", "better": "higher"}]}


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(ab):
    assert ab.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert ab.parse_seeds("4") == [4]
    assert ab.parse_seeds("") == []


def test_summary_counts_pairs_by_direction(ab):
    def line(side, seed, value):
        return {"side": side, "seed": seed, "result": {"metrics": {
            "a": {"value": value}, "b": {"value": value}, "c": {"value": value}}}}
    lines = [line("parent", s, 10.0 + s) for s in (1, 2, 3, 4)]
    lines += [line("change", s, v) for s, v in ((1, 5.0), (2, 20.0), (3, 6.0), (4, 7.0))]
    rows = ab.summary(lines, {"a": "lower", "b": "higher"})
    assert rows[0].startswith("a: 12.5 [11.75, 13.25] -> 6.5 (-48.0 %), won 3 of 4")
    assert "won 1 of 4" in rows[1]
    assert "won ? of 4" in rows[2]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_campaign_against_a_stub(tmp_path):
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "tools").mkdir()
    shutil.copy(TOOL, repo / "tools" / "ab.py")
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    revs = []
    for value in (2.0, 1.0):
        (repo / "perfbench" / "run.py").write_text(STUB.format(value=value, log=str(log)))
        git("add", "-A")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", str(value))
        revs.append(git("rev-parse", "HEAD"))

    def ab_run(*args):
        proc = subprocess.run([sys.executable, str(repo / "tools" / "ab.py"), *args],
                              cwd=repo, capture_output=True, text=True)
        runs = [json.loads(x) for x in log.read_text().splitlines()] if log.exists() else []
        log.unlink(missing_ok=True)
        return proc, runs

    proc, runs = ab_run(revs[0], revs[1], "--workload", "analytic", "--seeds", "1-4",
                        "--holdout", "1-2")
    assert proc.returncode == 0, proc.stderr
    # the parent (value 2) first on odd seeds, the change first on even
    order = [(value, argv[argv.index("--seed" if i < 8 else "--holdout-seed") + 1])
             for i, (value, argv) in enumerate(runs)]
    assert order == [(2.0, "1"), (1.0, "1"), (1.0, "2"), (2.0, "2"), (2.0, "3"), (1.0, "3"),
                     (1.0, "4"), (2.0, "4"), (2.0, "1"), (1.0, "1"), (1.0, "2"), (2.0, "2")]
    assert all(argv[argv.index("--seconds") + 1] == "3" and argv[-2:] == ["--trace", "0"]
               for _, argv in runs)
    lines = [json.loads(x) for x in (repo / "BENCH_analytic.json").read_text().splitlines()]
    assert [list(x) for x in lines] == [
        ["rev", "side", "workload", "seed", "seed_stream", "trace", "result"]] * 12
    sides = {"parent": (revs[0], 2.0), "change": (revs[1], 1.0)}
    for x, (value, _) in zip(lines, runs):
        rev, want = sides[x["side"]]
        assert (x["rev"], value) == (rev, want)
        assert x["result"]["metrics"]["analytic_s"]["value"] == want + x["seed"] / 100.0
        assert x["workload"] == "analytic" and x["trace"] == 0
    assert [x["seed_stream"] for x in lines] == ["development"] * 8 + ["holdout"] * 4
    # the change halves analytic_s and doubles sim_rate: every pair won
    assert "analytic_s: 2.025 [2.0175, 2.0325] -> 1.025 (-49.4 %), won 4 of 4" in proc.stdout
    assert "sim_rate.optimal: 5 [5, 5] -> 10 (+100.0 %), won 4 of 4" in proc.stdout
    assert "won 2 of 2" in proc.stdout.split("holdout")[1]

    # A/A: two copies of the parent, traced, appended after the first campaign
    proc, runs = ab_run(revs[0], "--aa", "--workload", "analytic", "--seeds", "2", "--trace")
    assert proc.returncode == 0, proc.stderr
    assert [value for value, _ in runs] == [2.0, 2.0]
    assert all(argv[-2:] == ["--trace", "1"] for _, argv in runs)
    lines = [json.loads(x) for x in (repo / "BENCH_analytic.json").read_text().splitlines()]
    assert [(x["rev"], x["side"], x["trace"]) for x in lines[12:]] == [
        (revs[0], "copy", 1), (revs[0], "parent", 1)]
    assert "parent -> copy" in proc.stdout

    # CHANGE and --aa together, or neither, exit 2; so does an unknown revision
    assert ab_run(revs[0], revs[1], "--aa", "--workload", "analytic")[0].returncode == 2
    assert ab_run(revs[0], "--workload", "analytic")[0].returncode == 2
    assert ab_run(revs[0], "nosuchrev", "--workload", "analytic")[0].returncode == 2
