"""Smoke test of ``tools/same_seed.py``, the same-seed comparison script."""

import importlib.util
import os
import re
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "same_seed.py")


@pytest.fixture(scope="module")
def same_seed():
    spec = importlib.util.spec_from_file_location("same_seed", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_set_has_36_runs(same_seed):
    keys = [run[0] for run in same_seed.runs(quick=False)]
    assert len(keys) == len(set(keys)) == 36


def test_summary_groups_pair_the_seeds_of_each_rate_and_policy(same_seed):
    keys = {run[0] for run in same_seed.runs(quick=False)}
    groups = same_seed.summary_groups()
    assert len(groups) == len({key for key, _ in groups}) == 9
    for key, runs in groups:
        assert key.startswith("summary lam=") and key.endswith(" seeds=1,2")
        assert len(runs) == 2 and set(runs) <= keys


def test_summary_line(same_seed):
    # the line's format, from two runs of --quick length
    _, cfg, policy, _, duration, warmup = same_seed.runs(quick=True)[0]
    runs = [same_seed.engine.run(cfg, policy, duration, warmup, seed).metrics
            for seed in (1, 2)]
    line = same_seed.summary_fingerprint(runs)
    assert re.fullmatch(r"sha256=[0-9a-f]{64}", line)
    assert same_seed.summary_fingerprint(runs) == line
    # other runs give another line
    assert same_seed.summary_fingerprint(runs[:1]) != line


def test_quick_prints_one_stable_line_per_run(same_seed, capsys):
    assert same_seed.main(["--quick"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert len(first) == 3
    for line, policy in zip(first, same_seed.POLICIES):
        assert re.fullmatch(rf"lam=1 {policy} seed=1 quick: (\w+=\d+ ){{7}}"
                            r"sha256=[0-9a-f]{64}", line)
    assert len({line.rsplit("=", 1)[1] for line in first}) == 3
    assert same_seed.main(["--quick"]) == 0
    assert capsys.readouterr().out.splitlines() == first


def test_analytic_lines(same_seed):
    configs = same_seed.analytic_configs()
    assert [key for key, _ in configs] == [
        "analytic lam=1/3 dr=0.1", "analytic lam=1 dr=0.1", "analytic lam=2/3 dr=0.05"]
    key, cfg = configs[0]
    line = same_seed.analytic_fingerprint(cfg)
    number = r"\d\.\d+(e-\d+)?"
    assert re.fullmatch(rf"sha256=[0-9a-f]{{64}} surface={number}( {number}){{11}}", line)
    assert same_seed.analytic_fingerprint(cfg) == line


def test_command_lines(same_seed):
    assert [" ".join(argv) for argv in same_seed.COMMANDS] == [
        "analytic", "validate --duration 0"]
    line = same_seed.command_fingerprint(["analytic"])
    assert re.fullmatch(r"sha256=[0-9a-f]{64}", line)
    assert same_seed.command_fingerprint(["analytic"]) == line
    # another command, or a usage error, gives another line
    assert same_seed.command_fingerprint(["analytic", "--bogus"]) != line


def test_differing_pairs(same_seed):
    parent = ["a: x=1", "b: x=2", "c: x=3"]
    assert same_seed.differing_pairs(parent, list(parent)) == []
    assert same_seed.differing_pairs(parent, ["a: x=1", "b: x=5", "c: x=3"]) == [
        ("b: x=2", "b: x=5")]
    # a line one side lacks pairs with None
    assert same_seed.differing_pairs(parent, parent[:2]) == [("c: x=3", None)]
    assert same_seed.differing_pairs([], ["a: x=1"]) == [(None, "a: x=1")]


@pytest.mark.skipif(shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")),
                    reason="needs git and a git checkout")
def test_quick_against_head(same_seed, capsys):
    # the checkout against its own last commit: the exit code says whether
    # any line differs, and each differing line comes as a (-, +) pair
    code = same_seed.main(["--quick", "--against", "HEAD"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == (1 if lines else 0)
    assert len(lines) % 2 == 0
    assert all(a.startswith("- ") and b.startswith("+ ") for a, b in zip(lines[::2], lines[1::2]))
    assert err.strip() == f"{3 - len(lines) // 2} of 3 lines identical"
