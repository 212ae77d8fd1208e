"""Smoke test of ``tools/same_seed.py``, the same-seed comparison script."""

import importlib.util
import os
import re

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "same_seed.py")


@pytest.fixture(scope="module")
def same_seed():
    spec = importlib.util.spec_from_file_location("same_seed", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_set_has_36_runs(same_seed):
    keys = [run[0] for run in same_seed.runs(quick=False)]
    assert len(keys) == len(set(keys)) == 36


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
