"""Every function of ``src/d2doff`` runs under one of the four commands.

Run as a script, this file is the probe: it sets a profile hook, imports
``d2doff.cli`` (so calls made at import time count), runs ``simulate``,
``sweep``, ``analytic`` and ``validate`` once each with small inputs, and
writes the (file, first line, name) of every code object of the package
that was called.  The test runs the probe in a child process and maps
those to the package's ``def``s (a decorated function starts at its first
decorator).  What never runs must be exactly ``UNREACHED``: code that only
perfbench or a test reads, each with what it waits on.

    python3 tests/test_reach.py OUTDIR
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "d2doff"

# the longitudinal chain, which can go once perfbench stops calling it
_CHAIN = "perfbench's oracle step calls the chain and its tracer wraps it"
UNREACHED = {
    "analytic.py:unconditional_effective_distance_law": _CHAIN,
    "analytic.py:lane_offset_transform": _CHAIN,
    "analytic.py:lane_offset_transform.add_atom": _CHAIN,
    "analytic.py:_base_laws": _CHAIN,
    "analytic.py:_marginal_base": _CHAIN,
    "analytic.py:_kinks": _CHAIN,
    "analytic.py:_position_marginal": _CHAIN,
    "analytic.py:mean_provider_count": _CHAIN,
    "kernels.py:poisson_min_mixture": _CHAIN,
    "phy.py:tx_power_for_link": "perfbench's tracer wraps it",
    "scenario.py:ContentRequest.served": "perfbench's checks count open requests with it",
    "mixdist.py:MixedDistribution.total_mass": "perfbench's checks read a law's mass",
    "mixdist.py:MixedDistribution.continuous_mass": "perfbench's checks read a law's mass",
    "mixdist.py:MixedDistribution.cdf": "criterion 4's reference (tests/test_acceptance.py)",
}

# functions that run only on some branches, and what the probe does to
# reach them
BRANCHES = {
    "phy.py:link_information": "a HARQ retry (2 dB link margins)",
    "engine.py:sample_distance_pdf": "a D2D delivery",
    "engine.py:_t_quantile_975": "two replications",
    "config.py:load_config": "--config",
}

PROBE_CONFIG = {"scenario": {"vehicle_arrival_rate": 1.0},
                "phy": {"link_margin_i2d_db": 2.0, "link_margin_d2d_db": 2.0}}
SWEEP_SPEC = {"parameter": "vehicle_arrival_rate", "values": [1.0],
              "policies": ["optimal", "benchmark", "cellular"]}


def probe(outdir: str) -> None:
    """Run the four commands under a profile hook; write called.json."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    if hasattr(os, "sched_setaffinity"):  # one usable core: simulate starts no pool
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for name, data in (("config.json", PROBE_CONFIG), ("spec.json", SWEEP_SPEC)):
        with open(os.path.join(outdir, name), "w") as fh:
            json.dump(data, fh)
    sys.path.insert(0, str(SRC.parent))
    sys.setprofile(hook)
    from d2doff import cli
    assert pathlib.Path(cli.__file__).resolve().parent == SRC, cli.__file__
    out = os.path.join(outdir, "out")
    commands = [
        ["simulate", "--config", os.path.join(outdir, "config.json"), "--replications", "2",
         "--duration", "20", "--warmup", "10"],
        ["sweep", "--spec", os.path.join(outdir, "spec.json"), "--workers", "1",
         "--replications", "1", "--duration", "10", "--warmup", "10"],
        ["analytic"],
        ["validate", "--duration", "10", "--warmup", "10", "--samples", "1000",
         "--threshold", "1"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", out])
        assert code == 0, (argv, code)
    sys.setprofile(None)
    mine = sorted((pathlib.Path(f).name, line, name) for f, line, name in called
                  if pathlib.Path(f).resolve().parent == SRC)
    with open(os.path.join(outdir, "called.json"), "w") as fh:
        json.dump(mine, fh)


def package_defs() -> dict:
    """{(file name, first line, name): "file:qualified name"} of every
    ``def`` in the package, methods and nested functions included."""
    out = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out[(path.name, first, child.name)] = f"{path.name}:{prefix}{child.name}"
                visit(path, child, f"{prefix}{child.name}.")
            else:
                visit(path, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return out


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The qualified names of the package's functions that the probe ran."""
    outdir = tmp_path_factory.mktemp("reach")
    proc = subprocess.run([sys.executable, __file__, str(outdir)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    called = {tuple(key) for key in json.loads((outdir / "called.json").read_text())}
    return {name for key, name in package_defs().items() if key in called}


def test_every_function_runs_under_a_command(reached):
    never = set(package_defs().values()) - reached
    assert sorted(never) == sorted(UNREACHED)


def test_branch_only_callers_run(reached):
    assert [name for name in BRANCHES if name not in reached] == []


if __name__ == "__main__":
    probe(sys.argv[1])
