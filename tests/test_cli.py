import csv
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2doff import analytic, cli, engine
from d2doff.analytic import AnalyticParams
from d2doff.cli import main, point_seed, write_csv
from d2doff.config import Config, ConfigError, load_config

from test_config import BAD_VALUES, UNRUNNABLE, json_values


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    """(header, rows) of a CSV the CLI wrote."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


class TestCsvPlumbing:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1, 2.5], ["x", np.float64(0.25)]])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "2.5"], ["x", "0.25"]]
        assert float(rows[1][1]) == 0.25

    def test_numpy_scalars_formatted(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["v"], [[np.float64(1.5)], [np.int64(7)]])
        _, rows = read_csv(path)
        assert rows == [["1.5"], ["7"]]  # no numpy reprs leak into the file

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["v"], [[1]])
        assert os.listdir(tmp_path) == ["t.csv"]


class TestPointSeed:
    def test_deterministic_and_distinct(self):
        assert point_seed("content_timeout", 20.0) == \
            point_seed("content_timeout", 20.0)
        assert point_seed("content_timeout", 20.0) != \
            point_seed("content_timeout", 60.0)
        assert point_seed("content_timeout", 20.0) != \
            point_seed("sharing_timeout", 20.0)

    def test_fits_numpy_seed_range(self):
        assert 0 <= point_seed("speed_max", 24.0) < 2 ** 31


class TestSimulate:
    def test_writes_metrics(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli("simulate", "--out", out, "--duration", "30",
                       "--warmup", "30", "--replications", "2", "--seed", "3")
        assert code == 0
        header, rows = read_csv(os.path.join(out, "metrics.csv"))
        assert header == ["metric", "mean", "ci_low", "ci_high"]
        names = {r[0] for r in rows}
        assert {"offloading_efficiency", "mean_occupancy", "failed_attempts",
                "pruned_links"} <= names
        assert os.path.exists(os.path.join(out, "distance_histogram.csv"))
        assert "offloading_efficiency" in capsys.readouterr().out

    def test_reports_pruned_links_under_load(self, tmp_path):
        # at 1.5 veh/s every seed tried prunes thousands of links; at 1 veh/s
        # some prune none
        cfg = tmp_path / "lam1.5.json"
        cfg.write_text(json.dumps({"scenario": {"vehicle_arrival_rate": 1.5}}))
        out = str(tmp_path / "o")
        code = run_cli("simulate", "--policy", "cellular", "--config", str(cfg),
                       "--out", out, "--duration", "30", "--warmup", "30",
                       "--replications", "1", "--seed", "7")
        assert code == 0
        _, rows = read_csv(os.path.join(out, "metrics.csv"))
        means = {r[0]: float(r[1]) for r in rows}
        assert means["pruned_links"] > 0
        assert means["failed_attempts"] > 0

    def test_missing_config_is_config_error(self, tmp_path):
        code = run_cli("simulate", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o"))
        assert code == 2

    def test_bad_config_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": {"speed_min": -1.0}}))
        code = run_cli("simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "o"), "--duration", "5",
                       "--warmup", "0")
        assert code == 2

    @pytest.mark.parametrize("text", BAD_VALUES)
    def test_mistyped_config_value_is_config_error(self, tmp_path, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code = run_cli("simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "o"), "--duration", "5",
                       "--warmup", "0")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--replications", "0"],
    ["simulate", "--duration", "-5"],
    ["simulate", "--duration", "nan"],
    ["simulate", "--warmup", "-5"],
    ["simulate", "--seed", "-1"],
    ["sweep", "--spec", "spec.json", "--workers", "0"],
    ["sweep", "--spec", "spec.json", "--replications", "-2"],
    ["validate", "--samples", "-1"],
    ["validate", "--duration", "-5"],
    ["simulate", "--config", "interval.json"],
])
def test_bad_flag_or_cross_field_is_config_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "interval.json").write_text(json.dumps(
        {"scenario": {"control_interval": 30.0, "content_timeout": 20.0}}))
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--replications", "1"],
    ["validate", "--samples", "200"],
])
def test_duration_shorter_than_a_control_interval_is_config_error(tmp_path, capsys, argv):
    # 600 warm-up ticks of 1 s, and round(600.4) = 600 ticks in all
    out = tmp_path / "o"
    assert run_cli(*argv, "--duration", "0.4", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("config error: a duration of 0.4 s ")
    assert not out.exists()  # rejected before any run


@pytest.mark.parametrize("argv", [
    ["simulate", "--config"],
    ["analytic", "--config"],
    ["validate", "--config"],
    ["sweep", "--spec"],
])
@pytest.mark.parametrize("name", ["a_directory", "latin1.json"])
def test_unreadable_config_or_spec_is_config_error(tmp_path, capsys, argv, name):
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"scenario": "é"}'.encode("latin-1"))
    assert run_cli(*argv, str(tmp_path / name), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--duration", "5", "--warmup", "0", "--replications", "1"],
    ["analytic"],
])
@pytest.mark.parametrize("data", UNRUNNABLE)
def test_unrunnable_config_is_config_error(tmp_path, argv, data):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data))
    assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("argv", [
    ["analytic"],
    ["validate", "--samples", "200", "--duration", "0"],
])
def test_single_speed_is_config_error_for_the_analytic_model(tmp_path, capsys, argv):
    # the simulator runs a single speed; the analytic laws need a range
    cfg = tmp_path / "one_speed.json"
    cfg.write_text(json.dumps({"scenario": {"speed_min": 12.0, "speed_max": 12.0}}))
    assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: the analytic model needs speed_min < speed_max"]


@pytest.mark.parametrize("argv", [
    ["analytic"],
    ["validate", "--samples", "200", "--duration", "0"],
])
def test_removed_analytic_key_is_config_error(tmp_path, capsys, argv):
    # no command read same_lane_probability; a config that sets it exits 2
    cfg = tmp_path / "removed.json"
    cfg.write_text(json.dumps({"analytic": {"same_lane_probability": 0.5}}))
    assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == \
        "config error: analytic: unknown key 'same_lane_probability'\n"


@pytest.mark.parametrize("model", ["gain_i2d", "gain_d2d"])
@pytest.mark.parametrize("argv", [
    ["analytic"],
    ["simulate", "--duration", "5", "--warmup", "0", "--replications", "1"],
])
def test_removed_ref_distance_key_is_config_error(tmp_path, capsys, argv, model):
    # the path loss PL0 is referenced at 1 m; a config that sets another
    # reference distance exits 2
    cfg = tmp_path / "ref.json"
    cfg.write_text(json.dumps({"phy": {model: {"ref_distance": 1.0}}}))
    assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == \
        f"config error: phy.{model}: unknown key 'ref_distance'\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--duration", "5", "--warmup", "0", "--replications", "1"],
    ["validate", "--samples", "200", "--duration", "0"],
])
def test_removed_seed_key_is_config_error(tmp_path, capsys, argv):
    # --seed is the one seed setting; a config that sets another exits 2
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"scenario": {"rng_seed": 5}}))
    assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == "config error: scenario: unknown key 'rng_seed'\n"


@pytest.mark.parametrize("argv,names", [
    (["simulate", "--duration", "5", "--warmup", "0", "--replications", "1"],
     ["metrics.csv", "distance_histogram.csv"]),
    (["validate", "--samples", "2000", "--threshold", "1.0", "--duration", "5",
      "--warmup", "5"],
     ["oracle_report.csv"]),
])
def test_default_seed_is_12345(tmp_path, capsys, argv, names):
    outs = [tmp_path / "default", tmp_path / "explicit"]
    printed = []
    for out, seed in zip(outs, ([], ["--seed", "12345"])):
        assert run_cli(*argv, *seed, "--out", str(out)) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_single_speed_simulates(tmp_path):
    cfg = tmp_path / "one_speed.json"
    cfg.write_text(json.dumps({"scenario": {"speed_min": 12.0, "speed_max": 12.0}}))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--duration", "10", "--warmup", "5", "--replications", "1") == 0


class TestSweep:
    def _spec(self, tmp_path, **kw):
        spec = {"parameter": "content_timeout", "values": [20.0, 40.0],
                "policies": ["optimal", "cellular"]}
        spec.update(kw)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    @staticmethod
    def _recorded_jobs(monkeypatch):
        """The jobs that engine.run_many is given, filled as it runs them."""
        run_many, jobs = engine.run_many, []

        def recording_run_many(js, workers):
            jobs.extend(js)
            return run_many(js, workers)

        monkeypatch.setattr(engine, "run_many", recording_run_many)
        return jobs

    def test_outputs_and_reductions(self, tmp_path):
        out = str(tmp_path / "o")
        code = run_cli("sweep", "--spec", self._spec(tmp_path), "--out", out,
                       "--duration", "20", "--warmup", "20",
                       "--replications", "1", "--workers", "1")
        assert code == 0
        per_metric = os.path.join(
            out, "content_timeout__mean_occupancy__optimal.csv")
        header, rows = read_csv(per_metric)
        assert header == ["content_timeout", "mean", "ci_low", "ci_high"]
        assert [r[0] for r in rows] == ["20.0", "40.0"]
        reduction = os.path.join(
            out, "content_timeout__mean_occupancy__optimal_vs_cellular.csv")
        header, rows = read_csv(reduction)
        assert header == ["content_timeout", "reduction_percent"]
        assert len(rows) == 2

    def test_total_energy_against_benchmark(self, tmp_path):
        out = str(tmp_path / "o")
        spec = self._spec(tmp_path, policies=["optimal", "benchmark"])
        assert run_cli("sweep", "--spec", spec, "--out", out, "--duration", "20",
                       "--warmup", "20", "--replications", "1", "--workers", "1") == 0
        for metric in ("energy_total_per_delivery", "energy_d2d_per_delivery"):
            header, rows = read_csv(os.path.join(
                out, f"content_timeout__{metric}__optimal_vs_benchmark.csv"))
            assert header == ["content_timeout", "reduction_percent"]
            assert [r[0] for r in rows] == ["20.0", "40.0"]
        assert not any("_vs_cellular" in name for name in os.listdir(out))

    def test_value_order_does_not_change_results(self, tmp_path):
        a_out, b_out = str(tmp_path / "a"), str(tmp_path / "b")
        a = self._spec(tmp_path, values=[20.0, 40.0], policies=["optimal"])
        run_cli("sweep", "--spec", a, "--out", a_out, "--duration", "20",
                "--warmup", "20", "--replications", "1", "--workers", "1")
        b = self._spec(tmp_path, values=[40.0, 20.0], policies=["optimal"])
        run_cli("sweep", "--spec", b, "--out", b_out, "--duration", "20",
                "--warmup", "20", "--replications", "1", "--workers", "1")
        fname = "content_timeout__mean_occupancy__optimal.csv"
        _, rows_a = read_csv(os.path.join(a_out, fname))
        _, rows_b = read_csv(os.path.join(b_out, fname))
        assert sorted(map(tuple, rows_a)) == sorted(map(tuple, rows_b))

    def test_worker_count_does_not_change_the_output(self, tmp_path):
        spec = self._spec(tmp_path)
        outs = [str(tmp_path / f"w{workers}") for workers in (1, 2)]
        for out, workers in zip(outs, ("1", "2")):
            assert run_cli("sweep", "--spec", spec, "--out", out, "--duration", "20",
                           "--warmup", "20", "--replications", "2",
                           "--workers", workers) == 0
        names = sorted(os.listdir(outs[0]))
        assert names and names == sorted(os.listdir(outs[1]))
        for name in names:
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name

    def test_nested_and_tuple_overrides_read_as_a_config_file(self, tmp_path, monkeypatch):
        overrides = {"gain_d2d": {"exp_near": 3.0}, "enb_positions": [0, 1500, 3000]}
        spec = self._spec(tmp_path, overrides=overrides, policies=["optimal"])
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"scenario": {"speed_max": 20.0}}))
        jobs = self._recorded_jobs(monkeypatch)
        assert run_cli("sweep", "--spec", spec, "--config", str(base),
                       "--out", str(tmp_path / "o"), "--duration", "5", "--warmup", "0",
                       "--replications", "1", "--workers", "1") == 0
        for (point_cfg, *_), value in zip(jobs, [20.0, 40.0], strict=True):
            same = tmp_path / f"same{value:g}.json"
            same.write_text(json.dumps({
                "scenario": {"speed_max": 20.0, "content_timeout": value,
                             "enb_positions": overrides["enb_positions"]},
                "phy": {"gain_d2d": overrides["gain_d2d"]}}))
            assert point_cfg == load_config(str(same))

    def test_nested_override_keeps_the_base_configs_other_fields(self, tmp_path,
                                                                 monkeypatch):
        spec = self._spec(tmp_path, overrides={"gain_d2d": {"exp_near": 3.0}},
                          policies=["optimal"])
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"phy": {"gain_d2d": {"extra_loss_db": 7.0}}}))
        jobs = self._recorded_jobs(monkeypatch)
        assert run_cli("sweep", "--spec", spec, "--config", str(base),
                       "--out", str(tmp_path / "o"), "--duration", "5", "--warmup", "0",
                       "--replications", "1", "--workers", "1") == 0
        assert [job[0].phy.gain_d2d.extra_loss_db for job in jobs] == [7.0, 7.0]
        assert {job[0].phy.gain_d2d.exp_near for job in jobs} == {3.0}

    def test_unknown_parameter_is_config_error(self, tmp_path):
        spec = self._spec(tmp_path, parameter="warp_factor")
        assert run_cli("sweep", "--spec", spec,
                       "--out", str(tmp_path / "o")) == 2

    def test_empty_values_is_config_error(self, tmp_path):
        spec = self._spec(tmp_path, values=[])
        assert run_cli("sweep", "--spec", spec,
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("kw", [
        {"values": ["abc"]},
        {"parameter": "harq_attempts", "values": [2.5]},
        {"policies": ["optimal", "nope"]},
        {"overrides": {"speed_min": -1.0}},
        {"parameter": "speed_min", "values": [9.0, -1.0]},
        {"parameter": "rng_seed", "values": [5]},  # --seed is the one seed setting
        {"overrides": {"rng_seed": 5}},
    ])
    def test_bad_spec_is_config_error(self, tmp_path, kw):
        spec = self._spec(tmp_path, **kw)
        assert run_cli("sweep", "--spec", spec, "--out", str(tmp_path / "o"),
                       "--duration", "5", "--warmup", "0",
                       "--replications", "1", "--workers", "1") == 2
        assert not os.path.exists(tmp_path / "o")  # rejected before any run

    def test_duration_shorter_than_a_points_control_interval_is_config_error(
            self, tmp_path):
        # 2 s measures two intervals of the 1 s point, none of the 5 s one
        spec = self._spec(tmp_path, parameter="control_interval", values=[1.0, 5.0])
        assert run_cli("sweep", "--spec", spec, "--out", str(tmp_path / "o"),
                       "--duration", "2", "--warmup", "0",
                       "--replications", "1", "--workers", "1") == 2
        assert not os.path.exists(tmp_path / "o")  # rejected before any run

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # each point's seeds come from its value; sweep reads no --seed
        spec = self._spec(tmp_path, policies=["optimal"])
        assert run_cli("sweep", "--spec", spec, "--out", str(tmp_path / "o"),
                       "--duration", "5", "--warmup", "0", "--replications", "1",
                       "--workers", "1", "--seed", "1") == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_missing_spec_is_config_error(self, tmp_path):
        assert run_cli("sweep", "--spec", str(tmp_path / "no.json"),
                       "--out", str(tmp_path / "o")) == 2


# valid names and plain numbers are drawn often enough that many specs load
# and many points reach Config.validate
_param = st.sampled_from(sorted(cli.SWEEPABLE))
_policy = st.sampled_from(sorted(cli.POLICIES))
_value = st.integers(-5, 100) | st.floats(-1.0, 1e4) | json_values
_keys = {
    "parameter": _param | _param | st.text(max_size=8) | json_values,
    "values": st.lists(_value, max_size=4) | json_values,
    "overrides": st.dictionaries(_param | st.text(max_size=8), _value, max_size=3)
    | json_values,
    "policies": st.lists(_policy, max_size=3) | st.lists(_policy | json_values, max_size=3)
    | json_values,
}
sweep_specs = (
    st.fixed_dictionaries({}, optional=_keys)
    | st.fixed_dictionaries({"parameter": _param, "values": st.lists(_value, min_size=1,
                                                                     max_size=4)},
                            optional={k: _keys[k] for k in ("overrides", "policies")}))


@given(spec=sweep_specs)
@settings(max_examples=300, deadline=None)
def test_any_sweep_spec_loads_or_is_config_error(spec):
    # what cmd_sweep does with a spec before its first run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        try:
            loaded = cli.SweepSpec.from_file(path)
            for value in loaded.values:
                cli._with_param(Config(), {**loaded.overrides, loaded.parameter: value})
        except ConfigError:
            pass


class TestAnalytic:
    def test_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli("analytic", "--out", out)
        assert code == 0
        header, rows = read_csv(os.path.join(out, "distance_law.csv"))
        assert header == ["kind", "r_m", "value"]
        kinds = {r[0] for r in rows}
        assert kinds == {"atom", "density"}
        atom_mass = sum(float(r[2]) for r in rows if r[0] == "atom")
        dens = [(float(r[1]), float(r[2])) for r in rows if r[0] == "density"]
        grid = np.array([g for g, _ in dens])
        vals = np.array([v for _, v in dens])
        total = atom_mass + np.trapezoid(vals, grid)
        assert total == pytest.approx(1.0, abs=1e-4)
        header, rows = read_csv(os.path.join(out, "energy.csv"))
        quantities = {r[0] for r in rows}
        assert {"E_I2D", "E_D2D", "E_total", "P_nonoffload"} <= quantities
        assert "E_total" in capsys.readouterr().out
        header, rows = read_csv(os.path.join(out, "zero_distance_surface.csv"))
        assert header == ["r_max", "content_timeout", "speed_min", "speed_max", "probability"]
        assert len(rows) == 12  # 4 range caps x 3 timeouts

    def test_builds_the_law_once(self, tmp_path, monkeypatch):
        calls = []
        build = analytic.lane_aware_delivery_law

        def counted(params):
            calls.append(params)
            return build(params)

        monkeypatch.setattr(analytic, "lane_aware_delivery_law", counted)
        assert run_cli("analytic", "--out", str(tmp_path / "o")) == 0
        assert len(calls) == 1

    def test_partial_object_writes_the_default_outputs(self, tmp_path):
        # restating one default of gain_d2d keeps its 5 dB extra loss
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps({"phy": {"gain_d2d": {"exp_near": 2.2}}}))
        outs = [tmp_path / "default", tmp_path / "partial"]
        assert run_cli("analytic", "--out", str(outs[0])) == 0
        assert run_cli("analytic", "--config", str(cfg), "--out", str(outs[1])) == 0
        for name in ("energy.csv", "distance_law.csv", "zero_distance_surface.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestValidate:
    def test_oracle_memory_stays_blocked(self, default_config, default_params):
        # at its peak the oracle holds the 3n uniforms and the n samples,
        # and otherwise block-sized temporaries; a whole-array draw or KS
        # scan adds full-count temporaries and exceeds the bound
        n = 200_000
        sc = default_config.scenario
        speeds = (sc.speed_min + 0.5, 0.5 * (sc.speed_min + sc.speed_max), sc.speed_max)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            for x0 in cli.DEFAULT_TUPLES_X0:
                for v_a in speeds:
                    cli.oracle_check(x0, v_a, default_params, n, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * 8 + 1_000_000

    def test_passes_at_default_threshold(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli("validate", "--out", out, "--samples", "40000",
                       "--duration", "0", "--threshold", "0.02", "--seed", "4")
        assert code == 0
        header, rows = read_csv(os.path.join(out, "oracle_report.csv"))
        assert header[:3] == ["x0", "v_a", "ks"]
        assert len(rows) == 15  # 5 offsets x 3 speeds
        assert "validation passed" in capsys.readouterr().out

    def test_impossible_threshold_exits_3(self, tmp_path):
        code = run_cli("validate", "--out", str(tmp_path / "o"),
                       "--samples", "2000", "--duration", "0",
                       "--threshold", "0.0", "--seed", "4")
        assert code == 3

    def test_reports_the_lane_aware_law(self, tmp_path, capsys):
        # the simulator's short-range mass is set beside the atoms of the
        # law criterion 4 checks it against
        law = analytic.lane_aware_delivery_law(
            AnalyticParams.from_config(Config(), with_energy=False))
        code = run_cli("validate", "--out", str(tmp_path / "o"), "--samples", "200",
                       "--threshold", "1.0", "--duration", "60", "--warmup", "60",
                       "--seed", "4")
        assert code == 0
        out = capsys.readouterr().out
        atoms = ", ".join(f"r={loc:g}: {mass:.4f}" for loc, mass in law.atoms)
        assert f"lane-aware law atoms: {atoms}\n" in out
        assert f"(lane-aware law atoms {law.total_atom_mass:.3f})\n" in out

    def test_reports_a_simulation_with_no_d2d_delivery(self, tmp_path, capsys):
        # at 1e-12 requests per second and device, no request arrives in the
        # one measured second, whatever the seed, so nothing is delivered by
        # D2D; the run it made is still reported
        cfg = tmp_path / "quiet.json"
        cfg.write_text(json.dumps({"scenario": {"request_rate": 1e-12}}))
        code = run_cli("validate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                       "--samples", "200", "--threshold", "1.0", "--duration", "1",
                       "--warmup", "0", "--seed", "4")
        assert code == 0
        assert ("simulation: 0 D2D deliveries, short-range mass (r <= 20) n/a "
                in capsys.readouterr().out)

    def test_bad_samples_is_config_error(self, tmp_path):
        code = run_cli("validate", "--out", str(tmp_path / "o"),
                       "--samples", "0", "--duration", "0")
        assert code == 2
