import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2doff.config import (Config, ConfigError, GainModel, ScenarioConfig,
                           config_from_dict, config_to_dict, load_config)


class TestValidation:
    def test_defaults_validate(self):
        Config().validate()

    def test_speed_bounds(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(speed_min=0.0).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(speed_min=20.0, speed_max=10.0).validate()

    def test_timeout_ordering(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(content_timeout=600.0, sharing_timeout=600.0).validate()

    def test_range_exceeds_lane_offset(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(d2d_max_range=5.0).validate()

    def test_enb_positions_sorted(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(enb_positions=(600.0, 0.0)).validate()


class TestLoading:
    def test_round_trip(self):
        cfg = Config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            config_from_dict({"bogus": {}})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"scenario": {"speed_mim": 9.0}})

    def test_nested_gain_override(self):
        cfg = config_from_dict(
            {"phy": {"gain_d2d": {"exp_near": 3.0, "extra_loss_db": 0.0}}})
        assert cfg.phy.gain_d2d.exp_near == 3.0
        assert cfg.phy.gain_i2d.exp_near == 2.2

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {"speed_min": 6.0,
                                                 "speed_max": 16.0}}))
        cfg = load_config(str(path))
        assert cfg.scenario.speed_min == 6.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": \n!}')
        with pytest.raises(ConfigError, match=":2:"):
            load_config(str(path))

    def test_invalid_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict({"scenario": {"request_rate": -1.0}})


# Values of the wrong type or not finite, as a JSON config can carry them
# (JSON's NaN and an overflowing 1e400 included).  Each must be a ConfigError.
BAD_VALUES = [
    '{"scenario": {"library_size": "abc"}}',
    '{"scenario": {"library_size": 10.5}}',
    '{"phy": {"harq_attempts": 2.5}}',
    '{"scenario": {"request_rate": NaN}}',
    '{"rrrm": {"gamma_inr_db": NaN}}',
    '{"phy": {"gain_d2d": {"exp_near": "x"}}}',
    '{"scenario": {"street_length": 1e400}}',
]


class TestTypedValues:
    @pytest.mark.parametrize("text", BAD_VALUES)
    def test_rejected(self, text):
        with pytest.raises(ConfigError):
            config_from_dict(json.loads(text))

    @pytest.mark.parametrize("data", [
        {"scenario": {"speed_max": True}},
        {"scenario": {"enb_positions": [0.0, "600"]}},
        {"scenario": {"enb_positions": 600.0}},
        {"scenario": {"content_timeout": 10 ** 400}},
        {"analytic": {"content_bins": "12"}},
        {"phy": {"subcarriers_per_prb": 10 ** 400}},
        {"analytic": {"dv": 0.01}},
        {"analytic": {"mean_count_variant": "region"}},
        {"phy": {"gain_i2d": [2.2]}},
    ])
    def test_more_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_integers_accepted_as_floats(self):
        cfg = config_from_dict({"scenario": {"street_length": 2000,
                                             "enb_positions": [0, 1000, 2000]}})
        assert cfg.scenario.street_length == 2000.0
        assert isinstance(cfg.scenario.street_length, float)
        assert cfg.scenario.enb_positions == (0.0, 1000.0, 2000.0)

    def test_message_names_the_field(self):
        with pytest.raises(ConfigError, match=r"phy\.gain_d2d\.exp_near"):
            config_from_dict({"phy": {"gain_d2d": {"exp_near": "x"}}})


# Values of the right type that no run can use: a negative seed or lane
# offset (the lane-aware law would put its crossing atom there), a zero
# that the simulator or the analytic model divides by or takes the log
# of, a band narrower than one PRB or a control interval shorter than
# one PRB slot.  Each must be a ConfigError, so the CLI exits 2.
UNRUNNABLE = [
    {"scenario": {"rng_seed": -1}},
    {"scenario": {"lane_offset": -5.0}},
    {"phy": {"system_bandwidth": 1000.0}},
    {"phy": {"spectral_efficiency": 0.0}},
    {"phy": {"prb_duration": 0.0}},
    {"phy": {"shadowing_decorrelation": 0.0}},
    {"phy": {"center_frequency": 0.0}},
    {"phy": {"subcarriers_per_prb": 0, "prb_bandwidth": 0.0}},
    {"scenario": {"control_interval": 1e-4}},
]


class TestUnrunnableValues:
    @pytest.mark.parametrize("data", UNRUNNABLE)
    def test_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_slot_and_prb_boundaries(self):
        # the engine rounds both counts, and round(0.5) is 0
        for data in ({"scenario": {"control_interval": 2.5e-4}},
                     {"phy": {"system_bandwidth": 90e3}}):
            with pytest.raises(ConfigError):
                config_from_dict(data)
        cfg = config_from_dict({"scenario": {"control_interval": 3e-4},
                                "phy": {"system_bandwidth": 100e3}})
        assert cfg.phy.freq_blocks == 1


def _keys(cls):
    return st.sampled_from([f.name for f in dataclasses.fields(cls)])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.integers(-2 ** 1100, 2 ** 1100),  # past the float range
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=8)
# a gain model object, so that nested keys are reached too
field_values = json_values | st.dictionaries(_keys(GainModel), json_values,
                                             max_size=3)
config_objects = st.fixed_dictionaries({}, optional={
    name: json_values | st.dictionaries(_keys(cls), field_values, max_size=4)
    for name, cls in typing.get_type_hints(Config).items()})


@given(data=config_objects)
@settings(max_examples=300, deadline=None)
def test_any_object_loads_or_is_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, Config)
