import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2doff.config import (Config, ConfigError, GainModel, PhyConfig, ScenarioConfig,
                           config_from_dict, load_config)


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

    def test_prb_bandwidth_is_derived(self):
        assert PhyConfig().prb_bandwidth == 180e3
        assert PhyConfig(subcarriers_per_prb=6, subcarrier_bandwidth=30e3).freq_blocks == 60


class TestLoading:
    def test_round_trip(self):
        cfg = Config()
        assert config_from_dict(dataclasses.asdict(cfg)) == cfg

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="config: unknown key 'bogus'"):
            config_from_dict({"bogus": {}})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"scenario": {"speed_mim": 9.0}})

    def test_nested_gain_override(self):
        cfg = config_from_dict(
            {"phy": {"gain_d2d": {"exp_near": 3.0, "extra_loss_db": 0.0}}})
        assert cfg.phy.gain_d2d.exp_near == 3.0
        assert cfg.phy.gain_i2d.exp_near == 2.2

    def test_partial_gain_keeps_the_fields_it_does_not_name(self):
        # the D2D gain's default extra loss is 5 dB, not GainModel's 0 dB
        cfg = config_from_dict({"phy": {"gain_d2d": {"exp_near": 2.2}}})
        assert cfg.phy.gain_d2d.extra_loss_db == 5.0
        assert cfg == Config()

    def test_object_overrides_the_given_base(self):
        base = config_from_dict({"phy": {"gain_d2d": {"extra_loss_db": 7.0}}})
        cfg = config_from_dict({"phy": {"gain_d2d": {"exp_near": 3.0}}}, base)
        assert cfg.phy.gain_d2d == GainModel(exp_near=3.0, extra_loss_db=7.0)
        assert cfg.phy.gain_i2d == base.phy.gain_i2d

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
        {"analytic": {"same_lane_probability": 0.5}},  # read by no command
        {"phy": {"gain_i2d": [2.2]}},
        {"phy": {"prb_bandwidth": 180e3}},  # derived from the subcarriers
        {"scenario": {"rng_seed": 5}},  # the --seed flag sets the seed
        {"phy": {"gain_d2d": {"ref_distance": 1.0}}},  # PL0 is the loss at 1 m
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


# Values of the right type that no run can use: a negative lane offset
# (the lane-aware law would put its crossing atom there), a zero that the
# simulator or the analytic model divides by or takes the log of, a band
# narrower than one PRB, a control interval shorter than one PRB slot or
# a payload that one interval's PRB grid cannot hold (at 1e9 bits,
# 2 314 815 PRBs against 120 000).  Each must be a ConfigError, so the
# CLI exits 2.
UNRUNNABLE = [
    {"scenario": {"i2d_max_range": 0.0}},
    {"scenario": {"lane_offset": -5.0}},
    {"phy": {"system_bandwidth": 1000.0}},
    {"phy": {"spectral_efficiency": 0.0}},
    {"phy": {"prb_duration": 0.0}},
    {"phy": {"shadowing_decorrelation": 0.0}},
    {"phy": {"center_frequency": 0.0}},
    {"phy": {"subcarriers_per_prb": 0}},
    {"phy": {"delay_spread": -1e-7}},
    {"phy": {"shadowing_sigma_db": -4.0}},
    {"scenario": {"enb_antenna_height": -10.0}},
    {"scenario": {"control_interval": 1e-4}},
    {"analytic": {"dr": 0.0}},
    {"analytic": {"dr": -0.5}},
    {"analytic": {"dva": -1.0}},
    {"phy": {"payload_bits": 1e9}},
]


class TestUnrunnableValues:
    @pytest.mark.parametrize("data", UNRUNNABLE)
    def test_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_slot_and_prb_boundaries(self):
        # the engine rounds both counts, and round(0.5) is 0; a content must
        # fit the grid of one interval, here one slot of one block
        one_prb = {"scenario": {"control_interval": 3e-4},
                   "phy": {"system_bandwidth": 100e3}}
        for data in ({"scenario": {"control_interval": 2.5e-4}},
                     {"phy": {"system_bandwidth": 90e3}},
                     one_prb,  # at the default 8000-PRB payload
                     {**one_prb, "phy": {"system_bandwidth": 100e3, "payload_bits": 433.0}}):
            with pytest.raises(ConfigError):
                config_from_dict(data)
        cfg = config_from_dict({**one_prb, "phy": {"system_bandwidth": 100e3,
                                                   "payload_bits": 432.0}})
        assert (cfg.phy.freq_blocks, cfg.phy.prbs_required) == (1, 1)


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


def _objects(obj, path=()):
    """(path, value) of every section and nested object under obj."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield path + (f.name,), value
            yield from _objects(value, path + (f.name,))


def _scaled(value, factor: float):
    """A field's default moved by factor, as JSON carries it; within 10 %
    of every default, no cross-field rule of Config.validate is broken."""
    if isinstance(value, tuple):
        return [x * factor for x in value]
    if isinstance(value, int):
        return round(value * factor)
    return value * factor


def _replaced(obj, path, fields):
    """obj with the object at path replaced on exactly fields."""
    if not path:
        return dataclasses.replace(obj, **fields)
    head, *rest = path
    return dataclasses.replace(obj, **{head: _replaced(getattr(obj, head), rest, fields)})


@st.composite
def partial_objects(draw):
    """(path, JSON fields) of one section or nested object, a subset of its
    plain fields each set to a valid value."""
    path, default = draw(st.sampled_from(list(_objects(Config()))))
    plain = [f.name for f in dataclasses.fields(default)
             if not dataclasses.is_dataclass(getattr(default, f.name))]
    names = draw(st.lists(st.sampled_from(plain), unique=True))
    return path, {name: _scaled(getattr(default, name), draw(st.floats(0.9, 1.1)))
                  for name in names}


@given(obj=partial_objects())
@settings(max_examples=200, deadline=None)
def test_partial_object_replaces_exactly_the_fields_it_names(obj):
    path, fields = obj
    data = fields
    for key in reversed(path):
        data = {key: data}
    typed = {k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()}
    assert config_from_dict(data) == _replaced(Config(), path, typed)
