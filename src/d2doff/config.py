"""Typed configuration objects and JSON config loading."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised when a configuration file, value or flag is invalid."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Corridor scenario parameters (SI units throughout)."""

    street_length: float = 3000.0          # m
    lane_offset: float = 10.0              # m between the two lane axes
    enb_positions: tuple[float, ...] = (0.0, 600.0, 1200.0, 1800.0, 2400.0, 3000.0)
    enb_antenna_height: float = 10.0       # m
    vehicle_arrival_rate: float = 1.0 / 3.0  # vehicles/s, both ends combined
    speed_min: float = 9.0                 # m/s
    speed_max: float = 24.0                # m/s
    request_rate: float = 0.1              # requests/s per device
    zipf_alpha: float = 1.1
    library_size: int = 10000
    content_timeout: float = 20.0          # s, delay tolerance of a request
    sharing_timeout: float = 600.0         # s, cache retention after receipt
    d2d_max_range: float = 100.0           # m
    i2d_max_range: float = 300.0           # m (cell radius for the energy model)
    control_interval: float = 1.0          # s

    def validate(self) -> None:
        if not (0.0 < self.speed_min <= self.speed_max):
            raise ConfigError("need 0 < speed_min <= speed_max")
        if not (0.0 < self.content_timeout < self.sharing_timeout):
            raise ConfigError("need 0 < content_timeout < sharing_timeout")
        if not 0.0 <= self.lane_offset < self.d2d_max_range:
            raise ConfigError("need 0 <= lane_offset < d2d_max_range")
        for name in ("vehicle_arrival_rate", "request_rate"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")
        if self.library_size < 1:
            raise ConfigError("library_size must be >= 1")
        if self.zipf_alpha < 0.0:
            raise ConfigError("zipf_alpha must be >= 0")
        if list(self.enb_positions) != sorted(self.enb_positions):
            raise ConfigError("enb_positions must be sorted ascending")
        if len(self.enb_positions) < 1:
            raise ConfigError("need at least one eNB")
        if self.street_length <= 0.0:
            raise ConfigError("street_length must be > 0")
        if not 0.0 < self.control_interval <= self.content_timeout:
            raise ConfigError("need 0 < control_interval <= content_timeout")
        if self.i2d_max_range <= 0.0:
            raise ConfigError("i2d_max_range must be > 0")
        if self.enb_antenna_height < 0.0:
            raise ConfigError("enb_antenna_height must be >= 0")


@dataclass(frozen=True)
class GainModel:
    """Dual-slope log-distance nominal channel gain.

    Path loss in dB at distance r in m, clamped at 1 m:
        PL(r) = PL0 + 10 n_near log10(r)                   for r <= breakpoint
        PL(r) = PL(bp) + 10 n_far log10(r / breakpoint)    for r >  breakpoint
    with PL0 = 46.4 + 20 log10(f0 / 5 GHz) + extra_loss_db.
    """

    exp_near: float = 2.2
    exp_far: float = 4.0
    breakpoint: float = 100.0   # m
    extra_loss_db: float = 0.0

    def validate(self) -> None:
        if self.breakpoint <= 0.0:
            raise ConfigError("breakpoint must be > 0")


@dataclass(frozen=True)
class PhyConfig:
    """Physical-layer parameters (LTE-like numerology)."""

    center_frequency: float = 2.3e9        # Hz
    subcarrier_bandwidth: float = 15e3     # Hz
    subcarriers_per_prb: int = 12
    prb_duration: float = 5e-4             # s
    system_bandwidth: float = 10.8e6       # Hz
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 10.0
    spectral_efficiency: float = 6.0       # bits/s/Hz cap
    fec_rate: float = 0.8
    link_margin_i2d_db: float = 10.0
    link_margin_d2d_db: float = 13.0
    payload_bits: float = 432e3 * 8        # one content
    shadowing_sigma_db: float = 4.0
    shadowing_decorrelation: float = 25.0  # m
    delay_spread: float = 100e-9           # s RMS
    n_taps: int = 6
    harq_attempts: int = 4                 # transmissions per interval
    gain_i2d: GainModel = field(default_factory=GainModel)
    gain_d2d: GainModel = field(default_factory=lambda: GainModel(extra_loss_db=5.0))

    def validate(self) -> None:
        for name in ("center_frequency", "subcarrier_bandwidth",
                     "prb_duration", "spectral_efficiency", "shadowing_decorrelation"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")
        if self.subcarriers_per_prb < 1:
            raise ConfigError("subcarriers_per_prb must be >= 1")
        if not self.system_bandwidth / self.prb_bandwidth > 0.5:  # freq_blocks >= 1
            raise ConfigError("system_bandwidth must hold at least one PRB")
        if not (0.0 < self.fec_rate <= 1.0):
            raise ConfigError("fec_rate must be in (0, 1]")
        if self.link_margin_i2d_db <= 0.0 or self.link_margin_d2d_db <= 0.0:
            raise ConfigError("link margins must be > 0 dB")
        if self.payload_bits <= 0.0:
            raise ConfigError("payload_bits must be > 0")
        if self.n_taps < 1:
            raise ConfigError("n_taps must be >= 1")
        if self.harq_attempts < 1:
            raise ConfigError("harq_attempts must be >= 1")
        for name in ("delay_spread", "shadowing_sigma_db"):  # 0: flat, unshadowed
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        self.gain_i2d.validate()
        self.gain_d2d.validate()

    @property
    def prb_bandwidth(self) -> float:
        """Bandwidth of one PRB (Hz)."""
        return self.subcarriers_per_prb * self.subcarrier_bandwidth

    @property
    def freq_blocks(self) -> int:
        """Number of PRB-wide frequency blocks in the system band."""
        return int(round(self.system_bandwidth / self.prb_bandwidth))

    @property
    def prbs_required(self) -> int:
        """PRBs needed to carry one coded content at the efficiency target."""
        bits_per_prb = self.spectral_efficiency * self.prb_duration * self.prb_bandwidth
        return int(math.ceil((self.payload_bits / self.fec_rate) / bits_per_prb))


@dataclass(frozen=True)
class RrrmConfig:
    """Radio-resource reuse management parameters."""

    # Max tolerable interference-to-noise ratio between links sharing PRBs.
    gamma_inr_db: float = 3.0


@dataclass(frozen=True)
class AnalyticConfig:
    """Numerical-integration controls for the analytic model."""

    dr: float = 0.1            # m, distance grid step
    dva: float = 0.5           # m/s, outer averaging grid over requester speed
    content_bins: int = 48     # log-spaced bins over per-content densities
    provider_speed_bins: int = 8  # sub-intervals of the holder speed law

    def validate(self) -> None:
        if self.dr <= 0.0 or self.dva <= 0.0:
            raise ConfigError("grid resolutions must be > 0")
        if self.content_bins < 1:
            raise ConfigError("content_bins must be >= 1")
        if self.provider_speed_bins < 1:
            raise ConfigError("provider_speed_bins must be >= 1")


@dataclass(frozen=True)
class Config:
    """Bundle of all configuration sections."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    phy: PhyConfig = field(default_factory=PhyConfig)
    rrrm: RrrmConfig = field(default_factory=RrrmConfig)
    analytic: AnalyticConfig = field(default_factory=AnalyticConfig)

    def validate(self) -> None:
        self.scenario.validate()
        self.phy.validate()
        self.analytic.validate()
        # a content that never fits the engine's grid is never delivered
        if not self.scenario.control_interval / self.phy.prb_duration > 0.5:
            raise ConfigError("control_interval must hold at least one PRB slot")
        try:
            grid, needed = self.prbs_per_interval, self.phy.prbs_required
        except (OverflowError, ZeroDivisionError):  # an infinite count
            raise ConfigError("the PRB grid and payload need finite PRB counts") from None
        if needed > grid:
            raise ConfigError(f"payload_bits needs {needed} PRBs; a control interval holds {grid}")

    @property
    def prbs_per_interval(self) -> int:
        """PRBs of one control interval's grid: round(control_interval /
        prb_duration) slots of freq_blocks PRBs each."""
        return self.phy.freq_blocks * round(self.scenario.control_interval / self.phy.prb_duration)


def _typed(value, ftype, where: str, current=None):
    """value checked against a field's annotated type: numbers must be
    finite, and an integer field takes no fraction.  An object overrides
    the field's ``current`` value."""
    if dataclasses.is_dataclass(ftype):
        return build_dataclass(ftype, value, where, current)
    if typing.get_origin(ftype) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list")
        item = typing.get_args(ftype)[0]
        return tuple(_typed(x, item, f"{where}[{i}]") for i, x in enumerate(value))
    if ftype in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if ftype is int and not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {value!r}")
        try:  # integer fields enter float arithmetic too
            as_float = float(value)
        except OverflowError:
            raise ConfigError(f"{where}: out of range") from None
        return as_float if ftype is float else value
    if not isinstance(value, ftype):
        raise ConfigError(f"{where}: expected {ftype.__name__}, got {value!r}")
    return value


def build_dataclass(cls, data, where: str, base=None):
    """``base`` (default ``cls()``) with the fields that the JSON object
    ``data`` names, each value of its field's type; a nested object in turn
    keeps every field it does not name.  ``where`` names data in errors
    ("" for a whole config)."""
    label = where or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{label}: expected an object")
    base = cls() if base is None else base
    types = typing.get_type_hints(cls)
    fields = {}
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"{label}: unknown key '{key}'")
        fields[key] = _typed(value, types[key], f"{where}.{key}" if where else key,
                             getattr(base, key))
    return dataclasses.replace(base, **fields)


def config_from_dict(data, base: Config | None = None) -> Config:
    """``base`` (default ``Config()``) overridden by the JSON object ``data``,
    then validated."""
    cfg = build_dataclass(Config, data, "", base)
    cfg.validate()
    return cfg


def read_json(path: str, what: str):
    """The JSON value in the UTF-8 file ``path``, which holds a ``what``;
    a file that cannot be opened, decoded or parsed raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    except (OSError, ValueError) as exc:   # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}")


def load_config(path: str) -> Config:
    """Load and validate a JSON config file."""
    return config_from_dict(read_json(path, "config"))

