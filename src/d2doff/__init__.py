"""Vehicular D2D data-offloading simulator and analytic toolkit.

A desk-scale model of a straight two-lane road corridor covered by
cellular base stations, where vehicles cache popular contents and can
deliver them to each other over direct (D2D) links.  The package
contains:

* an analytic model for the distribution of the D2D transmission
  distance achieved by a delivery scheduler that waits for the point of
  closest approach, and for the resulting energy consumption;
* a discrete-interval simulator with three delivery policies (optimal
  delivery time, ASAP D2D, plain cellular), an interference-aware
  radio-resource allocator and a capacity-outage PHY model;
* a CLI front end (``d2doff``) for simulations, parameter sweeps,
  analytic evaluation and analytic-vs-Monte-Carlo validation.
"""

from .config import ScenarioConfig, PhyConfig, RrrmConfig, AnalyticConfig, ConfigError, load_config
from .mixdist import MixedDistribution

__all__ = [
    "ScenarioConfig",
    "PhyConfig",
    "RrrmConfig",
    "AnalyticConfig",
    "ConfigError",
    "load_config",
    "MixedDistribution",
]

__version__ = "0.2.0"
