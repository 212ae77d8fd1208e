"""Span tracing of d2doff from outside the package.

``Instrumentation`` reassigns module attributes and class methods of the
package to timing wrappers and puts the originals back on exit.  Calls
inside the package look those attributes up at call time (``rrrm.*``,
``phy.*``, ``kernels.*`` and the ``World``, policy and ``ChannelModel``
methods), so spans nest without any change to the package.

A span is (name, start, end, parent, phase).  Spans stay in flat arrays
in memory and are written out once, at the end of a run.  The layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = ("engine", "scenario", "policies", "rrrm", "phy", "kernels",
          "analytic", "mixdist")
SIM_LAYERS = LAYERS[:6]


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self._phase = -1
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.phase = array("i")
        self._stack: list[int] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.samples: dict[tuple[str, str], list] = {}

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_phase(self, phase: str) -> None:
        if phase not in self.phases:
            self.phases.append(phase)
        self._phase = self.phases.index(phase)

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self._phase)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, counter: str, n: float = 1) -> None:
        key = (counter, self.phases[self._phase])
        self.counters[key] = self.counters.get(key, 0) + n

    def sample(self, counter: str, value: float) -> None:
        self.samples.setdefault((counter, self.phases[self._phase]), []).append(value)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), phases=np.array(self.phases),
                 **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    dur = (end - start).astype(np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root).
    Spans are recorded in opening order, so a parent precedes its child."""
    idx = np.arange(parent.size)
    root = np.where(parent >= 0, parent, idx)
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

def _wrap(fn, tracer: Tracer, name: str, hook):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def _count_len(counter):
    return lambda tr, args, result: tr.count(counter, len(result))


def _sample_vehicles(tr, args, result):
    tr.sample("scenario.vehicles", len(args[0].vehicles))


def _sample_pending(tr, args, result):
    tr.sample("policies.pending", len(args[0].pending))


def _observe_links(tr, args, result):
    tr.count("rrrm.links", len(args[0]))
    tr.sample("rrrm.links_per_tick", len(args[0]))


def _observe_allocation(tr, args, result):
    allocations, pruned = result
    tr.count("rrrm.offered", len(args[1]))
    tr.count("rrrm.allocated", len(allocations))
    tr.count("rrrm.pruned", len(pruned))


def _observe_harq(tr, args, result):
    tr.count("phy.harq_success", 1 if result else 0)


def targets():
    """(owner, attribute, span name, hook) for every traced callable."""
    from d2doff import analytic, engine, kernels, mixdist, phy, policies, rrrm
    from d2doff.scenario import World

    out = [(engine.Engine, "tick", "engine.tick", None)]
    for attr in ("remove_exited", "spawn_vehicles", "evict_expired",
                 "init_stationary"):
        out.append((World, attr, f"scenario.{attr}", None))
    out.append((World, "refresh_arrays", "scenario.refresh_arrays", _sample_vehicles))
    out.append((World, "spawn_requests", "scenario.spawn_requests",
                _count_len("scenario.requests")))
    hooks = {"i2d_due": _sample_pending,
             "d2d_intents": _count_len("policies.d2d_intents")}
    for cls in (policies.BasePolicy, *policies.POLICIES.values()):
        for attr in ("handle_new", "cache_event", "d2d_intents", "i2d_due"):
            if attr in vars(cls):
                out.append((cls, attr, f"policies.{attr}", hooks.get(attr)))
    out += [
        (rrrm, "interference_matrix", "rrrm.interference_matrix", _observe_links),
        (rrrm, "partition_rrr_sets", "rrrm.partition_rrr_sets", None),
        (rrrm, "allocate_prbs", "rrrm.allocate_prbs", _observe_allocation),
        (phy, "nominal_gain", "phy.nominal_gain", None),
        (phy, "tx_power_for_link", "phy.tx_power_for_link", None),
        (phy, "transmission_energy", "phy.transmission_energy", None),
        (phy.ChannelModel, "realize", "phy.realize", None),
        (phy.ShadowingField, "link_shadow_db", "phy.link_shadow_db", None),
        (phy, "achievable_information", "phy.achievable_information", None),
        (phy, "transmission_success", "phy.transmission_success", _observe_harq),
        (kernels, "capacity_bits", "kernels.capacity_bits", None),
        (kernels, "min_distance_samples", "kernels.min_distance_samples", None),
        (kernels, "poisson_min_mixture", "kernels.poisson_min_mixture", None),
        (analytic, "lane_aware_delivery_law", "analytic.lane_aware_delivery_law", None),
        (analytic, "marginal_nonoffload_probability",
         "analytic.marginal_nonoffload_probability", None),
        (analytic, "average_energies", "analytic.average_energies", None),
        (analytic, "short_range_probability_surface", "analytic.surface", None),
        (analytic, "short_range_probability", "analytic.short_range_probability", None),
        (analytic, "single_provider_distance_law",
         "analytic.single_provider_distance_law", None),
        (analytic, "unconditional_effective_distance_law",
         "analytic.unconditional_law", None),
        (analytic, "lane_offset_transform", "analytic.lane_offset_transform", None),
        (mixdist.MixedDistribution, "ks_distance", "mixdist.ks_distance", None),
    ]
    return out


class Instrumentation:
    """Context manager that installs the wrappers and restores the
    original attributes on exit, also when the body raises."""

    def __init__(self, tracer: Tracer, target_list=None):
        self.tracer = tracer
        self.targets = targets() if target_list is None else target_list
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for owner, attr, name, hook in self.targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(original, self.tracer, name, hook))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

WORLD_UPDATE = ("scenario.remove_exited", "scenario.spawn_vehicles",
                "scenario.evict_expired", "scenario.refresh_arrays")
SCHEDULE = ("policies.handle_new", "policies.cache_event",
            "policies.d2d_intents", "policies.i2d_due")


class SpanTable:
    """Per (phase, span name) totals and per-layer self times of a trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.tracer = tracer
        n_names = max(1, len(tracer.names))
        key = a["phase"].astype(np.int64) * n_names + a["name"]
        size = max(1, len(tracer.phases)) * n_names
        dur = a["end"] - a["start"]
        self._n_names = n_names
        self._dur = dur
        self._key = key
        self._total = np.bincount(key, weights=dur, minlength=size)
        self._calls = np.bincount(key, minlength=size)
        own = self_times(a["start"], a["end"], a["parent"])
        # self time by layer, only inside ticks (set-up spans are roots of their own)
        tick_id = tracer._name_ids.get("engine.tick", -1)
        in_tick = a["name"][roots(a["parent"])] == tick_id
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names]
                            or [0], dtype=np.int64)
        lkey = a["phase"].astype(np.int64) * len(LAYERS) + layer_of[a["name"]]
        self._layer_self = np.bincount(lkey[in_tick], weights=own[in_tick],
                                       minlength=max(1, len(tracer.phases)) * len(LAYERS))

    def _k(self, phase: str, name: str) -> int | None:
        if phase not in self.tracer.phases or name not in self.tracer._name_ids:
            return None
        return self.tracer.phases.index(phase) * self._n_names + self.tracer._name_ids[name]

    def seconds(self, phase: str, *names: str) -> float:
        keys = [k for k in (self._k(phase, n) for n in names) if k is not None]
        return float(sum(self._total[k] for k in keys)) / 1e9

    def calls(self, phase: str, name: str) -> int:
        k = self._k(phase, name)
        return 0 if k is None else int(self._calls[k])

    def durations_ms(self, phase: str, name: str) -> np.ndarray:
        k = self._k(phase, name)
        return self._dur[self._key == k] / 1e6 if k is not None else np.zeros(0)

    def layer_self_s(self, phase: str, layer: str) -> float:
        if phase not in self.tracer.phases:
            return 0.0
        i = self.tracer.phases.index(phase) * len(LAYERS) + LAYERS.index(layer)
        return float(self._layer_self[i]) / 1e9


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def policy_counters(tracer: Tracer, table: SpanTable, policy: str) -> dict:
    out = {name: value for (name, phase), value in tracer.counters.items()
           if phase == policy}
    out["phy.harq_attempts"] = table.calls(policy, "phy.transmission_success")
    return out


def layer_metrics(tracer: Tracer, table: SpanTable, policies, analytic_reps: int,
                  oracle_reps: int) -> dict:
    """Per-layer metrics of a traced session; simulator metrics carry
    the policy as a suffix."""
    m = {}
    for p in policies:
        c = policy_counters(tracer, table, p)
        samples = {name: v for (name, phase), v in tracer.samples.items() if phase == p}
        ticks = table.durations_ms(p, "engine.tick")
        m[f"engine.tick_ms.p50.{p}"] = _percentile(ticks, 50)
        m[f"engine.tick_ms.p99.{p}"] = _percentile(ticks, 99)
        # engine.tick is the only engine-layer span, so this is the engine's self time
        m[f"engine.tick_self_s.{p}"] = table.layer_self_s(p, "engine")
        # share of tick time outside every wrapped call: what the layer
        # metrics below do not see
        tick_s = table.seconds(p, "engine.tick")
        m[f"engine.tick_self_share.{p}"] = (m[f"engine.tick_self_s.{p}"] / tick_s
                                           if tick_s else 0.0)
        m[f"scenario.world_update_s.{p}"] = table.seconds(p, *WORLD_UPDATE)
        m[f"scenario.spawn_requests_s.{p}"] = table.seconds(p, "scenario.spawn_requests")
        m[f"scenario.vehicles.p50.{p}"] = _percentile(samples.get("scenario.vehicles", []), 50)
        m[f"scenario.requests.{p}"] = c.get("scenario.requests", 0)
        m[f"scenario.init_stationary_s.{p}"] = table.seconds(p, "scenario.init_stationary")
        m[f"policies.schedule_s.{p}"] = table.seconds(p, *SCHEDULE)
        m[f"policies.pending.p99.{p}"] = _percentile(samples.get("policies.pending", []), 99)
        if p != "cellular":  # cellular never schedules D2D: both are 0 by construction
            m[f"policies.cache_events.{p}"] = table.calls(p, "policies.cache_event")
            m[f"policies.d2d_intents.{p}"] = c.get("policies.d2d_intents", 0)
        m[f"rrrm.interference_matrix_s.{p}"] = table.seconds(p, "rrrm.interference_matrix")
        m[f"rrrm.partition_s.{p}"] = table.seconds(p, "rrrm.partition_rrr_sets")
        m[f"rrrm.allocate_s.{p}"] = table.seconds(p, "rrrm.allocate_prbs")
        m[f"rrrm.links.{p}"] = c.get("rrrm.links", 0)
        m[f"rrrm.links_per_tick.p99.{p}"] = _percentile(
            samples.get("rrrm.links_per_tick", []), 99)
        m[f"rrrm.pruned.{p}"] = c.get("rrrm.pruned", 0)
        offered = c.get("rrrm.offered", 0)
        m[f"rrrm.admit_ratio.{p}"] = c.get("rrrm.allocated", 0) / offered if offered else 1.0
        m[f"phy.nominal_gain_s.{p}"] = table.seconds(p, "phy.nominal_gain")
        m[f"phy.nominal_gain_calls.{p}"] = table.calls(p, "phy.nominal_gain")
        m[f"phy.realize_s.{p}"] = table.seconds(p, "phy.realize")
        m[f"phy.realize_calls.{p}"] = table.calls(p, "phy.realize")
        m[f"phy.capacity_s.{p}"] = table.seconds(p, "phy.achievable_information")
        attempts = c["phy.harq_attempts"]
        m[f"phy.harq_attempts.{p}"] = attempts
        m[f"phy.harq_success_ratio.{p}"] = (c.get("phy.harq_success", 0) / attempts
                                            if attempts else 1.0)
        m[f"kernels.capacity_bits_s.{p}"] = table.seconds(p, "kernels.capacity_bits")
        for layer in SIM_LAYERS[1:]:
            m[f"self_s.{layer}.{p}"] = table.layer_self_s(p, layer)

    # analytic phases: seconds per repetition, so they compare with analytic_s / oracle_s
    a, o = "analytic", "oracle"
    m["analytic.lane_aware_delivery_law_s"] = (
        table.seconds(a, "analytic.lane_aware_delivery_law") / analytic_reps)
    m["analytic.law_builds"] = table.calls(a, "analytic.lane_aware_delivery_law") / analytic_reps
    m["analytic.average_energies_s"] = table.seconds(a, "analytic.average_energies") / analytic_reps
    m["analytic.surface_s"] = table.seconds(a, "analytic.surface") / analytic_reps
    m["analytic.surface_points"] = table.calls(a, "analytic.short_range_probability") / analytic_reps
    m["analytic.unconditional_law_s"] = table.seconds(
        o, "analytic.unconditional_law", "analytic.lane_offset_transform") / oracle_reps
    m["mixdist.ks_distance_s"] = table.seconds(o, "mixdist.ks_distance") / oracle_reps
    m["kernels.min_distance_samples_s"] = table.seconds(o, "kernels.min_distance_samples") / oracle_reps
    m["kernels.poisson_min_mixture_s"] = (
        (table.seconds(a, "kernels.poisson_min_mixture") / analytic_reps)
        + (table.seconds(o, "kernels.poisson_min_mixture") / oracle_reps))
    return m


# Self times of the simulator layers must add up to the traced tick time.
# This is an identity of the span tree (engine.tick's self time is the tick
# minus its children, and every span inside a tick belongs to a simulator
# layer), exact in integer nanoseconds; the margin covers the float sums.
# It catches broken span bookkeeping, not missing wrappers: work that no
# wrapper covers is charged to the engine, and engine.tick_self_share
# reports how much of the tick that is.
LAYER_SUM_RTOL = 1e-6


def layer_sum_failures(table: SpanTable, policies) -> list[str]:
    out = []
    for p in policies:
        ticks_s = table.seconds(p, "engine.tick")
        layers_s = sum(table.layer_self_s(p, layer) for layer in SIM_LAYERS)
        if not abs(layers_s - ticks_s) <= LAYER_SUM_RTOL * ticks_s:
            out.append(f"{p}: layer self times sum to {layers_s:.6f} s, "
                       f"ticks took {ticks_s:.6f} s")
    return out
