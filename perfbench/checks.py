"""Correctness checks on the records of one benchmark run.

Every check takes plain records (dicts of numbers) and returns a list of
failure messages, empty when the record passes.  The checks hold for any
random stream: they test invariants, analytic identities and statistical
agreement, not the exact values of one seed.
"""

from __future__ import annotations

import math

# Offloading efficiency of ``optimal`` against the analytic 1 - P_nonoffload,
# judged on the requests that arrived before the plan's settle tick, pooled
# over the policy's engines.  Each of them has passed its deadline when the
# run ends, so it was delivered by D2D or by the infrastructure, or dropped;
# the few still unsettled (pruned or failed links) may end either way, so
# the efficiency lies between d2d / (d2d + i2d + unsettled) and
# (d2d + unsettled) / (d2d + i2d + unsettled).  The analytic value must fall
# in that interval widened by OFFLOAD_TOL plus three binomial standard
# errors.  Settled requests of the workloads' runs sit 0.03-0.05 below the
# analytic value at lambda = 1/3, 0.04-0.06 below at 2/3 and 0.05-0.08
# below at lambda = 1; a policy that offloads half as often as the model
# says still trips.
OFFLOAD_TOL = 0.10
# Normalization tolerance of acceptance criterion 9.
MASS_TOL = 1e-5
# Default ``d2doff validate --threshold``.
ORACLE_THRESHOLD = 0.01
ENERGY_RTOL = 1e-6

# average_energies() of each workload's configuration.
REFERENCE_ENERGIES = {
    "corridor": {"E_I2D": 0.06803117229389408, "E_D2D": 0.0008428056018203485,
                 "E_total": 0.04186698682650108, "P_nonoffload": 0.6105845884406711},
    "dense": {"E_I2D": 0.06803117229389408, "E_D2D": 0.000611597953782346,
              "E_total": 0.03159251274400016, "P_nonoffload": 0.45952403428013805},
    "analytic": {"E_I2D": 0.06803116302482394, "E_D2D": 0.0006842952789199472,
                 "E_total": 0.035309622223218255, "P_nonoffload": 0.5141341847543341},
}


def settle_snapshot(eng) -> dict:
    """Delivery counters of an ``engine.Engine`` and the requests it still
    holds, taken at the settle tick; ``sim_record`` reads their final
    states after the run."""
    m = eng.metrics
    return {"d2d": m.deliveries_d2d, "i2d": m.deliveries_i2d,
            "pending": list(eng.policy.pending.values())}


def sim_record(eng, snapshot: dict) -> dict:
    """Flat record of a finished simulation (an ``engine.Engine``)."""
    from d2doff.scenario import DELIVERED_D2D, DELIVERED_I2D, DROPPED
    m = eng.metrics
    occ = m.occupancy_samples
    states = [r.state for r in snapshot["pending"]]
    return {
        **m.summary(),
        "requests_nonrepeated": m.requests_nonrepeated,
        "open": sum(1 for r in eng.policy.pending.values() if not r.served),
        "occupancy_min": min(occ) if occ else 0.0,
        "occupancy_max": max(occ) if occ else 0.0,
        "pruned_links": m.pruned_links,
        "failed_attempts": m.failed_attempts,
        "settled_d2d": snapshot["d2d"] + states.count(DELIVERED_D2D),
        "settled_i2d": snapshot["i2d"] + states.count(DELIVERED_I2D),
        "unsettled": sum(1 for s in states
                         if s not in (DELIVERED_D2D, DELIVERED_I2D, DROPPED)),
    }


def pooled_settled(recs: list[dict]) -> dict:
    return {k: sum(r[k] for r in recs) for k in ("settled_d2d", "settled_i2d", "unsettled")}


def offload_bounds(rec: dict) -> tuple[float, float]:
    d2d, un = rec["settled_d2d"], rec["unsettled"]
    n = d2d + rec["settled_i2d"] + un
    if n == 0:
        return 0.0, 1.0
    return d2d / n, (d2d + un) / n


def offload_tolerance(requests: float) -> float:
    return OFFLOAD_TOL + 3.0 * math.sqrt(0.25 / max(requests, 1.0))


def check_offloading(rec: dict, target: float) -> list[str]:
    """rec: pooled settled counts of ``optimal``'s engines."""
    n = rec["settled_d2d"] + rec["settled_i2d"] + rec["unsettled"]
    if n < 1:
        return ["optimal: no settled requests to judge offloading on"]
    lo, hi = offload_bounds(rec)
    tol = offload_tolerance(n)
    if not (lo - tol <= target <= hi + tol):
        return [f"optimal: offloading efficiency of {n} settled requests in "
                f"[{lo:.4f}, {hi:.4f}] is not within {tol:.4f} of the analytic {target:.4f}"]
    return []


def check_simulation(policy: str, rec: dict) -> list[str]:
    out = []
    accounted = (rec["deliveries_d2d"] + rec["deliveries_i2d"]
                 + rec["dropped"] + rec["open"])
    if rec["requests_nonrepeated"] < 1:
        out.append(f"{policy}: no requests were simulated")
    if accounted != rec["requests_nonrepeated"]:
        out.append(f"{policy}: request conservation broken: delivered + dropped "
                   f"+ open = {accounted} != {rec['requests_nonrepeated']} requests")
    if not (0.0 <= rec["occupancy_min"] and rec["occupancy_max"] <= 1.0):
        out.append(f"{policy}: occupancy outside [0, 1]: "
                   f"[{rec['occupancy_min']}, {rec['occupancy_max']}]")
    if policy == "cellular" and rec["deliveries_d2d"] != 0:
        out.append(f"cellular: {rec['deliveries_d2d']} D2D deliveries")
    return out


def check_analytic(rec: dict, workload: str) -> list[str]:
    """rec: law_mass, energies (average_energies output), surface values."""
    out = []
    if not abs(rec["law_mass"] - 1.0) <= MASS_TOL:
        out.append(f"lane-aware law mass {rec['law_mass']!r} deviates from 1 "
                   f"by more than {MASS_TOL}")
    for key, ref in REFERENCE_ENERGIES[workload].items():
        got = rec["energies"].get(key, math.nan)
        if not abs(got - ref) <= ENERGY_RTOL * abs(ref):
            out.append(f"energy {key} = {got!r}, reference {ref!r}")
    if not all(0.0 <= p <= 1.0 for p in rec["surface"]):
        out.append("zero-distance surface has values outside [0, 1]")
    return out


def check_oracle(rec: dict) -> list[str]:
    """rec: worst KS/atom deviation of the oracle, mass of the
    unconditional lane-transformed law."""
    out = []
    if not rec["worst"] <= ORACLE_THRESHOLD:
        out.append(f"oracle deviation {rec['worst']:.5f} exceeds {ORACLE_THRESHOLD}")
    if not abs(rec["law_mass"] - 1.0) <= MASS_TOL:
        out.append(f"unconditional law mass {rec['law_mass']!r} deviates from 1 "
                   f"by more than {MASS_TOL}")
    return out


def check_determinism(untraced: dict, traced: dict) -> list[str]:
    """The traced run must reproduce the untraced one exactly: same
    records for every simulated policy and every analytic result."""
    out = []
    for key in untraced:
        if untraced[key] != traced.get(key):
            out.append(f"traced run differs from untraced run in {key}")
    return out


def check_counts(policy: str, recs: list[dict], counters: dict) -> list[str]:
    """Counts seen by the wrappers must equal the engines' own counters.
    recs: records of the policy's engines; counters: tracer counters of
    the policy's phase, keyed by name."""
    out = []
    failures = counters.get("phy.harq_attempts", 0) - counters.get("phy.harq_success", 0)
    pairs = [
        ("rrrm.pruned", counters.get("rrrm.pruned", 0),
         sum(r["pruned_links"] for r in recs)),
        ("HARQ failures", failures, sum(r["failed_attempts"] for r in recs)),
        ("scenario.requests", counters.get("scenario.requests", 0),
         sum(r["requests_nonrepeated"] + r["repeated"] for r in recs)),
    ]
    for name, seen, own in pairs:
        if seen != own:
            out.append(f"{policy}: traced {name} = {seen}, engine counted {own}")
    return out
