"""Each correctness check passes a sound record and trips on a corrupted one."""

import copy
import types

import pytest

import checks
from d2doff.scenario import (DELIVERED_D2D, DELIVERED_I2D, DROPPED, SCHEDULED,
                             ContentRequest)


def sim_rec(**over):
    rec = {"offloading_efficiency": 0.40, "energy_total_per_delivery": 0.04,
           "energy_d2d_per_delivery": 0.002, "mean_occupancy": 0.12,
           "deliveries_d2d": 40.0, "deliveries_i2d": 60.0, "repeated": 30.0,
           "dropped": 5.0, "requests_nonrepeated": 110, "open": 5,
           "occupancy_min": 0.0, "occupancy_max": 0.5,
           "pruned_links": 0, "failed_attempts": 3}
    rec.update(over)
    return rec


def analytic_rec(workload="corridor"):
    return {"law_mass": 1.0 + 4e-6,
            "energies": dict(checks.REFERENCE_ENERGIES[workload]),
            "surface": [0.7, 0.85, 0.92]}


@pytest.mark.parametrize("policy", ["optimal", "benchmark"])
def test_sound_simulation_passes(policy):
    assert checks.check_simulation(policy, sim_rec()) == []


def test_sound_cellular_passes():
    rec = sim_rec(offloading_efficiency=0.0, deliveries_d2d=0.0, deliveries_i2d=100.0)
    assert checks.check_simulation("cellular", rec) == []


@pytest.mark.parametrize("policy,over,needle", [
    ("optimal", {"open": 6}, "conservation"),
    ("benchmark", {"dropped": 4.0}, "conservation"),
    ("optimal", {"requests_nonrepeated": 0, "deliveries_d2d": 0.0,
                 "deliveries_i2d": 0.0, "dropped": 0.0, "open": 0}, "no requests"),
    ("benchmark", {"occupancy_max": 1.01}, "occupancy"),
    ("optimal", {"occupancy_min": -0.1}, "occupancy"),
    ("cellular", {"offloading_efficiency": 0.01}, "D2D deliveries"),
])
def test_corrupted_simulation_trips(policy, over, needle):
    rec = sim_rec(**over)
    if policy == "cellular":
        rec["deliveries_i2d"] -= 1.0   # one D2D delivery, conservation intact
        rec["deliveries_d2d"] = 1.0
        rec["offloading_efficiency"] = over["offloading_efficiency"]
    failures = checks.check_simulation(policy, rec)
    assert failures and any(needle in f for f in failures)


def settled(d2d, i2d, unsettled):
    return {"settled_d2d": d2d, "settled_i2d": i2d, "unsettled": unsettled}


# Pooled settled requests of optimal's engines in real runs at --seconds 16:
# 2500-3700 requests, of which none were still unsettled at the end;
# UNSETTLED_SHARE allows for a few.
N = 2500
UNSETTLED_SHARE = 0.01


@pytest.mark.parametrize("workload", ["corridor", "dense", "analytic"])
def test_offloading_near_the_analytic_value_passes(workload):
    target = 1.0 - checks.REFERENCE_ENERGIES[workload]["P_nonoffload"]
    un = round(UNSETTLED_SHARE * N)
    d2d = round(target * N)
    assert checks.check_offloading(settled(d2d, N - d2d - un, un), target) == []


@pytest.mark.parametrize("workload", ["corridor", "dense", "analytic"])
def test_policy_that_never_offloads_trips(workload):
    target = 1.0 - checks.REFERENCE_ENERGIES[workload]["P_nonoffload"]
    un = round(UNSETTLED_SHARE * N)
    failures = checks.check_offloading(settled(0, N - un, un), target)
    assert failures and "offloading efficiency" in failures[0]


@pytest.mark.parametrize("shift", [+1, -1])
def test_offloading_off_by_more_than_the_tolerance_trips(shift):
    target = 1.0 - checks.REFERENCE_ENERGIES["corridor"]["P_nonoffload"]
    tol = checks.offload_tolerance(N)
    un = round(UNSETTLED_SHARE * N)
    # the interval [d2d / N, (d2d + un) / N] just misses target -/+ tol
    d2d = (round((target + tol) * N) + 1 if shift > 0
           else round((target - tol) * N) - un - 1)
    failures = checks.check_offloading(settled(d2d, N - d2d - un, un), target)
    assert failures and "offloading efficiency" in failures[0]


def test_no_settled_requests_trips():
    assert checks.check_offloading(settled(0, 0, 0), 0.4)


def test_settled_counts_follow_snapshot_requests():
    """Counters at the settle tick plus the final state of each request
    still held then; requests arriving later are not counted."""
    reqs = [ContentRequest(i, 0, 0, 0.0, 20.0) for i in range(5)]
    metrics = types.SimpleNamespace(
        deliveries_d2d=7, deliveries_i2d=3, occupancy_samples=[0.1],
        requests_nonrepeated=20, pruned_links=0, failed_attempts=0,
        summary=lambda: {})
    eng = types.SimpleNamespace(metrics=metrics,
                                policy=types.SimpleNamespace(pending={r.id: r for r in reqs}))
    snap = checks.settle_snapshot(eng)
    for req, state in zip(reqs, [DELIVERED_D2D, DELIVERED_D2D, DELIVERED_I2D,
                                 DROPPED, SCHEDULED]):
        req.state = state
    late = ContentRequest(9, 0, 0, 50.0, 70.0, state=DELIVERED_D2D)
    eng.policy.pending = {4: reqs[4], 9: late}
    metrics.deliveries_d2d, metrics.deliveries_i2d = 10, 4
    rec = checks.sim_record(eng, snap)
    assert (rec["settled_d2d"], rec["settled_i2d"], rec["unsettled"]) == (9, 4, 1)
    assert checks.pooled_settled([rec, rec]) == settled(18, 8, 2)


def test_sound_analytic_passes():
    for workload in checks.REFERENCE_ENERGIES:
        assert checks.check_analytic(analytic_rec(workload), workload) == []


@pytest.mark.parametrize("corrupt,needle", [
    (lambda r: r.update(law_mass=1.0 + 2e-5), "mass"),
    (lambda r: r["energies"].update(E_D2D=r["energies"]["E_D2D"] * (1 + 1e-5)), "E_D2D"),
    (lambda r: r["energies"].pop("E_total"), "E_total"),
    (lambda r: r["energies"].update(P_nonoffload=float("nan")), "P_nonoffload"),
    (lambda r: r["surface"].append(1.2), "surface"),
])
def test_corrupted_analytic_trips(corrupt, needle):
    rec = copy.deepcopy(analytic_rec())
    corrupt(rec)
    failures = checks.check_analytic(rec, "corridor")
    assert failures and any(needle in f for f in failures)


def test_oracle_check():
    assert checks.check_oracle({"worst": 0.003, "law_mass": 1.0}) == []
    assert checks.check_oracle({"worst": 0.011, "law_mass": 1.0})
    assert checks.check_oracle({"worst": float("nan"), "law_mass": 1.0})
    assert checks.check_oracle({"worst": 0.003, "law_mass": 0.9999})


def test_determinism_and_count_checks():
    a = {"optimal": sim_rec(), "oracle#1": {"worst": 0.002, "law_mass": 1.0}}
    assert checks.check_determinism(a, copy.deepcopy(a)) == []
    b = copy.deepcopy(a)
    b["optimal"]["mean_occupancy"] += 1e-12
    assert checks.check_determinism(a, b)
    counters = {"rrrm.pruned": 0, "phy.harq_attempts": 103, "phy.harq_success": 100,
                "scenario.requests": 140}
    recs = [sim_rec(), sim_rec()]
    doubled = {k: 2 * v for k, v in counters.items()}
    assert checks.check_counts("optimal", recs, doubled) == []
    for key in counters:
        bad = dict(doubled)
        bad[key] += 1
        assert checks.check_counts("optimal", recs, bad)
