"""Span arithmetic, wrapper installation and the determinism self-check."""

import types

import numpy as np
import pytest

import checks
import tracer as tr
import workloads


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds g [15, 25]) and b [50, 90]
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    parent = np.array([-1, 0, 1, 0])
    assert tr.self_times(start, end, parent).tolist() == [30, 20, 10, 40]
    assert tr.roots(parent).tolist() == [0, 0, 0, 0]
    assert tr.roots(np.array([-1, 0, -1, 2, 3])).tolist() == [0, 0, 2, 2, 2]


def _toy():
    ns = types.SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return ns.leaf(x) + ns.leaf(x)

    ns.leaf, ns.outer = leaf, outer
    return ns


def test_wrappers_nest_and_self_times_add_up():
    ns = _toy()
    tracer = tr.Tracer()
    tracer.set_phase("p")
    targets = [(ns, "outer", "engine.outer", None), (ns, "leaf", "phy.leaf", None)]
    with tr.Instrumentation(tracer, targets):
        assert ns.outer(1) == 4
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == ["engine.outer", "phy.leaf", "phy.leaf"]
    assert a["parent"].tolist() == [-1, 0, 0]
    own = tr.self_times(a["start"], a["end"], a["parent"])
    assert own.sum() == a["end"][0] - a["start"][0]
    assert (own >= 0).all()


def test_wrappers_restored_even_when_the_body_raises():
    ns = _toy()
    originals = (ns.outer, ns.leaf)
    with pytest.raises(RuntimeError):
        with tr.Instrumentation(tr.Tracer(), [(ns, "outer", "engine.outer", None),
                                              (ns, "leaf", "phy.leaf", None)]):
            assert ns.outer is not originals[0]
            raise RuntimeError("boom")
    assert (ns.outer, ns.leaf) == originals


def test_paced_time_scales_with_the_reference_loop(monkeypatch):
    monkeypatch.setattr(workloads, "pace", lambda: 2.0 * workloads.PACE_NOMINAL_S)
    assert workloads.paced(1.0) == pytest.approx(0.5)


@pytest.fixture(scope="module")
def short_runs():
    """One untraced and two traced runs of a minimal corridor session."""
    wl = workloads.WORKLOADS["corridor"]
    plain = workloads.run(workloads.setup(wl, 5), 0.1)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tr.targets()]
    traced = []
    for _ in range(2):
        tracer = tr.Tracer()
        with tr.Instrumentation(tracer):
            res = workloads.run(workloads.setup(wl, 5, tracer=tracer), 0.1, tracer=tracer)
        traced.append((tracer, res))
    return plain, traced, originals


def test_wrappers_restored_after_traced_run(short_runs):
    _, _, originals = short_runs
    assert originals
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"


def test_traced_run_reproduces_untraced_run(short_runs):
    plain, traced, _ = short_runs
    assert plain.failed == 0, plain.failures
    for tracer, res in traced:
        assert checks.check_determinism(plain.records, res.records) == []
        table = tr.SpanTable(tracer)
        for policy in workloads.POLICIES:
            counters = tr.policy_counters(tracer, table, policy)
            recs = [r for name, r in res.records.items() if name.startswith(policy + "#")]
            assert checks.check_counts(policy, recs, counters) == []


def test_traced_call_counts_repeat(short_runs):
    _, traced, _ = short_runs
    (t1, _), (t2, _) = traced
    assert t1.counters == t2.counters
    calls = []
    for tracer in (t1, t2):
        table = tr.SpanTable(tracer)
        calls.append({(p, n): table.calls(p, n) for p in tracer.phases for n in tracer.names})
    assert calls[0] == calls[1]


def test_layer_self_times_sum_to_tick_time(short_runs):
    _, traced, _ = short_runs
    tracer, res = traced[0]
    table = tr.SpanTable(tracer)
    metrics = tr.layer_metrics(tracer, table, workloads.POLICIES,
                               res.plan.analytic_reps, res.plan.oracle_reps)
    assert tr.layer_sum_failures(table, workloads.POLICIES) == []
    for policy in workloads.POLICIES:
        assert metrics[f"phy.harq_attempts.{policy}"] > 0
        assert 0.0 < metrics[f"engine.tick_self_share.{policy}"] < 1.0
    assert metrics["analytic.law_builds"] == 2
    assert metrics["analytic.surface_points"] == 12
