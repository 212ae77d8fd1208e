"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with the measured quantities at the pinned tolerances."""

import dataclasses
import math
import os
import re
import time

import numpy as np
import pytest

from d2doff import analytic, engine, phy
from d2doff.analytic import AnalyticParams
from d2doff.config import Config, ScenarioConfig
from d2doff.speedlaw import UniformSpeedLaw

import speedlaw_reference as ref

DURATION = 600.0
WARMUP = 600.0
N_RUNS = 3


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _with_scenario(**kw) -> Config:
    cfg = Config()
    return dataclasses.replace(cfg,
                               scenario=dataclasses.replace(cfg.scenario, **kw))


def _jobs(points: dict) -> list:
    """{key: (cfg, policy, base_seed)} -> the N_RUNS jobs of each point,
    with seeds base_seed + i."""
    return [(cfg, policy, DURATION, WARMUP, base_seed + i)
            for cfg, policy, base_seed in points.values() for i in range(N_RUNS)]


def _summaries(points: dict, runs: list) -> dict:
    """{key: summary of the key's N_RUNS runs}, as simulate and sweep form it."""
    return {key: engine.summarize(runs[k * N_RUNS:(k + 1) * N_RUNS])
            for k, key in enumerate(points)}


# ---------------------------------------------------------------------------
# shared simulation campaigns (module scope: run once, used by 4-8)
# ---------------------------------------------------------------------------

TIMEOUTS = (20.0, 40.0, 60.0, 90.0, 120.0)


def _by_timeout(policy: str, timeouts) -> dict:
    """Summaries by timeout; all their runs go to one engine.run_many call."""
    points = {tc: (_with_scenario(content_timeout=tc), policy, 1000 + int(tc))
              for tc in timeouts}
    return _summaries(points, engine.run_many(_jobs(points)))


@pytest.fixture(scope="module")
def optimal_by_timeout():
    return _by_timeout("optimal", TIMEOUTS)


@pytest.fixture(scope="module")
def cellular_by_timeout():
    return _by_timeout("cellular", (20.0, 60.0))


@pytest.fixture(scope="module")
def benchmark_by_timeout():
    return _by_timeout("benchmark", (20.0, 60.0))


# Criterion 4's runs are five times as long as the others.  Over 600 s the
# pooled tail KS of five seed triples (base seeds 3000-3012) read
# 0.028-0.047, and 0.016-0.059 on an earlier random stream, so the 0.05
# bound sat inside its own seed-to-seed spread; over 3000 s it reads
# 0.017-0.029.
VALIDATION_DURATION = 3000.0


@pytest.fixture(scope="module")
def slow_traffic_runs():
    """The runs at 6-16 m/s, in one engine.run_many call: criterion 4's
    wide-range scenario, as its config and pooled D2D delivery distances,
    and criterion 8's summaries by policy.  The three long runs go first,
    so that the short ones fill the workers while the last long one ends."""
    wide = _with_scenario(speed_min=6.0, speed_max=16.0, d2d_max_range=180.0,
                          content_timeout=20.0)
    cfg = _with_scenario(speed_min=6.0, speed_max=16.0)
    points = {policy: (cfg, policy, 2000) for policy in ("optimal", "cellular")}
    runs = engine.run_many([(wide, "optimal", VALIDATION_DURATION, WARMUP, 3000 + i)
                            for i in range(N_RUNS)] + _jobs(points))
    distances = np.asarray([r for m in runs[:N_RUNS] for r in m.d2d_distances])
    return wide, distances, _summaries(points, runs[N_RUNS:])


# ---------------------------------------------------------------------------
# 1. single-provider minimum-distance law vs Monte-Carlo oracle
# ---------------------------------------------------------------------------

CRITERION_1_TUPLES = [
    (30.0, 9.5), (30.0, 24.0), (60.0, 13.0), (60.0, 21.0),
    (100.0, 9.5), (100.0, 17.0), (150.0, 13.0), (150.0, 24.0),
    (250.0, 17.0), (250.0, 21.0), (200.0, 9.5), (350.0, 17.0),
    (-30.0, 13.0), (-60.0, 24.0), (-80.0, 9.5), (-100.0, 21.0),
    (-150.0, 17.0), (-200.0, 13.0), (-250.0, 24.0), (-350.0, 9.5),
]


def test_criterion_1_distance_law_oracle(default_params, capsys):
    rng = np.random.default_rng(11)
    n = 1_000_000
    t_start = time.time()
    worst_ks, worst_atom = 0.0, 0.0
    for x0, v_a in CRITERION_1_TUPLES:
        law = analytic.single_provider_distance_law(x0, v_a, default_params)
        samples = analytic.sample_min_distances(x0, v_a, default_params, n, rng)
        worst_ks = max(worst_ks, law.ks_distance(samples))
        worst_atom = max(
            worst_atom,
            abs(law.atom_mass(0.0) - np.mean(samples <= 1e-12)),
            abs(law.atom_mass(abs(x0)) - np.mean(samples >= abs(x0) - 1e-12)))
    elapsed = time.time() - t_start
    ok = worst_ks < 0.01 and worst_atom < 0.005 and elapsed < 300.0
    _report(capsys, 1,
            ok, f"20 tuples x 1e6 samples: worst KS {worst_ks:.5f} (< 0.01), "
                f"worst atom error {worst_atom:.5f} (< 0.005), "
                f"{elapsed:.0f} s (< 300 s)")


# ---------------------------------------------------------------------------
# 2. displacement-based twin reproduces the direct law
# ---------------------------------------------------------------------------

def test_criterion_2_displacement_twin(default_params, capsys):
    worst = 0.0
    for x0, v_a in CRITERION_1_TUPLES:
        direct = analytic.single_provider_distance_law(x0, v_a, default_params)
        twin = ref.distance_law_from_displacement(
            x0, v_a, default_params, grid=direct.grid)
        worst = max(worst,
                    float(np.max(np.abs(twin.density - direct.density))))
        for loc, mass in direct.atoms:
            worst = max(worst, abs(twin.atom_mass(loc) - mass))
    ok = worst <= 1e-8
    _report(capsys, 2,
            ok, f"two independent constructions agree pointwise: "
                f"max |difference| {worst:.2e} (<= 1e-8)")


# ---------------------------------------------------------------------------
# 3. closed-form spot checks
# ---------------------------------------------------------------------------

def test_criterion_3_closed_forms(capsys):
    checks = []

    law = UniformSpeedLaw(9.0, 24.0)
    rho = law.stationary_density(1.0 / 3.0)
    rho_ref = (1.0 / 3.0) * math.log(24.0 / 9.0) / 15.0
    checks.append(("node density", abs(rho - rho_ref) <= 1e-9))

    # the oracle's windows, by the midpoint rule over 600 cells of u
    tl = analytic.time_limits((np.arange(600) + 0.5) / 600, 20.0, 600.0)
    mean_ref = 20.0 - 20.0 ** 2 / (2.0 * 600.0)
    checks.append(("time-limit mean", abs(np.mean(tl) - mean_ref) <= 1e-9))

    cfg = Config().phy
    checks.append(("PRBs per transfer", cfg.prbs_required == 8000))

    sigma2 = phy.subcarrier_noise_power(cfg)
    exact = True
    for kind in (phy.I2D, phy.D2D):
        margin = 10.0 ** (phy.link_margin_db(kind, cfg) / 10.0)
        for r in (1.0, 25.0, 60.0, 100.0, 180.0, 300.0):
            g = float(phy.nominal_gain(kind, np.array([r]), cfg)[0])
            p_c = phy.tx_power_per_subcarrier(g, phy.link_margin_db(kind, cfg),
                                              cfg)
            exact &= p_c == margin * (sigma2 / g) * (2.0 ** 6 - 1.0)
    checks.append(("power-control identity", exact))

    failed = [name for name, ok in checks if not ok]
    _report(capsys, 3, not failed,
            "node density, time-limit mean, PRB count, power identity all "
            "exact" if not failed else f"failed: {failed}")


# ---------------------------------------------------------------------------
# 4. simulated delivery distances vs the analytic law (slow, wide range)
# ---------------------------------------------------------------------------

def _tail_ks(law, samples: np.ndarray, cut: float) -> float:
    """KS of samples > cut against the law conditioned on (cut, inf);
    the conditional law is purely continuous there."""
    tail = np.sort(samples[samples > cut])
    f_cut = float(law.cdf(np.array([cut]))[0])
    cond = (law.cdf(tail) - f_cut) / (1.0 - f_cut)
    k = np.arange(1, tail.size + 1)
    return float(max(np.max(k / tail.size - cond),
                     np.max(cond - (k - 1) / tail.size)))


def test_criterion_4_simulated_distance_distribution(slow_traffic_runs, capsys):
    cfg, dists, _ = slow_traffic_runs
    params = AnalyticParams.from_config(cfg, with_energy=False)
    law = analytic.lane_aware_delivery_law(params)

    cut = 20.0
    sim_short = float(np.mean(dists <= cut))
    ana_short = law.total_atom_mass
    ks = _tail_ks(law, dists, cut)

    ok = ks < 0.05 and abs(sim_short - ana_short) < 0.1
    _report(capsys, 4,
            ok, f"{dists.size} deliveries: tail (r>20 m) KS {ks:.3f} (< 0.05), "
                f"short-range mass sim {sim_short:.3f} vs analytic "
                f"{ana_short:.3f} (diff < 0.1)")


# ---------------------------------------------------------------------------
# 5. total energy vs the cellular baseline
# ---------------------------------------------------------------------------

ENERGY_TIMEOUTS = (20.0, 60.0)


def _percent_below(summary, baseline, metric: str) -> float:
    """How far (%) a summary's mean of ``metric`` lies below the baseline's."""
    return 100.0 * (1.0 - summary.means[metric] / baseline.means[metric])


def _below_by_timeout(by_timeout, baseline_by_timeout, metric: str) -> list:
    return [_percent_below(by_timeout[tc], baseline_by_timeout[tc], metric)
            for tc in ENERGY_TIMEOUTS]


def test_criterion_5_total_energy_reduction(optimal_by_timeout, cellular_by_timeout,
                                            benchmark_by_timeout, capsys):
    metric = "energy_total_per_delivery"
    reds = _below_by_timeout(optimal_by_timeout, cellular_by_timeout, metric)
    vs_benchmark = _below_by_timeout(optimal_by_timeout, benchmark_by_timeout, metric)
    ok = all(red >= 25.0 for red in reds)
    # the paper's "up to 18 % below benchmark" is reported, not bounded
    _report(capsys, 5,
            ok, "total energy per delivery below cellular by "
                + ", ".join(f"timeout {tc:g} s: {red:.1f}%"
                            for tc, red in zip(ENERGY_TIMEOUTS, reds))
                + " (>= 25% required); below benchmark by "
                + ", ".join(f"{red:.1f}%" for red in vs_benchmark) + " (no bound)")


# ---------------------------------------------------------------------------
# 6. D2D energy vs the benchmark policy
# ---------------------------------------------------------------------------

def test_criterion_6_d2d_energy_reduction(optimal_by_timeout,
                                          benchmark_by_timeout, capsys):
    reds = _below_by_timeout(optimal_by_timeout, benchmark_by_timeout,
                             "energy_d2d_per_delivery")
    ok = all(red >= 70.0 for red in reds)
    _report(capsys, 6,
            ok, "D2D energy per delivery below benchmark by "
                + ", ".join(f"timeout {tc:g} s: {red:.1f}%"
                            for tc, red in zip(ENERGY_TIMEOUTS, reds))
                + " (>= 70% required)")


# ---------------------------------------------------------------------------
# 7. offloading efficiency grows with the content timeout
# ---------------------------------------------------------------------------

def test_criterion_7_efficiency_trend(optimal_by_timeout, capsys):
    means, his, los = [], [], []
    for tc in TIMEOUTS:
        m, lo, hi = optimal_by_timeout[tc].row("offloading_efficiency")
        means.append(m)
        los.append(lo)
        his.append(hi)
    ok = all(means[i + 1] >= means[i] or his[i + 1] >= los[i]
             for i in range(len(TIMEOUTS) - 1))
    detail = ", ".join(f"{tc:g}s: {m:.3f}" for tc, m in zip(TIMEOUTS, means))
    _report(capsys, 7,
            ok, f"efficiency over timeouts ({detail}) non-decreasing "
                f"within CI overlap")


# ---------------------------------------------------------------------------
# 8. spectrum occupancy at slow traffic
# ---------------------------------------------------------------------------

def test_criterion_8_spectrum_occupancy(slow_traffic_runs, capsys):
    _, _, by_policy = slow_traffic_runs
    cell = by_policy["cellular"].means["mean_occupancy"]
    opt = by_policy["optimal"].means["mean_occupancy"]
    rel = _percent_below(by_policy["optimal"], by_policy["cellular"], "mean_occupancy")
    ok = abs(cell - 0.26) <= 0.05 and rel >= 25.0
    _report(capsys, 8,
            ok, f"cellular occupancy {100 * cell:.1f}% (26% +/- 5 pts), "
                f"optimal {100 * opt:.1f}% = {rel:.1f}% below (>= 25%)")


# ---------------------------------------------------------------------------
# 9. determinism, conservation, normalization
# ---------------------------------------------------------------------------

def test_criterion_9_invariants(default_params, capsys):
    checks = []

    cfg = Config()
    # two processes at once: a run's bits do not depend on its process
    a, b = engine.run_many([(cfg, "optimal", 120.0, 120.0, 42)] * 2, workers=2)
    checks.append(("determinism", a.summary() == b.summary()
                   and a.d2d_distances == b.d2d_distances))

    eng = engine.run(cfg, "optimal", 240.0, 0.0, seed=43)
    m = eng.metrics
    open_reqs = sum(1 for r in eng.policy.pending.values() if not r.served)
    checks.append(("request conservation",
                   m.deliveries_d2d + m.deliveries_i2d + m.dropped + open_reqs
                   == m.requests_nonrepeated))

    laws = [analytic.lane_aware_delivery_law(default_params),
            analytic.unconditional_effective_distance_law(default_params)]
    laws.append(analytic.lane_offset_transform(
        laws[-1], default_params.lane_offset,
        default_params.same_lane_probability))
    for x0, v_a in CRITERION_1_TUPLES[::5]:
        laws.append(analytic.single_provider_distance_law(x0, v_a,
                                                          default_params))
    worst = max(abs(law.total_mass - 1.0) for law in laws)
    checks.append(("mixed-law normalization", worst <= 1e-5))

    failed = [name for name, ok in checks if not ok]
    _report(capsys, 9, not failed,
            "determinism, request conservation and normalization all hold "
            f"(worst |mass - 1| {worst:.2e} <= 1e-5)"
            if not failed else f"failed: {failed}")


# ---------------------------------------------------------------------------
# README's claims table prints what criteria 5, 6 and 8 measure
# ---------------------------------------------------------------------------

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
# a table row's gate column: its values, then "(criterion k, <bound>)"
CLAIM_ROW = re.compile(r"^\|[^|]*\|[^|]*\| ([^|(]*)\(criterion (\d),[^|]*\|$")


def test_readme_claims_table_is_the_gates_output(optimal_by_timeout, cellular_by_timeout,
                                                 benchmark_by_timeout, slow_traffic_runs):
    with open(README, encoding="utf-8") as f:
        rows = [m.groups() for m in map(CLAIM_ROW.match, f.read().splitlines()) if m]
    printed = [(int(k), re.findall(r"-?\d+\.\d", values.replace("−", "-")))
               for values, k in rows]
    total, d2d = "energy_total_per_delivery", "energy_d2d_per_delivery"
    by_policy = slow_traffic_runs[2]
    measured = [
        (5, _below_by_timeout(optimal_by_timeout, cellular_by_timeout, total)),
        (5, _below_by_timeout(optimal_by_timeout, benchmark_by_timeout, total)),
        (6, _below_by_timeout(optimal_by_timeout, benchmark_by_timeout, d2d)),
        (8, [_percent_below(by_policy["optimal"], by_policy["cellular"],
                            "mean_occupancy")]),
    ]
    assert printed == [(k, [f"{v:.1f}" for v in values]) for k, values in measured]
