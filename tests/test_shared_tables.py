"""Tables formed once and shared, against the forms that build them on
every call.

The zero-distance surface forms each speed range's lane field (its
content bins and lane rows) once; a ``RelativeSpeedLaw`` keeps its table
of log(-lo) and its approaching block; ``zipf_pmf`` is cached.  The
reference functions below are the per-call forms these replaced, and
every shared table must give the same bits."""

import dataclasses
import math
import types

import numpy as np
import pytest

from d2doff import analytic, speedlaw
from d2doff.analytic import AnalyticParams
from d2doff.config import Config
from d2doff.popularity import zipf_cdf, zipf_pmf
from d2doff.speedlaw import RelativeSpeedLaw, UniformSpeedLaw

SPEED_RANGES = [(9.0, 24.0), (5.0, 30.0)]
TIMEOUTS = [7.0, 20.0, 60.0, 120.0]
CAPS = [80.0, 100.0, 120.0, 140.0, 8.0]  # 8 m lies below the 10 m lane offset


def reference_int_inv_abs_below(rel, u):
    """``int_inv_abs_below`` with math.log of each interval's lower end
    taken on every call."""
    total = 0.0
    for a, b, c in rel._intervals():
        log_a = np.array([[math.log(-x) if x < 0.0 else math.nan] for x in a[:, 0]])
        below = np.minimum(u, b)
        total = total + np.where(below > a, c * (log_a - np.log(-below)), 0.0)
    return total


def reference_zero_atoms(params, same_lane):
    """One lane's zero atoms at the params' cap and timeout, from rows and
    half-widths built for them alone."""
    edges, w_speed = analytic._holder_speed_bins(params)
    va, _ = analytic._speed_grid(params, length_biased=True)
    rows, speed = analytic._lane_rows(edges, va, same_lane)
    X = params.d2d_max_range + speed * params.content_timeout
    atom0 = analytic._position_marginal(rows, X, np.zeros(1), params)[0]
    m = w_speed * 2.0 * X.reshape(va.size, -1)
    return (m * atom0.reshape(m.shape)).sum(axis=1)


def fresh(rel):
    """A copy of a law that shares none of its cached tables."""
    return RelativeSpeedLaw(lo=rel.lo.copy(), hi=rel.hi.copy(), level=rel.level.copy())


@pytest.fixture(scope="module")
def params():
    return AnalyticParams.from_config(Config(), with_energy=False)


# ---------------------------------------------------------------------------
# the surface
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lane_offset", [0.0, 10.0])
def test_surface_equals_each_point_built_alone(params, lane_offset):
    p0 = dataclasses.replace(params, lane_offset=lane_offset)
    got = analytic.short_range_probability_surface(p0, TIMEOUTS, SPEED_RANGES, CAPS, dr=0.5)
    want = np.empty_like(got)
    for i, rmax in enumerate(CAPS):
        for j, tc in enumerate(TIMEOUTS):
            for k, (vmin, vmax) in enumerate(SPEED_RANGES):
                p = dataclasses.replace(p0, speed_law=UniformSpeedLaw(vmin, vmax),
                                        content_timeout=tc, d2d_max_range=rmax, dr=0.5)
                want[i, j, k] = analytic.short_range_probability(p)
    assert np.array_equal(got, want)
    # the two ranges differ, so a table shared across them would show
    assert not np.array_equal(got[..., 0], got[..., 1])


def test_surface_forms_one_lane_field_per_speed_range(params, monkeypatch):
    calls = []
    lane_field = analytic._lane_field

    def counted(p):
        calls.append(p.speed_law)
        return lane_field(p)

    monkeypatch.setattr(analytic, "_lane_field", counted)
    surface = analytic.short_range_probability_surface(params, TIMEOUTS[:3], SPEED_RANGES,
                                                       CAPS[:4], dr=0.5)
    assert surface.shape == (4, 3, 2)
    assert calls == [UniformSpeedLaw(vmin, vmax) for vmin, vmax in SPEED_RANGES]


@pytest.mark.parametrize("lane_offset", [0.0, 10.0])
@pytest.mark.parametrize("rmax", [100.0, 8.0])
def test_crossing_mass_forms_its_own_field_as_a_given_one(params, lane_offset, rmax):
    p = dataclasses.replace(params, lane_offset=lane_offset, d2d_max_range=rmax, dr=0.5)
    got = analytic.short_range_probability(p)
    assert got == analytic.short_range_probability(p, analytic._lane_field(p))
    assert 0.0 < got < 1.0


@pytest.mark.parametrize("vmin, vmax", SPEED_RANGES)
def test_shared_lane_rows_give_each_points_zero_atoms(params, vmin, vmax):
    # one speed range's tables, read at every point in turn, against rows
    # built for each point alone
    p0 = dataclasses.replace(params, speed_law=UniformSpeedLaw(vmin, vmax))
    _, _, w_speed, va, _, lanes = analytic._lane_field(p0)
    edges, _ = analytic._holder_speed_bins(p0)
    for rmax in CAPS:
        for tc in TIMEOUTS:
            p = dataclasses.replace(p0, content_timeout=tc, d2d_max_range=rmax)
            for same_lane, (rows, speed) in zip((True, False), lanes):
                want_rows, want_speed = analytic._lane_rows(edges, va, same_lane)
                assert np.array_equal(speed, want_speed)
                assert np.array_equal(rows.lo, want_rows.lo)
                assert np.array_equal(rows.hi, want_rows.hi)
                assert np.array_equal(rows.level, want_rows.level)
                assert np.array_equal(analytic._zero_atoms(w_speed, rows, speed, p),
                                      reference_zero_atoms(p, same_lane))


# ---------------------------------------------------------------------------
# the speed law's own tables
# ---------------------------------------------------------------------------

def law_blocks():
    speed_law = UniformSpeedLaw(9.0, 24.0)
    rel = speed_law.relative(np.linspace(9.0, 24.0, 31))
    # log(40.4) and log(1.05) differ in the last bit between numpy and
    # libm; the second interval's lower end 0.5 is not below 0 (nan)
    hand = RelativeSpeedLaw(lo=np.array([[-40.4, 0.5], [-73.72, -1.05]]),
                            hi=np.array([[-1.05, 2.0], [-40.4, 3.0]]),
                            level=np.array([0.02, 0.01]))
    return {"relative": rel, "reflected": rel.reflected(), "hand": hand,
            "hand reflected": hand.reflected()}


@pytest.mark.parametrize("name", list(law_blocks()))
def test_int_inv_abs_below_keeps_the_per_call_log_bits(name):
    rel = law_blocks()[name]
    u = -np.concatenate([np.geomspace(1e-3, 80.0, 57), [1.05, 40.4, 73.72]])
    assert np.array_equal(rel.int_inv_abs_below(u), reference_int_inv_abs_below(fresh(rel), u))
    # one row of levels per law
    rows =-np.abs(np.random.default_rng(5).normal(10.0, 8.0, (rel.lo.shape[0], 9))) - 1e-6
    assert np.array_equal(rel.int_inv_abs_below(rows),
                          reference_int_inv_abs_below(fresh(rel), rows))


def test_log_table_is_formed_once_per_law(monkeypatch):
    calls = []

    def log(x):
        calls.append(x)
        return math.log(x)

    monkeypatch.setattr(speedlaw, "math", types.SimpleNamespace(log=log, nan=math.nan))
    rel = law_blocks()["hand"]
    below = int(np.sum(rel.lo < 0.0))
    u = np.array([-50.0, -2.0, -0.5])
    first = rel.int_inv_abs_below(u)
    assert len(calls) == below == 3
    assert np.array_equal(rel.int_inv_abs_below(u), first)
    rel.int_inv_abs_below(u[:1])
    assert len(calls) == below
    # another object of the same arrays forms its own
    fresh(rel).int_inv_abs_below(u)
    assert len(calls) == 2 * below


def reference_approaching(rel):
    """The approaching block as ``_position_marginal`` formed it per call."""
    refl = rel.reflected()
    lo, hi = np.stack([rel.lo, refl.lo]), np.stack([rel.hi, refl.hi])
    pair = np.any(lo < 0.0, axis=2)
    at = np.nonzero(pair)[1]
    return pair, at, RelativeSpeedLaw(lo=lo[pair], hi=hi[pair], level=rel.level[at])


@pytest.mark.parametrize("name", list(law_blocks()))
def test_approaching_block_is_formed_once(name):
    rel = law_blocks()[name]
    pair, at, sides = rel.approaching
    want_pair, want_at, want_sides = reference_approaching(rel)
    assert np.array_equal(pair, want_pair) and np.array_equal(at, want_at)
    for got, want in ((sides.lo, want_sides.lo), (sides.hi, want_sides.hi),
                      (sides.level, want_sides.level)):
        assert np.array_equal(got, want)
    assert rel.approaching[2] is sides


def test_position_marginal_reads_a_shared_law_as_a_fresh_one(params):
    # one law object read at two half-widths and grids in turn, as the
    # surface reads its lane rows, against fresh copies
    edges, _ = analytic._holder_speed_bins(params)
    va, _ = analytic._speed_grid(params, length_biased=True)
    rows, speed = analytic._lane_rows(edges, va, same_lane=False)
    for rmax, tc, grid in ((100.0, 20.0, np.zeros(1)), (80.0, 7.0, np.linspace(0.0, 80.0, 9)),
                           (100.0, 20.0, np.zeros(1))):
        X = rmax + speed * tc
        p = dataclasses.replace(params, content_timeout=tc, d2d_max_range=rmax)
        got = analytic._position_marginal(rows, X, grid, p)
        want = analytic._position_marginal(fresh(rows), X, grid, p)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# popularity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, size", [(1.1, 10_000), (0.8, 100), (1.1, 1)])
def test_zipf_pmf_is_one_read_only_array(alpha, size):
    pmf = zipf_pmf(alpha, size)
    assert zipf_pmf(alpha, size) is pmf
    assert not pmf.flags.writeable
    with pytest.raises(ValueError):
        pmf[0] = 0.5
    weights = np.arange(1, size + 1, dtype=float) ** (-alpha)
    assert np.array_equal(pmf, weights / weights.sum())
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    assert np.array_equal(zipf_cdf(alpha, size), cdf)
