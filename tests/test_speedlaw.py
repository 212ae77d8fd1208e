import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from d2doff import analytic, cli
from d2doff.config import Config
from d2doff.speedlaw import UniformSpeedLaw, RelativeSpeedLaw

import speedlaw_reference as ref
from test_acceptance import CRITERION_1_TUPLES


def quad(fn, lo, hi, points=()):
    pts = [p for p in points if lo < p < hi]
    val, _ = integrate.quad(fn, lo, hi, limit=400, points=pts or None)
    return val


class TestUniformSpeedLaw:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformSpeedLaw(0.0, 10.0)
        with pytest.raises(ValueError):
            UniformSpeedLaw(10.0, 9.0)

    def test_level(self):
        law = UniformSpeedLaw(9.0, 24.0)
        assert law.density_level == pytest.approx(1.0 / 30.0)

    def test_length_biased_magnitudes(self, rng):
        law = UniformSpeedLaw(9.0, 24.0)
        s = law.sample_length_biased_magnitude(rng, 200_000)
        # stationary density ∝ 1/v: mean = (vmax - vmin) / ln(vmax/vmin)
        expected = 15.0 / math.log(24.0 / 9.0)
        assert np.mean(s) == pytest.approx(expected, rel=0.01)


def block_of(*laws) -> RelativeSpeedLaw:
    """A block with one row per scalar reference law (equal interval counts)."""
    return RelativeSpeedLaw(lo=np.array([[a for a, _ in law.intervals] for law in laws]),
                            hi=np.array([[b for _, b in law.intervals] for law in laws]),
                            level=np.array([law.level for law in laws]))


def scalar_pdf(rel):
    """The density of a one-row law as a function of a scalar speed."""
    return lambda v: rel.pdf(v).item()


class TestRelativeSpeedLaw:
    @pytest.fixture()
    def rel(self) -> RelativeSpeedLaw:
        return UniformSpeedLaw(9.0, 24.0).relative(17.0)

    def test_support(self, rel):
        assert rel.lo.tolist() == [[-41.0, -8.0]]
        assert rel.hi.tolist() == [[-26.0, 7.0]]
        assert rel.level.tolist() == [1.0 / 30.0]

    def test_cdf_against_quadrature(self, rel):
        for u in (-50.0, -30.0, -26.0, -10.0, 0.0, 3.0, 7.0, 20.0):
            num = quad(scalar_pdf(rel), -60.0, min(u, 30.0), points=rel.edges())
            assert rel.cdf(u).item() == pytest.approx(num, abs=1e-9)

    def test_int_inv_abs_below_oracle(self, rel):
        pdf = scalar_pdf(rel)
        for u in (-30.0, -26.5, -10.0, -1.0, -0.01):
            num = quad(lambda v: pdf(v) / (-v), -60.0, u, points=rel.edges())
            assert rel.int_inv_abs_below(u).item() == pytest.approx(num, rel=1e-8)

    def test_int_inv_abs_above_oracle(self, rel):
        # the integral of pdf(v)/v above u is the reflected law's below -u
        pdf = scalar_pdf(rel)
        for u in (0.01, 1.0, 5.0, 6.9):
            num = quad(lambda v: pdf(v) / v, u, 30.0, points=rel.edges())
            assert rel.reflected().int_inv_abs_below(-u).item() == pytest.approx(num, rel=1e-8)

    def test_int_abs_between_oracle(self, rel):
        # the integral of pdf(v)|v| over [u, 0]
        pdf = scalar_pdf(rel)
        for u in (-50.0, -41.0, -30.0, -27.0, -5.0, -0.5):
            num = quad(lambda v: pdf(v) * abs(v), u, 0.0, points=rel.edges())
            assert rel.int_abs_to_zero(u).item() == pytest.approx(num, abs=1e-9)
        assert rel.int_abs_to_zero(np.array([0.0, 3.0])).tolist() == [[0.0, 0.0]]

    def test_inv_abs_diverges_at_zero(self, rel):
        with pytest.raises(ValueError):
            rel.int_inv_abs_below(0.0)
        with pytest.raises(ValueError):
            rel.int_inv_abs_below(np.array([[-1.0, 0.0]]))
        with pytest.raises(ValueError):
            rel.reflected().int_inv_abs_below(-0.0)

    def test_reflection(self, rel):
        refl = rel.reflected()
        for u in (-40.0, -7.0, 0.0, 3.0, 26.0):
            # P(-V <= u) = P(V >= -u); the law has no atoms
            assert refl.cdf(u).item() == pytest.approx(1.0 - rel.cdf(-u).item(), abs=1e-12)
            assert refl.pdf(u) == rel.pdf(-u)

    def test_sampler_matches_cdf(self, rel, rng):
        s = np.sort(rel.speeds(rng.random(100_000), rng.random(100_000)))
        model = rel.cdf(s)[0]
        ecdf = np.arange(1, s.size + 1) / s.size
        assert np.max(np.abs(ecdf - model)) < 0.01

    # the check Generator.choice made on the interval probabilities
    @pytest.mark.parametrize("hi,level", [
        ([[2.0, 4.0]], 1.0),  # the second interval runs backwards: mass -1
        ([[2.0, 8.0]], math.nan),
    ], ids=["negative", "nan"])
    def test_speeds_reject_a_bad_interval_mass(self, hi, level):
        law = RelativeSpeedLaw(lo=np.array([[0.0, 5.0]]), hi=np.array(hi),
                               level=np.array([level]))
        with pytest.raises(ValueError):
            law.speeds(np.array([0.5]), np.array([0.5]))

    def test_one_row_per_requester_speed(self):
        law = UniformSpeedLaw(9.0, 24.0)
        va = np.array([9.0, 13.25, 24.0])
        assert ref.laws_of(law.relative(va)) == [ref.relative(law, v) for v in va]
        assert ref.laws_of(law.relative(17.0)) == [ref.relative(law, 17.0)]


@settings(max_examples=50, deadline=None)
@given(v_min=st.floats(0.5, 20.0), width=st.floats(0.01, 30.0),
       v_a=st.floats(0.5, 40.0))
def test_relative_law_mass_property(v_min, width, v_a):
    rel = UniformSpeedLaw(v_min, v_min + width).relative(v_a)
    assert rel.cdf(1e9).item() == pytest.approx(1.0, abs=1e-9)
    assert rel.cdf(-1e9).item() == 0.0
    # monotone CDF
    us = np.linspace(-v_min - v_a - width - 1, v_min + width + 1, 41)
    vals = rel.cdf(us)[0]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# Loop and per-interval forms of the speed-law integrals, as they were
# before the speed-law methods took arrays: scalar methods and separate
# vectorized helpers.  The methods must reproduce both.

def reference_cdf(rel, u):
    total = 0.0
    for a, b in rel.intervals:
        total += rel.level * max(0.0, min(u, b) - a)
    return total


def reference_int_inv_abs_below(rel, u):
    if u >= 0.0:
        raise ValueError("int_inv_abs_below requires u < 0")
    total = 0.0
    for a, b in rel.intervals:
        hi = min(b, u)
        if hi > a:
            total += rel.level * (math.log(-a) - math.log(-hi))
    return total


def reference_int_inv_abs_above(rel, u):
    if u <= 0.0:
        raise ValueError("int_inv_abs_above requires u > 0")
    total = 0.0
    for a, b in rel.intervals:
        lo = max(a, u)
        if b > lo:
            total += rel.level * (math.log(b) - math.log(lo))
    return total


def reference_cdf_vec(rel, u):
    out = np.zeros_like(u)
    for a, b in rel.intervals:
        out += rel.level * np.clip(np.minimum(u, b) - a, 0.0, None)
    return out


def reference_g_neg_vec(rel, u):
    out = np.zeros_like(u)
    for a, b in rel.intervals:
        hi = np.minimum(b, u)
        mask = hi > a
        if np.any(mask):
            out[mask] += rel.level * (math.log(-a) - np.log(-hi[mask]))
    return out


def reference_g_pos_vec(rel, u):
    out = np.zeros_like(u)
    for a, b in rel.intervals:
        lo = np.maximum(a, u)
        mask = b > lo
        if np.any(mask):
            out[mask] += rel.level * (math.log(b) - np.log(lo[mask]))
    return out


@st.composite
def piecewise_laws(draw):
    """Scalar reference laws of 1-3 intervals, each of total mass 1, as a
    ``RelativeSpeedLaw`` row must be.  The total width stays far from the
    subnormals, so that the level is finite and the intervals' masses do
    not all round to 0."""
    k = draw(st.integers(1, 3))
    edges = sorted(draw(st.lists(st.floats(-60.0, 60.0), min_size=2 * k,
                                 max_size=2 * k, unique=True)))
    intervals = tuple((edges[2 * i], edges[2 * i + 1]) for i in range(k))
    width = sum(hi - lo for lo, hi in intervals)
    assume(width >= 1e-9)
    return ref.ScalarSpeedLaw(intervals=intervals, level=1.0 / width)


negative = st.floats(-100.0, -5e-324)  # no zero of either sign


def log_slack(rel, u):
    """Absolute tolerance for a sum of log differences: np.log and
    math.log may round a term one ulp apart, and the difference of two
    close logs cancels, so a relative bound alone cannot hold."""
    size = sum(abs(math.log(abs(x))) for x in (*rel.edges(), u) if x != 0.0)
    return 4.0 * np.finfo(float).eps * rel.level * size


@settings(max_examples=200, deadline=None)
@given(law=piecewise_laws(), u=negative,
       us=st.lists(negative, min_size=1, max_size=20))
def test_array_integrals_match_references(law, u, us):
    arr = np.array(us)
    rel = block_of(law)
    refl = rel.reflected()
    for method, ref_one, ref_vec, x, xs in (
            (rel.cdf, reference_cdf, reference_cdf_vec, u, arr),
            (rel.cdf, reference_cdf, reference_cdf_vec, -u, -arr),
            (rel.int_inv_abs_below, reference_int_inv_abs_below,
             reference_g_neg_vec, u, arr),
            (lambda v: refl.int_inv_abs_below(-v), reference_int_inv_abs_above,
             reference_g_pos_vec, -u, -arr)):
        got = method(x)
        assert got.shape == (1, 1)
        assert got.item() == pytest.approx(ref_one(law, x), rel=1e-15,
                                           abs=log_slack(law, x))
        got = method(xs)
        assert got.shape == (1, xs.size)
        np.testing.assert_allclose(got[0], ref_vec(law, xs), rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        rel.int_inv_abs_below(-u)
    with pytest.raises(ValueError):
        rel.int_inv_abs_below(np.append(arr, 0.0))


@settings(max_examples=200, deadline=None)
@given(law=piecewise_laws(), us=st.lists(negative, min_size=1, max_size=20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_methods_carry_the_parent_bits(law, us, seed):
    # a block of a law and its reflection (rows x levels) against each
    # law's scalar methods
    laws = (law, law.reflected())
    block = block_of(*laws)
    assert ref.laws_of(block.reflected()) == [r.reflected() for r in laws]
    u = np.array(us)
    both = np.concatenate([u, -u])
    cdf, pdf = block.cdf(both), block.pdf(both)
    inv, absv = block.int_inv_abs_below(u), block.int_abs_to_zero(u)
    above = block.reflected().int_inv_abs_below(u)
    for row, scalar in enumerate(laws):
        assert np.array_equal(cdf[row], scalar.cdf(both))
        assert np.array_equal(pdf[row], scalar.pdf(both))
        assert np.array_equal(inv[row], scalar.int_inv_abs_below(u))
        assert absv[row].tolist() == [scalar.int_abs_between(x, 0.0) for x in us]
        # the sum runs over the intervals in reverse order
        np.testing.assert_allclose(above[row], scalar.int_inv_abs_above(-u),
                                   rtol=1e-15, atol=0.0)
        one = block_of(scalar)
        assert one.edges() == scalar.edges()
        draws = np.random.default_rng(seed)
        assert np.array_equal(one.speeds(draws.random(50), draws.random(50)),
                              scalar.sample(np.random.default_rng(seed), 50))


@settings(max_examples=100, deadline=None)
@given(v_min=st.floats(0.5, 20.0), width=st.floats(0.01, 30.0),
       v_a=st.floats(0.5, 40.0), us=st.lists(st.floats(5e-324, 100.0), min_size=1,
                                             max_size=20))
def test_reflection_carries_the_integral_above_of_relative_laws(v_min, width, v_a, us):
    speed_law = UniformSpeedLaw(v_min, v_min + width)
    u = np.array(us)
    got = speed_law.relative(v_a).reflected().int_inv_abs_below(-u)[0]
    assert np.array_equal(got, ref.relative(speed_law, v_a).int_inv_abs_above(u))


# criterion 1's tuples and the 15 of ``d2doff validate`` at the defaults
_sc = Config().scenario
VALIDATE_SPEEDS = (_sc.speed_min + 0.5, 0.5 * (_sc.speed_min + _sc.speed_max), _sc.speed_max)
SINGLE_PROVIDER_TUPLES = sorted(
    set(CRITERION_1_TUPLES) | {(x0, v) for x0 in cli.DEFAULT_TUPLES_X0
                               for v in VALIDATE_SPEEDS})


def assert_same_law(got, want):
    assert repr(got.atoms) == repr(want.atoms)
    assert np.array_equal(got.grid, want.grid)
    assert np.array_equal(got.density, want.density)


@pytest.mark.parametrize("x0,v_a", SINGLE_PROVIDER_TUPLES)
def test_single_provider_laws_keep_their_bits(default_params, x0, v_a):
    assert_same_law(analytic.single_provider_distance_law(x0, v_a, default_params),
                    ref.single_provider_distance_law(x0, v_a, default_params))
