import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from d2doff.speedlaw import UniformSpeedLaw, RelativeSpeedLaw, interval_primitives


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


class TestRelativeSpeedLaw:
    @pytest.fixture()
    def rel(self) -> RelativeSpeedLaw:
        return UniformSpeedLaw(9.0, 24.0).relative(17.0)

    def test_support(self, rel):
        assert rel.intervals == ((-41.0, -26.0), (-8.0, 7.0))

    def test_cdf_against_quadrature(self, rel):
        for u in (-50.0, -30.0, -26.0, -10.0, 0.0, 3.0, 7.0, 20.0):
            num = quad(lambda v: float(rel.pdf(v)), -60.0, min(u, 30.0),
                       points=rel.edges())
            assert rel.cdf(u) == pytest.approx(num, abs=1e-9)

    def test_int_inv_abs_below_oracle(self, rel):
        for u in (-30.0, -26.5, -10.0, -1.0, -0.01):
            num = quad(lambda v: float(rel.pdf(v)) / (-v), -60.0, u,
                       points=rel.edges())
            assert rel.int_inv_abs_below(u) == pytest.approx(num, rel=1e-8)

    def test_int_inv_abs_above_oracle(self, rel):
        for u in (0.01, 1.0, 5.0, 6.9):
            num = quad(lambda v: float(rel.pdf(v)) / v, u, 30.0,
                       points=rel.edges())
            assert rel.int_inv_abs_above(u) == pytest.approx(num, rel=1e-8)

    def test_int_abs_between_oracle(self, rel):
        for lo, hi in ((-41.0, 7.0), (-30.0, -27.0), (-5.0, 5.0), (0.0, 7.0)):
            num = quad(lambda v: float(rel.pdf(v)) * abs(v), lo, hi,
                       points=rel.edges() + [0.0])  # |v| kink at 0
            assert rel.int_abs_between(lo, hi) == pytest.approx(num, abs=1e-9)

    def test_inv_abs_diverges_at_zero(self, rel):
        with pytest.raises(ValueError):
            rel.int_inv_abs_below(0.0)
        with pytest.raises(ValueError):
            rel.int_inv_abs_above(0.0)

    def test_reflection(self, rel):
        refl = rel.reflected()
        for u in (-40.0, -7.0, 0.0, 3.0, 26.0):
            # P(-V <= u) = P(V >= -u); the law has no atoms
            assert refl.cdf(u) == pytest.approx(rel.mass_above(-u), abs=1e-12)
            assert refl.pdf(u) == rel.pdf(-u)

    def test_sampler_matches_cdf(self, rel, rng):
        s = np.sort(rel.sample(rng, 100_000))
        model = np.array([rel.cdf(v) for v in s])
        ecdf = np.arange(1, s.size + 1) / s.size
        assert np.max(np.abs(ecdf - model)) < 0.01


@settings(max_examples=50, deadline=None)
@given(v_min=st.floats(0.5, 20.0), width=st.floats(0.01, 30.0),
       v_a=st.floats(0.5, 40.0))
def test_relative_law_mass_property(v_min, width, v_a):
    rel = UniformSpeedLaw(v_min, v_min + width).relative(v_a)
    assert rel.cdf(1e9) == pytest.approx(1.0, abs=1e-9)
    assert rel.cdf(-1e9) == 0.0
    # monotone CDF
    us = np.linspace(-v_min - v_a - width - 1, v_min + width + 1, 41)
    vals = [rel.cdf(u) for u in us]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# Loop and per-interval forms of the speed-law integrals, as they were
# before RelativeSpeedLaw's methods took arrays: scalar methods and
# separate vectorized helpers.  The methods must reproduce both.

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
    k = draw(st.integers(1, 3))
    edges = sorted(draw(st.lists(st.floats(-60.0, 60.0), min_size=2 * k,
                                 max_size=2 * k, unique=True)))
    intervals = tuple((edges[2 * i], edges[2 * i + 1]) for i in range(k))
    return RelativeSpeedLaw(intervals=intervals, level=draw(st.floats(1e-3, 10.0)))


negative = st.floats(-100.0, -5e-324)  # no zero of either sign


def log_slack(rel, u):
    """Absolute tolerance for a sum of log differences: np.log and
    math.log may round a term one ulp apart, and the difference of two
    close logs cancels, so a relative bound alone cannot hold."""
    size = sum(abs(math.log(abs(x))) for x in (*rel.edges(), u) if x != 0.0)
    return 4.0 * np.finfo(float).eps * rel.level * size


@settings(max_examples=200, deadline=None)
@given(rel=piecewise_laws(), u=negative,
       us=st.lists(negative, min_size=1, max_size=20))
def test_array_integrals_match_references(rel, u, us):
    arr = np.array(us)
    for method, ref, ref_vec, x, xs in (
            (rel.cdf, reference_cdf, reference_cdf_vec, u, arr),
            (rel.cdf, reference_cdf, reference_cdf_vec, -u, -arr),
            (rel.int_inv_abs_below, reference_int_inv_abs_below,
             reference_g_neg_vec, u, arr),
            (rel.int_inv_abs_above, reference_int_inv_abs_above,
             reference_g_pos_vec, -u, -arr)):
        got = method(x)
        assert type(got) is float
        assert got == pytest.approx(ref(rel, x), rel=1e-15, abs=log_slack(rel, x))
        got = method(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        np.testing.assert_allclose(got, ref_vec(rel, xs), rtol=1e-15, atol=0.0)
    assert type(rel.mass_above(u)) is float
    assert rel.mass_above(u) == 1.0 - reference_cdf(rel, u)
    with pytest.raises(ValueError):
        rel.int_inv_abs_below(-u)
    with pytest.raises(ValueError):
        rel.int_inv_abs_below(np.append(arr, 0.0))
    with pytest.raises(ValueError):
        rel.int_inv_abs_above(u)
    with pytest.raises(ValueError):
        rel.int_inv_abs_above(np.append(-arr, 0.0))


@settings(max_examples=200, deadline=None)
@given(rel=piecewise_laws(), us=st.lists(negative, min_size=1, max_size=20))
def test_interval_primitives_carry_the_methods_bits(rel, us):
    # a block of two laws (rows x intervals x levels) against each law's
    # own methods
    laws = (rel, rel.reflected())
    lo = np.array([[[a] for a, _ in law.intervals] for law in laws])
    hi = np.array([[[b] for _, b in law.intervals] for law in laws])
    level = np.array([[[law.level]] for law in laws])
    u = np.array(us)
    cdf, inv, absv = interval_primitives(lo, hi, level, u)
    for row, law in enumerate(laws):
        assert np.array_equal(cdf[row], law.cdf(u))
        assert np.array_equal(inv[row], law.int_inv_abs_below(u))
        assert absv[row].tolist() == [law.int_abs_between(x, 0.0) for x in us]
