import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2doff import kernels, phy

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)


def reference_min_distance(x0, v, phi):
    """Scalar loop form of kernels.min_distance_samples."""
    out = np.empty(len(x0))
    for i in range(len(x0)):
        if v[i] != 0.0:
            tc = -x0[i] / v[i]
            if 0.0 <= tc <= phi[i]:
                out[i] = 0.0
                continue
            t = min(max(tc, 0.0), phi[i])
        else:
            t = 0.0
        out[i] = abs(x0[i] + v[i] * t)
    return out


def parent_min_distance_samples(x0, v, phi):
    """The numpy body min_distance_samples had before it shared
    closest_approach: clip the crossing time into [0, phi]."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_cross = np.where(v != 0.0, -x0 / v, 0.0)
    t_star = np.clip(t_cross, 0.0, phi)
    crossing = (v != 0.0) & (t_cross >= 0.0) & (t_cross <= phi)
    return np.where(crossing, 0.0, np.abs(x0 + v * t_star))


def parent_closest_approach(x0, v, phi):
    """The policies' own closest_approach before it moved into kernels."""
    if np.any(phi < 0.0):
        raise ValueError("phi must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_cross = np.where(v != 0.0, -x0 / v, np.inf)
    crossing = (t_cross >= 0.0) & (t_cross <= phi)
    d0 = np.abs(x0)
    d_end = np.abs(x0 + v * phi)
    distance = np.where(crossing, 0.0, np.minimum(d0, d_end))
    t_star = np.where(crossing, t_cross, np.where(d_end < d0, phi, 0.0))
    return t_star, distance


def _below_half_ulp(x0, frac, phi):
    """A triple whose step v * phi is under half an ulp of x0."""
    return x0, frac * 0.5 * math.ulp(x0) / phi, phi


_subnormal = st.integers(-(2 ** 52 - 1), 2 ** 52 - 1).map(lambda m: m * 5e-324)
_triple = st.one_of(
    st.tuples(st.one_of(finite, st.sampled_from([0.0, -0.0])),
              st.one_of(finite, st.sampled_from([0.0, -0.0]), _subnormal),
              st.one_of(st.just(0.0), st.floats(0.0, 1e4))),
    st.builds(_below_half_ulp, finite.filter(lambda x: x != 0.0),
              st.floats(-0.99, 0.99), st.floats(1e-3, 1e4)))


def reference_poisson_min_mixture(cdf, density, atom0, cdf_at_rmax, nbar, n_max):
    """Scalar loop form of one mixture of kernels.poisson_min_mixture."""
    w = [math.exp(k * math.log(nbar) - nbar - math.lgamma(k + 1.0))
         for k in range(1, n_max + 1)]
    total = sum(w)
    w = [x / total for x in w]
    s_rmax = 1.0 - cdf_at_rmax
    atom = 0.0
    coeff = []
    for i in range(n_max):
        k = i + 1.0
        denom = 1.0 - s_rmax ** k
        atom += w[i] * (1.0 - (1.0 - atom0) ** k) / denom
        coeff.append(w[i] * k / denom)
    dens = np.zeros(len(cdf))
    for j in range(len(cdf)):
        s = 1.0 - cdf[j]
        dens[j] = sum(c * s ** i for i, c in enumerate(coeff)) * density[j]
    return atom, dens


class TestMinDistance:
    def test_paths_agree(self, rng):
        n = 50_000
        x0 = rng.uniform(-500.0, 500.0, n)
        v = rng.uniform(-40.0, 40.0, n)
        v[rng.random(n) < 0.01] = 0.0
        phi = rng.uniform(0.0, 30.0, n)
        a = kernels.min_distance_samples(x0, v, phi)
        b = reference_min_distance(x0, v, phi)
        assert np.array_equal(a, b)

    def test_closed_form_cases(self):
        x0 = np.array([-100.0, 50.0, -100.0, 30.0])
        v = np.array([10.0, 10.0, 2.0, 0.0])
        phi = np.array([20.0, 20.0, 20.0, 20.0])
        out = kernels.min_distance_samples(x0, v, phi)
        assert np.array_equal(out, [0.0, 50.0, 60.0, 30.0])

    @given(x0=finite, v=finite, phi=st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, x0, v, phi):
        out = float(kernels.min_distance_samples(
            np.array([x0]), np.array([v]), np.array([phi]))[0])
        assert 0.0 <= out <= abs(x0)
        assert out <= abs(x0 + v * phi) + 1e-9 * max(1.0, abs(x0))

    @given(st.lists(_triple, min_size=1, max_size=20),
           st.one_of(finite, st.sampled_from([0.0, -0.0])))
    @settings(max_examples=300, deadline=None)
    def test_equals_both_parent_bodies(self, triples, x_still):
        # v = 0, subnormal v, x0 = 0, phi = 0 and steps too small to move x0
        x0, v, phi = (np.array(c) for c in zip(*triples))
        t_star, d = kernels.closest_approach(x0, v, phi)
        want_t, want_d = parent_closest_approach(x0, v, phi)
        assert np.array_equal(t_star, want_t)
        assert np.array_equal(d, want_d)
        assert np.array_equal(kernels.min_distance_samples(x0, v, phi),
                              parent_min_distance_samples(x0, v, phi))
        # v = 0 over an unbounded window never crosses: the gap stays, from
        # t = 0 on, silently (the parent closest_approach gave (inf, 0.0))
        x0, v, phi = np.append(x0, x_still), np.append(v, 0.0), np.append(phi, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_star, d = kernels.closest_approach(x0, v, phi)
            samples = kernels.min_distance_samples(x0, v, phi)
        assert np.array_equal(t_star, np.append(want_t, 0.0))
        assert np.array_equal(d, np.append(want_d, abs(x_still)))
        assert np.array_equal(samples, parent_min_distance_samples(x0, v, phi))

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            kernels.min_distance_samples(np.zeros(2), np.ones(2), np.array([5.0, -1.0]))

    def test_subnormal_speed_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kernels.min_distance_samples(
                np.array([-1e6, 1e6]), np.array([5e-324, -5e-324]),
                np.array([10.0, 10.0]))
        assert np.array_equal(out, [1e6, 1e6])


class TestCapacity:
    def _inputs(self, rng, n_blocks=60, k_sc=12):
        signal = rng.uniform(1e-16, 1e-12, n_blocks * k_sc)
        interference = rng.uniform(0.0, 1e-13, n_blocks * k_sc)
        slots = rng.integers(0, 3, n_blocks)
        return signal, interference, slots

    def test_rows_are_independent(self, rng):
        signal, interference, slots = (np.stack(a) for a in zip(
            *(self._inputs(rng) for _ in range(5))))
        rows = kernels.capacity_bits(signal, interference, 5.97e-16, slots,
                                     6.0, 15e3, 5e-4)
        assert rows.shape == (5,)
        assert rows.tolist() == [
            kernels.capacity_bits(s, i, 5.97e-16, w, 6.0, 15e3, 5e-4)
            for s, i, w in zip(signal, interference, slots)]

    def test_cap_binds(self):
        signal = np.array([1.0])
        out = kernels.capacity_bits(signal, np.zeros(1), 1e-16,
                                    np.ones(1), 6.0, 15e3, 5e-4)
        assert out == pytest.approx(6.0 * 15e3 * 5e-4, rel=1e-12)

    def test_interference_reduces_rate(self, rng):
        signal, _, slots = self._inputs(rng)
        clean = kernels.capacity_bits(signal, np.zeros_like(signal), 5.97e-16,
                                      slots, 6.0, 15e3, 5e-4)
        noisy = kernels.capacity_bits(signal, signal, 5.97e-16,
                                      slots, 6.0, 15e3, 5e-4)
        assert noisy < clean

    def test_bits_of_the_expression(self, rng):
        # formed in place, the rates keep every bit of the plain expression
        signal, interference, slots = (np.stack(a) for a in zip(
            *(self._inputs(rng) for _ in range(5))))
        got = kernels.capacity_bits(signal, interference, 5.97e-16, slots,
                                    6.0, 15e3, 5e-4)
        rate = np.minimum(6.0, np.log2(1.0 + signal / (5.97e-16 + interference)))
        block_rate = rate.reshape(*slots.shape, -1).sum(axis=-1)
        assert got.tobytes() == (5e-4 * 15e3 * np.sum(slots * block_rate, axis=-1)).tobytes()

    def test_arguments_are_not_written(self, rng):
        signal, interference, slots = (np.stack(a) for a in zip(
            *(self._inputs(rng) for _ in range(5))))
        before = signal.tobytes(), interference.tobytes()
        kernels.capacity_bits(signal, interference, 5.97e-16, slots, 6.0, 15e3, 5e-4)
        assert (signal.tobytes(), interference.tobytes()) == before
        # one array as both arguments, as test_interference_reduces_rate passes it
        kernels.capacity_bits(signal, signal, 5.97e-16, slots, 6.0, 15e3, 5e-4)
        assert signal.tobytes() == before[0]

    def test_block_sums_match_subcarrier_sum(self, rng):
        # slots of random partial PRB ranges over 60 blocks of 12 subcarriers
        n, n_blocks, k_sc = 200, 60, 12
        signal = rng.uniform(1e-16, 1e-12, (n, n_blocks * k_sc))
        interference = rng.uniform(0.0, 1e-13, (n, n_blocks * k_sc))
        start = rng.integers(0, 8000, n)
        slots = phy.slots_per_block(start, start + rng.integers(1, 400, n), n_blocks)
        got = kernels.capacity_bits(signal, interference, 5.97e-16, slots,
                                    6.0, 15e3, 5e-4)
        rate = np.minimum(6.0, np.log2(1.0 + signal / (5.97e-16 + interference)))
        weights = np.repeat(slots, k_sc, axis=1)
        np.testing.assert_allclose(got, 5e-4 * 15e3 * np.sum(weights * rate, axis=1),
                                   rtol=1e-12, atol=0.0)


class TestEinsumRowOrder:
    """``poisson_min_mixture`` sums rows with einsum on the premise that its
    own loop adds them in order, with the same products, as a sum over the
    leading axis does.  One node is left out:
    there einsum's loop is a dot product with partial sums of its own
    (numpy 2.4's bits differ from a few rows on), and no caller passes a
    one-node grid, as every grid holds 0 and a range cap above it."""

    @staticmethod
    def _tables(rows, nodes):
        # leading rows of larger tables, as each mixture reads its own rows
        rng = np.random.default_rng(1000 * rows + nodes)
        powers = (1.0 - rng.random(nodes))[None, :] ** np.arange(rows + 40.0)[:, None]
        return powers[:rows], rng.random(rows) * 50.0

    @pytest.mark.parametrize("nodes", [2, 5, 1001, 2118])
    @pytest.mark.parametrize("rows", [1, 2, 7, 108, 250])
    def test_weighted_rows_sum_like_a_row_sum(self, rows, nodes):
        P, c = self._tables(rows, nodes)
        assert np.array_equal(np.einsum("n,nk->k", c, P), np.sum(c[:, None] * P, axis=0))


class TestPoissonMixture:
    def _law(self, m=2000):
        grid = np.linspace(0.0, 100.0, m)
        density = np.full(m, 0.7 / 110.0)
        cdf = 0.2 + np.cumsum(density) * (grid[1] - grid[0])
        return cdf, density

    def test_paths_agree(self):
        cdf, density = self._law()
        nbars = [2.5, 0.4, 30.0]
        atoms, dens = kernels.poisson_min_mixture(cdf, density, 0.2, nbars)
        for nbar, a_atom, a_dens in zip(nbars, atoms, dens):
            n_max = math.ceil(nbar + 10.0 * math.sqrt(nbar) + 20.0)
            b_atom, b_dens = reference_poisson_min_mixture(cdf, density, 0.2,
                                                           cdf[-1], nbar, n_max)
            assert a_atom == pytest.approx(b_atom, rel=1e-12)
            assert np.allclose(a_dens, b_dens, rtol=1e-12)

    def test_single_provider_limit(self):
        # nbar -> 0 conditioned on >= 1 provider recovers the base law
        cdf, density = self._law()
        atoms, dens = kernels.poisson_min_mixture(cdf, density, 0.2, [1e-9])
        assert atoms[0] == pytest.approx(0.2 / cdf[-1], rel=1e-6)
        assert np.allclose(dens[0], density / cdf[-1], rtol=1e-6)

    def test_more_providers_more_zero_mass(self):
        cdf, density = self._law()
        (a, b), _ = kernels.poisson_min_mixture(cdf, density, 0.2, [0.5, 5.0])
        assert b > a

