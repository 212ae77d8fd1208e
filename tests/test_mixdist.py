from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2doff import mixdist
from d2doff.mixdist import SAMPLE_BLOCK, MixedDistribution, refined_grid
from test_oracle_blocks import reference_ks


class TestMixedDistribution:
    def test_pure_atom(self):
        law = MixedDistribution(atoms=[(0.0, 1.0)])
        assert law.total_mass == 1.0

    def test_mixed_mass(self):
        grid = np.linspace(0.0, 2.0, 2001)
        law = MixedDistribution(atoms=[(0.0, 0.5)], grid=grid,
                                density=np.full(grid.size, 0.25))
        assert law.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_cdf_steps_at_atoms(self):
        law = MixedDistribution(atoms=[(1.0, 0.3), (2.0, 0.7)])
        assert law.cdf(0.5)[0] == 0.0
        assert law.cdf(1.0)[0] == pytest.approx(0.3)
        assert law.cdf(1.5)[0] == pytest.approx(0.3)
        assert law.cdf(2.0)[0] == pytest.approx(1.0)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            MixedDistribution(grid=np.array([0.0, 1.0]),
                              density=np.array([0.1, -0.2]))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            MixedDistribution(grid=np.array([1.0, 0.0]),
                              density=np.array([0.1, 0.1]))

    def test_ks_mixed_detects_mismatch(self, rng):
        grid = np.linspace(0.0, 1.0, 101)
        law = MixedDistribution(atoms=[(0.0, 0.5)], grid=grid,
                                density=np.full(101, 0.5))
        good = np.where(rng.random(50_000) < 0.5, 0.0, rng.random(50_000))
        assert law.ks_distance(good) < 0.02
        bad = rng.random(50_000)  # missing the atom entirely
        assert law.ks_distance(bad) > 0.4

    def test_ks_atom_tolerance_keeps_its_bits(self):
        # a sample within 1e-9 of an atom sits at the atom; ks_distance must
        # give the bits of the np.isclose(rtol=0, atol=1e-9) form it replaced
        grid = np.linspace(0.0, 4.0, 401)
        law = MixedDistribution(atoms=[(0.0, 0.1), (2.0, 0.5)], grid=grid,
                                density=np.full(401, 0.1))

        def reference_ks(samples):
            samples = np.sort(samples)
            right = law.cdf(samples)
            left = right.copy()
            for loc, mass in law.atoms:
                left -= np.where(np.isclose(samples, loc, rtol=0.0, atol=1e-9),
                                 mass, 0.0)
            n = samples.size
            return float(max(np.max(np.arange(1, n + 1) / n - right),
                             np.max(left - np.arange(0, n) / n), 0.0))

        offsets = [-1.1e-9, -0.9e-9, 0.9e-9, 1.1e-9]
        cases = [np.array([loc + off]) for loc in (0.0, 2.0) for off in offsets]
        cases.append(np.array([loc + off for loc in (0.0, 2.0) for off in offsets]))
        for samples in cases:
            assert law.ks_distance(samples) == reference_ks(samples)
        # the tolerance is seen: just inside and just outside it differ
        assert law.ks_distance(np.array([2.0 + 0.9e-9])) != law.ks_distance(
            np.array([2.0 + 1.1e-9]))

        # several blocks: a run at each atom with samples just inside and
        # just outside the tolerance on both sides, the block edge moved
        # through each cluster
        rng = np.random.default_rng(7)
        cluster = np.array([-1.1e-9, -0.9e-9, 0.0, 0.0, 0.0, 0.0, 0.9e-9, 1.1e-9])
        for shift in range(-cluster.size, 1):
            samples = np.concatenate([
                rng.uniform(-1.0, -0.01, SAMPLE_BLOCK + shift), cluster,
                rng.uniform(0.01, 1.99, SAMPLE_BLOCK - cluster.size), 2.0 + cluster,
                rng.uniform(2.01, 4.0, SAMPLE_BLOCK + 3)])
            samples = rng.permutation(samples)
            assert law.ks_distance(samples) == reference_ks(samples)


class TestKsRuns:
    """``ks_distance`` scores each run of equal samples once; it must give
    the bits of the whole-array scan over every sample."""

    GRID = np.linspace(0.0, 4.0, 401)
    MIXED = MixedDistribution(atoms=[(0.0, 0.3), (2.0, 0.2)], grid=GRID,
                              density=np.full(401, 0.125))

    def check(self, law, samples):
        assert law.ks_distance(samples) == reference_ks(law, samples)

    def test_all_equal_across_three_blocks(self):
        for value in (0.0, 1.5, 2.0, 5.0):
            self.check(self.MIXED, np.full(3 * SAMPLE_BLOCK - 5, value))

    @pytest.mark.parametrize("last", [SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1])
    def test_atom_run_ending_at_a_block_edge(self, rng, last):
        # sorted: a run at atom 0 whose last index is `last`, then distinct
        # samples, a run at atom 2 and a run past the grid
        for at_two in (1, 2 * SAMPLE_BLOCK + 7):
            samples = np.concatenate([
                np.zeros(last + 1), rng.uniform(0.01, 1.99, SAMPLE_BLOCK),
                np.full(at_two, 2.0), rng.uniform(2.01, 4.0, 300), np.full(9, 4.5)])
            self.check(self.MIXED, samples)
            self.check(self.MIXED, rng.permutation(samples))

    def test_all_distinct(self, rng):
        samples = rng.uniform(-0.5, 4.5, 2 * SAMPLE_BLOCK + 11)
        assert np.unique(samples).size == samples.size
        self.check(self.MIXED, samples)

    def test_atoms_only_law(self, rng):
        law = MixedDistribution(atoms=[(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)])
        assert law.grid.size == 0
        samples = rng.choice([0.0, 1.0, 1.0 + 5e-10, 2.0, 3.0], 3 * SAMPLE_BLOCK + 1)
        self.check(law, samples)
        self.check(law, rng.uniform(-1.0, 4.0, SAMPLE_BLOCK + 2))

    def test_law_with_no_atoms(self, rng):
        law = MixedDistribution(grid=self.GRID, density=np.full(401, 0.25))
        samples = np.concatenate([rng.uniform(0.0, 4.0, SAMPLE_BLOCK),
                                  np.full(SAMPLE_BLOCK + 3, 1.0)])
        self.check(law, samples)

    def test_one_sample(self):
        for x in (-1.0, 0.0, 1e-9, 1.0, 2.0, 2.0 - 1.1e-9, 4.0, 9.0):
            self.check(self.MIXED, np.array([x]))

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.integers(0, 5), min_size=1, max_size=40),
           block=st.integers(1, 6))
    def test_runs_on_tiny_blocks(self, picks, block):
        # few distinct values and blocks of a few samples: every run start
        # and end meets every block edge
        values = np.array([-1.0, 0.0, 0.5, 2.0, 2.0 + 1e-9, 3.0])
        with mock.patch.object(mixdist, "SAMPLE_BLOCK", block):
            self.check(self.MIXED, values[picks])


class TestRefinedGrid:
    def test_plain(self):
        g = refined_grid(0.0, 10.0, 1.0)
        assert g[0] == 0.0 and g[-1] == 10.0
        assert np.all(np.diff(g) > 0)

    def test_includes_extra_nodes(self):
        g = refined_grid(0.0, 10.0, 1.0, extra=[3.3, 7.7])
        assert 3.3 in g and 7.7 in g

    def test_refinement_clusters(self):
        g = refined_grid(0.0, 10.0, 1.0, refine_near=[5.0])
        near = g[np.abs(g - 5.0) < 0.5]
        assert near.size > 10  # geometric halving toward the point

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            refined_grid(1.0, 1.0, 0.1)

    @settings(max_examples=50, deadline=None)
    @given(lo=st.floats(-5.0, 5.0), width=st.floats(0.1, 100.0),
           step=st.floats(0.01, 5.0), p=st.floats(0.0, 1.0))
    def test_always_strictly_increasing(self, lo, width, step, p):
        point = lo + p * width
        g = refined_grid(lo, lo + width, step, extra=[point],
                         refine_near=[point])
        assert np.all(np.diff(g) > 0)
        assert g[0] >= lo - 1e-12 and g[-1] <= lo + width + 1e-12
